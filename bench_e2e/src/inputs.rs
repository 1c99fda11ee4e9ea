//! Seeded input generation for the four workloads, plus the FNV-64
//! digest that proves two runs consumed identical inputs.
//!
//! Every generator is a pure function of `(workload, seed, scale)`: the
//! simulator and the bench-side choices (start positions, planted
//! displacements) draw from seeds derived with SplitMix64. The program
//! under test only ever sees the generated jobs.
//!
//! Each workload keeps a *pool* of client rounds. A round is the input of
//! one client call (`Engine::run` or `Engine::run_streams`); the closed
//! loop cycles through the pool so the accuracy median is taken over many
//! independent traces while every call stays the same size.

use std::f64::consts::TAU;

use lion_bench::rig;
use lion_core::{LocalizerConfig, PairStrategy};
use lion_engine::{Job, StreamJob};
use lion_geom::{CircularArc, LineSegment, Path, Point3, ThreeLineScan, Vec3};
use lion_obs::DoctorConfig;
use lion_sim::{Antenna, NoiseModel, SampleSource, ScenarioBuilder, Tag};
use lion_stream::{Cadence, ResolveMode, StreamConfig, StreamRead};

/// The four workloads, each a closed loop with one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 13b: 64 tag-start localizations per call, half 2D, half 3D.
    BatchFig13,
    /// Phase-center calibration of one antenna per call.
    CalibSweep,
    /// Rotating tag: long in-order streams re-solved incrementally.
    StreamTurntable,
    /// Conveyor portals: short reordered, lossy passes with the obs plane on.
    StreamPortal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchFig13,
        Workload::CalibSweep,
        Workload::StreamTurntable,
        Workload::StreamPortal,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFig13 => "batch_fig13",
            Workload::CalibSweep => "calib_sweep",
            Workload::StreamTurntable => "stream_turntable",
            Workload::StreamPortal => "stream_portal",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a call runs `Engine::run_streams` (else `Engine::run`).
    pub fn is_stream(self) -> bool {
        matches!(self, Workload::StreamTurntable | Workload::StreamPortal)
    }

    /// Sanity ceiling on `error_p50_mm`: a median above it means the
    /// estimates are wrong, not slow.
    pub fn error_ceiling_mm(self) -> f64 {
        match self {
            Workload::BatchFig13 => 20.0,
            Workload::CalibSweep => 15.0,
            Workload::StreamTurntable => 20.0,
            Workload::StreamPortal => 30.0,
        }
    }
}

/// Input size: the benchmark proper, or a reduced shape for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` declares.
    Full,
    /// Few, short rounds: the same code paths in well under a second.
    Tiny,
}

/// What one estimate should have found: the simulator's planted phase
/// center, in the frame the estimate is reported in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    /// The planted point.
    pub point: Point3,
    /// Compare in the xy-plane only (2D solves report the tag height as z).
    pub planar: bool,
}

impl Truth {
    /// Distance from `estimate` to the planted point, in millimetres.
    pub fn error_mm(&self, estimate: Point3) -> f64 {
        let d = estimate - self.point;
        let dz = if self.planar { 0.0 } else { d.z };
        (d.x * d.x + d.y * d.y + dz * dz).sqrt() * 1e3
    }
}

/// One workload's generated pool.
#[derive(Debug, Clone)]
pub enum Rounds {
    /// Batch rounds for `Engine::run`.
    Jobs(Vec<Vec<Job>>),
    /// Stream rounds for `Engine::run_streams`.
    Streams(Vec<Vec<StreamJob>>),
}

impl Rounds {
    /// Rounds in the pool.
    pub fn len(&self) -> usize {
        match self {
            Rounds::Jobs(r) => r.len(),
            Rounds::Streams(r) => r.len(),
        }
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a run consumes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The client rounds.
    pub rounds: Rounds,
    /// Per round, per job or stream: the planted truth.
    pub truths: Vec<Vec<Truth>>,
    /// FNV-64 over every generated value.
    pub digest: u64,
}

/// Generates the pool for `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let mut rng = SplitMix::new(seed ^ workload_salt(workload));
    let (rounds, truths) = match workload {
        Workload::BatchFig13 => batch_fig13(&mut rng, scale),
        Workload::CalibSweep => calib_sweep(&mut rng, scale),
        Workload::StreamTurntable => stream_turntable(&mut rng, scale),
        Workload::StreamPortal => stream_portal(&mut rng, scale),
    };
    let digest = digest(&rounds, &truths);
    Inputs {
        rounds,
        truths,
        digest,
    }
}

fn workload_salt(workload: Workload) -> u64 {
    Fnv::new().text(workload.name()).finish()
}

/// The tag-start frame of paper Fig. 13: known trajectory shape, positions
/// relative to the unknown start `p0`.
fn relative_to(trace: &lion_sim::PhaseTrace, p0: Point3) -> Vec<(Point3, f64)> {
    let offset = p0 - Point3::ORIGIN;
    trace
        .samples()
        .iter()
        .map(|s| (s.position - offset, s.phase))
        .collect()
}

/// Fig. 13b: one 2D 0.6 m line and one 3D two-line serpentine per pair of
/// jobs, each from a random tag start. The truth is the rig antenna's
/// planted phase center seen from that start.
fn batch_fig13(rng: &mut SplitMix, scale: Scale) -> (Rounds, Vec<Vec<Truth>>) {
    let (pool, per_round) = match scale {
        Scale::Full => (16, 64),
        Scale::Tiny => (2, 4),
    };
    let antenna_2d = rig::paper_antenna(Point3::new(0.0, 0.8, 0.0));
    let antenna_3d = rig::paper_antenna(Point3::new(0.0, 0.8, 0.1));
    let mut scenario_2d = rig::paper_scenario(antenna_2d.clone(), rng.next_u64());
    let mut scenario_3d = rig::paper_scenario(antenna_3d.clone(), rng.next_u64());
    let config_2d = rig::paper_localizer_config(Point3::new(0.3, 0.8, 0.0));
    let config_3d = rig::paper_localizer_config(Point3::new(0.3, 0.8, 0.1));
    let mut rounds = Vec::with_capacity(pool);
    let mut truths = Vec::with_capacity(pool);
    for _ in 0..pool {
        let mut jobs = Vec::with_capacity(per_round);
        let mut round_truths = Vec::with_capacity(per_round);
        for j in 0..per_round {
            let p0 = Point3::new(rng.range(-0.35, 0.05), 0.0, 0.0);
            let line =
                LineSegment::new(p0, Point3::new(p0.x + 0.6, p0.y, p0.z)).expect("valid line");
            if j % 2 == 0 {
                let trace = scenario_2d
                    .scan(&line, rig::TAG_SPEED, rig::READ_RATE)
                    .expect("valid scan");
                jobs.push(Job::locate_2d(relative_to(&trace, p0), config_2d.clone()));
                round_truths.push(Truth {
                    point: antenna_2d.phase_center() - (p0 - Point3::ORIGIN),
                    planar: true,
                });
            } else {
                let back = LineSegment::new(
                    Point3::new(p0.x + 0.6, p0.y - 0.2, p0.z),
                    Point3::new(p0.x, p0.y - 0.2, p0.z),
                )
                .expect("valid line");
                let mut path = Path::new();
                path.push_line(line)
                    .connect_to(back.start())
                    .push_line(back);
                let trace = scenario_3d
                    .scan(&path, rig::TAG_SPEED, rig::READ_RATE)
                    .expect("valid scan");
                jobs.push(Job::locate_3d(relative_to(&trace, p0), config_3d.clone()));
                round_truths.push(Truth {
                    point: antenna_3d.phase_center() - (p0 - Point3::ORIGIN),
                    planar: false,
                });
            }
        }
        rounds.push(jobs);
        truths.push(round_truths);
    }
    (Rounds::Jobs(rounds), truths)
}

/// An antenna with a seeded hidden phase-center displacement of 1.5–3 cm
/// (paper Sec. II-A measures 2–3 cm) and a random hardware offset.
fn displaced_antenna(rng: &mut SplitMix, position: Point3, planar: bool) -> Antenna {
    let magnitude = rng.range(0.015, 0.03);
    let azimuth = rng.range(0.0, TAU);
    let elevation = if planar { 0.0 } else { rng.range(-0.6, 0.6) };
    Antenna::builder(position)
        .phase_center_displacement(
            magnitude * elevation.cos() * azimuth.cos(),
            magnitude * elevation.cos() * azimuth.sin(),
            magnitude * elevation.sin(),
        )
        .phase_offset(rng.range(0.0, TAU))
        .boresight(Vec3::new(0.0, -1.0, 0.0))
        .build()
}

/// Antennas in one install, 1.2 m apart.
const INSTALL: usize = 8;

/// Calibration, one antenna per call, of installs of `INSTALL` antennas:
/// each antenna gets the paper's three-line scan (Fig. 11) in front of
/// it, `StructuredScan` pairs, and the default adaptive sweep.
fn calib_sweep(rng: &mut SplitMix, scale: Scale) -> (Rounds, Vec<Vec<Truth>>) {
    let (pool, per_round) = match scale {
        Scale::Full => (1024, 1),
        Scale::Tiny => (2, 1),
    };
    let mut rounds = Vec::with_capacity(pool);
    let mut truths = Vec::with_capacity(pool);
    for r in 0..pool {
        let mut jobs = Vec::with_capacity(per_round);
        let mut round_truths = Vec::with_capacity(per_round);
        for a in 0..per_round {
            let x = 1.2 * ((r * per_round + a) % INSTALL) as f64;
            let antenna = displaced_antenna(rng, Point3::new(x, 0.8, 0.1), false);
            let physical = antenna.physical_center();
            let truth = antenna.phase_center();
            let scan = ThreeLineScan::new(x - 0.4, x + 0.4, 0.2, 0.2).expect("valid scan");
            let trace = rig::paper_scenario(antenna, rng.next_u64())
                .scan(&scan.to_path(), rig::TAG_SPEED, rig::READ_RATE)
                .expect("valid scan");
            let config = LocalizerConfig {
                pair_strategy: PairStrategy::StructuredScan {
                    scan,
                    x_interval: 0.2,
                    tolerance: 0.003,
                },
                ..rig::paper_localizer_config(physical)
            };
            jobs.push(Job::calibrate(trace.to_measurements(), config, physical));
            round_truths.push(Truth {
                point: truth,
                planar: false,
            });
        }
        rounds.push(jobs);
        truths.push(round_truths);
    }
    (Rounds::Jobs(rounds), truths)
}

/// Turntable radius (m). The pair interval equals it: a 60° chord, well
/// inside the circle's 2r diameter.
const TURNTABLE_RADIUS: f64 = 0.2;
/// Rim speed (m/s): 251 reads per revolution at 100 Hz, so the default
/// 256-read window always holds a full revolution.
const TURNTABLE_SPEED: f64 = 0.5;

/// Paper Sec. V-F2 rotating tag: long, in-order, lossless streams past
/// one antenna each, re-solved incrementally.
fn stream_turntable(rng: &mut SplitMix, scale: Scale) -> (Rounds, Vec<Vec<Truth>>) {
    let (pool, per_round, revolutions) = match scale {
        Scale::Full => (16, 8, 12.0),
        Scale::Tiny => (1, 2, 3.0),
    };
    let mut rounds = Vec::with_capacity(pool);
    let mut truths = Vec::with_capacity(pool);
    for _ in 0..pool {
        let mut jobs = Vec::with_capacity(per_round);
        let mut round_truths = Vec::with_capacity(per_round);
        for _ in 0..per_round {
            let antenna = displaced_antenna(rng, Point3::new(0.0, 0.8, 0.0), true);
            let physical = antenna.physical_center();
            let truth = antenna.phase_center();
            let start = rng.range(0.0, TAU);
            let track = CircularArc::new(
                Point3::ORIGIN,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                TURNTABLE_RADIUS,
                start,
                revolutions * TAU,
            )
            .expect("valid arc");
            let trace = rig::paper_scenario(antenna, rng.next_u64())
                .scan(&track, TURNTABLE_SPEED, rig::READ_RATE)
                .expect("valid scan");
            let localizer = LocalizerConfig {
                pair_strategy: PairStrategy::Interval {
                    interval: TURNTABLE_RADIUS,
                },
                ..rig::paper_localizer_config(physical)
            };
            // Half a revolution before the first solve: every solve then
            // has pairs spanning both axes, so none fails.
            let config = StreamConfig::builder()
                .localizer(localizer)
                .min_window_len(128)
                .resolve_mode(ResolveMode::Incremental)
                .build()
                .expect("valid stream config");
            let reads = trace.samples().iter().map(StreamRead::from).collect();
            jobs.push(StreamJob::new(reads, config));
            round_truths.push(Truth {
                point: truth,
                planar: true,
            });
        }
        rounds.push(jobs);
        truths.push(round_truths);
    }
    (Rounds::Streams(rounds), truths)
}

/// Portals on the conveyor line; passes are labelled over them.
const PORTALS: usize = 32;
/// Reads in the window before a portal stream's first solve: about
/// 0.25 m of belt, past the 0.2 m pair interval, so no solve lacks pairs.
const PORTAL_MIN_WINDOW: usize = 120;

/// RF-CHORD-style dock portals, mirroring `examples/conveyor_stream.rs`:
/// a tag rides ±0.45 m past each portal antenna at 0.25 m/s, read at
/// 120 Hz, delivered up to 6 positions out of order with 10% loss.
/// Portals 9–11 of every 12 run starved ingress queues (bursts of 100
/// into 25 slots). Every stream carries a `Doctor`.
fn stream_portal(rng: &mut SplitMix, scale: Scale) -> (Rounds, Vec<Vec<Truth>>) {
    let (pool, per_round) = match scale {
        Scale::Full => (8, 64),
        Scale::Tiny => (1, 12),
    };
    let mut rounds = Vec::with_capacity(pool);
    let mut truths = Vec::with_capacity(pool);
    for _ in 0..pool {
        let mut jobs = Vec::with_capacity(per_round);
        let mut round_truths = Vec::with_capacity(per_round);
        for pass in 0..per_round {
            let portal = pass % PORTALS;
            let x = 0.6 * portal as f64;
            let antenna = displaced_antenna(rng, Point3::new(x, 0.8, 0.0), true);
            let physical = antenna.physical_center();
            let truth = antenna.phase_center();
            let track = LineSegment::along_x(x - 0.45, x + 0.45, 0.0, 0.0).expect("valid line");
            let trace = ScenarioBuilder::new()
                .antenna(antenna)
                .tag(Tag::new("E51-portal"))
                .noise(NoiseModel::paper_default())
                .seed(rng.next_u64())
                .build()
                .expect("antenna and tag are set")
                .scan(&track, 0.25, 120.0)
                .expect("valid scan");
            let delivery = rng.next_u64();
            let reads = SampleSource::replay(&trace)
                .with_shuffle(6, delivery)
                .with_drop_probability(0.10, delivery)
                .map(StreamRead::from)
                .collect();
            let config = StreamConfig::builder()
                .localizer(rig::paper_localizer_config(physical))
                .window_capacity(320)
                .min_window_len(PORTAL_MIN_WINDOW)
                .cadence(Cadence::EveryReads(25))
                .label(format!("portal-{portal}"))
                .build()
                .expect("valid stream config");
            let mut job = StreamJob::new(reads, config).with_doctor(DoctorConfig::default());
            if portal % 12 >= 9 {
                job = job.with_burst(100).with_queue_capacity(25);
            }
            jobs.push(job);
            round_truths.push(Truth {
                point: truth,
                planar: true,
            });
        }
        rounds.push(jobs);
        truths.push(round_truths);
    }
    (Rounds::Streams(rounds), truths)
}

fn digest(rounds: &Rounds, truths: &[Vec<Truth>]) -> u64 {
    let mut h = Fnv::new();
    match rounds {
        Rounds::Jobs(rounds) => {
            for job in rounds.iter().flatten() {
                h = h.text(&format!("{:?}|{:?}", job.kind, job.config));
                for &(p, phase) in &job.measurements {
                    h = h.point(p).f64(phase);
                }
            }
        }
        Rounds::Streams(rounds) => {
            for job in rounds.iter().flatten() {
                h = h.text(&format!(
                    "{}|{}|{}|{:?}|{:?}",
                    job.burst, job.queue_capacity, job.flush_at_end, job.doctor, job.config
                ));
                for read in &job.reads {
                    h = h.f64(read.time).point(read.position).f64(read.phase);
                }
            }
        }
    }
    for truth in truths.iter().flatten() {
        h = h.point(truth.point).u64(u64::from(truth.planar));
    }
    h.finish()
}

/// SplitMix64: the bench's own seed stream (start positions,
/// displacements, and the seeds handed to the simulator).
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// A stream starting at `seed`.
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in raw bytes.
    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    /// Folds in a `u64` (little-endian).
    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in an `f64` by its bit pattern.
    fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Folds in a point's three coordinates.
    fn point(self, p: Point3) -> Self {
        self.f64(p.x).f64(p.y).f64(p.z)
    }

    /// Folds in UTF-8 text.
    fn text(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// The digest.
    fn finish(self) -> u64 {
        self.0
    }
}
