//! Streaming ⇔ batch parity: a streaming solve on a static window must be
//! **bit-identical** to the batch solver on the same reads — under
//! in-order delivery AND under shuffled arrival (the window re-sorts by
//! timestamp, so the batch reference is the timestamp-sorted trace).
//!
//! Also pins the O(window) memory guarantee on a 1M-sample stream, and
//! the incremental-resolve oracle: a pipeline in
//! [`ResolveMode::Incremental`] must agree with the replay pipeline
//! **exactly** on every tick that fell back to replay (those ticks run
//! the replay code path) and within a documented 1e-6 on delta ticks
//! (frozen frame, continued unwrap chain — see DESIGN.md §14), under
//! in-order, shuffled and shed arrival — with the replay/delta pattern
//! identical on any worker count. Both parity tiers hold for the paper's
//! weighted estimator and for plain least squares.

use lion::prelude::*;
use lion::stream::Space;
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// A noisy-free circular scan read stream with strictly increasing
/// timestamps (distinct timestamps make the sorted order unambiguous).
fn circle_reads(antenna: Point3, n: usize) -> Vec<StreamRead> {
    (0..n)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            StreamRead {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA) % TAU,
                ..StreamRead::default()
            }
        })
        .collect()
}

/// Pseudo-shuffle with a fixed permutation: deterministic, displaces
/// every element, and depends on no external RNG.
fn shuffled<T: Clone>(items: &[T]) -> Vec<T> {
    let n = items.len();
    let mut out: Vec<T> = items.to_vec();
    // A fixed LCG-driven Fisher–Yates: reproducible across runs.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

/// Batch reference: the timestamp-sorted reads through the plain batch
/// entry point.
fn batch_reference(reads: &[StreamRead], config: &LocalizerConfig) -> Estimate {
    let mut sorted: Vec<&StreamRead> = reads.iter().collect();
    sorted.sort_by(|a, b| a.time.total_cmp(&b.time));
    let measurements: Vec<(Point3, f64)> = sorted.iter().map(|r| (r.position, r.phase)).collect();
    Localizer::new(config.clone(), SolveSpace::TwoD)
        .locate(&measurements)
        .expect("batch reference solves")
}

fn stream_estimate(reads: &[StreamRead], config: StreamConfig) -> StreamEstimate {
    let mut stream = StreamLocalizer::new(config).expect("valid config");
    for &read in reads {
        // Cadence never fires (EveryReads(usize::MAX)); only the final
        // flush solves, on exactly the full window.
        let emitted = stream.push(read).expect("no cadence solve");
        assert!(emitted.is_none());
    }
    stream
        .flush()
        .expect("flush solves")
        .expect("window non-empty")
}

fn parity_config(window: usize) -> StreamConfig {
    StreamConfig::builder()
        .window_capacity(window)
        .min_window_len(24)
        .cadence(Cadence::EveryReads(usize::MAX))
        .build()
        .expect("valid")
}

#[test]
fn in_order_streaming_is_bit_identical_to_batch() {
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let reads = circle_reads(antenna, 200);
    let config = parity_config(200);
    let batch = batch_reference(&reads, &config.localizer);
    let streamed = stream_estimate(&reads, config);
    // Bit-identical: == on f64, no tolerance.
    assert_eq!(streamed.position, batch.position);
    assert_eq!(streamed.d_r, batch.reference_distance);
    assert_eq!(streamed.mean_residual, batch.mean_residual);
    assert_eq!(streamed.batch.weighted_rms, batch.weighted_rms);
    assert_eq!(streamed.batch.iterations, batch.iterations);
    assert_eq!(streamed.window_len, 200);
}

#[test]
fn shuffled_arrival_is_bit_identical_to_sorted_batch() {
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let reads = circle_reads(antenna, 200);
    let config = parity_config(200);
    let batch = batch_reference(&reads, &config.localizer);
    let arrival = shuffled(&reads);
    assert_ne!(
        arrival.iter().map(|r| r.time).collect::<Vec<_>>(),
        reads.iter().map(|r| r.time).collect::<Vec<_>>(),
        "shuffle must actually reorder"
    );
    let streamed = stream_estimate(&arrival, config);
    assert_eq!(streamed.position, batch.position);
    assert_eq!(streamed.d_r, batch.reference_distance);
    assert_eq!(streamed.mean_residual, batch.mean_residual);
}

#[test]
fn sample_source_shuffle_preserves_parity() {
    // The same property through the simulator's out-of-order adapter.
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let reads = circle_reads(antenna, 150);
    let samples: Vec<lion::sim::PhaseSample> = reads
        .iter()
        .map(|r| lion::sim::PhaseSample {
            time: r.time,
            position: r.position,
            phase: r.phase,
            rssi_dbm: r.rssi_dbm,
            frequency_hz: r.frequency_hz,
        })
        .collect();
    let trace = PhaseTrace::new(samples, LAMBDA);
    let config = parity_config(150);
    let batch = batch_reference(&reads, &config.localizer);
    let source = SampleSource::replay(&trace).with_shuffle(8, 42);
    let arrival: Vec<StreamRead> = source.map(StreamRead::from).collect();
    let streamed = stream_estimate(&arrival, config);
    assert_eq!(streamed.position, batch.position);
    assert_eq!(streamed.d_r, batch.reference_distance);
}

/// The estimators every parity test below runs: the paper's weighted
/// least squares and plain least squares, which solve through the same
/// route (uniform-weight IRLS on the normal equations).
fn weightings() -> [LocalizerConfig; 2] {
    [
        LocalizerConfig::default(),
        LocalizerConfig {
            weighting: lion::core::Weighting::LeastSquares,
            ..LocalizerConfig::default()
        },
    ]
}

#[test]
fn windowed_streaming_matches_batch_on_each_window() {
    // Mid-stream (window full and sliding): every cadence solve must
    // equal the batch solver run on that window's reads.
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let reads = circle_reads(antenna, 400);
    let window = 128;
    for localizer in weightings() {
        let config = StreamConfig::builder()
            .window_capacity(window)
            .min_window_len(window)
            .cadence(Cadence::EveryReads(64))
            .localizer(localizer.clone())
            .build()
            .expect("valid");
        let mut stream = StreamLocalizer::new(config).expect("valid");
        let mut solves = 0;
        for (i, &read) in reads.iter().enumerate() {
            if let Some(est) = stream.push(read).expect("solves") {
                let window_reads = &reads[i + 1 - window..=i];
                let batch = batch_reference(window_reads, &localizer);
                assert_eq!(est.position, batch.position, "solve at read {i}");
                assert_eq!(est.d_r, batch.reference_distance);
                solves += 1;
            }
        }
        assert!(
            solves >= 4,
            "expected several mid-stream solves, got {solves}"
        );
    }
}

#[test]
fn three_d_parity() {
    // 3D space through the same path: a tilted circle spans all axes.
    let antenna = Point3::new(1.0, 0.5, 0.4);
    let reads: Vec<StreamRead> = (0..200)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.1 * (2.0 * a).sin());
            StreamRead {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA) % TAU,
                ..StreamRead::default()
            }
        })
        .collect();
    let config = StreamConfig::builder()
        .window_capacity(200)
        .min_window_len(24)
        .cadence(Cadence::EveryReads(usize::MAX))
        .space(Space::ThreeD)
        .build()
        .expect("valid");
    let measurements: Vec<(Point3, f64)> = reads.iter().map(|r| (r.position, r.phase)).collect();
    let batch = Localizer::new(config.localizer.clone(), SolveSpace::ThreeD)
        .locate(&measurements)
        .expect("3d batch solves");
    let streamed = stream_estimate(&shuffled(&reads), config);
    assert_eq!(streamed.position, batch.position);
    assert_eq!(streamed.d_r, batch.reference_distance);
}

/// Runs the same feed through a replay-mode and an incremental-mode
/// pipeline and checks the parity tiering tick by tick: both emit at the
/// same cadence points; fallback/resync ticks are bit-identical to
/// replay; delta ticks agree to 1e-6. Returns the number of delta ticks
/// and the number of emitted ticks.
fn assert_incremental_parity(reads: &[StreamRead], config: StreamConfig) -> (usize, usize) {
    let replay_cfg = StreamConfig {
        resolve_mode: ResolveMode::Replay,
        ..config.clone()
    };
    let incr_cfg = StreamConfig {
        resolve_mode: ResolveMode::Incremental,
        ..config
    };
    let mut replay = StreamLocalizer::new(replay_cfg).expect("valid replay config");
    let mut incr = StreamLocalizer::new(incr_cfg).expect("valid incremental config");
    let mut delta_ticks = 0;
    for &read in reads {
        let a = replay.push(read);
        let b = incr.push(read);
        match (a, b) {
            (Ok(None), Ok(None)) => {}
            (Ok(Some(r)), Ok(Some(i))) => {
                assert_eq!(r.seq, i.seq);
                assert_eq!(r.trigger_time, i.trigger_time);
                assert_eq!(r.window_len, i.window_len);
                match i.resolve_path {
                    ResolvePath::Replayed => {
                        // Fallback/resync literally runs the replay path.
                        assert_eq!(i.position, r.position, "tick {}", r.seq);
                        assert_eq!(i.d_r, r.d_r, "tick {}", r.seq);
                        assert_eq!(i.mean_residual, r.mean_residual, "tick {}", r.seq);
                    }
                    ResolvePath::Incremental => {
                        delta_ticks += 1;
                        // Position-only comparison: the delta path pins
                        // its reference sample across slides while replay
                        // re-picks the window midpoint each tick, so d_r
                        // (distance *to the reference*) is relative to a
                        // different sample — the position is
                        // reference-invariant, d_r is not (DESIGN.md §14).
                        let err = i.position.distance(r.position);
                        assert!(err < 1e-6, "tick {}: delta position off by {err} m", r.seq);
                        assert!(i.d_r.is_finite());
                    }
                }
            }
            // A degenerate window fails identically in both modes (the
            // incremental tick bails to replay before solving).
            (Err(_), Err(_)) => {}
            (a, b) => panic!("modes diverged on tick pattern: {a:?} vs {b:?}"),
        }
    }
    assert_eq!(replay.estimates_emitted(), incr.estimates_emitted());
    (delta_ticks, incr.estimates_emitted() as usize)
}

#[test]
fn incremental_in_order_tracks_replay_within_1e6() {
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let reads = circle_reads(antenna, 600);
    for localizer in weightings() {
        let config = StreamConfig::builder()
            .window_capacity(256)
            .min_window_len(24)
            .cadence(Cadence::EveryReads(16))
            .localizer(localizer)
            .build()
            .expect("valid");
        let (delta_ticks, _) = assert_incremental_parity(&reads, config);
        assert!(
            delta_ticks >= 10,
            "in-order feed must mostly take delta ticks, got {delta_ticks}"
        );
    }
}

/// A tag scanned back and forth along an arc of radius 0.3 m: its angle
/// is `0.5π·sin(2πi/300)`, so the scan turns around every 150 reads and
/// a window holds positions on both legs.
fn ping_pong_reads(antenna: Point3, n: usize) -> Vec<StreamRead> {
    (0..n)
        .map(|i| {
            let a = 0.5 * PI * (TAU * i as f64 / 300.0).sin();
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            StreamRead {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA) % TAU,
                ..StreamRead::default()
            }
        })
        .collect()
}

#[test]
fn incremental_ping_pong_scan_stays_on_delta_ticks() {
    // At a turnaround the pairs of the interval scan change shape between
    // ticks. Every delta tick rebuilds its rows from the window's pairs,
    // so that is no reason to replay: only resyncs (the pinned reference
    // evicted or re-smoothed, the periodic re-anchor) replay here.
    for (antenna, n) in [
        (Point3::new(1.2, 0.4, 0.0), 4_000),
        (Point3::new(0.9, -0.5, 0.0), 8_000),
        (Point3::new(1.4, 0.1, 0.0), 4_000),
    ] {
        let config = StreamConfig::builder()
            .window_capacity(256)
            .min_window_len(24)
            .cadence(Cadence::EveryReads(16))
            .localizer(LocalizerConfig {
                pair_strategy: PairStrategy::Interval { interval: 0.2 },
                ..LocalizerConfig::default()
            })
            .build()
            .expect("valid");
        let (delta_ticks, ticks) = assert_incremental_parity(&ping_pong_reads(antenna, n), config);
        let replays = ticks - delta_ticks;
        assert!(
            6 * replays <= ticks,
            "antenna {antenna}: {replays} of {ticks} ticks replayed"
        );
    }
}

#[test]
fn incremental_shuffled_arrival_replays_exactly() {
    // Shuffled arrival splices the window, so incremental mode falls
    // back deterministically — and fallback ticks are exact.
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let reads = circle_reads(antenna, 400);
    let arrival = shuffled(&reads);
    let config = StreamConfig::builder()
        .window_capacity(256)
        .min_window_len(24)
        .cadence(Cadence::EveryReads(16))
        .build()
        .expect("valid");
    assert_incremental_parity(&arrival, config);
}

#[test]
fn incremental_outcomes_are_bit_identical_across_worker_counts() {
    let jobs: Vec<StreamJob> = (0..4)
        .map(|i| {
            let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
            let config = StreamConfig::builder()
                .resolve_mode(ResolveMode::Incremental)
                .build()
                .expect("valid");
            StreamJob::new(circle_reads(antenna, 400), config)
                .with_burst(48)
                .with_queue_capacity(64)
        })
        .collect();
    let serial = Engine::serial().run_streams(&jobs);
    let parallel = Engine::builder()
        .workers(4)
        .build()
        .expect("valid")
        .run_streams(&jobs);
    for (s, p) in serial.iter().zip(&parallel) {
        let (s, p) = (s.as_ref().expect("runs"), p.as_ref().expect("runs"));
        assert_eq!(s.resolve_rows_delta, p.resolve_rows_delta);
        assert_eq!(s.resolve_rebuilds, p.resolve_rebuilds);
        assert_eq!(s.resolve_fallbacks, p.resolve_fallbacks);
        assert_eq!(s.estimates.len(), p.estimates.len());
        for (a, b) in s.estimates.iter().zip(&p.estimates) {
            assert_eq!(a.resolve_path, b.resolve_path);
            assert_eq!(a.position, b.position);
            assert_eq!(a.d_r, b.d_r);
        }
        assert!(s.resolve_rows_delta > 0, "delta ticks must have run");
    }
}

/// Deterministic feed mangler for the property test: drops ~1 read in
/// `8` via an LCG seeded with `drop_seed`, then reverses consecutive
/// chunks of `chunk` reads (bounded out-of-order arrival; `chunk <= 1`
/// leaves the order intact).
fn mangled(reads: &[StreamRead], drop_seed: u64, chunk: usize) -> Vec<StreamRead> {
    let mut state = drop_seed | 1;
    let mut kept: Vec<StreamRead> = reads
        .iter()
        .filter(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            !(state >> 33).is_multiple_of(8)
        })
        .copied()
        .collect();
    if chunk > 1 {
        for block in kept.chunks_mut(chunk) {
            block.reverse();
        }
    }
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random slide/shed/reorder sequences: whatever the feed looks
    /// like, every fallback tick is exact and every delta tick is
    /// within 1e-6 of the replay pipeline.
    #[test]
    fn incremental_parity_holds_under_random_feeds(
        ax in 0.8_f64..1.4,
        ay in 0.0_f64..0.6,
        n in 200_usize..400,
        cadence in 8_usize..32,
        drop_seed in 0_u64..u64::MAX,
        chunk in 1_usize..10,
    ) {
        let reads = circle_reads(Point3::new(ax, ay, 0.0), n);
        let arrival = mangled(&reads, drop_seed, chunk);
        let config = StreamConfig::builder()
            .window_capacity(128)
            .min_window_len(24)
            .cadence(Cadence::EveryReads(cadence))
            .build()
            .expect("valid");
        assert_incremental_parity(&arrival, config);
    }
}

#[test]
fn million_read_stream_stays_in_window_memory() {
    let antenna = Point3::new(1.2, 0.4, 0.0);
    let config = StreamConfig::builder()
        .window_capacity(256)
        .min_window_len(64)
        .cadence(Cadence::EveryReads(10_000))
        .build()
        .expect("valid");
    let mut stream = StreamLocalizer::new(config).expect("valid");
    let read_at = |i: usize| {
        let a = i as f64 * TAU / 120.0;
        let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
        StreamRead {
            time: i as f64 * 1e-3,
            position: p,
            phase: (4.0 * PI * antenna.distance(p) / LAMBDA) % TAU,
            ..StreamRead::default()
        }
    };
    // Warm up past the first solves, then pin the ring buffer.
    for i in 0..50_000 {
        let _ = stream.push(read_at(i)).expect("solves");
    }
    let warm = stream.window().backing_capacity();
    for i in 50_000..1_000_000 {
        let _ = stream.push(read_at(i)).expect("solves");
    }
    assert_eq!(
        stream.window().backing_capacity(),
        warm,
        "ring buffer grew past its window"
    );
    assert_eq!(stream.window().len(), 256);
    assert_eq!(stream.reads_seen(), 1_000_000);
    assert!(stream.estimates_emitted() >= 99);
}
