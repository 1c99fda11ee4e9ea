//! The staged layout: a `PhaseProfile` keeps each read's position as
//! three coordinate lanes next to its phase, and the interval pairing
//! scans those lanes. Staging must copy every read exactly and report the
//! first non-finite one by index; the lane scan must choose exactly the
//! pairs of the array-of-`Point3` loop it replaced, kept here as the
//! oracle.

use std::f64::consts::TAU;

use lion_core::preprocess::{unwrap_phases, PhaseProfile};
use lion_core::{CoreError, PairStrategy};
use lion_geom::Point3;

const LAMBDA: f64 = 0.3256;

/// SplitMix64: a small seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1_u64 << 52) as f64 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_reads(rng: &mut SplitMix, len: usize) -> Vec<(Point3, f64)> {
    (0..len)
        .map(|_| {
            let p = Point3::new(rng.unit(), 0.5 * rng.unit(), 0.2 * rng.unit());
            (p, (rng.unit() + 1.0) * 0.5 * TAU)
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn staged_lanes_equal_the_input_at_every_length() {
    let mut rng = SplitMix(0x5EED_1A7E);
    let random = 100 + rng.below(2000);
    // One reused profile across every length, growing and shrinking, so
    // a stale entry of an earlier, longer staging would show.
    let mut reused = PhaseProfile::from_wrapped(&random_reads(&mut rng, 3000), LAMBDA).unwrap();
    for len in (2..=9).chain([random, 5]) {
        let reads = random_reads(&mut rng, len);
        let fresh = PhaseProfile::from_wrapped(&reads, LAMBDA).expect("finite reads");
        reused
            .rebuild_from_wrapped(&reads, LAMBDA)
            .expect("finite reads");
        let wrapped: Vec<f64> = reads.iter().map(|r| r.1).collect();
        for profile in [&fresh, &reused] {
            assert_eq!(profile.len(), len);
            let axis =
                |f: fn(&Point3) -> f64| bits(&reads.iter().map(|r| f(&r.0)).collect::<Vec<_>>());
            assert_eq!(bits(profile.xs()), axis(|p| p.x), "x lane at {len}");
            assert_eq!(bits(profile.ys()), axis(|p| p.y), "y lane at {len}");
            assert_eq!(bits(profile.zs()), axis(|p| p.z), "z lane at {len}");
            assert_eq!(
                bits(profile.phases()),
                bits(&unwrap_phases(&wrapped)),
                "phases at {len}"
            );
            let points: Vec<Point3> = profile.points().collect();
            let positions: Vec<Point3> = reads.iter().map(|r| r.0).collect();
            assert_eq!(points, positions, "points at {len}");
            for (i, p) in positions.iter().enumerate() {
                assert_eq!(profile.position(i), *p);
                assert_eq!(profile.lanes().point(i), *p);
            }
        }
        assert_eq!(fresh, reused, "reused staging at {len}");
    }
}

#[test]
fn a_non_finite_read_reports_its_own_index() {
    let mut rng = SplitMix(0xBAD_F00D);
    let mut profile = PhaseProfile::default();
    for len in [2, 5, 9, 37] {
        for field in 0..4 {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, len / 2, len - 1] {
                    let mut reads = random_reads(&mut rng, len);
                    let (p, theta) = &mut reads[at];
                    match field {
                        0 => p.x = bad,
                        1 => p.y = bad,
                        2 => p.z = bad,
                        _ => *theta = bad,
                    }
                    // A second bad read later on must not win.
                    if at + 1 < len {
                        reads[len - 1].1 = f64::NAN;
                    }
                    let expected = CoreError::NonFiniteMeasurement { index: at };
                    let err = PhaseProfile::from_wrapped(&reads, LAMBDA).unwrap_err();
                    assert_eq!(err, expected, "field {field} = {bad} at {at} of {len}");
                    let err = profile.rebuild_from_wrapped(&reads, LAMBDA).unwrap_err();
                    assert_eq!(err, expected, "rebuild: field {field} = {bad} at {at}");
                    assert!(profile.is_empty(), "a failed staging leaves no samples");
                }
            }
        }
    }
}

/// The array-of-`Point3` interval loop the lane scan replaced, verbatim
/// in behaviour: pair each sample with the first later one at least
/// `interval` away, comparing `distance_squared` against the exact
/// squared reach.
fn aos_interval_pairs(positions: &[Point3], interval: f64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if !(interval > 0.0 && interval.is_finite()) {
        return out;
    }
    let reach = squared_reach(interval);
    let mut j = 0;
    for i in 0..positions.len() {
        if j <= i {
            j = i + 1;
        }
        while j < positions.len() && positions[i].distance_squared(positions[j]) < reach {
            j += 1;
        }
        if j < positions.len() {
            out.push((i, j));
        }
    }
    out
}

/// The smallest `s` with `sqrt(s) ≥ interval`: the exact threshold the
/// point loop compared squared distances against.
fn squared_reach(interval: f64) -> f64 {
    let mut s = interval * interval;
    while s > 0.0 && s.next_down().sqrt() >= interval {
        s = s.next_down();
    }
    while s.sqrt() < interval {
        s = s.next_up();
    }
    s
}

/// A noisy straight pass along x in the z = 0 plane.
fn noisy_line(rng: &mut SplitMix, len: usize) -> Vec<Point3> {
    let step = 0.5 / len as f64;
    (0..len)
        .map(|i| {
            let x = -0.25 + i as f64 * step + 0.3 * step * rng.unit();
            Point3::new(x, 0.002 * rng.unit(), 0.0)
        })
        .collect()
}

/// A 3D random walk with millimeter steps.
fn random_walk(rng: &mut SplitMix, len: usize) -> Vec<Point3> {
    let mut p = Point3::ORIGIN;
    (0..len)
        .map(|_| {
            p = Point3::new(
                p.x + 0.003 * rng.unit(),
                p.y + 0.003 * rng.unit(),
                p.z + 0.003 * rng.unit(),
            );
            p
        })
        .collect()
}

/// Back-and-forth passes along x, one row up in y per pass: the trace
/// turns around, so the pairing cursor meets samples that come closer
/// again.
fn serpentine(rng: &mut SplitMix, len: usize) -> Vec<Point3> {
    let per_row = 40 + rng.below(40);
    (0..len)
        .map(|i| {
            let (row, k) = (i / per_row, i % per_row);
            let t = k as f64 / per_row as f64;
            let x = if row % 2 == 0 { t } else { 1.0 - t } * 0.6;
            Point3::new(
                x + 0.001 * rng.unit(),
                0.05 * row as f64,
                0.001 * rng.unit(),
            )
        })
        .collect()
}

fn assert_lane_scan_matches(positions: &[Point3], interval: f64, case: &str) {
    let expected = aos_interval_pairs(positions, interval);
    let strategy = PairStrategy::Interval { interval };
    assert_eq!(strategy.pairs(positions), expected, "{case}");
    let profile =
        PhaseProfile::from_unwrapped(positions.to_vec(), vec![0.0; positions.len()], LAMBDA)
            .expect("finite positions");
    let mut got = Vec::new();
    strategy.pairs_into(profile.lanes(), &mut got);
    assert_eq!(got, expected, "{case} from the profile's lanes");
}

#[test]
fn lane_interval_pairing_matches_the_point_loop() {
    let mut rng = SplitMix(0x1A2E_5CA7);
    for case in 0..300 {
        let len = 2 + rng.below(600);
        let interval = [0.05, 0.1, 0.2, 0.25, 0.3][rng.below(5)];
        let trace = match case % 3 {
            0 => noisy_line(&mut rng, len),
            1 => random_walk(&mut rng, len),
            _ => serpentine(&mut rng, len),
        };
        assert_lane_scan_matches(&trace, interval, &format!("case {case}, {len} reads"));
    }
}

#[test]
fn lane_interval_pairing_matches_at_the_rounding_edge() {
    // 1 mm steps at a 0.2 m interval: sample i + 200 lies at 0.2 m up to
    // the rounding of i·0.001, so the threshold decides pair by pair.
    for offset in [0.0, -0.25, 0.1, 1.0] {
        let positions: Vec<Point3> = (0..1500)
            .map(|i| Point3::new(offset + i as f64 * 0.001, 0.0, 0.0))
            .collect();
        assert_lane_scan_matches(&positions, 0.2, &format!("1 mm steps from {offset}"));
        let diagonal: Vec<Point3> = (0..1500)
            .map(|i| {
                let s = i as f64 * 0.001;
                Point3::new(offset + s, 0.5 * s, 0.25 * s)
            })
            .collect();
        assert_lane_scan_matches(&diagonal, 0.2, &format!("diagonal from {offset}"));
    }
}

/// Two-read traces whose one candidate pair sits within a few ULPs of
/// the interval in a random 3D direction. The seeds are kept only where
/// summing the squared distance in another association
/// (`dx·dx + (dy·dy + dz·dz)`) would decide the pair differently, so a
/// scan that reassociates the distance fails here.
#[test]
fn lane_interval_pairing_keeps_the_unfused_distance_order() {
    let mut rng = SplitMix(0xD15_7A9C);
    let interval = 0.2;
    let reach = squared_reach(interval);
    let mut telling = 0;
    for _ in 0..20_000 {
        let d = [rng.unit(), rng.unit(), rng.unit()];
        let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        let mut p = d.map(|c| c / norm * interval);
        for _ in 0..rng.below(5) {
            p[0] = if rng.below(2) == 0 {
                p[0].next_up()
            } else {
                p[0].next_down()
            };
        }
        let (dx, dy, dz) = (-p[0], -p[1], -p[2]);
        let left = dx * dx + dy * dy + dz * dz;
        let right = dx * dx + (dy * dy + dz * dz);
        if (left < reach) == (right < reach) {
            continue;
        }
        telling += 1;
        let positions = [Point3::ORIGIN, Point3::new(p[0], p[1], p[2])];
        assert_lane_scan_matches(&positions, interval, &format!("edge pair {p:?}"));
    }
    assert!(telling > 20, "only {telling} inputs tell the orders apart");
}
