//! The structured three-line pairing walks each scan line with a
//! forward-only cursor. It must emit exactly the pair list of the
//! per-sample binary search it replaced, kept here as the oracle, on
//! seeded inputs built to stress the matching: reversed and shuffled
//! lines, duplicate x values (signed zeros included), empty lines,
//! samples off every line, and matches exactly at the tolerance.

use lion_core::PairStrategy;
use lion_geom::{Point3, ThreeLineScan};

/// The binary-search pairing, verbatim in behaviour: classify by (y, z),
/// stable-sort each line by x, and look up every query with
/// `partition_point`.
fn binary_search_pairs(
    positions: &[Point3],
    scan: &ThreeLineScan,
    x_interval: f64,
    tolerance: f64,
) -> Vec<(usize, usize)> {
    let params_ok = x_interval > 0.0 && x_interval.is_finite() && tolerance > 0.0;
    if !params_ok {
        return Vec::new();
    }
    let mut l1: Vec<usize> = Vec::new();
    let mut l2: Vec<usize> = Vec::new();
    let mut l3: Vec<usize> = Vec::new();
    for (i, p) in positions.iter().enumerate() {
        if p.y.abs() <= tolerance && p.z.abs() <= tolerance {
            l1.push(i);
        } else if p.y.abs() <= tolerance && (p.z - scan.z_offset()).abs() <= tolerance {
            l2.push(i);
        } else if (p.y + scan.y_offset()).abs() <= tolerance && p.z.abs() <= tolerance {
            l3.push(i);
        }
    }
    let by_x = |v: &mut Vec<usize>| {
        v.sort_by(|&a, &b| positions[a].x.partial_cmp(&positions[b].x).expect("finite"));
    };
    by_x(&mut l1);
    by_x(&mut l2);
    by_x(&mut l3);
    let nearest = |line: &[usize], x: f64| -> Option<usize> {
        if line.is_empty() {
            return None;
        }
        let pos = line.partition_point(|&i| positions[i].x < x);
        let mut best: Option<usize> = None;
        for c in [pos.checked_sub(1), Some(pos)].into_iter().flatten() {
            if c < line.len() {
                let idx = line[c];
                let err = (positions[idx].x - x).abs();
                if err <= tolerance && best.is_none_or(|b| (positions[b].x - x).abs() > err) {
                    best = Some(idx);
                }
            }
        }
        best
    };
    let mut out = Vec::new();
    for &i in &l1 {
        let x = positions[i].x;
        if let Some(j) = nearest(&l1, x + x_interval) {
            if j != i {
                out.push((i, j));
            }
        }
        if let Some(j) = nearest(&l3, x) {
            out.push((i, j));
        }
        if let Some(j) = nearest(&l2, x) {
            out.push((i, j));
        }
    }
    out
}

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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, options: &[f64]) -> f64 {
        options[self.below(options.len())]
    }
}

/// Tolerance, offsets and interval are dyadic, and every coordinate sits
/// on an eighth-of-tolerance grid, so differences are exact and many
/// matches land exactly on the tolerance.
const TOL: f64 = 0.25;
const Z_OFFSET: f64 = 1.5;
const Y_OFFSET: f64 = 1.0;

fn scan() -> ThreeLineScan {
    ThreeLineScan::new(-2.0, 2.0, Y_OFFSET, Z_OFFSET).expect("valid scan")
}

/// One seeded input: up to three lines (each present or empty, ascending,
/// reversed or shuffled in visit order) plus off-line samples.
fn random_positions(rng: &mut SplitMix) -> Vec<Point3> {
    let steps = [-0.25, -0.125, 0.0, 0.125, 0.25];
    let mut positions = Vec::new();
    let lines = [(0.0, 0.0), (0.0, Z_OFFSET), (-Y_OFFSET, 0.0)];
    for &(y, z) in &lines {
        let n = match rng.below(4) {
            0 => 0,
            _ => rng.below(24),
        };
        let mut line: Vec<Point3> = (0..n)
            .map(|_| {
                // Coarse grid → frequent duplicate x; signed zeros too.
                let x = match rng.below(10) {
                    0 => -0.0,
                    _ => (rng.below(33) as f64 - 16.0) * 0.125,
                };
                Point3::new(x, y + rng.pick(&steps), z + rng.pick(&steps))
            })
            .collect();
        match rng.below(3) {
            0 => line.sort_by(|a, b| a.x.total_cmp(&b.x)),
            1 => line.sort_by(|a, b| b.x.total_cmp(&a.x)),
            _ => {}
        }
        positions.extend(line);
    }
    // Samples off every line, spliced in anywhere.
    for _ in 0..rng.below(6) {
        let off = Point3::new(
            (rng.below(33) as f64 - 16.0) * 0.125,
            rng.pick(&[0.5, -0.5, 3.0]),
            rng.pick(&[0.375, 0.75, -1.0]),
        );
        let at = rng.below(positions.len() + 1);
        positions.insert(at, off);
    }
    positions
}

fn cursor_pairs(
    positions: &[Point3],
    scan: ThreeLineScan,
    x_interval: f64,
    tolerance: f64,
) -> Vec<(usize, usize)> {
    PairStrategy::StructuredScan {
        scan,
        x_interval,
        tolerance,
    }
    .pairs(positions)
}

#[test]
fn cursor_pairing_matches_binary_search_on_seeded_inputs() {
    let scan = scan();
    let mut rng = SplitMix(0x1A2B_3C4D);
    let mut at_tolerance = 0usize;
    let mut nonempty = 0usize;
    for case in 0..4000 {
        let positions = random_positions(&mut rng);
        let x_interval = rng.pick(&[0.125, 0.25, 0.5, 0.625, 1.0]);
        let expected = binary_search_pairs(&positions, &scan, x_interval, TOL);
        let got = cursor_pairs(&positions, scan, x_interval, TOL);
        assert_eq!(got, expected, "case {case}: {positions:?}");
        nonempty += usize::from(!expected.is_empty());
        at_tolerance += expected
            .iter()
            .filter(|&&(i, j)| {
                let dx = (positions[j].x - positions[i].x).abs();
                dx == TOL || (dx - x_interval).abs() == TOL
            })
            .count();
    }
    // The generator really reaches the cases it claims to.
    assert!(nonempty > 1000, "only {nonempty} non-empty pair lists");
    assert!(
        at_tolerance > 100,
        "only {at_tolerance} matches at the tolerance"
    );
}

#[test]
fn cursor_pairing_matches_binary_search_on_a_serpentine_scan() {
    // The calibration shape: L1 forward, L2 backward, L3 forward, 1 mm
    // steps, a 3 mm matching tolerance.
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let xs: Vec<f64> = (0..=800).map(|i| -0.4 + i as f64 * 0.001).collect();
    let mut positions: Vec<Point3> = xs.iter().map(|&x| scan.positions_at(x).0).collect();
    positions.extend(xs.iter().rev().map(|&x| scan.positions_at(x).1));
    positions.extend(xs.iter().map(|&x| scan.positions_at(x).2));
    for x_interval in [0.1, 0.2, 0.35] {
        let expected = binary_search_pairs(&positions, &scan, x_interval, 0.003);
        assert!(!expected.is_empty());
        assert_eq!(cursor_pairs(&positions, scan, x_interval, 0.003), expected);
    }
}

#[test]
fn invalid_parameters_pair_nothing() {
    let scan = scan();
    let positions: Vec<Point3> = (0..8)
        .map(|i| Point3::new(i as f64 * 0.125, 0.0, 0.0))
        .collect();
    for (x_interval, tolerance) in [(f64::NAN, TOL), (0.0, TOL), (0.25, 0.0), (0.25, f64::NAN)] {
        assert!(binary_search_pairs(&positions, &scan, x_interval, tolerance).is_empty());
        assert!(cursor_pairs(&positions, scan, x_interval, tolerance).is_empty());
    }
}

#[test]
fn non_finite_x_samples_pair_like_off_line_samples() {
    // A sample whose x is NaN or infinite sits on a line by (y, z) but
    // can never match anything: pairing must not panic, and must emit
    // exactly the pairs it emits with that sample moved off every line.
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let xs: Vec<f64> = (0..=80).map(|i| -0.4 + i as f64 * 0.01).collect();
    let mut positions: Vec<Point3> = xs.iter().map(|&x| scan.positions_at(x).0).collect();
    positions.extend(xs.iter().rev().map(|&x| scan.positions_at(x).1));
    positions.extend(xs.iter().map(|&x| scan.positions_at(x).2));
    let bad = [
        (3, f64::NAN),
        (40, f64::INFINITY),
        (41, f64::NEG_INFINITY),
        (100, f64::NAN),
        (200, f64::NAN),
    ];
    let mut hostile = positions.clone();
    let mut off_line = positions.clone();
    for &(i, x) in &bad {
        hostile[i].x = x;
        off_line[i] = Point3::new(0.0, 5.0, 5.0);
    }
    for x_interval in [0.1, 0.2, 0.35] {
        let expected = binary_search_pairs(&off_line, &scan, x_interval, 0.003);
        assert!(!expected.is_empty());
        assert_eq!(cursor_pairs(&hostile, scan, x_interval, 0.003), expected);
    }
}
