//! The structured three-line pairing finds each `L1` sample's cross
//! partners on `L3` and `L2` once per scanning range and walks only the
//! x-pair cursor per interval. It must emit exactly the pair list of the
//! per-interval three-cursor pairing it replaced, kept here as the
//! oracle, on seeded inputs built to stress the matching: reversed and
//! shuffled lines, duplicate x values (signed zeros included), empty
//! lines, samples off every line, matches exactly at the tolerance, noisy
//! scans with cross partners missing, non-finite x, and zero or NaN
//! tolerances and intervals.

use lion_core::PairStrategy;
use lion_geom::{Point3, ThreeLineScan};

/// The three-cursor pairing, verbatim in behaviour: classify by (y, z),
/// leaving non-finite x off every line, sort each line by (x, index), and
/// walk one forward-only cursor per line, querying the `L1` x-pair, then
/// the `L3` and `L2` cross partners, for every `L1` sample.
fn three_cursor_pairs(
    positions: &[Point3],
    scan: &ThreeLineScan,
    x_interval: f64,
    tolerance: f64,
) -> Vec<(usize, usize)> {
    let params_ok = x_interval > 0.0 && x_interval.is_finite() && tolerance > 0.0;
    if !params_ok {
        return Vec::new();
    }
    let mut lines: [Vec<usize>; 3] = Default::default();
    for (i, p) in positions.iter().enumerate() {
        if !p.x.is_finite() {
            continue;
        }
        if p.y.abs() <= tolerance && p.z.abs() <= tolerance {
            lines[0].push(i);
        } else if p.y.abs() <= tolerance && (p.z - scan.z_offset()).abs() <= tolerance {
            lines[1].push(i);
        } else if (p.y + scan.y_offset()).abs() <= tolerance && p.z.abs() <= tolerance {
            lines[2].push(i);
        }
    }
    for line in &mut lines {
        line.sort_unstable_by(|&a, &b| {
            positions[a]
                .x
                .partial_cmp(&positions[b].x)
                .expect("classified x is finite")
                .then(a.cmp(&b))
        });
    }
    let nearest_from = |line: &[usize], pos: &mut usize, x: f64| -> Option<usize> {
        while *pos < line.len() && positions[line[*pos]].x < x {
            *pos += 1;
        }
        let mut best: Option<(usize, f64)> = None;
        for c in [pos.checked_sub(1), Some(*pos)].into_iter().flatten() {
            if c < line.len() {
                let err = (positions[line[c]].x - x).abs();
                if err <= tolerance && best.is_none_or(|(_, b)| b > err) {
                    best = Some((c, err));
                }
            }
        }
        best.map(|(c, _)| line[c])
    };
    let [l1, l2, l3] = &lines;
    let (mut c1, mut c2, mut c3) = (0, 0, 0);
    let mut out = Vec::new();
    for &i in l1 {
        let x = positions[i].x;
        if let Some(j) = nearest_from(l1, &mut c1, x + x_interval) {
            if j != i {
                out.push((i, j));
            }
        }
        if let Some(j) = nearest_from(l3, &mut c3, x) {
            out.push((i, j));
        }
        if let Some(j) = nearest_from(l2, &mut c2, x) {
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
fn cached_cross_partners_match_the_three_cursor_oracle_on_seeded_inputs() {
    let scan = scan();
    let mut rng = SplitMix(0x1A2B_3C4D);
    let mut at_tolerance = 0usize;
    let mut nonempty = 0usize;
    for case in 0..4000 {
        let positions = random_positions(&mut rng);
        let x_interval = rng.pick(&[0.125, 0.25, 0.5, 0.625, 1.0]);
        let expected = three_cursor_pairs(&positions, &scan, x_interval, TOL);
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
fn cached_cross_partners_match_the_three_cursor_oracle_on_a_serpentine_scan() {
    // The calibration shape: L1 forward, L2 backward, L3 forward, 1 mm
    // steps, a 3 mm matching tolerance.
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let xs: Vec<f64> = (0..=800).map(|i| -0.4 + i as f64 * 0.001).collect();
    let mut positions: Vec<Point3> = xs.iter().map(|&x| scan.positions_at(x).0).collect();
    positions.extend(xs.iter().rev().map(|&x| scan.positions_at(x).1));
    positions.extend(xs.iter().map(|&x| scan.positions_at(x).2));
    for x_interval in [0.1, 0.2, 0.35] {
        let expected = three_cursor_pairs(&positions, &scan, x_interval, 0.003);
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
        assert!(three_cursor_pairs(&positions, &scan, x_interval, tolerance).is_empty());
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
        let expected = three_cursor_pairs(&off_line, &scan, x_interval, 0.003);
        assert!(!expected.is_empty());
        assert_eq!(
            three_cursor_pairs(&hostile, &scan, x_interval, 0.003),
            expected
        );
        assert_eq!(cursor_pairs(&hostile, scan, x_interval, 0.003), expected);
    }
}

#[test]
fn cached_cross_partners_match_the_three_cursor_oracle_on_noisy_scans() {
    // The calibration shape with read noise: 1 mm steps jittered in x,
    // (y, z) scattered inside a 3 mm tolerance with some reads beyond it,
    // stretches of L2 and L3 missing (so L1 samples there have no cross
    // partner, or only one), and repeated x values.
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let mut rng = SplitMix(0x5EED_0042);
    let mut jitter =
        |scale: f64| (rng.next() >> 11) as f64 / (1_u64 << 53) as f64 * 2.0 * scale - scale;
    for case in 0..12 {
        let mut positions = Vec::new();
        for line in 0..3 {
            // A gap of 0–150 mm on L2 and L3, placed by the case number.
            let start = case * 37 % 400 - 200;
            let gap = start..start + case * 12;
            for step in -400..=400 {
                if line > 0 && gap.contains(&step) {
                    continue;
                }
                let x = if step % 17 == 0 {
                    step as f64 * 0.001 // repeated exactly below
                } else {
                    step as f64 * 0.001 + jitter(4e-4)
                };
                let (p1, p2, p3) = scan.positions_at(x);
                let p = [p1, p2, p3][line];
                let off = if step % 41 == 0 { 0.004 } else { 0.0 };
                let p = Point3::new(p.x, p.y + jitter(0.002) + off, p.z + jitter(0.002));
                positions.push(p);
                if step % 17 == 0 {
                    positions.push(p);
                }
            }
        }
        let mut missing = 0;
        for x_interval in [0.05, 0.1, 0.2, 0.35] {
            let expected = three_cursor_pairs(&positions, &scan, x_interval, 0.003);
            assert!(!expected.is_empty(), "case {case}");
            let got = cursor_pairs(&positions, scan, x_interval, 0.003);
            assert_eq!(got, expected, "case {case} at {x_interval}");
            // L1 samples that got fewer than two cross pairs.
            let cross = |&&(i, j): &&(usize, usize)| {
                (positions[i].y - positions[j].y).abs() > 0.1
                    || (positions[i].z - positions[j].z).abs() > 0.1
            };
            let with_cross = expected.iter().filter(cross).count();
            let l1 = positions
                .iter()
                .filter(|p| p.y.abs() <= 0.003 && p.z.abs() <= 0.003)
                .count();
            missing = missing.max((2 * l1).saturating_sub(with_cross));
        }
        if case > 0 {
            assert!(
                missing > 0,
                "case {case}: every L1 sample found both partners"
            );
        }
    }
}

#[test]
fn degenerate_tolerances_and_intervals_pair_nothing() {
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let xs: Vec<f64> = (0..=80).map(|i| -0.4 + i as f64 * 0.01).collect();
    let mut positions: Vec<Point3> = xs.iter().map(|&x| scan.positions_at(x).0).collect();
    positions.extend(xs.iter().map(|&x| scan.positions_at(x).1));
    positions.extend(xs.iter().map(|&x| scan.positions_at(x).2));
    let cases = [
        (0.1, 0.0),
        (0.1, -0.003),
        (0.1, f64::NAN),
        (0.0, 0.003),
        (-0.1, 0.003),
        (f64::NAN, 0.003),
        (f64::INFINITY, 0.003),
        (f64::NAN, f64::NAN),
    ];
    for (x_interval, tolerance) in cases {
        assert!(three_cursor_pairs(&positions, &scan, x_interval, tolerance).is_empty());
        let got = cursor_pairs(&positions, scan, x_interval, tolerance);
        assert!(got.is_empty(), "{x_interval} {tolerance}: {got:?}");
    }
}
