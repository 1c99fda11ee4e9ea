//! Pair selection: choosing which tag-position pairs become radical-line
//! equations.
//!
//! Every pair of samples `(i, j)` yields one linear equation (paper Eq. 7 /
//! Eq. 9). Which pairs to use is a real design choice (paper Sec. IV-B1):
//! pairs must be far enough apart that the phase difference dominates the
//! noise, and their displacement directions must be diverse enough that
//! every coordinate is observable.

use serde::{Deserialize, Serialize};

use lion_geom::{Point3, ThreeLineScan};

use crate::preprocess::PositionLanes;

/// A strategy for turning a sample sequence into equation pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PairStrategy {
    /// Pair each sample `i` with the first later sample at least `interval`
    /// meters away — the generic sliding scheme; `interval` is the paper's
    /// "scanning interval" `x_o`.
    Interval {
        /// Minimum spatial separation between paired samples (meters).
        interval: f64,
    },
    /// All pairs separated by at least `min_separation`, subsampled evenly
    /// to at most `max_pairs` — the exhaustive option for ablations.
    AllWithMinSeparation {
        /// Minimum spatial separation (meters).
        min_separation: f64,
        /// Cap on the number of emitted pairs.
        max_pairs: usize,
    },
    /// The paper's structured scheme for the three-line 3D scan (Fig. 11,
    /// Eq. 10): x-pairs along `L1` at interval `x_interval`, plus same-`x`
    /// cross pairs `L1`–`L3` (observing y) and `L1`–`L2` (observing z).
    StructuredScan {
        /// The scan geometry the samples were collected on.
        scan: ThreeLineScan,
        /// Spacing `x_o` of the x-pairs (meters).
        x_interval: f64,
        /// Position-matching tolerance (meters).
        tolerance: f64,
    },
}

impl Default for PairStrategy {
    fn default() -> Self {
        PairStrategy::Interval { interval: 0.2 }
    }
}

impl PairStrategy {
    /// Returns a copy of the strategy with its spacing parameter replaced —
    /// used by the adaptive parameter sweep, which varies the scanning
    /// interval without otherwise changing the strategy.
    pub fn with_interval(&self, interval: f64) -> PairStrategy {
        match self {
            PairStrategy::Interval { .. } => PairStrategy::Interval { interval },
            PairStrategy::AllWithMinSeparation { max_pairs, .. } => {
                PairStrategy::AllWithMinSeparation {
                    min_separation: interval,
                    max_pairs: *max_pairs,
                }
            }
            PairStrategy::StructuredScan {
                scan, tolerance, ..
            } => PairStrategy::StructuredScan {
                scan: *scan,
                x_interval: interval,
                tolerance: *tolerance,
            },
        }
    }

    /// The current spacing parameter.
    pub fn interval(&self) -> f64 {
        match self {
            PairStrategy::Interval { interval } => *interval,
            PairStrategy::AllWithMinSeparation { min_separation, .. } => *min_separation,
            PairStrategy::StructuredScan { x_interval, .. } => *x_interval,
        }
    }

    /// Generates sample-index pairs for the given positions: transposes
    /// them into coordinate lanes and runs [`PairStrategy::pairs_into`].
    ///
    /// Invalid parameters (non-positive intervals) yield an empty list,
    /// which the caller reports as [`crate::CoreError::NoPairs`].
    pub fn pairs(&self, positions: &[Point3]) -> Vec<(usize, usize)> {
        let xs: Vec<f64> = positions.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = positions.iter().map(|p| p.y).collect();
        let zs: Vec<f64> = positions.iter().map(|p| p.z).collect();
        let mut out = Vec::new();
        self.pairs_into(PositionLanes::new(&xs, &ys, &zs), &mut out);
        out
    }

    /// [`PairStrategy::pairs`] over positions already in lanes, into a
    /// caller-provided buffer, reusing its allocation.
    /// [`PairStrategy::Interval`] and
    /// [`PairStrategy::AllWithMinSeparation`] are allocation-free in
    /// steady state; [`PairStrategy::StructuredScan`] allocates its
    /// per-line buffers on every call here. The solve pipeline pairs
    /// through the same two halves with those buffers kept in the
    /// [`crate::Workspace`], which makes every strategy allocation-free
    /// on the adaptive sweep's hot path.
    pub fn pairs_into(&self, lanes: PositionLanes<'_>, out: &mut Vec<(usize, usize)>) {
        let mut lines = LineScratch::default();
        self.classify_into(lanes, &mut lines);
        self.pairs_from(lanes, &lines, out);
    }

    /// The interval-independent half of pairing: sorts the samples of
    /// [`PairStrategy::StructuredScan`] onto its scan lines, each line in
    /// x order, and finds each `L1` sample's cross partners on `L3` and
    /// `L2`, which depend on the tolerance but not on the interval. Other
    /// strategies need no classification and leave `lines` empty. The
    /// adaptive sweep runs this once per scanning range and
    /// [`PairStrategy::pairs_from`] once per interval.
    pub(crate) fn classify_into(&self, lanes: PositionLanes<'_>, lines: &mut LineScratch) {
        for line in lines.lines.iter_mut() {
            line.samples.clear();
            line.x.clear();
        }
        lines.cross.clear();
        if let PairStrategy::StructuredScan {
            scan, tolerance, ..
        } = self
        {
            classify_lines(lanes, scan, *tolerance, &mut lines.lines);
            cross_partners(*tolerance, lines);
        }
    }

    /// The interval-dependent half of pairing, reading the scan lines a
    /// [`PairStrategy::classify_into`] call with the same scan and
    /// tolerance left in `lines`. `out` is emptied first.
    pub(crate) fn pairs_from(
        &self,
        lanes: PositionLanes<'_>,
        lines: &LineScratch,
        out: &mut impl PairSink,
    ) {
        out.clear_pairs();
        match self {
            PairStrategy::Interval { interval } => interval_pairs_into(lanes, *interval, out),
            PairStrategy::AllWithMinSeparation {
                min_separation,
                max_pairs,
            } => all_pairs_into(lanes, *min_separation, *max_pairs, out),
            PairStrategy::StructuredScan {
                x_interval,
                tolerance,
                ..
            } => structured_pairs_into(*x_interval, *tolerance, lines, out),
        }
    }
}

/// Where a pair strategy writes its pairs: a `(usize, usize)` list, or
/// the `i32` index lanes the row kernel gathers by ([`PairLanes`]).
pub(crate) trait PairSink {
    /// Removes every pair.
    fn clear_pairs(&mut self);
    /// Appends the pair `(i, j)`.
    fn push_pair(&mut self, i: usize, j: usize);
    /// Number of pairs held.
    fn pair_count(&self) -> usize;
}

impl PairSink for Vec<(usize, usize)> {
    fn clear_pairs(&mut self) {
        self.clear();
    }

    fn push_pair(&mut self, i: usize, j: usize) {
        self.push((i, j));
    }

    fn pair_count(&self) -> usize {
        self.len()
    }
}

/// Pair endpoints written straight into the `i32` index lanes
/// `lion_linalg::simd::radical_rows` gathers by, with no `(usize, usize)`
/// list in between. An index narrows with `as`: the row loader
/// (`model::load_system`) rejects profiles of more than 2³¹ samples, the
/// only ones whose indices would not fit.
pub(crate) struct PairLanes<'a> {
    pub(crate) i: &'a mut Vec<i32>,
    pub(crate) j: &'a mut Vec<i32>,
}

impl PairSink for PairLanes<'_> {
    fn clear_pairs(&mut self) {
        self.i.clear();
        self.j.clear();
    }

    fn push_pair(&mut self, i: usize, j: usize) {
        self.i.push(i as i32);
        self.j.push(j as i32);
    }

    fn pair_count(&self) -> usize {
        self.i.len()
    }
}

/// One scan line of [`PairStrategy::StructuredScan`]: its sample indices
/// sorted by x, and their x values in that order, so the pairing cursor
/// scans a dense `f64` lane instead of reading through the indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanLine {
    samples: Vec<usize>,
    x: Vec<f64>,
}

/// The interval-independent state of [`PairStrategy::StructuredScan`]:
/// its scan lines `L1`, `L2`, `L3`, and the cross partners of every `L1`
/// sample.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineScratch {
    lines: [ScanLine; 3],
    /// For each `L1` sample in x order, the `L3` and `L2` samples nearest
    /// its x within the tolerance: the ends of its two cross pairs.
    cross: Vec<[Option<usize>; 2]>,
}

/// Pairs each sample `i` with the first later sample `j` at least
/// `interval` away. The cursor `j` never moves back, and each distance is
/// `Point3::distance_squared`'s unfused `dx·dx + dy·dy + dz·dz`.
fn interval_pairs_into(lanes: PositionLanes<'_>, interval: f64, out: &mut impl PairSink) {
    if !(interval > 0.0 && interval.is_finite()) {
        return;
    }
    // `distance < interval` without the square root: sqrt is correctly
    // rounded and monotone, so `sqrt(s) < interval` exactly when
    // `s < reach`.
    let reach = squared_reach(interval);
    let n = lanes.len();
    let (xs, ys, zs) = (&lanes.xs()[..n], &lanes.ys()[..n], &lanes.zs()[..n]);
    let mut j = 0;
    for i in 0..n {
        if j <= i {
            j = i + 1;
        }
        let (xi, yi, zi) = (xs[i], ys[i], zs[i]);
        while j < n && {
            let (dx, dy, dz) = (xi - xs[j], yi - ys[j], zi - zs[j]);
            dx * dx + dy * dy + dz * dz < reach
        } {
            j += 1;
        }
        if j < n {
            out.push_pair(i, j);
        }
    }
}

/// The smallest `s` with `sqrt(s) ≥ interval` (`+∞` when no finite `s`
/// reaches it), for a positive finite `interval`: `interval²` moved by
/// the few ULPs its rounding can be off.
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

fn all_pairs_into(
    lanes: PositionLanes<'_>,
    min_separation: f64,
    max_pairs: usize,
    out: &mut impl PairSink,
) {
    if !(min_separation > 0.0 && min_separation.is_finite()) || max_pairs == 0 {
        return;
    }
    let n = lanes.len();
    // Estimate the count and choose strides to stay near the cap without an
    // O(n²) materialization first.
    let total_candidates = n.saturating_mul(n.saturating_sub(1)) / 2;
    let stride = (total_candidates / max_pairs.max(1)).max(1);
    let mut counter = 0usize;
    for i in 0..n {
        let p = lanes.point(i);
        for j in (i + 1)..n {
            if p.distance(lanes.point(j)) >= min_separation {
                if counter.is_multiple_of(stride) && out.pair_count() < max_pairs {
                    out.push_pair(i, j);
                }
                counter += 1;
            }
        }
        if out.pair_count() >= max_pairs {
            break;
        }
    }
}

/// Classifies samples onto the three scan lines by (y, z) proximity and
/// sorts each line by x. A sample whose x is not finite can never pair
/// (its x distance to anything is NaN or infinite), so it is left off
/// every line; that keeps the sort total.
fn classify_lines(
    lanes: PositionLanes<'_>,
    scan: &ThreeLineScan,
    tolerance: f64,
    lines: &mut [ScanLine; 3],
) {
    let (xs, ys, zs) = (lanes.xs(), lanes.ys(), lanes.zs());
    let [l1, l2, l3] = lines;
    for (i, ((&x, &y), &z)) in xs.iter().zip(ys).zip(zs).enumerate() {
        if !x.is_finite() {
            continue;
        }
        if y.abs() <= tolerance && z.abs() <= tolerance {
            l1.samples.push(i);
        } else if y.abs() <= tolerance && (z - scan.z_offset()).abs() <= tolerance {
            l2.samples.push(i);
        } else if (y + scan.y_offset()).abs() <= tolerance && z.abs() <= tolerance {
            l3.samples.push(i);
        }
    }
    // Each line holds ascending indices, so ordering by (x, index) is the
    // stable x order, reached without the stable sort's scratch buffer.
    for line in lines.iter_mut() {
        line.samples.sort_unstable_by(|&a, &b| {
            xs[a]
                .partial_cmp(&xs[b])
                .expect("classified x is finite")
                .then(a.cmp(&b))
        });
        line.x.extend(line.samples.iter().map(|&i| xs[i]));
    }
}

/// Finds each `L1` sample's nearest `L3` and `L2` samples at the same x
/// into `scratch.cross`. The queries rise with x along `L1`, so each
/// line's partition point only moves forward: one cursor per line pairs
/// in linear time.
fn cross_partners(tolerance: f64, scratch: &mut LineScratch) {
    let [l1, l2, l3] = &scratch.lines;
    let (mut c2, mut c3) = (0, 0);
    scratch.cross.extend(l1.x.iter().map(|&x| {
        [
            nearest_from(l3, &mut c3, x, tolerance),
            nearest_from(l2, &mut c2, x, tolerance),
        ]
    }));
}

/// Per `L1` sample in x order: its x-pair along `L1` at `x_interval`
/// (observes x), then its cross pairs to `L3` (observes y) and to `L2`
/// (observes z), which [`cross_partners`] found once per range.
fn structured_pairs_into(
    x_interval: f64,
    tolerance: f64,
    scratch: &LineScratch,
    out: &mut impl PairSink,
) {
    // NaN-safe: comparisons are false for NaN, so NaN parameters bail out.
    let params_ok = x_interval > 0.0 && x_interval.is_finite() && tolerance > 0.0;
    if !params_ok {
        return;
    }
    let l1 = &scratch.lines[0];
    let mut c1 = 0;
    for ((&i, &x), cross) in l1.samples.iter().zip(&l1.x).zip(&scratch.cross) {
        if let Some(j) = nearest_from(l1, &mut c1, x + x_interval, tolerance) {
            if j != i {
                out.push_pair(i, j);
            }
        }
        for &j in cross.iter().flatten() {
            out.push_pair(i, j);
        }
    }
}

/// The sample on `line` nearest `x`, if within `tolerance`. `pos` is the
/// partition point of the previous query (the first sample with x ≥ it);
/// queries must not decrease between calls.
fn nearest_from(line: &ScanLine, pos: &mut usize, x: f64, tolerance: f64) -> Option<usize> {
    let xs = &line.x[..];
    while *pos < xs.len() && xs[*pos] < x {
        *pos += 1;
    }
    let mut best: Option<(usize, f64)> = None;
    for c in [pos.checked_sub(1), Some(*pos)].into_iter().flatten() {
        if c < xs.len() {
            let err = (xs[c] - x).abs();
            if err <= tolerance && best.is_none_or(|(_, b)| b > err) {
                best = Some((c, err));
            }
        }
    }
    best.map(|(c, _)| line.samples[c])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_positions(n: usize, step: f64) -> Vec<Point3> {
        (0..n)
            .map(|i| Point3::new(i as f64 * step, 0.0, 0.0))
            .collect()
    }

    #[test]
    fn interval_pairs_respect_spacing() {
        let positions = line_positions(101, 0.01); // 1 m span
        let pairs = PairStrategy::Interval { interval: 0.2 }.pairs(&positions);
        assert!(!pairs.is_empty());
        for (i, j) in &pairs {
            assert!(positions[*i].distance(positions[*j]) >= 0.2 - 1e-12);
            assert!(i < j);
        }
        // First pair starts at sample 0 paired 20 samples later.
        assert_eq!(pairs[0], (0, 20));
        // Samples near the end have no partner and are skipped (exact
        // count wiggles by one with float rounding of the 0.2 m cutoff).
        assert!((80..=81).contains(&pairs.len()), "{}", pairs.len());
    }

    /// The squared comparison admits exactly the pairs `distance <
    /// interval` does: at the reach and one ULP below it, over intervals
    /// from subnormal squares to overflowing ones.
    #[test]
    fn squared_reach_is_the_exact_threshold() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut intervals = vec![f64::MIN_POSITIVE, 1e-160, 0.2, 0.25, 1.0, 1.3e154, 1e200];
        intervals.extend((0..2000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0
        }));
        for interval in intervals.into_iter().filter(|&v| v > 0.0) {
            let reach = squared_reach(interval);
            assert!(reach.sqrt() >= interval, "{interval}");
            let below = reach.next_down();
            assert!(below < 0.0 || below.sqrt() < interval, "{interval}");
            for s in [below, reach, reach.next_up(), interval * interval] {
                assert_eq!(s.sqrt() < interval, s < reach, "{interval} at {s}");
            }
        }
    }

    #[test]
    fn interval_too_large_yields_empty() {
        let positions = line_positions(10, 0.01);
        assert!(PairStrategy::Interval { interval: 1.0 }
            .pairs(&positions)
            .is_empty());
        assert!(PairStrategy::Interval { interval: -1.0 }
            .pairs(&positions)
            .is_empty());
        assert!(PairStrategy::Interval { interval: f64::NAN }
            .pairs(&positions)
            .is_empty());
    }

    #[test]
    fn all_pairs_capped() {
        let positions = line_positions(50, 0.05);
        let pairs = PairStrategy::AllWithMinSeparation {
            min_separation: 0.1,
            max_pairs: 100,
        }
        .pairs(&positions);
        assert!(pairs.len() <= 100);
        assert!(!pairs.is_empty());
        for (i, j) in &pairs {
            assert!(positions[*i].distance(positions[*j]) >= 0.1 - 1e-12);
        }
        // Zero cap → empty.
        assert!(PairStrategy::AllWithMinSeparation {
            min_separation: 0.1,
            max_pairs: 0
        }
        .pairs(&positions)
        .is_empty());
    }

    #[test]
    fn structured_pairs_cover_all_axes() {
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        // Build ideal samples on the three lines, 1 cm apart.
        let mut positions = Vec::new();
        for i in 0..=80 {
            let x = -0.4 + i as f64 * 0.01;
            let (p1, p2, p3) = scan.positions_at(x);
            positions.push(p1);
            positions.push(p2);
            positions.push(p3);
        }
        let pairs = PairStrategy::StructuredScan {
            scan,
            x_interval: 0.2,
            tolerance: 0.005,
        }
        .pairs(&positions);
        assert!(!pairs.is_empty());
        // Check the three equation families are all present.
        let mut has_x = false;
        let mut has_y = false;
        let mut has_z = false;
        for (i, j) in &pairs {
            let d = positions[*j] - positions[*i];
            if d.x.abs() > 0.1 {
                has_x = true;
            }
            if d.y.abs() > 0.1 {
                has_y = true;
            }
            if d.z.abs() > 0.1 {
                has_z = true;
            }
        }
        assert!(has_x && has_y && has_z, "x={has_x} y={has_y} z={has_z}");
    }

    #[test]
    fn structured_pairs_empty_without_matching_lines() {
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        // Samples nowhere near the scan lines.
        let positions: Vec<Point3> = (0..20).map(|i| Point3::new(i as f64, 5.0, 5.0)).collect();
        let pairs = PairStrategy::StructuredScan {
            scan,
            x_interval: 0.2,
            tolerance: 0.005,
        }
        .pairs(&positions);
        assert!(pairs.is_empty());
    }

    #[test]
    fn with_interval_rewrites_spacing() {
        let s = PairStrategy::default().with_interval(0.35);
        assert_eq!(s.interval(), 0.35);
        let s = PairStrategy::AllWithMinSeparation {
            min_separation: 0.1,
            max_pairs: 7,
        }
        .with_interval(0.5);
        assert_eq!(s.interval(), 0.5);
        match s {
            PairStrategy::AllWithMinSeparation { max_pairs, .. } => assert_eq!(max_pairs, 7),
            _ => panic!("variant changed"),
        }
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        let s = PairStrategy::StructuredScan {
            scan,
            x_interval: 0.1,
            tolerance: 0.01,
        }
        .with_interval(0.25);
        assert_eq!(s.interval(), 0.25);
    }

    /// The batch path's `i32` index lanes hold exactly the pair list,
    /// for every strategy: both sinks run the one implementation.
    #[test]
    fn pair_lanes_match_the_pair_list() {
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        let mut positions = Vec::new();
        for i in 0..=80 {
            let x = -0.4 + i as f64 * 0.01;
            let (p1, p2, p3) = scan.positions_at(x);
            positions.extend([p1, p2, p3]);
        }
        let xs: Vec<f64> = positions.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = positions.iter().map(|p| p.y).collect();
        let zs: Vec<f64> = positions.iter().map(|p| p.z).collect();
        let lanes = PositionLanes::new(&xs, &ys, &zs);
        let strategies = [
            PairStrategy::Interval { interval: 0.2 },
            PairStrategy::AllWithMinSeparation {
                min_separation: 0.1,
                max_pairs: 500,
            },
            PairStrategy::StructuredScan {
                scan,
                x_interval: 0.2,
                tolerance: 0.005,
            },
        ];
        for strategy in strategies {
            let list = strategy.pairs(&positions);
            assert!(!list.is_empty(), "{strategy:?}");
            let mut lines = LineScratch::default();
            strategy.classify_into(lanes, &mut lines);
            // Stale entries must be cleared first.
            let (mut pair_i, mut pair_j) = (vec![7; 3], vec![9; 5]);
            let mut sink = PairLanes {
                i: &mut pair_i,
                j: &mut pair_j,
            };
            strategy.pairs_from(lanes, &lines, &mut sink);
            let narrowed: Vec<(i32, i32)> =
                list.iter().map(|&(i, j)| (i as i32, j as i32)).collect();
            let from_lanes: Vec<(i32, i32)> = pair_i.into_iter().zip(pair_j).collect();
            assert_eq!(from_lanes, narrowed, "{strategy:?}");
        }
    }

    /// One classification serves every interval: the cross partners
    /// found once per range give, at each interval, exactly the pairs of
    /// a fresh classification at that interval.
    #[test]
    fn one_classification_pairs_every_interval() {
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        let mut positions = Vec::new();
        for i in 0..=80 {
            let x = -0.4 + i as f64 * 0.01;
            let (p1, p2, p3) = scan.positions_at(x);
            // L3 misses a stretch, so some L1 samples have one partner.
            positions.extend([p1, p2]);
            if !(20..35).contains(&i) {
                positions.push(p3);
            }
        }
        let xs: Vec<f64> = positions.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = positions.iter().map(|p| p.y).collect();
        let zs: Vec<f64> = positions.iter().map(|p| p.z).collect();
        let lanes = PositionLanes::new(&xs, &ys, &zs);
        let strategy = PairStrategy::StructuredScan {
            scan,
            x_interval: 0.1,
            tolerance: 0.005,
        };
        let mut lines = LineScratch::default();
        strategy.classify_into(lanes, &mut lines);
        let mut out = Vec::new();
        for interval in [0.05, 0.2, 0.1, 0.35, f64::NAN, 0.3] {
            let at = strategy.with_interval(interval);
            at.pairs_from(lanes, &lines, &mut out);
            assert_eq!(out, at.pairs(&positions), "{interval}");
        }
    }

    #[test]
    fn empty_positions_yield_empty_pairs() {
        assert!(PairStrategy::default().pairs(&[]).is_empty());
        assert!(PairStrategy::default().pairs(&[Point3::ORIGIN]).is_empty());
    }
}
