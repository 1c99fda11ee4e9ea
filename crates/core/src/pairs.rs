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

    /// Generates sample-index pairs for the given positions.
    ///
    /// Invalid parameters (non-positive intervals) yield an empty list,
    /// which the caller reports as [`crate::CoreError::NoPairs`].
    pub fn pairs(&self, positions: &[Point3]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.pairs_into(positions, &mut out);
        out
    }

    /// [`PairStrategy::pairs`] into a caller-provided buffer, reusing its
    /// allocation. [`PairStrategy::Interval`] and
    /// [`PairStrategy::AllWithMinSeparation`] are allocation-free in
    /// steady state; [`PairStrategy::StructuredScan`] allocates its
    /// per-line index buffers on every call here. The solve pipeline
    /// pairs through the same two halves with those buffers kept in the
    /// [`crate::Workspace`], which makes every strategy allocation-free
    /// on the adaptive sweep's hot path.
    pub fn pairs_into(&self, positions: &[Point3], out: &mut Vec<(usize, usize)>) {
        let mut lines = LineScratch::default();
        self.classify_into(positions, &mut lines);
        self.pairs_from(positions, &lines, out);
    }

    /// The interval-independent half of pairing: sorts the samples of
    /// [`PairStrategy::StructuredScan`] onto its scan lines, each line in
    /// x order. Other strategies need no classification and leave
    /// `lines` empty. The adaptive sweep runs this once per scanning
    /// range and [`PairStrategy::pairs_from`] once per interval.
    pub(crate) fn classify_into(&self, positions: &[Point3], lines: &mut LineScratch) {
        for line in lines.iter_mut() {
            line.clear();
        }
        if let PairStrategy::StructuredScan {
            scan, tolerance, ..
        } = self
        {
            classify_lines(positions, scan, *tolerance, lines);
        }
    }

    /// The interval-dependent half of pairing, reading the scan lines a
    /// [`PairStrategy::classify_into`] call with the same scan and
    /// tolerance left in `lines`.
    pub(crate) fn pairs_from(
        &self,
        positions: &[Point3],
        lines: &LineScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        match self {
            PairStrategy::Interval { interval } => interval_pairs_into(positions, *interval, out),
            PairStrategy::AllWithMinSeparation {
                min_separation,
                max_pairs,
            } => all_pairs_into(positions, *min_separation, *max_pairs, out),
            PairStrategy::StructuredScan {
                x_interval,
                tolerance,
                ..
            } => structured_pairs_into(positions, *x_interval, *tolerance, lines, out),
        }
    }
}

/// The sample indices [`PairStrategy::StructuredScan`] classifies onto
/// each scan line (`L1`, `L2`, `L3`), sorted by x.
pub(crate) type LineScratch = [Vec<usize>; 3];

fn interval_pairs_into(positions: &[Point3], interval: f64, out: &mut Vec<(usize, usize)>) {
    if !(interval > 0.0 && interval.is_finite()) {
        return;
    }
    let mut j = 0;
    for i in 0..positions.len() {
        if j <= i {
            j = i + 1;
        }
        while j < positions.len() && positions[i].distance(positions[j]) < interval {
            j += 1;
        }
        if j < positions.len() {
            out.push((i, j));
        }
    }
}

fn all_pairs_into(
    positions: &[Point3],
    min_separation: f64,
    max_pairs: usize,
    out: &mut Vec<(usize, usize)>,
) {
    if !(min_separation > 0.0 && min_separation.is_finite()) || max_pairs == 0 {
        return;
    }
    let n = positions.len();
    // Estimate the count and choose strides to stay near the cap without an
    // O(n²) materialization first.
    let total_candidates = n.saturating_mul(n.saturating_sub(1)) / 2;
    let stride = (total_candidates / max_pairs.max(1)).max(1);
    let mut counter = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i].distance(positions[j]) >= min_separation {
                if counter.is_multiple_of(stride) && out.len() < max_pairs {
                    out.push((i, j));
                }
                counter += 1;
            }
        }
        if out.len() >= max_pairs {
            break;
        }
    }
}

/// Classifies samples onto the three scan lines by (y, z) proximity and
/// sorts each line by x. A sample whose x is not finite can never pair
/// (its x distance to anything is NaN or infinite), so it is left off
/// every line; that keeps the sort total.
fn classify_lines(
    positions: &[Point3],
    scan: &ThreeLineScan,
    tolerance: f64,
    lines: &mut LineScratch,
) {
    let [l1, l2, l3] = lines;
    for (i, p) in positions.iter().enumerate() {
        if !p.x.is_finite() {
            continue;
        }
        if p.y.abs() <= tolerance && p.z.abs() <= tolerance {
            l1.push(i);
        } else if p.y.abs() <= tolerance && (p.z - scan.z_offset()).abs() <= tolerance {
            l2.push(i);
        } else if (p.y + scan.y_offset()).abs() <= tolerance && p.z.abs() <= tolerance {
            l3.push(i);
        }
    }
    // Each line holds ascending indices, so ordering by (x, index) is the
    // stable x order, reached without the stable sort's scratch buffer.
    for line in lines.iter_mut() {
        line.sort_unstable_by(|&a, &b| {
            positions[a]
                .x
                .partial_cmp(&positions[b].x)
                .expect("classified x is finite")
                .then(a.cmp(&b))
        });
    }
}

fn structured_pairs_into(
    positions: &[Point3],
    x_interval: f64,
    tolerance: f64,
    lines: &LineScratch,
    out: &mut Vec<(usize, usize)>,
) {
    // NaN-safe: comparisons are false for NaN, so NaN parameters bail out.
    let params_ok = x_interval > 0.0 && x_interval.is_finite() && tolerance > 0.0;
    if !params_ok {
        return;
    }
    let [l1, l2, l3] = lines;
    // The queries below rise with x along L1, so each line's partition
    // point only moves forward: one cursor per line pairs in linear time.
    let (mut c1, mut c2, mut c3) = (0, 0, 0);
    for &i in l1.iter() {
        let x = positions[i].x;
        // x-pair along L1 (observes the x coordinate).
        if let Some(j) = nearest_from(positions, l1, &mut c1, x + x_interval, tolerance) {
            if j != i {
                out.push((i, j));
            }
        }
        // Cross pair to L3 at the same x (observes y).
        if let Some(j) = nearest_from(positions, l3, &mut c3, x, tolerance) {
            out.push((i, j));
        }
        // Cross pair to L2 at the same x (observes z).
        if let Some(j) = nearest_from(positions, l2, &mut c2, x, tolerance) {
            out.push((i, j));
        }
    }
}

/// The sample on x-sorted `line` nearest `x`, if within `tolerance`.
/// `pos` is the partition point of the previous query (the first sample
/// with x ≥ it); queries must not decrease between calls.
fn nearest_from(
    positions: &[Point3],
    line: &[usize],
    pos: &mut usize,
    x: f64,
    tolerance: f64,
) -> Option<usize> {
    while *pos < line.len() && positions[line[*pos]].x < x {
        *pos += 1;
    }
    let mut best: Option<usize> = None;
    for c in [pos.checked_sub(1), Some(*pos)].into_iter().flatten() {
        if c < line.len() {
            let idx = line[c];
            let err = (positions[idx].x - x).abs();
            if err <= tolerance && best.is_none_or(|b| (positions[b].x - x).abs() > err) {
                best = Some(idx);
            }
        }
    }
    best
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

    #[test]
    fn empty_positions_yield_empty_pairs() {
        assert!(PairStrategy::default().pairs(&[]).is_empty());
        assert!(PairStrategy::default().pairs(&[Point3::ORIGIN]).is_empty());
    }
}
