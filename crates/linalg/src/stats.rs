//! Summary statistics, circular (phase) statistics, and simple filters.
//!
//! RFID phase measurements live on the circle `[0, 2π)`, so several
//! quantities the LION pipeline needs (the hardware phase offset of Eq. 17,
//! phase comparisons across antennas) must be computed with circular
//! statistics rather than ordinary means. The linear statistics here back
//! the residual weighting (Eq. 15) and the adaptive parameter selection.

use std::f64::consts::{PI, TAU};

/// Arithmetic mean; `None` for empty input.
///
/// # Example
///
/// ```
/// assert_eq!(lion_linalg::stats::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(lion_linalg::stats::mean(&[]), None);
/// ```
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population variance; `None` for empty input.
pub fn variance(values: &[f64]) -> Option<f64> {
    Some(variance_with_mean(values, mean(values)?))
}

/// Population variance about a precomputed mean. Identical arithmetic to
/// [`variance`] given `mean(values)`; callers that already hold the mean
/// save a pass over the data.
pub fn variance_with_mean(values: &[f64], mean: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation; `None` for empty input.
pub fn std_dev(values: &[f64]) -> Option<f64> {
    variance(values).map(f64::sqrt)
}

/// Root mean square; `None` for empty input.
pub fn rms(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some((values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt())
    }
}

/// Median (average of the middle two for even counts); `None` for empty
/// input or when the data contains NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p ∈ [0, 100]`; `None` for empty input,
/// NaN data, or `p` out of range.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("nan filtered above"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Mean absolute value; `None` for empty input.
pub fn mean_abs(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().map(|v| v.abs()).sum::<f64>() / values.len() as f64)
    }
}

/// Normalizes an angle to `[0, 2π)`.
///
/// # Example
///
/// ```
/// use std::f64::consts::PI;
/// let a = lion_linalg::stats::wrap_angle(-PI / 2.0);
/// assert!((a - 1.5 * PI).abs() < 1e-12);
/// ```
pub fn wrap_angle(theta: f64) -> f64 {
    let r = theta.rem_euclid(TAU);
    // rem_euclid can return TAU itself for tiny negative inputs.
    if r >= TAU {
        r - TAU
    } else {
        r
    }
}

/// Signed smallest difference `a − b` on the circle, in `(−π, π]`.
///
/// # Example
///
/// ```
/// use std::f64::consts::PI;
/// let d = lion_linalg::stats::circular_diff(0.1, 2.0 * PI - 0.1);
/// assert!((d - 0.2).abs() < 1e-12);
/// ```
pub fn circular_diff(a: f64, b: f64) -> f64 {
    let d = wrap_angle(a - b);
    if d > PI {
        d - TAU
    } else {
        d
    }
}

/// The resultant of a set of angles, `(Σ sin a, Σ cos a)` over `count`
/// angles, folded in push order: the one pass behind both
/// [`circular_mean`] and [`circular_std_dev`]. A caller that needs both
/// statistics, or whose angles are derived on the fly, folds once and
/// reads both without collecting the angles.
///
/// # Example
///
/// ```
/// use lion_linalg::stats::{circular_mean, CircularResultant};
///
/// let angles = [0.1, 0.3, 6.2];
/// let mut r = CircularResultant::default();
/// for &a in &angles {
///     r.push(a);
/// }
/// assert_eq!(r.mean(), circular_mean(&angles));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CircularResultant {
    sin_sum: f64,
    cos_sum: f64,
    count: usize,
}

impl CircularResultant {
    /// Folds `angles` in order.
    pub fn of(angles: &[f64]) -> Self {
        let mut r = CircularResultant::default();
        for &a in angles {
            r.push(a);
        }
        r
    }

    /// Adds one angle (radians).
    pub fn push(&mut self, angle: f64) {
        self.sin_sum += angle.sin();
        self.cos_sum += angle.cos();
        self.count += 1;
    }

    /// Mean resultant length `R ∈ [0, 1]` before clamping; `None` when
    /// no angle was pushed.
    fn length(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (s, c) = (self.sin_sum, self.cos_sum);
        Some((s * s + c * c).sqrt() / self.count as f64)
    }

    /// The circular mean in `[0, 2π)`; `None` when no angle was pushed or
    /// the resultant collapses to zero.
    pub fn mean(&self) -> Option<f64> {
        if self.length()? < 1e-12 {
            return None;
        }
        Some(wrap_angle(self.sin_sum.atan2(self.cos_sum)))
    }

    /// The circular standard deviation `√(−2·ln R)`; `None` when no
    /// angle was pushed, infinite when `R` is zero.
    pub fn std_dev(&self) -> Option<f64> {
        let r = self.length()?.clamp(0.0, 1.0);
        if r == 0.0 {
            return Some(f64::INFINITY);
        }
        Some((-2.0 * r.ln()).sqrt())
    }
}

/// Circular mean of angles in radians; `None` for empty input or when the
/// resultant vector collapses to zero (uniformly spread angles have no
/// meaningful mean).
///
/// Used to average the per-sample phase-offset estimates in the calibration
/// step (paper Eq. 17): offsets near `0` and near `2π` must average to `~0`,
/// not to `π`.
pub fn circular_mean(angles: &[f64]) -> Option<f64> {
    CircularResultant::of(angles).mean()
}

/// Circular standard deviation `√(−2·ln R)` where `R` is the mean resultant
/// length; `None` for empty input.
pub fn circular_std_dev(angles: &[f64]) -> Option<f64> {
    CircularResultant::of(angles).std_dev()
}

/// Centered moving-average filter with the given window size (the paper's
/// smoothing step, Sec. IV-A2). Windows are truncated at the edges so the
/// output has the same length as the input.
///
/// A `window` of 0 or 1 returns the input unchanged.
///
/// # Example
///
/// ```
/// let smoothed = lion_linalg::stats::moving_average(&[1.0, 5.0, 1.0], 3);
/// assert!((smoothed[1] - 7.0 / 3.0).abs() < 1e-12);
/// ```
pub fn moving_average(values: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    moving_average_into(values, window, &mut prefix, &mut out);
    out
}

/// [`moving_average`] into caller-provided buffers, reusing their
/// allocations. `prefix` is scratch for the prefix sums; `out` receives
/// the smoothed values. Bit-identical to [`moving_average`] (same
/// operations in the same order) — the streaming and adaptive-sweep hot
/// paths rely on that to stay exactly in parity with the batch path.
pub fn moving_average_into(
    values: &[f64],
    window: usize,
    prefix: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    out.clear();
    if window <= 1 || values.len() <= 1 {
        out.extend_from_slice(values);
        return;
    }
    let n = values.len();
    // Prefix sums for O(n) averaging.
    prefix.clear();
    prefix.push(0.0);
    for &v in values {
        prefix.push(prefix.last().expect("seeded with 0.0") + v);
    }
    out.resize(n, 0.0);
    crate::simd::sliding_mean_from_prefix(prefix, window, out);
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Handy for long reader traces where collecting everything before
/// computing statistics would be wasteful.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean; `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Current population variance; `None` before any observation.
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.m2 / self.count as f64)
        }
    }

    /// Current population standard deviation; `None` before any observation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), Some(5.0));
        assert_eq!(variance(&v), Some(4.0));
        assert_eq!(std_dev(&v), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
    }

    #[test]
    fn rms_and_mean_abs() {
        assert_eq!(rms(&[3.0, -4.0]), Some((12.5_f64).sqrt()));
        assert_eq!(mean_abs(&[1.0, -3.0]), Some(2.0));
        assert_eq!(rms(&[]), None);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), Some(4.0));
        assert_eq!(percentile(&[1.0, 2.0], 101.0), None);
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn wrapping() {
        assert!((wrap_angle(TAU + 0.5) - 0.5).abs() < 1e-12);
        assert!((wrap_angle(-0.5) - (TAU - 0.5)).abs() < 1e-12);
        assert_eq!(wrap_angle(0.0), 0.0);
        let w = wrap_angle(-1e-18);
        assert!((0.0..TAU).contains(&w));
    }

    #[test]
    fn circular_difference() {
        assert!((circular_diff(0.2, 0.1) - 0.1).abs() < 1e-12);
        assert!((circular_diff(0.1, 0.2) + 0.1).abs() < 1e-12);
        // Across the wrap point.
        assert!((circular_diff(TAU - 0.1, 0.1) + 0.2).abs() < 1e-12);
        // Antipodal maps to +π.
        assert!((circular_diff(PI, 0.0) - PI).abs() < 1e-12);
    }

    #[test]
    fn circular_mean_near_wrap() {
        let angles = [0.1, TAU - 0.1];
        let m = circular_mean(&angles).unwrap();
        assert!(m < 1e-9 || (TAU - m) < 1e-9, "mean {m}");
        assert_eq!(circular_mean(&[]), None);
        // Uniformly spread angles have no mean.
        assert_eq!(circular_mean(&[0.0, PI / 2.0, PI, 1.5 * PI]), None);
    }

    #[test]
    fn circular_std() {
        let tight = circular_std_dev(&[1.0, 1.01, 0.99]).unwrap();
        assert!(tight < 0.1);
        let spread = circular_std_dev(&[0.0, 2.0, 4.0]).unwrap();
        assert!(spread > tight);
        assert_eq!(circular_std_dev(&[]), None);
    }

    #[test]
    fn resultant_matches_the_two_pass_fold() {
        // Reference: each statistic straight from its definition.
        let reference = |angles: &[f64]| {
            let (s, c) = angles
                .iter()
                .fold((0.0_f64, 0.0_f64), |(s, c), &a| (s + a.sin(), c + a.cos()));
            let len = (s * s + c * c).sqrt() / angles.len() as f64;
            let mean = (len >= 1e-12).then(|| wrap_angle(s.atan2(c)));
            let r = len.clamp(0.0, 1.0);
            let std = if r == 0.0 {
                f64::INFINITY
            } else {
                (-2.0 * r.ln()).sqrt()
            };
            (mean, std)
        };
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        for n in 1..64 {
            let angles: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 1.0
                })
                .collect();
            let (mean, std) = reference(&angles);
            assert_eq!(circular_mean(&angles), mean);
            assert_eq!(circular_std_dev(&angles), Some(std));
        }
    }

    #[test]
    fn moving_average_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(moving_average(&v, 1), v.to_vec());
        assert_eq!(moving_average(&v, 0), v.to_vec());
        let s = moving_average(&v, 3);
        assert_eq!(s.len(), v.len());
        assert!((s[2] - 3.0).abs() < 1e-12);
        // Constant input is a fixed point of smoothing.
        let c = moving_average(&[2.0; 6], 4);
        assert!(c.iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }

    #[test]
    fn moving_average_reduces_noise_energy() {
        // Alternating noise around 0 should shrink.
        let v: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = moving_average(&v, 5);
        assert!(rms(&s).unwrap() < rms(&v).unwrap());
    }

    #[test]
    fn running_stats_matches_batch() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        rs.extend(v.iter().copied());
        assert_eq!(rs.count(), 8);
        assert!((rs.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((rs.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((rs.std_dev().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(RunningStats::new().mean(), None);
    }
}
