//! Order statistics for the bench's own samples and for the program's
//! exported histograms.

use std::time::Instant;

use lion_obs::Histogram;

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (the "type 7" rule). 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median wall time (ns) of `runs` calls to `f`, after one untimed call.
pub fn median_ns(runs: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The `q`-quantile of a [`Histogram`], interpolated linearly inside the
/// bucket that holds it.
///
/// `Histogram::quantile` reports the bucket's upper bound, so its answer
/// moves in 6.25% steps; a regression bound tighter than one step could
/// then only read "unchanged" or "one bucket worse". Interpolating on the
/// bucket's rank makes the estimate continuous in the underlying samples.
pub fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.count() as f64;
    let mut seen = 0.0;
    for (upper, count) in h.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank {
            let lower = bucket_lower(upper) as f64;
            let width = (upper as f64 - lower) + 1.0;
            let value = lower + width * ((rank - seen) / count);
            return value.clamp(h.min() as f64, h.max() as f64);
        }
        seen += count;
    }
    h.max() as f64
}

/// Adds what `after` holds beyond `before` (an earlier snapshot of the same
/// histogram) into `into`, each value scaled by `scale`. A bucket's values
/// are taken at its midpoint.
pub fn add_scaled_delta(into: &mut Histogram, before: &Histogram, after: &Histogram, scale: f64) {
    let mut seen = before.nonzero_buckets().peekable();
    for (upper, count) in after.nonzero_buckets() {
        let mut earlier = 0;
        while let Some(&(u, c)) = seen.peek() {
            if u > upper {
                break;
            }
            if u == upper {
                earlier = c;
            }
            seen.next();
        }
        let mid = (bucket_lower(upper) + upper) as f64 / 2.0;
        into.record_n((mid * scale).round() as u64, count.saturating_sub(earlier));
    }
}

/// Inclusive lower bound of the log-linear bucket whose inclusive upper
/// bound is `upper` (16 linear sub-buckets per power of two, exact below
/// 16 — the layout `lion_obs::Histogram` documents).
fn bucket_lower(upper: u64) -> u64 {
    if upper < lion_obs::SUB_BUCKETS {
        return upper;
    }
    let msb = 63 - upper.leading_zeros();
    let width = 1u64 << (msb - lion_obs::SUB_BUCKETS.trailing_zeros());
    upper + 1 - width
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket_and_moves_continuously() {
        let mut h = Histogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        let p50 = histogram_quantile(&h, 0.5);
        assert!((p50 - 1_500.0).abs() < 1_500.0 / 16.0, "p50 {p50}");
        assert!(histogram_quantile(&h, 0.51) > p50);
        assert!(histogram_quantile(&h, 0.99) <= 1_999.0);
        assert_eq!(bucket_lower(15), 15);
        // The bucket holding 1_000 spans [992, 1_023].
        assert_eq!(bucket_lower(1_023), 992);
    }

    #[test]
    fn a_scaled_delta_holds_only_the_new_values() {
        let mut before = Histogram::new();
        before.record_n(1_000, 5);
        let mut after = before.clone();
        after.record_n(1_000, 2);
        after.record_n(4_000, 3);
        let mut into = Histogram::new();
        add_scaled_delta(&mut into, &before, &after, 0.5);
        assert_eq!(into.count(), 5);
        // 1_000 sits in [992, 1_023] and 4_000 in [3_968, 4_095].
        assert_eq!(into.min(), 504);
        assert_eq!(into.max(), 2_016);
    }
}
