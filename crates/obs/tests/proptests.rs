//! Property-based tests for the log-linear histogram and the JSON codec.

use proptest::prelude::*;

use lion_obs::json::{escape, number, parse, Json};
use lion_obs::{Histogram, SUB_BUCKETS};

/// Exact quantile of a value list: rank-⌈q·n⌉ order statistic.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..2_000_000_000, 1..200)
}

/// JSON punctuation and keyword letters: codes past 255 draw from here,
/// so the parser gets past the first byte of most inputs.
const JSON_BYTES: &[u8] = b"[]{}\",:\\ 0123456789.eE+-tnrfualsu";

/// Arbitrary bytes, half of them JSON-ish, decoded lossily to a string.
fn byte_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u64..512, 0..96).prop_map(|codes| {
        let bytes: Vec<u8> = codes
            .iter()
            .map(|&c| match u8::try_from(c) {
                Ok(b) => b,
                Err(_) => JSON_BYTES[c as usize % JSON_BYTES.len()],
            })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Arbitrary Unicode scalar values, control characters included.
fn unicode_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u64..0x11_0000, 0..48).prop_map(|codes| {
        codes
            .iter()
            .filter_map(|&c| char::from_u32(c as u32))
            .collect()
    })
}

proptest! {
    #[test]
    fn quantiles_bracket_the_exact_order_statistic(vs in values(), q in 0.0f64..1.0) {
        let mut h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let approx = h.quantile(q);
        // Never below the true quantile, at most one sub-bucket above.
        prop_assert!(approx >= exact, "approx {approx} < exact {exact}");
        let bound = exact as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0;
        prop_assert!((approx as f64) <= bound, "approx {approx} > bound {bound}");
    }

    #[test]
    fn merge_quantiles_bound_the_inputs(a in values(), b in values(), q in 0.0f64..1.0) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let (qa, qb) = (ha.quantile(q), hb.quantile(q));
        let mut merged = ha.clone();
        merged.merge(&hb);
        let qm = merged.quantile(q);
        // The exact merged q-quantile lies between the inputs' exact
        // quantiles; each reported quantile sits within one sub-bucket of
        // its exact value, so the merged report is bounded by the input
        // reports up to that quantization slack on either side.
        let eps = 1.0 + 1.0 / SUB_BUCKETS as f64;
        let low = (qa.min(qb) as f64 - 1.0) / eps;
        let high = qa.max(qb) as f64 * eps + 1.0;
        prop_assert!(qm as f64 >= low, "merged {qm} below input bound {low} ({qa}/{qb})");
        prop_assert!(qm as f64 <= high, "merged {qm} above input bound {high} ({qa}/{qb})");
    }

    #[test]
    fn merge_is_exactly_recording_the_concatenation(a in values(), b in values()) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut both = Histogram::new();
        for &v in &a {
            ha.record(v);
            both.record(v);
        }
        for &v in &b {
            hb.record(v);
            both.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha, both);
    }

    #[test]
    fn extreme_values_do_not_overflow_bucket_math(v in 0u64..u64::MAX, n in 1u64..4) {
        let mut h = Histogram::new();
        h.record_n(v, n);
        h.record(u64::MAX);
        h.record(0);
        // Count/sum saturate; max and the 1.0-quantile report u64::MAX.
        prop_assert_eq!(h.count(), n + 2);
        prop_assert_eq!(h.max(), u64::MAX);
        prop_assert_eq!(h.quantile(1.0), u64::MAX);
        prop_assert_eq!(h.min(), 0);
        prop_assert!(h.quantile(0.5) >= h.min());
        // Merging two saturated histograms stays well-defined.
        let mut other = h.clone();
        other.merge(&h);
        prop_assert_eq!(other.count(), (n + 2) * 2);
        prop_assert_eq!(other.quantile(1.0), u64::MAX);
    }

    #[test]
    fn json_round_trip_preserves_everything(vs in values()) {
        let mut h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let line = h.to_json();
        let parsed = lion_obs::json::parse(&line).expect("valid json");
        let back = Histogram::from_json(&parsed).expect("well-formed");
        prop_assert_eq!(h, back);
    }

    #[test]
    fn json_parse_never_panics_on_arbitrary_text(text in byte_text()) {
        if let Err(e) = parse(&text) {
            prop_assert!(e.offset <= text.len(), "offset {} past {}", e.offset, text.len());
        }
    }

    #[test]
    fn json_number_round_trips_finite_values_and_nulls_the_rest(
        bits in 0u64..u64::MAX,
        pick in 0u64..8,
    ) {
        // Every bit pattern, with the non-finite values drawn often.
        let x = match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => f64::from_bits(bits),
        };
        let back = parse(&number(x)).expect("number renders valid JSON");
        if x.is_finite() {
            prop_assert_eq!(back.as_f64(), Some(x));
        } else {
            prop_assert_eq!(back, Json::Null);
        }
    }

    #[test]
    fn json_escape_round_trips_any_string(a in byte_text(), b in unicode_text()) {
        for s in [&a, &b] {
            let doc = format!("\"{}\"", escape(s));
            prop_assert_eq!(parse(&doc), Ok(Json::Str(s.clone())));
        }
    }
}
