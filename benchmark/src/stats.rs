//! The harness's own statistics, so a change to `sam-metrics` cannot change
//! the measuring stick.

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `p` percent of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending; NaN sorts last so it shows up in the tail.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an unsorted, non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median as the mean of the two middle values for even counts (what
/// Python's `statistics.median` returns), used for the median-of-rounds.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)` — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// (max − min) ÷ median: how far the rounds of one phase disagree.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values).abs()
}

/// Median traced round ÷ median untraced round − 1: what recording spans
/// costs. `None` unless both kinds of round were run.
pub fn span_cost_share(round_s: &[f64], traced: &[bool]) -> Option<f64> {
    let rounds = |want: bool| -> Vec<f64> {
        round_s
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(s, _)| *s)
            .collect()
    };
    let (on, off) = (rounds(true), rounds(false));
    (!on.is_empty() && !off.is_empty()).then(|| median(&on) / median(&off) - 1.0)
}

/// Q-Error of an estimate against the truth, both floored at one tuple.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let (a, b) = (estimate.max(1.0), truth.max(1.0));
    (a / b).max(b / a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        let one = [7.0];
        assert_eq!(percentile(&one, 0.0), 7.0);
        assert_eq!(percentile(&one, 50.0), 7.0);
        assert_eq!(percentile(&one, 100.0), 7.0);

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);

        // Five samples: the 95th nearest rank is the largest.
        let five = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(percentile(&five, 95.0), 5.0);
        assert_eq!(percentile(&five, 50.0), 3.0);
        assert_eq!(percentile(&five, 20.0), 1.0);
        assert_eq!(percentile(&five, 20.1), 2.0);
    }

    #[test]
    fn percentile_input_order_does_not_matter() {
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[2.0, 2.0, 2.0, 2.0], 75.0), 2.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[1.5]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let (q1, q3) = quartiles(&[30.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 30.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_cost_needs_both_kinds_of_round() {
        assert_eq!(span_cost_share(&[1.0, 2.0], &[false, false]), None);
        let cost = span_cost_share(&[1.0, 1.1, 1.0, 1.1], &[false, true, false, true]);
        assert!((cost.unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(10.0, 5.0), 2.0);
        assert_eq!(q_error(5.0, 10.0), 2.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(0.2, 4.0), 4.0);
    }
}
