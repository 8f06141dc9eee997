//! Order statistics and metric-name rules shared by every section.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(s[rank - 1])
}

/// Median (nearest rank). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest percentile that leaves at least [`TAIL_BEYOND`] samples
/// beyond it: the `(n - 10)`-th smallest sample, at percentile
/// `100 · (n - 10) / n`. Returns `(percentile, value)`, or `None` when
/// there are too few samples for any percentile to leave ten beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        for n in [11usize, 12, 40, 44, 100, 1000, 12_345] {
            // Reverse order so the helper has to sort.
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let (pct, value) = tail(&samples).expect("n > 10");
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            let at_or_below = samples.iter().filter(|&&s| s <= value).count();
            assert!((pct - 100.0 * at_or_below as f64 / n as f64).abs() < 1e-12);
            // One more sample would have to be beyond a higher percentile.
            let higher = samples.iter().filter(|&&s| s > value + 1.0).count();
            assert!(higher < TAIL_BEYOND);
        }
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[2.0; 11]), Some((100.0 / 11.0, 2.0)));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), Some(99.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "setup_s",
            "products-k256.pass_ms.p50",
            "serving.shed.queue_full",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "lat{ms}", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
