//! Sample statistics and the result line: percentiles under the
//! ten-samples-beyond rule, metric-name checks, and the JSON writer.

/// The highest percentile a sample of `n` values supports: the largest of
/// the standard ladder with at least ten samples beyond it. `None` when
/// even the median has fewer than ten samples above it (`n < 20`).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports_percentile(n, p))
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
fn supports_percentile(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Nearest-rank percentile `p` (0–100) of `samples`, which need not be
/// sorted. Panics on an empty sample: every caller has at least one op.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One reported number: a name from the benchmark's manifest, its value,
/// unit, and the exact count of operations it was measured over.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Operations behind the figure (0 when the value is itself a count).
    pub ops: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, ops: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            ops,
        }
    }
}

/// The last line of standard output: exactly the keys the result
/// contract names. Non-finite values cannot be written as JSON numbers,
/// so the caller must reject them first ([`first_invalid`]).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The first metric that cannot be reported: a bad name or a non-finite
/// value.
pub fn first_invalid(metrics: &[Metric]) -> Option<&Metric> {
    metrics
        .iter()
        .find(|m| !valid_metric_name(m.name) || !m.value.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "latency_ms_p50",
            "tt.probe_ns",
            "problem-heap.jobs",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "naïve",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Metric::new("setup_s", 0.5, "s", 3)];
        let line = result_json(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(first_invalid(&m).is_none());
        assert!(first_invalid(&[Metric::new("x", f64::NAN, "s", 0)]).is_some());
    }
}
