//! Statistics the benchmark reports: nearest-rank percentiles, median and
//! quartiles, interval unions for self-time accounting, metric-name
//! validation, and the repeat check for simulated-clock values.

/// Nearest-rank percentile of `values` (`p` in (0, 100]): the smallest
/// sample with at least `p`% of the samples at or below it. Returns 0
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median latency of each request class, averaged over the classes:
/// `samples` holds `(class, value)` pairs. With one class this is the
/// plain median. Per-class medians keep a mix of cheap and costly classes
/// from making the figure jump between them, and keep a request slowed by
/// a passing hiccup of the machine from moving it. 0 when empty.
pub fn class_median(samples: &[(usize, f64)]) -> f64 {
    let mut classes: Vec<usize> = samples.iter().map(|&(c, _)| c).collect();
    classes.sort_unstable();
    classes.dedup();
    let medians: Vec<f64> = classes
        .iter()
        .map(|&c| {
            let of: Vec<f64> = samples
                .iter()
                .filter(|&&(k, _)| k == c)
                .map(|&(_, v)| v)
                .collect();
            median(&of)
        })
        .collect();
    mean(&medians)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's spread
/// is judged by. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Total length covered by the union of half-open `[start, end)`
/// intervals (overlaps counted once).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Whether `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Names of the simulated-clock values (units starting with `sim_`) that
/// differ between two runs of the same seed. The simulated clock is a
/// pure function of the inputs, so any entry here is a determinism bug.
pub fn sim_drift(a: &[(String, f64, &str)], b: &[(String, f64, &str)]) -> Vec<String> {
    a.iter()
        .filter(|(_, _, unit)| unit.starts_with("sim_"))
        .filter(|(name, value, _)| {
            b.iter()
                .find(|(other, _, _)| other == name)
                .is_none_or(|(_, v, _)| v.to_bits() != value.to_bits())
        })
        .map(|(name, _, _)| name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn class_median_weighs_classes_alike() {
        assert_eq!(class_median(&[]), 0.0);
        // One class: the plain median.
        assert_eq!(class_median(&[(0, 3.0), (0, 1.0), (0, 2.0)]), 2.0);
        // Class 0's median is 10 whatever its outlier; class 1's is 101.
        let v = [
            (0, 10.0),
            (1, 100.0),
            (0, 9.0),
            (0, 500.0),
            (1, 102.0),
            (0, 11.0),
        ];
        assert_eq!(class_median(&v), (10.5 + 101.0) / 2.0);
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(20, 30), (0, 10), (10, 12)]), 22);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn metric_names() {
        assert!(valid_metric_name("latency_ms.p90"));
        assert!(valid_metric_name("msm.g1.busy_ms"));
        assert!(valid_metric_name("peak-rss"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("latency ms"));
        assert!(!valid_metric_name("p2p-MB [ms]"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn sim_values_must_repeat() {
        let run = |sim: f64, host: f64| {
            vec![
                ("sim_prove_ms".to_string(), sim, "sim_ms"),
                ("latency_ms.p50".to_string(), host, "ms"),
            ]
        };
        // Host-clock values may differ; simulated ones may not.
        assert!(sim_drift(&run(18.5, 100.0), &run(18.5, 103.0)).is_empty());
        assert_eq!(
            sim_drift(&run(18.5, 100.0), &run(18.500001, 100.0)),
            vec!["sim_prove_ms".to_string()]
        );
        // A simulated value missing from the second run is flagged too.
        assert_eq!(
            sim_drift(&run(18.5, 1.0), &[]),
            vec!["sim_prove_ms".to_string()]
        );
    }
}
