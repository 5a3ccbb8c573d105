//! Order statistics over timing samples, and the process's peak memory.

/// Median of `xs` (the mean of the two middle values for an even count);
/// NaN when there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method). A single sample
/// is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [s[0]; 3];
    }
    [1.0, 2.0, 3.0].map(|i| {
        let m = (n as f64 + 1.0) * i / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    })
}

/// The tail of a latency distribution: the highest of p99, p95 and p90 that
/// has at least ten samples beyond it (so p99 needs 1000 samples), or with
/// fewer than 100 samples the highest percentile that has ten beyond it (the
/// maximum when there are fewer than eleven). Returns `(percentile, value)`;
/// the value is NaN when there are no samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (100.0, f64::NAN);
    }
    for p in [99.0, 95.0, 90.0] {
        let rank = (p / 100.0 * n as f64).ceil() as usize; // nearest rank, 1-based
        if n - rank >= 10 {
            return (p, s[rank - 1]);
        }
    }
    if n < 11 {
        return (100.0, s[n - 1]);
    }
    let rank = n - 10; // ten samples lie above this one
    (100.0 * rank as f64 / n as f64, s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(tail(&upto(2000)), (99.0, 1980.0));
        assert_eq!(tail(&upto(1000)), (99.0, 990.0));
        assert_eq!(tail(&upto(300)), (95.0, 285.0));
        assert_eq!(tail(&upto(100)), (90.0, 90.0));
        assert_eq!(tail(&upto(50)), (80.0, 40.0));
        assert_eq!(tail(&[5.0, 1.0]), (100.0, 5.0));
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
