//! The benchmark's arithmetic: order statistics over pass samples and
//! the ratios it reports, each with an explicit base.

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default `exclusive` method), so figures printed
/// here match the ones a reader recomputes from the raw samples.
/// Returns `None` for an empty sample; one sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative for tiny samples: Python extrapolates, and so do we.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// The sample median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// `part / base`, defined as 0 when nothing was attempted.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Nearest-rank percentile of integer latencies (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The residual a decomposition leaves: `whole` minus the parts that
/// were timed inside it, as a share of `whole`. Negative values mean
/// the parts overlapped or the clock jittered; they are reported as
/// measured, not clamped.
pub fn unattributed_share(whole: f64, parts: &[f64]) -> f64 {
    ratio(whole - parts.iter().sum::<f64>(), whole)
}

/// Apply-and-merge residual of a campaign, per pair: the sequential
/// wall time less the time re-measured for resolve, capture attempts,
/// fault decisions and detection over the same pairs.
pub fn apply_residual_us_per_pair(wall_s: f64, measured_s: &[f64], pairs: u64) -> f64 {
    ratio(
        (wall_s - measured_s.iter().sum::<f64>()) * 1e6,
        pairs as f64,
    )
}

/// Summary of one timed series: its median, quartiles and count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let [q1, _, q3] = quartiles(samples)?;
        Some(Summary {
            median: median(samples)?,
            q1,
            q3,
            count: samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&data).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]).unwrap(), [7.0; 3]);
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratios_use_their_stated_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        // skip ratio: skipped over submitted; hit ratio: hits over detects.
        assert_eq!(ratio(40.0, 100.0), 0.4);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn unattributed_share_is_whole_minus_parts() {
        assert!(close(unattributed_share(10.0, &[6.0, 3.0]), 0.1));
        assert!(close(unattributed_share(10.0, &[6.0, 5.0]), -0.1));
        assert_eq!(unattributed_share(0.0, &[1.0]), 0.0);
    }

    #[test]
    fn apply_residual_is_per_pair_microseconds() {
        // 2 s wall, 0.5 s resolve + 1.0 s capture over 1000 pairs
        // leaves 0.5 s = 500 us per pair.
        assert!(close(
            apply_residual_us_per_pair(2.0, &[0.5, 1.0], 1000),
            500.0
        ));
        assert_eq!(apply_residual_us_per_pair(2.0, &[1.0], 0), 0.0);
    }

    #[test]
    fn summary_collects_median_quartiles_and_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.count, 5);
    }
}
