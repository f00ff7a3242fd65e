//! Order statistics for the reported timings.

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest first. A fixed ladder keeps runs of similar length reporting
/// the same percentile.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Fewest samples in one window of [`windowed_tail`]: enough for a p99
/// with ten samples beyond it.
const TAIL_WINDOW: usize = 1000;

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (100 means the maximum: too few
    /// samples for any ladder percentile).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub count: usize,
}

/// Sorts a copy of the samples (NaN-free by construction: every sample
/// is a duration or a ratio of positive durations).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest rank (1-based) of the percentile `tenths / 10` among `n`
/// samples: the smallest rank with at least that share of the samples
/// at or below it. Integer arithmetic, so p99.9 of 10000 is rank 9990.
fn rank(n: usize, tenths: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// The median (the mean of the middle two for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let lo = s[(s.len() - 1) / 2];
    let hi = s[s.len() / 2];
    (lo + hi) / 2.0
}

/// The highest ladder percentile that has at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, with the sample count. With too few samples for
/// even the median, the maximum is returned as percentile 100.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let count = s.len();
    for tenths in TAIL_LADDER {
        if count == 0 {
            break;
        }
        let k = rank(count, tenths);
        if count - k >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: tenths as f64 / 10.0,
                value: s[k - 1],
                count,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: s.last().copied().unwrap_or(0.0),
        count,
    }
}

/// The tail of samples taken in time order, robust to a burst of
/// interference from outside the benchmark: the samples are cut into
/// consecutive windows of at least [`TAIL_WINDOW`], and the median of the
/// windows' tails is returned. With fewer than two windows' worth of
/// samples this is [`tail`].
pub fn windowed_tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let windows = n / TAIL_WINDOW;
    if windows < 2 {
        return tail(samples);
    }
    let tails: Vec<Tail> = (0..windows)
        .map(|i| tail(&samples[i * n / windows..(i + 1) * n / windows]))
        .collect();
    let percentile = tails
        .iter()
        .map(|t| t.percentile)
        .fold(f64::INFINITY, f64::min);
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        percentile,
        value: median(&values),
        count: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9
        // would leave only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.count), (99.0, 990.0, 1000));
        // 999 samples: p99 is rank 990 with 9 beyond, so p95 it is.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value, t.count), (95.0, 950.0, 999));
        // 10000 samples reach p99.9.
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value), (99.9, 9990.0));
    }

    #[test]
    fn tail_with_too_few_samples_is_the_maximum() {
        let t = tail(&ramp(15));
        assert_eq!((t.percentile, t.value, t.count), (100.0, 15.0, 15));
        assert_eq!(tail(&[]).count, 0);
        // 20 samples: the median (rank 10) has exactly 10 beyond.
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        let mut samples = vec![1.0; 5000];
        for x in &mut samples[1000..1100] {
            *x = 100.0;
        }
        assert_eq!(tail(&samples).value, 100.0);
        let t = windowed_tail(&samples);
        assert_eq!((t.percentile, t.value, t.count), (99.0, 1.0, 5000));
        // Too few samples for two windows: the plain tail.
        assert_eq!(windowed_tail(&ramp(1999)), tail(&ramp(1999)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
