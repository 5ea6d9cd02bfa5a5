//! Percentiles, medians and the quietest-window summary every latency
//! is reported through.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` per cent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median (p50) of unordered integer samples, as `f64`.
pub fn p50(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile(samples, 50.0) as f64
}

/// A p99 needs ten samples beyond it to be more than the worst few.
pub const MIN_SAMPLES_FOR_P99: usize = 1000;

/// The latencies of one window (one latency slice of a run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowLatency {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

/// Sorts a window's samples and takes its p50 and p99.
///
/// # Panics
///
/// Panics on an empty window.
pub fn window_latency<T: Copy + Ord + Into<u64>>(samples: &mut [T]) -> WindowLatency {
    samples.sort_unstable();
    let at = |p: f64| -> u64 { percentile(samples, p).into() };
    WindowLatency {
        p50: at(50.0) as f64,
        p99: at(99.0) as f64,
        samples: samples.len(),
    }
}

/// A run's latency: the lowest over its windows of each window's p50
/// and of each window's p99. The box this runs on slows down for seconds
/// at a time, by a third and more, for reasons outside the machine (see
/// the README's *Hazards*): that interference only ever adds, it covers
/// half of one run and none of the next, and the median over windows of
/// ten runs of one build then spreads by more than any bound the
/// benchmark may store. The quietest window is the best estimate of the
/// undisturbed system and the only one that repeats. What it cannot
/// show is a change that makes some windows slow and leaves others
/// alone, so the median over windows is kept beside it and printed with
/// every run.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Lowest over windows of each window's p50, in the samples' unit.
    pub p50: f64,
    /// Lowest over windows of each window's p99.
    pub p99: f64,
    /// Median over windows of each window's p50.
    pub median_p50: f64,
    /// Every window's p50, in run order.
    pub p50s: Vec<f64>,
    pub samples: usize,
    /// Whether every window held [`MIN_SAMPLES_FOR_P99`] samples.
    pub p99_supported: bool,
}

impl LatencySummary {
    /// # Panics
    ///
    /// Panics if there are no windows.
    pub fn over(windows: &[WindowLatency]) -> LatencySummary {
        let lowest =
            |f: fn(&WindowLatency) -> f64| windows.iter().map(f).fold(f64::INFINITY, f64::min);
        let p50s: Vec<f64> = windows.iter().map(|w| w.p50).collect();
        LatencySummary {
            p50: lowest(|w| w.p50),
            p99: lowest(|w| w.p99),
            median_p50: median(&p50s),
            p50s,
            samples: windows.iter().map(|w| w.samples).sum(),
            p99_supported: windows.iter().all(|w| w.samples >= MIN_SAMPLES_FOR_P99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 99.0), 7);
        let odd = [1u64, 2, 3, 4, 5];
        assert_eq!(percentile(&odd, 50.0), 3);
        assert_eq!(percentile(&odd, 99.0), 5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    fn window(level: u64, burst: usize) -> WindowLatency {
        let mut s = vec![level; 1000];
        for x in &mut s[..burst] {
            *x = 9000;
        }
        window_latency(&mut s)
    }

    #[test]
    fn disturbed_windows_do_not_move_the_summary() {
        // Five windows at 10; three of them are slowed to 15 throughout
        // and one of those holds a burst of 50 at 9000 on top.
        let w = [
            window(15, 0),
            window(15, 50),
            window(10, 0),
            window(15, 0),
            window(10, 0),
        ];
        assert_eq!((w[1].p50, w[1].p99), (15.0, 9000.0));
        let sum = LatencySummary::over(&w);
        assert_eq!((sum.p50, sum.p99), (10.0, 10.0));
        // The median over windows reads what most ops saw.
        assert_eq!(sum.median_p50, 15.0);
        assert_eq!((sum.p50s.len(), sum.samples), (5, 5000));
        assert!(sum.p99_supported);
    }

    #[test]
    fn thin_windows_are_flagged() {
        let mut few = [3u32, 1, 2];
        let w = window_latency(&mut few);
        assert_eq!((w.p50, w.p99, w.samples), (2.0, 3.0, 3));
        assert!(!LatencySummary::over(&[w]).p99_supported);
    }
}
