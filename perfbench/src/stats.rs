//! The benchmark's statistics: nearest-rank percentiles, the tail rule,
//! the open-loop rate-step logic, and every ratio with its base named.

/// Samples the tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// Fewest sessions in one window of [`windowed_tail`]: a full window's
/// tail sits at its p90 or higher.
pub const TAIL_WINDOW: usize = 100;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p / 100 · n)`, clamped to `1..=n`. Returns 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank median.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Sorts a copy ascending.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail reading: the value, the percentile it sits at, the sample
/// count, how many samples lie beyond it, and how many windows it is
/// the median of (the other fields describe the median window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
    pub windows: usize,
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, i.e. rank `n − 10`. It never drops below the
/// median: with fewer than 20 samples the tail is the median, and
/// `beyond` says how thin it is.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, samples: 0, beyond: 0, windows: 1 };
    }
    let median_rank = n.div_ceil(2);
    let rank = n.saturating_sub(TAIL_BEYOND).max(median_rank);
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
        windows: 1,
    }
}

/// The tail of latencies given in start order: split them into the
/// largest odd number of consecutive windows of at least
/// [`TAIL_WINDOW`] sessions (one window when there are fewer), take
/// each window's [`tail`], and keep the median window. A slow spell of
/// the host that covers fewer than half the windows does not move it.
pub fn windowed_tail(in_order: &[f64]) -> Tail {
    let n = in_order.len();
    let mut k = (n / TAIL_WINDOW).max(1);
    if k.is_multiple_of(2) {
        k -= 1;
    }
    let mut tails: Vec<Tail> = (0..k)
        .map(|i| tail(&sorted(in_order[i * n / k..(i + 1) * n / k].iter().copied())))
        .collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    Tail { windows: k, ..tails[k / 2] }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sessions verified correct over sessions attempted.
pub fn verified_ratio(verified: u64, attempted: u64) -> f64 {
    ratio(verified as f64, attempted as f64)
}

/// Failed, refused or wrong-output sessions over sessions attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Sessions that finished correctly within the limit over sessions
/// sent: a failed or refused session counts as a miss.
pub fn slo_met_ratio(met: u64, sent: u64) -> f64 {
    ratio(met as f64, sent as f64)
}

/// Bank hits over bank claims (hits + misses).
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// A ladder rung's rate over the previous rung's rate, both as AND
/// gates per second; from ns per AND that is `previous / this`.
pub fn vs_previous(previous_ns_per_and: f64, this_ns_per_and: f64) -> f64 {
    ratio(previous_ns_per_and, this_ns_per_and)
}

/// Roofline attainment: the served AND rate over the AES ceiling, which
/// is the L0 block rate divided by the AES blocks one AND costs.
pub fn roofline(served_ns_per_and: f64, l0_blocks_per_s: f64, aes_blocks_per_and: f64) -> f64 {
    let ceiling = ratio(l0_blocks_per_s, aes_blocks_per_and);
    ratio(ratio(1e9, served_ns_per_and), ceiling)
}

/// Traced throughput over untraced throughput of the same phase.
pub fn overhead_ratio(traced_rate: f64, untraced_rate: f64) -> f64 {
    ratio(traced_rate, untraced_rate)
}

/// How an open-loop rate step went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered sessions per second.
    pub rate: f64,
    /// The step's tail latency (ms, from due time).
    pub tail_ms: f64,
    /// Sessions that were due in the step.
    pub sent: u64,
    /// Sessions that failed or returned wrong outputs.
    pub failed: u64,
    /// Whether the generator's lateness grew across the step.
    pub backlog_growing: bool,
}

/// A step holds the rate when its tail meets the limit, nothing failed
/// and the backlog did not grow.
pub fn step_passes(step: &Step, limit_ms: f64) -> bool {
    step.sent > 0 && step.tail_ms <= limit_ms && step.failed == 0 && !step.backlog_growing
}

/// The highest rate of an ascending run of steps that holds, counting
/// only steps below the first one that fails; 0 if the lowest fails.
pub fn max_rate_at_slo(steps: &[Step], limit_ms: f64) -> f64 {
    steps.iter().take_while(|s| step_passes(s, limit_ms)).last().map_or(0.0, |s| s.rate)
}

/// Whether the generator fell further behind during a step: the median
/// lateness of the last quarter of requests (in schedule order) exceeds
/// that of the first quarter by more than half the latency limit.
pub fn backlog_growing(lateness_ms: &[f64], limit_ms: f64) -> bool {
    let quarter = lateness_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&sorted(lateness_ms[..quarter].iter().copied()));
    let last = median(&sorted(lateness_ms[lateness_ms.len() - quarter..].iter().copied()));
    last - first > limit_ms / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 51.0), 6.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&ramp(5)), 3.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let t = tail(&ramp(100));
        assert_eq!((t.value, t.percentile, t.samples, t.beyond), (90.0, 90.0, 100, 10));
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
        let t = tail(&ramp(40));
        assert_eq!((t.value, t.percentile, t.beyond), (30.0, 75.0, 10));
        // The value at the chosen percentile has exactly `beyond` larger.
        let v = ramp(37);
        let t = tail(&v);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(percentile(&v, t.percentile), t.value);
    }

    #[test]
    fn windowed_tail_is_the_median_window() {
        // Under two full windows: one window, the plain tail.
        let v: Vec<f64> = ramp(150).into_iter().rev().collect();
        assert_eq!(windowed_tail(&v), tail(&ramp(150)));
        // Five windows of 100, each its own ramp: every window's tail
        // is its 90th value; the median window is the third.
        let v = ramp(500);
        let t = windowed_tail(&v);
        assert_eq!(
            (t.value, t.percentile, t.samples, t.beyond, t.windows),
            (290.0, 90.0, 100, 10, 5)
        );
        // A slow spell ten times slower over two of five windows leaves
        // the tail where it was; over the whole run it would not.
        let mut v: Vec<f64> = (0..5).flat_map(|_| ramp(100)).collect();
        v[..200].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(windowed_tail(&v).value, 90.0);
        assert!(tail(&sorted(v.iter().copied())).value > 90.0);
        // 400 sessions make an odd three windows of 133 or 134.
        let t = windowed_tail(&ramp(400));
        assert_eq!((t.windows, t.samples, t.beyond), (3, 133, 10));
        assert_eq!(windowed_tail(&[]).samples, 0);
    }

    #[test]
    fn thin_tails_fall_back_to_the_median() {
        let t = tail(&ramp(12));
        assert_eq!((t.value, t.percentile, t.beyond), (6.0, 50.0, 6));
        let t = tail(&ramp(20));
        assert_eq!((t.value, t.beyond), (10.0, 10));
        assert_eq!(tail(&[3.0]).value, 3.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    fn step(rate: f64, tail_ms: f64) -> Step {
        Step { rate, tail_ms, sent: 100, failed: 0, backlog_growing: false }
    }

    #[test]
    fn max_rate_stops_at_the_first_failing_step() {
        let limit = 50.0;
        let steps = [step(10.0, 5.0), step(20.0, 9.0), step(40.0, 80.0), step(80.0, 10.0)];
        assert_eq!(max_rate_at_slo(&steps, limit), 20.0);
        assert_eq!(max_rate_at_slo(&steps[..2], limit), 20.0);
        assert_eq!(max_rate_at_slo(&[step(10.0, 51.0)], limit), 0.0);
        assert_eq!(max_rate_at_slo(&[], limit), 0.0);
        // A step exactly at the limit holds.
        assert_eq!(max_rate_at_slo(&[step(10.0, 50.0)], limit), 10.0);
    }

    #[test]
    fn a_step_fails_on_backlog_or_failure() {
        let limit = 50.0;
        let ok = step(10.0, 5.0);
        assert!(step_passes(&ok, limit));
        assert!(!step_passes(&Step { backlog_growing: true, ..ok }, limit));
        assert!(!step_passes(&Step { failed: 1, ..ok }, limit));
        assert!(!step_passes(&Step { sent: 0, ..ok }, limit));
        let steps = [ok, Step { rate: 20.0, failed: 3, ..ok }, Step { rate: 40.0, ..ok }];
        assert_eq!(max_rate_at_slo(&steps, limit), 10.0);
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarters() {
        let limit = 40.0;
        assert!(!backlog_growing(&[1.0; 40], limit));
        // Jitter without trend is not growth.
        let jitter: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { 0.0 } else { 15.0 }).collect();
        assert!(!backlog_growing(&jitter, limit));
        // Quarter medians 30 requests apart: 0.5 ms per request grows
        // 15 ms, within half the limit; 1 ms per request grows 30 ms.
        let slow: Vec<f64> = (0..40).map(|i| 0.5 * i as f64).collect();
        assert!(!backlog_growing(&slow, limit));
        let climb: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert!(backlog_growing(&climb, limit));
        assert!(!backlog_growing(&[100.0, 0.0, 0.0], limit));
    }

    #[test]
    fn ratio_bases() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(verified_ratio(9, 10), 0.9);
        assert_eq!(failed_ratio(1, 10), 0.1);
        assert_eq!(failed_ratio(0, 0), 0.0);
        // Missed and failed sessions stay in the base.
        assert_eq!(slo_met_ratio(3, 4), 0.75);
        // The base is claims, hits plus misses.
        assert_eq!(hit_ratio(3, 1), 0.75);
        assert_eq!(hit_ratio(0, 0), 0.0);
        // Rates, not times: a rung twice as slow per AND reads 0.5.
        assert_eq!(vs_previous(100.0, 200.0), 0.5);
        // 4 blocks per AND at 400 M blocks/s caps at 100 M AND/s;
        // 50 ns per AND served is 20 M AND/s, a fifth of it.
        assert!((roofline(50.0, 400e6, 4.0) - 0.2).abs() < 1e-12);
        assert_eq!(overhead_ratio(95.0, 100.0), 0.95);
    }
}
