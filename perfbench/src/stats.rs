//! Order statistics, the operation tally and the seeded input stream.

use parloop_bench::irregular::splitmix64;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `⌈q·n⌉` samples at or below it.
/// Reorders `samples`; `None` when there are none.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    let (_, v, _) = samples.select_nth_unstable_by(rank - 1, f64::total_cmp);
    Some(*v)
}

/// The nearest-rank median (the lower middle for an even count).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The interquartile mean: the mean of the middle half of `samples`
/// (all of them when there are fewer than four). Reorders `samples`;
/// `None` when there are none.
///
/// Host noise on a shared VM comes in bursts and in slow and fast spells
/// lasting seconds, so one run's samples mix two or more modes in
/// varying proportions. A quantile jumps between modes as the mix shifts;
/// the mean of the middle half follows the mix smoothly and still drops
/// the bursts at either end.
pub fn interquartile_mean(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let cut = samples.len() / 4;
    let middle = &samples[cut..samples.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Operations attempted and failed, counted as each one is checked.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.check_many(1, ok);
    }

    /// Count `n` operations verified together, all failed unless `ok`.
    pub fn check_many(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A SplitMix64 stream: every seeded input of the benchmark comes from
/// one of these, so the same `--seed` gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential deviate with the given mean (Poisson inter-arrival).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.9), Some(90.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [7.0]), Some(7.0));
        assert_eq!(median(&mut [3.0, 1.0]), Some(1.0));
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), Some(3.0));
        // p90 of ten samples is the ninth smallest, not the maximum.
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut ten, 0.9), Some(9.0));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&mut []), None);
        assert_eq!(interquartile_mean(&mut [4.0, 2.0, 9.0]), Some(5.0));
        let mut v = vec![50.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0];
        assert_eq!(interquartile_mean(&mut v), Some(3.5));
        // Three slices of twelve slowed tenfold move it not at all.
        let mut slices = vec![1.0; 9];
        slices.extend([10.0; 3]);
        assert_eq!(interquartile_mean(&mut slices), Some(1.0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(true);
        t.check(false);
        t.check_many(10, false);
        t.add(Tally { attempted: 5, failed: 0 });
        assert_eq!(t, Tally { attempted: 17, failed: 11 });
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..19).collect();
        Rng::new(7).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..19).collect::<Vec<_>>());
        let mean = (0..20_000).map(|_| a.exp(500.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 500.0).abs() < 25.0, "exponential mean {mean}");
    }
}
