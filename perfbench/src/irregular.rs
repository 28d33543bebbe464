//! `irregular`: the 9-kernel irregular and nested suite of
//! `parloop_bench::irregular` under `GrainPolicy::Adaptive`, one
//! `AdaptiveSite` per call site kept across passes. Every kernel's
//! checksum must equal the default-grain reference computed at set-up.
//!
//! The suite's data is fixed, so the seed picks which kernel each pass
//! starts from (the order offset).

use std::time::{Duration, Instant};

use parloop_bench::irregular::{workloads, GrainMode, Workload};
use parloop_core::{AdaptiveSite, Phase};
use parloop_runtime::ThreadPool;

use crate::stats::{median, Tally};
use crate::trace_window::TraceWindow;

/// Untimed passes that train the controller before timing starts.
const WARM_PASSES: usize = 100;

pub struct IrregularPart {
    suite: Vec<Workload>,
    sites: Vec<Vec<AdaptiveSite>>,
    reference: Vec<u64>,
    offset: usize,
}

/// Per pass: wall seconds and, when traced, leaf worker-seconds; per
/// slice: the median pass.
#[derive(Debug, Default)]
pub struct IrregularSamples {
    pub pass_s: Vec<f64>,
    pub leaf_s: Vec<f64>,
    pub slice_ms: Vec<f64>,
    /// Controller adjustments accepted during the window.
    pub adjustments: u64,
    spent: Duration,
}

impl IrregularPart {
    /// Fresh sites and the default-grain reference checksums.
    pub fn setup(pool: &ThreadPool, seed: u64) -> Self {
        let suite = workloads();
        let sites = suite
            .iter()
            .map(|w| (0..w.sites).map(|_| AdaptiveSite::new(w.name)).collect())
            .collect();
        let reference = suite.iter().map(|w| (w.run)(pool, GrainMode::Default)).collect();
        let offset = (seed % suite.len() as u64) as usize;
        IrregularPart { suite, sites, reference, offset }
    }

    /// One pass over the suite; returns its wall time.
    pub fn pass(&self, pool: &ThreadPool, tally: &mut Tally) -> Duration {
        let n = self.suite.len();
        let t0 = Instant::now();
        for k in (0..n).map(|i| (i + self.offset) % n) {
            let got = (self.suite[k].run)(pool, GrainMode::Adaptive(&self.sites[k]));
            tally.check(got == self.reference[k]);
        }
        t0.elapsed()
    }

    pub fn adjustments(&self) -> u64 {
        self.sites.iter().flatten().map(AdaptiveSite::adjustments).sum()
    }

    /// Fraction of call sites whose controller is in the settled phase.
    pub fn settled_frac(&self) -> f64 {
        let all: Vec<&AdaptiveSite> = self.sites.iter().flatten().collect();
        all.iter().filter(|s| s.snapshot().phase == Phase::Settled).count() as f64
            / all.len() as f64
    }

    pub fn warm(&self, pool: &ThreadPool, tally: &mut Tally) {
        for _ in 0..WARM_PASSES {
            self.pass(pool, tally);
        }
    }

    /// Passes until the window's time spent reaches `budget`.
    pub fn slice(
        &self,
        pool: &ThreadPool,
        budget: Duration,
        tally: &mut Tally,
        mut trace: Option<&mut TraceWindow>,
        s: &mut IrregularSamples,
    ) {
        let (first, adj0) = (s.pass_s.len(), self.adjustments());
        while s.spent < budget {
            let wall = self.pass(pool, tally);
            s.spent += wall;
            s.pass_s.push(wall.as_secs_f64());
            if let Some(tw) = trace.as_deref_mut() {
                s.leaf_s.push(tw.collect() as f64 * 1e-9);
            }
        }
        s.adjustments += self.adjustments() - adj0;
        if let Some(m) = median(&mut s.pass_s[first..].to_vec()) {
            s.slice_ms.push(m * 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_differing_from_reference_is_a_failed_operation() {
        let pool = ThreadPool::new(2);
        let mut part = IrregularPart::setup(&pool, 5);
        let mut tally = Tally::default();
        part.pass(&pool, &mut tally);
        assert_eq!(tally, Tally { attempted: 9, failed: 0 });
        part.reference[2] ^= 1;
        part.pass(&pool, &mut tally);
        assert_eq!(tally, Tally { attempted: 18, failed: 1 });
    }
}
