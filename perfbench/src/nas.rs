//! `nas`: the five NAS kernels at class S under `Schedule::hybrid()`,
//! each run verified — the paper's Fig. 3 time to a verified solution.
//!
//! A pass runs every kernel in a seed-shuffled order; the short kernels
//! repeat within a pass so each one gets several samples per run. Slices
//! of the window take kernel runs off the current pass in order.

use std::time::{Duration, Instant};

use parloop_core::Schedule;
use parloop_nas::{cg, ep, ft, is, mg, Kernel};
use parloop_runtime::ThreadPool;

use crate::stats::{Rng, Tally};
use crate::trace_window::TraceWindow;

/// Kernels in metric order (`ep_s`, `cg_s`, `mg_s`, `ft_s`, `is_s`).
pub const KERNELS: [Kernel; 5] = [Kernel::Ep, Kernel::Cg, Kernel::Mg, Kernel::Ft, Kernel::Is];

/// Runs of each kernel (in `KERNELS` order) per pass: about 1.6 s at P = 2,
/// so the short kernels get many samples even in a short window.
const REPS: [usize; 5] = [1, 6, 8, 3, 16];

/// Per kernel (in `KERNELS` order): seconds of each verified run and,
/// when traced, leaf-chunk worker-seconds of each run.
#[derive(Debug, Default)]
pub struct NasSamples {
    pub wall_s: [Vec<f64>; 5],
    pub leaf_s: [Vec<f64>; 5],
    spent: Duration,
}

pub struct NasPart {
    cg_params: cg::CgParams,
    matrix: cg::SparseMatrix,
    is_params: is::IsParams,
    keys: Vec<u32>,
    order: Rng,
    /// Kernel runs left in the current pass (next run last).
    pending: Vec<usize>,
}

impl NasPart {
    /// Generate the inputs: the CG matrix and the IS keys (EP, MG and FT
    /// generate theirs inside the kernel).
    pub fn setup(seed: u64) -> Self {
        let cg_params = cg::CgParams::class_s();
        let is_params = is::IsParams::class_s();
        NasPart {
            cg_params,
            matrix: cg::make_matrix(cg_params),
            is_params,
            keys: is::generate_keys(is_params),
            order: Rng::new(seed ^ 0x6e61_7300),
            pending: Vec::new(),
        }
    }

    /// Run kernel `k` once and apply its NAS verification.
    pub fn run(&self, pool: &ThreadPool, k: Kernel) -> bool {
        let sched = Schedule::hybrid();
        match k {
            Kernel::Ep => {
                let params = ep::EpParams::class_s();
                let r = ep::ep(pool, params, sched);
                let total = (params.blocks() * params.pairs_per_block()) as f64;
                (r.accepted as f64 / total - std::f64::consts::FRAC_PI_4).abs() < 0.01
            }
            Kernel::Cg => {
                let r = cg::cg(pool, &self.matrix, self.cg_params, sched);
                r.rnorm < 1e-6 && r.zeta.is_finite()
            }
            Kernel::Mg => {
                let r = mg::mg(pool, mg::MgParams::class_s(), sched);
                r.history.first().is_some_and(|&first| r.rnorm < first)
            }
            Kernel::Ft => {
                let r = ft::ft(pool, ft::FtParams::class_s(), sched);
                !r.checksums.is_empty()
                    && r.checksums.iter().all(|c| c.re.is_finite() && c.im.is_finite())
            }
            Kernel::Is => {
                let r = is::is_sort(pool, self.is_params, &self.keys, sched);
                is::verify(&self.keys, &r)
            }
        }
    }

    /// Work per run, for `nas.<k>.ops_per_s`: EP pairs, CG 2·nnz per
    /// sparse mat-vec, MG and FT grid points per iteration, IS keys.
    pub fn ops(&self, k: Kernel) -> f64 {
        match k {
            Kernel::Ep => {
                let p = ep::EpParams::class_s();
                (p.blocks() * p.pairs_per_block()) as f64
            }
            Kernel::Cg => {
                let p = self.cg_params;
                2.0 * self.matrix.nnz() as f64 * (p.niter * p.cg_iters) as f64
            }
            Kernel::Mg => {
                let p = mg::MgParams::class_s();
                (p.n * p.n * p.n * p.iters) as f64
            }
            Kernel::Ft => {
                let p = ft::FtParams::class_s();
                (p.total() * p.iters) as f64
            }
            Kernel::Is => self.is_params.n() as f64,
        }
    }

    /// The IS inputs, for the sequential reference probe.
    pub fn is_inputs(&self) -> (is::IsParams, &[u32]) {
        (self.is_params, &self.keys)
    }

    /// One pass in a fresh seeded order.
    fn pass_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> =
            REPS.iter().enumerate().flat_map(|(k, &n)| std::iter::repeat_n(k, n)).collect();
        self.order.shuffle(&mut order);
        order
    }

    /// Untimed warm-up: every kernel once.
    pub fn warm(&self, pool: &ThreadPool, tally: &mut Tally) {
        for k in KERNELS {
            tally.check(self.run(pool, k));
        }
    }

    /// Kernel runs, continuing the current pass, until the window's
    /// time spent reaches `budget`.
    pub fn slice(
        &mut self,
        pool: &ThreadPool,
        budget: Duration,
        tally: &mut Tally,
        mut trace: Option<&mut TraceWindow>,
        s: &mut NasSamples,
    ) {
        while s.spent < budget {
            if self.pending.is_empty() {
                self.pending = self.pass_order();
            }
            let k = self.pending.pop().expect("a pass is never empty");
            let t = Instant::now();
            let ok = self.run(pool, KERNELS[k]);
            let wall = t.elapsed();
            s.spent += wall;
            s.wall_s[k].push(wall.as_secs_f64());
            tally.check(ok);
            if let Some(tw) = trace.as_deref_mut() {
                s.leaf_s[k].push(tw.collect() as f64 * 1e-9);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_runs_each_kernel_reps_times_in_a_seeded_order() {
        let mut a = NasPart::setup(3);
        let mut b = NasPart::setup(3);
        let order = a.pass_order();
        assert_eq!(order, b.pass_order());
        for (k, &n) in REPS.iter().enumerate() {
            assert_eq!(order.iter().filter(|&&x| x == k).count(), n);
        }
        assert_ne!(order, NasPart::setup(4).pass_order(), "the seed drives the order");
    }
}
