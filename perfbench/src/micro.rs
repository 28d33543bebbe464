//! `micro_fine`: the paper's unbalanced (7:1 ramp) iterative
//! microbenchmark at 256 iterations over a 4 KiB array, so per-loop
//! scheduling cost dominates. Blocks of back-to-back hybrid loops run
//! inside one `install`; each loop is timed on its own.
//!
//! Loop time depends on where the small array lands relative to cache
//! lines, so each slice allocates a fresh array (keeping the old ones
//! alive, so the allocator cannot hand back the same address) and the
//! run averages the middle half of the slices' values.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parloop_core::{par_for_chunks, Schedule};
use parloop_micro::{IterativeMicro, MicroParams};
use parloop_runtime::ThreadPool;

use crate::stats::{quantile, Tally};
use crate::trace_window::TraceWindow;

pub const PARAMS: MicroParams =
    MicroParams { working_set: 4096, iterations: 256, passes: 1, balanced: false };

/// Loops per `install` and per checksum check.
const BLOCK: usize = 2048;

/// Per loop: wall nanoseconds and, when traced, the loop's leaf-body
/// nanoseconds summed over workers; per slice: p50 and p90 loop time.
#[derive(Debug, Default)]
pub struct MicroSamples {
    pub wall_ns: Vec<f64>,
    pub leaf_ns: Vec<f64>,
    pub slice_p50_us: Vec<f64>,
    pub slice_p90_us: Vec<f64>,
    spent: Duration,
}

pub struct MicroPart {
    /// Every array of the run; loops run on the last one.
    arrays: Vec<IterativeMicro>,
    /// Loops run so far on the last array.
    loops: Cell<u64>,
}

/// Whether `loops` loops touched every element exactly once each: the
/// array's checksum must be exactly `loops × elements`.
pub fn checksum_ok(checksum: u64, loops: u64, elements: usize) -> bool {
    checksum == loops * elements as u64
}

impl MicroPart {
    pub fn setup() -> Self {
        MicroPart { arrays: vec![IterativeMicro::new(PARAMS)], loops: Cell::new(0) }
    }

    /// The array loops currently run on.
    pub fn micro(&self) -> &IterativeMicro {
        self.arrays.last().expect("set-up allocates one array")
    }

    /// One block of `loops` timed loops inside one install, then the
    /// checksum check. With `leaf`, each chunk of the body is timed too.
    pub fn block(
        &self,
        pool: &ThreadPool,
        loops: usize,
        tally: &mut Tally,
        s: &mut MicroSamples,
        leaf: bool,
    ) {
        let micro = self.micro();
        let leaf_ns = AtomicU64::new(0);
        pool.install(|| {
            for _ in 0..loops {
                let t0 = Instant::now();
                par_for_chunks(pool, 0..micro.iterations(), Schedule::hybrid(), |chunk| {
                    let t = leaf.then(Instant::now);
                    for i in chunk {
                        micro.iteration_body(i);
                    }
                    if let Some(t) = t {
                        leaf_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                });
                s.wall_ns.push(t0.elapsed().as_nanos() as f64);
                if leaf {
                    s.leaf_ns.push(leaf_ns.swap(0, Ordering::Relaxed) as f64);
                }
            }
        });
        self.loops.set(self.loops.get() + loops as u64);
        let ok = checksum_ok(micro.checksum(), self.loops.get(), micro.elements());
        tally.check_many(loops as u64, ok);
    }

    pub fn warm(&self, pool: &ThreadPool, tally: &mut Tally) {
        self.block(pool, BLOCK, tally, &mut MicroSamples::default(), false);
    }

    /// Blocks on a fresh array until the window's time spent reaches
    /// `budget`.
    pub fn slice(
        &mut self,
        pool: &ThreadPool,
        budget: Duration,
        tally: &mut Tally,
        mut trace: Option<&mut TraceWindow>,
        s: &mut MicroSamples,
    ) {
        self.arrays.push(IterativeMicro::new(PARAMS));
        self.loops.set(0);
        let first = s.wall_ns.len();
        while s.spent < budget {
            let t = Instant::now();
            self.block(pool, BLOCK, tally, s, trace.is_some());
            s.spent += t.elapsed();
            if let Some(tw) = trace.as_deref_mut() {
                tw.collect();
            }
        }
        let slice = &mut s.wall_ns[first..].to_vec();
        if let (Some(p50), Some(p90)) = (quantile(slice, 0.5), quantile(slice, 0.9)) {
            s.slice_p50_us.push(p50 / 1e3);
            s.slice_p90_us.push(p90 / 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_checksum_counts_as_failed_loops() {
        let pool = ThreadPool::new(2);
        let part = MicroPart::setup();
        let mut tally = Tally::default();
        let mut s = MicroSamples::default();
        part.block(&pool, 16, &mut tally, &mut s, true);
        assert_eq!(tally, Tally { attempted: 16, failed: 0 });
        assert_eq!(s.wall_ns.len(), 16);
        assert_eq!(s.leaf_ns.len(), 16);

        // Touch one block outside any loop: the checksum no longer
        // equals loops × elements.
        part.micro().iteration_body(0);
        part.block(&pool, 16, &mut tally, &mut s, false);
        assert_eq!(tally, Tally { attempted: 32, failed: 16 });
    }

    #[test]
    fn checksum_check_is_exact() {
        assert!(checksum_ok(3 * 512, 3, 512));
        assert!(!checksum_ok(3 * 512 + 1, 3, 512));
        assert!(!checksum_ok(2 * 512, 3, 512));
    }
}
