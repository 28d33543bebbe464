//! Outside-in layer probes for the traced run: each times calls into one
//! layer's public functions on an otherwise idle pool. They feed
//! per-layer metrics only.

use std::hint::black_box;
use std::time::Instant;

use parloop_core::{hybrid_for_with_stats, par_for_chunks, Schedule};
use parloop_micro::{run_sequential, IterativeMicro};
use parloop_nas::{ep, is};
use parloop_runtime::ThreadPool;
use parloop_tenant::Tenant;

use crate::micro::{checksum_ok, PARAMS};
use crate::stats::{median, Tally};

const REPS: usize = 2000;

fn median_us(mut samples: Vec<f64>) -> f64 {
    median(&mut samples).unwrap_or(f64::NAN)
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Median round trip of an empty `ThreadPool::install` from outside.
pub fn install_rt_us(pool: &ThreadPool) -> f64 {
    median_us((0..REPS).map(|_| time_us(|| pool.install(|| black_box(())))).collect())
}

/// `Tenant::install` minus `ThreadPool::install`, medians of
/// interleaved empty calls.
pub fn admit_overhead_us(pool: &ThreadPool, tenant: &Tenant, tally: &mut Tally) -> f64 {
    let mut bare = Vec::with_capacity(REPS);
    let mut admitted = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        bare.push(time_us(|| pool.install(|| black_box(()))));
        admitted.push(time_us(|| tally.check(tenant.install(|| black_box(())).is_ok())));
    }
    median_us(admitted) - median_us(bare)
}

/// Median empty 256-iteration hybrid loop, back to back inside one
/// install: the per-loop scheduling floor.
pub fn loop_floor_us(pool: &ThreadPool) -> f64 {
    let mut s = Vec::with_capacity(10 * REPS);
    pool.install(|| {
        for _ in 0..10 * REPS {
            s.push(time_us(|| {
                par_for_chunks(pool, 0..PARAMS.iterations, Schedule::hybrid(), |c| {
                    black_box(c);
                })
            }));
        }
    });
    median_us(s)
}

/// The hybrid loop's partition count `R` at the micro loop's size.
pub fn partitions(pool: &ThreadPool) -> usize {
    hybrid_for_with_stats(pool, 0..PARAMS.iterations, None, |i| {
        black_box(i);
    })
    .partitions
}

/// Mean Fig. 2 same-worker fraction over consecutive micro loops.
pub fn affinity(pool: &ThreadPool, tally: &mut Tally) -> f64 {
    const LOOPS: usize = 1000;
    let micro = IterativeMicro::new(PARAMS);
    let aff = micro.run_phases_tracked(pool, Schedule::hybrid(), LOOPS);
    tally.check_many(LOOPS as u64, checksum_ok(micro.checksum(), LOOPS as u64, micro.elements()));
    aff.mean()
}

/// Single-thread references: EP and IS seconds, micro µs per loop.
pub fn sequential(is_params: is::IsParams, keys: &[u32], tally: &mut Tally) -> (f64, f64, f64) {
    let t = Instant::now();
    let r = ep::ep_sequential(ep::EpParams::class_s());
    let ep_s = t.elapsed().as_secs_f64();
    tally.check(r.accepted > 0);

    let mut is_s = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let r = is::is_sort_sequential(is_params, keys);
        is_s.push(t.elapsed().as_secs_f64());
        tally.check(is::verify(keys, &r));
    }

    const LOOPS: usize = 2000;
    let micro = IterativeMicro::new(PARAMS);
    let micro_us = run_sequential(&micro, LOOPS).as_nanos() as f64 / 1e3 / LOOPS as f64;
    tally.check_many(LOOPS as u64, checksum_ok(micro.checksum(), LOOPS as u64, micro.elements()));
    (ep_s, median_us(is_s), micro_us)
}
