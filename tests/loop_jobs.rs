//! Count gates for the jobs a hybrid loop publishes: its `DoHybridLoop`
//! frames and its partitions' lazy assist handles.
//!
//! Both are intrusive jobs on the loop's own state (no allocation per
//! publish), capped at `P − 1` per loop, and popped back by their
//! publisher when nobody took them. The gates count heap allocations
//! (through a counting global allocator), deque pushes and retractions,
//! so they do not depend on the host's speed.
//!
//! Only allocations made on pool worker threads are counted — the test
//! harness's own threads allocate while they report other tests — and
//! every test takes a shared lock, so no other test's pool runs inside a
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parloop::micro::{IterativeMicro, MicroParams};
use parloop::runtime::{current_worker_index, PoolStats};
use parloop::{par_for_chunks, Schedule, ThreadPool};

/// Counts every allocation (fresh, zeroed or grown) made on a pool worker.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if current_worker_index().is_some() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// The paper's unbalanced (7:1 ramp) micro loop at 256 iterations over a
/// 4 KiB array, the benchmark's `micro_fine` loop.
const FINE: MicroParams =
    MicroParams { working_set: 4096, iterations: 256, passes: 1, balanced: false };

const LOOPS: u64 = 2000;

/// Per-loop heap allocations and deque pushes over `LOOPS` back-to-back
/// loops of `schedule` inside one install (after a short warm-up).
fn per_loop_counts(pool: &ThreadPool, schedule: Schedule) -> (f64, f64) {
    let micro = IterativeMicro::new(FINE);
    let run = |loops: u64| {
        for _ in 0..loops {
            par_for_chunks(pool, 0..micro.iterations(), schedule, |chunk| {
                chunk.for_each(|i| micro.iteration_body(i));
            });
        }
    };
    let (allocs, pushes) = pool.install(|| {
        run(20);
        let (allocs, pushes) = (ALLOCS.load(Ordering::Relaxed), pool.stats().jobs_pushed);
        run(LOOPS);
        (ALLOCS.load(Ordering::Relaxed) - allocs, pool.stats().jobs_pushed - pushes)
    });
    assert_eq!(micro.checksum(), (LOOPS + 20) * micro.elements() as u64, "every element once");
    (allocs as f64 / LOOPS as f64, pushes as f64 / LOOPS as f64)
}

/// P = 2, R = 2: one frame plus one assist handle per partition, and no
/// allocation beyond the loop state, its claim table and the two
/// partitions' lazy-loop states.
#[test]
fn two_worker_hybrid_loop_allocates_four_and_pushes_three() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(2);
    let (allocs, pushes) = per_loop_counts(&pool, Schedule::hybrid());
    eprintln!("P=2: {allocs:.3} allocations and {pushes:.2} pushes per loop");
    assert!(allocs <= 4.0, "{allocs:.2} heap allocations per loop (bound 2 + R = 4)");
    assert_eq!(pushes, 3.0, "deque pushes per loop must be 1 frame + R = 2 handles");
}

/// P = 1 with `oversub: 4`: no other worker exists to take a frame, so
/// none is published, and the partitions' lazy loops take the one-worker
/// bypass.
#[test]
fn one_worker_oversubscribed_hybrid_loop_pushes_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let (allocs, pushes) = per_loop_counts(&pool, Schedule::Hybrid { grain: None, oversub: 4 });
    eprintln!("P=1, oversub 4: {allocs:.3} allocations and {pushes:.2} pushes per loop");
    assert!(allocs <= 2.0, "{allocs:.2} heap allocations per loop (state + claim table)");
    assert_eq!(pushes, 0.0, "a one-worker pool has nobody to publish a frame for");
}

fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// With the other worker held busy, nobody can take the loop's frame or
/// its partitions' handles, so their publisher pops all three back; once
/// released, the other worker finds nothing left to steal.
#[test]
fn unstolen_frame_and_handles_are_retracted() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(2);
    let micro = IterativeMicro::new(FINE);
    let (started, release, finished) =
        (AtomicBool::new(false), AtomicBool::new(false), AtomicBool::new(false));
    let before: PoolStats = pool.install(|| {
        parloop::runtime::scope(|s| {
            // A worker-local spawn: the other worker must steal it.
            s.spawn(|_| {
                started.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finished.store(true, Ordering::SeqCst);
            });
            spin_until("the other worker to take the blocker", || started.load(Ordering::SeqCst));
            let before = pool.stats();
            par_for_chunks(&pool, 0..micro.iterations(), Schedule::hybrid(), |chunk| {
                chunk.for_each(|i| micro.iteration_body(i));
            });
            let after = pool.stats();
            release.store(true, Ordering::SeqCst);
            assert_eq!(after.jobs_pushed - before.jobs_pushed, 3, "1 frame + 2 handles");
            assert_eq!(
                after.jobs_retracted - before.jobs_retracted,
                after.jobs_pushed - before.jobs_pushed,
                "every unstolen frame and handle is popped back by its publisher"
            );
            before
        })
    });
    assert_eq!(micro.checksum(), micro.elements() as u64);
    spin_until("the blocker to finish", || finished.load(Ordering::SeqCst));
    // Give the released worker a few search rounds.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(pool.stats().steals - before.steals, 0, "no spent job was left to steal");
}
