//! Integration tests for the idle backoff (spin, then yield, then park)
//! shared by the worker main loop and `wait_until`.
//!
//! * **Hot between loops** — back-to-back fine-grained hybrid loops inside
//!   one `install` find the other worker still searching when the next
//!   loop's frame is pushed, so almost no loop pays a park and a wake.
//!   Gated on wake *counts*, which do not depend on the host's speed.
//! * **Bounded spin** — an idle pool still goes to sleep: after a short
//!   idle spell every worker's heartbeat is nearly flat, where a worker
//!   that never parked would beat about 10⁵ times in the window.
//!
//! Workers search before parking only while the pool does not
//! oversubscribe the host, so both tests size their pools to fit it. They
//! take a shared lock so that one test's threads cannot starve the
//! other's workers on a small host.

use std::sync::Mutex;
use std::time::Duration;

use parloop::micro::{IterativeMicro, MicroParams};
use parloop::{par_for_chunks, Schedule, ThreadPool};

static SERIAL: Mutex<()> = Mutex::new(());

/// The paper's unbalanced (7:1 ramp) micro loop at 256 iterations over a
/// 4 KiB array: fine enough that per-loop scheduling cost dominates.
const FINE: MicroParams =
    MicroParams { working_set: 4096, iterations: 256, passes: 1, balanced: false };

/// Run `loops` back-to-back hybrid loops of `micro` inside one install.
fn fine_loops(pool: &ThreadPool, micro: &IterativeMicro, loops: u64) {
    pool.install(|| {
        for _ in 0..loops {
            par_for_chunks(pool, 0..micro.iterations(), Schedule::hybrid(), |chunk| {
                chunk.for_each(|i| micro.iteration_body(i));
            });
        }
    });
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parks that ended in a wake (targeted or backstop), over every worker.
fn wakes(pool: &ThreadPool) -> u64 {
    pool.worker_stats().iter().map(|w| w.notified_wakes + w.backstop_wakes).sum()
}

#[test]
fn back_to_back_fine_loops_rarely_wake_a_parked_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if host_cpus() < 2 {
        eprintln!(
            "skipped: a 2-worker pool oversubscribes a 1-CPU host, so its workers never spin"
        );
        return;
    }
    const LOOPS: u64 = 2000;
    let pool = ThreadPool::new(2);
    let micro = IterativeMicro::new(FINE);
    fine_loops(&pool, &micro, LOOPS);
    assert_eq!(micro.checksum(), LOOPS * micro.elements() as u64, "every element once per loop");
    let wakes = wakes(&pool);
    assert!(
        wakes <= LOOPS / 10,
        "{wakes} wakes over {LOOPS} loops: idle workers park between back-to-back loops"
    );
}

#[test]
fn an_idle_pool_stops_spinning_and_sleeps() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(host_cpus());
    fine_loops(&pool, &IterativeMicro::new(FINE), 200);
    std::thread::sleep(Duration::from_millis(300));
    let before = pool.health().heartbeats;
    std::thread::sleep(Duration::from_millis(100));
    let after = pool.health().heartbeats;
    for (w, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(
            a - b < 1000,
            "worker {w} beat {} times in 100 ms of idleness: it never parked",
            a - b
        );
    }
}
