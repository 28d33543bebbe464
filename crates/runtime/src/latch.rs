//! Latches: one-shot (or counted) completion signals.
//!
//! A latch is how a waiting task learns that work it forked has finished.
//! Latches that may be awaited by *pool workers* carry a pointer to the
//! pool's sleep machinery so that `set` can wake a parked waiter; the
//! [`LockLatch`] variant is for external (non-worker) threads and blocks on
//! a private mutex/condvar instead.
//!
//! # Why a raw sleep pointer
//!
//! A latch used to hold an `Arc` of the sleep state. Every loop, `join` and
//! `scope` created one, so each paid a clone and a drop — two RMWs on a
//! reference count every worker of the pool writes. The pointer is
//! borrowed instead, and no safe public constructor can create a wired
//! latch: the crate-internal constructors are used only by constructs that
//! wait on the latch before the pool can go away, and the public one,
//! [`WorkerToken::count_latch`](crate::WorkerToken::count_latch), is
//! `unsafe` with the contract that the pool outlives every `set`.
//!
//! # Memory-ordering proof (fence audit)
//!
//! No latch operation needs `SeqCst`; every edge the waiters rely on is a
//! release/acquire pair on a single atomic:
//!
//! * **[`SpinLatch`]** — `set`'s `Release` store of `done` pairs with
//!   `probe`'s `Acquire` load. A waiter that observes `done == true`
//!   therefore sees every write the setter performed before `set` (the
//!   forked job's result in particular). The wake itself rides the sleep
//!   protocol's own `SeqCst` event counter ([`Sleep`](crate::sleep)).
//! * **[`CountLatch`]** — each `set` is a `fetch_sub(1, AcqRel)`. The
//!   `Release` half publishes that participant's writes; because atomic
//!   RMWs continue a release sequence, the waiter's `Acquire` `probe`
//!   load that reads the *final* value (zero) synchronizes with **every**
//!   decrement in the sequence, not just the last one — so all
//!   participants' writes are visible once `probe()` returns true. The
//!   `Acquire` half of the RMW additionally lets the final decrementer
//!   itself act on its siblings' writes (the lazy-loop owner relies on
//!   this when it resolves its own latch). [`CountLatch::set_many`] is
//!   the batched form with the identical edge: one `fetch_sub(n)` stands
//!   for `n` logical completions the caller accumulated locally.
//! * `increment`'s `AcqRel` keeps the counter's modification order a
//!   plain counter; callers must not revive a finished latch (debug
//!   asserted).

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::sleep::Sleep;

/// The sleep state a latch wakes on `set`; null for detached latches.
#[derive(Clone, Copy)]
struct SleepPtr(*const Sleep);

// SAFETY: `Sleep` is `Sync`, and the pointer is only dereferenced under the
// constructors' contract that the pool (and its sleep state) outlives every
// `set`.
unsafe impl Send for SleepPtr {}
unsafe impl Sync for SleepPtr {}

impl SleepPtr {
    const DETACHED: SleepPtr = SleepPtr(ptr::null());

    #[inline]
    fn notify_all(self) {
        // SAFETY: non-null pointers come from `with_sleep`, whose caller
        // keeps the sleep state alive across every `set`.
        if let Some(sleep) = unsafe { self.0.as_ref() } {
            sleep.notify_all();
        }
    }
}

/// Something that can be signalled complete.
pub trait Latch {
    /// Signal (one step of) completion. May be called from any thread.
    fn set(&self);
}

/// Something whose completion can be polled.
pub trait Probe {
    /// True once the latch is fully set.
    fn probe(&self) -> bool;
}

/// A one-shot boolean latch awaited by spinning/stealing workers.
pub struct SpinLatch {
    done: AtomicBool,
    sleep: SleepPtr,
}

impl SpinLatch {
    /// A latch whose `set` wakes sleepers of the pool owning `sleep`.
    ///
    /// # Safety
    /// `sleep` must outlive every `set` of the latch.
    pub(crate) unsafe fn with_sleep(sleep: &Sleep) -> Self {
        SpinLatch { done: AtomicBool::new(false), sleep: SleepPtr(sleep) }
    }

    /// A detached latch (tests, or waiters that never park).
    pub fn detached() -> Self {
        SpinLatch { done: AtomicBool::new(false), sleep: SleepPtr::DETACHED }
    }
}

impl Latch for SpinLatch {
    #[inline]
    fn set(&self) {
        // Copy the pointer out first: once `done` is visible the waiter may
        // return and free the latch itself.
        let sleep = self.sleep;
        self.done.store(true, Ordering::Release);
        sleep.notify_all();
    }
}

impl Probe for SpinLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// A counting latch: `set` decrements, the latch is done at zero.
///
/// Used for loop partitions (the hybrid loop counts its `R` partitions),
/// scopes (one count per spawned task) and team regions (one per worker).
pub struct CountLatch {
    count: AtomicUsize,
    sleep: SleepPtr,
}

impl CountLatch {
    /// A counting latch whose final `set` wakes sleepers of the pool
    /// owning `sleep`.
    ///
    /// # Safety
    /// `sleep` must outlive every `set`/`set_many` of the latch.
    pub(crate) unsafe fn with_sleep(count: usize, sleep: &Sleep) -> Self {
        CountLatch { count: AtomicUsize::new(count), sleep: SleepPtr(sleep) }
    }

    /// A detached counting latch (tests, or non-parking waiters).
    pub fn detached(count: usize) -> Self {
        CountLatch { count: AtomicUsize::new(count), sleep: SleepPtr::DETACHED }
    }

    /// Add `n` more expected completions. Must not be called after the
    /// count has already reached zero.
    pub fn increment(&self, n: usize) {
        let prev = self.count.fetch_add(n, Ordering::AcqRel);
        debug_assert!(prev != 0 || n == 0, "revived a finished CountLatch");
    }

    /// Current remaining count (diagnostics; racy under concurrency).
    pub fn remaining(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Signal `n` completions at once — the combining form of [`set`]
    /// (one RMW instead of `n`), used by participants that batch their
    /// completion updates (e.g. a hybrid claim walk resolving several
    /// partitions). `set_many(0)` is a no-op; the ordering argument is
    /// identical to `set`'s (module docs).
    ///
    /// [`set`]: Latch::set
    #[inline]
    pub fn set_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let sleep = self.sleep;
        let prev = self.count.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "CountLatch underflow (set_many)");
        if prev == n {
            sleep.notify_all();
        }
    }
}

impl Latch for CountLatch {
    #[inline]
    fn set(&self) {
        self.set_many(1);
    }
}

impl Probe for CountLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }
}

/// A blocking latch for external threads (`ThreadPool::install` callers).
pub struct LockLatch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl LockLatch {
    pub fn new() -> Self {
        LockLatch { done: Mutex::new(false), cv: Condvar::new() }
    }

    /// Block the calling thread until `set` is called.
    pub fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}

impl Default for LockLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        let mut done = self.done.lock().unwrap();
        *done = true;
        self.cv.notify_all();
    }
}

impl Probe for LockLatch {
    fn probe(&self) -> bool {
        *self.done.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_latch_set_probe() {
        let l = SpinLatch::detached();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn count_latch_counts_down() {
        let l = CountLatch::detached(3);
        assert!(!l.probe());
        l.set();
        l.set();
        assert!(!l.probe());
        assert_eq!(l.remaining(), 1);
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn count_latch_increment() {
        let l = CountLatch::detached(1);
        l.increment(2);
        l.set();
        l.set();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn lock_latch_cross_thread() {
        let l = std::sync::Arc::new(LockLatch::new());
        let l2 = std::sync::Arc::clone(&l);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            l2.set();
        });
        l.wait();
        assert!(l.probe());
        h.join().unwrap();
    }

    #[test]
    fn zero_count_latch_is_immediately_done() {
        let l = CountLatch::detached(0);
        assert!(l.probe());
    }

    #[test]
    fn set_many_combines_decrements() {
        let l = CountLatch::detached(5);
        l.set_many(0); // no-op
        assert_eq!(l.remaining(), 5);
        l.set_many(3);
        assert_eq!(l.remaining(), 2);
        assert!(!l.probe());
        l.set_many(2);
        assert!(l.probe());
    }

    #[test]
    fn set_many_publishes_batched_work_cross_thread() {
        // The release half of the combined RMW must publish all writes
        // that preceded it, exactly like per-unit `set` (the hybrid walk
        // relies on this when it batches partition completions).
        use std::sync::Arc;
        let l = Arc::new(CountLatch::detached(4));
        let data = Arc::new([0u64; 4].map(|_| std::sync::atomic::AtomicUsize::new(0)));
        let (l2, d2) = (Arc::clone(&l), Arc::clone(&data));
        let h = std::thread::spawn(move || {
            for (i, d) in d2.iter().enumerate() {
                d.store(i + 1, Ordering::Relaxed);
            }
            l2.set_many(4);
        });
        while !l.probe() {
            std::hint::spin_loop();
        }
        for (i, d) in data.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), i + 1);
        }
        h.join().unwrap();
    }
}
