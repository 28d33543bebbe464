//! Small utilities shared by the loop executors.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A raw-pointer wrapper asserting cross-thread transferability.
///
/// Used to hand borrows of the loop body (and other caller-stack state) to
/// heap jobs whose completion is awaited before the borrow expires. Always
/// access through [`SendPtr::get`] inside `move` closures so the whole
/// (Send) struct is captured rather than the raw field (edition-2021
/// precise capture would otherwise capture the non-Send pointer).
pub(crate) struct SendPtr<T: ?Sized>(*const T);

unsafe impl<T: ?Sized> Send for SendPtr<T> {}
unsafe impl<T: ?Sized> Sync for SendPtr<T> {}

impl<T: ?Sized> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: ?Sized> Copy for SendPtr<T> {}

impl<T: ?Sized> SendPtr<T> {
    pub(crate) fn new(r: &T) -> Self {
        SendPtr(r as *const T)
    }

    /// # Safety
    /// The pointee must outlive every dereference; callers uphold this by
    /// blocking on a latch that the last user of the pointer sets.
    pub(crate) unsafe fn get<'a>(self) -> &'a T {
        &*self.0
    }
}

/// The per-loop cap on published jobs — hybrid frames, lazy assist
/// handles: at most `P − 1`, because only the `P − 1` other workers can
/// take them (the publisher pops its own back). The count is taken only by
/// jobs actually published, so rejected attempts never burn a slot.
pub(crate) struct PublishBudget {
    used: AtomicUsize,
    max: usize,
}

impl PublishBudget {
    /// A budget of `workers − 1` jobs (none on a one-worker pool).
    pub(crate) fn new(workers: usize) -> Self {
        PublishBudget { used: AtomicUsize::new(0), max: workers.saturating_sub(1) }
    }

    /// Take one slot; `false` once the cap is reached.
    pub(crate) fn try_take(&self) -> bool {
        // Relaxed: the count orders nothing; the push that follows a won
        // slot is published by the deque itself.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            if cur >= self.max {
                return false;
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Slots taken so far.
    #[cfg(test)]
    pub(crate) fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }
}
