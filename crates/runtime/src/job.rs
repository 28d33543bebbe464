//! Type-erased jobs.
//!
//! Deques and mailboxes store [`JobRef`]s: a two-word `(data, vtable-fn)`
//! pair, `Copy` so it can live in the Chase–Lev deque. Three concrete job
//! kinds back them:
//!
//! * [`StackJob`] — lives on the forking task's stack (used by `join` and
//!   `install`). Safety rests on the invariant that the forker does not
//!   return until the job's latch is set, so the pointer cannot dangle
//!   while reachable.
//! * [`HeapJob`] — boxed `FnOnce`, freed when executed (used by `scope`
//!   spawns, detached spawns and team broadcasts).
//! * **Intrusive jobs** ([`ArcJob`]) — the `JobRef` points at a loop's own
//!   reference-counted state (the hybrid loop's frame, the lazy loop's
//!   assist handle). Publishing takes one strong reference and allocates
//!   nothing; executing the job consumes that reference. The state pointer
//!   is also the job's identity, which lets its publisher pop the job back
//!   when its participation ends ([`WorkerToken::retract`]): the address
//!   cannot be reused while the publisher still holds its own reference.
//!
//! [`WorkerToken::retract`]: crate::WorkerToken::retract

use std::cell::UnsafeCell;
use std::mem;
use std::sync::Arc;

use crate::latch::Latch;
use crate::unwind;

/// A type-erased, copyable handle to a job awaiting execution.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: JobRefs are only created for Send closures and executed exactly
// once by some pool worker.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

impl JobRef {
    pub(crate) unsafe fn new<T: Job>(data: *const T) -> JobRef {
        JobRef { pointer: data as *const (), execute_fn: T::execute }
    }

    /// A job that runs [`ArcJob::execute`] on `state`, holding one strong
    /// reference until it runs (or until [`release_arc`] drops it).
    ///
    /// # Safety
    /// The lifetime contract of [`WorkerToken::publish`].
    ///
    /// [`release_arc`]: Self::release_arc
    /// [`WorkerToken::publish`]: crate::WorkerToken::publish
    pub(crate) unsafe fn from_arc<T: ArcJob>(state: &Arc<T>) -> JobRef {
        let pointer = Arc::into_raw(Arc::clone(state)).cast::<()>();
        JobRef { pointer, execute_fn: execute_arc::<T> }
    }

    /// Whether this job is an intrusive job on `state` (identity is the
    /// state address, unique while the caller holds `state`).
    #[inline]
    pub(crate) fn is_arc_of<T>(&self, state: &Arc<T>) -> bool {
        self.pointer == Arc::as_ptr(state).cast::<()>()
    }

    /// Drop the reference an unexecuted intrusive job on `state` holds.
    ///
    /// # Safety
    /// `self` came from [`from_arc`](Self::from_arc) on `state` and was
    /// taken out of every queue, so nothing else can execute it.
    pub(crate) unsafe fn release_arc<T>(self, state: &Arc<T>) {
        debug_assert!(self.is_arc_of(state));
        Arc::decrement_strong_count(Arc::as_ptr(state));
    }

    #[inline]
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// A loop's shared state that doubles as a stealable job: the job is the
/// state itself plus one strong reference (see the module docs).
/// `execute` runs wherever the job is popped or stolen — normally on a
/// worker of the publishing pool, but a job still queued when the pool
/// shuts down may run on the thread dropping the pool, where
/// `WorkerToken::current()` is `None`; implementations must then simply
/// return (dropping the reference).
pub trait ArcJob: Send + Sync {
    /// Run the job, consuming the reference its publish took.
    fn execute(this: Arc<Self>);
}

unsafe fn execute_arc<T: ArcJob>(this: *const ()) {
    T::execute(Arc::from_raw(this.cast::<T>()));
}

/// Implemented by concrete job kinds; `execute` consumes the job.
pub(crate) trait Job {
    /// # Safety
    /// `this` must be a valid pointer to `Self` that has not been executed.
    unsafe fn execute(this: *const ());
}

/// Panic payload raised when a job is collected without any stored result.
///
/// By the latch protocol this cannot happen — the executor stores
/// `Ok`/`Panic` *before* setting the latch — so observing it means the
/// protocol was broken (a latch set without executing the job, memory
/// corruption, a collected job that never ran). A deliberate, greppable
/// payload turns that from an opaque `unreachable!` into a diagnosable
/// poisoned-job report.
pub const POISONED_JOB_MSG: &str = "parloop-runtime: poisoned job collected without a result \
     (latch protocol violated: the latch was set before Ok/Panic was stored)";

/// The outcome of a completed job.
pub(crate) enum JobResult<R> {
    None,
    Ok(R),
    Panic(Box<dyn std::any::Any + Send>),
}

impl<R> JobResult<R> {
    /// Unwrap a completed result, resuming a captured panic. A `None`
    /// result raises the deliberate [`POISONED_JOB_MSG`] panic.
    pub(crate) fn into_return_value(self) -> R {
        match self {
            JobResult::None => panic!("{}", POISONED_JOB_MSG),
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => unwind::resume_unwinding(p),
        }
    }
}

/// A job allocated on the forker's stack.
pub(crate) struct StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

// SAFETY: access to `func`/`result` is serialized by the latch protocol —
// the executor writes before setting the latch; the owner reads only after
// the latch is set.
unsafe impl<L, F, R> Sync for StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(func: F, latch: L) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    /// # Safety
    /// The caller must keep `self` alive until the latch is set.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    /// Take the result; only valid after the latch has been set.
    pub(crate) unsafe fn into_result(self) -> R {
        mem::replace(&mut *self.result.get(), JobResult::None).into_return_value()
    }
}

impl<L, F, R> Job for StackJob<L, F, R>
where
    L: Latch + Sync,
    F: FnOnce() -> R + Send,
    R: Send,
{
    unsafe fn execute(this: *const ()) {
        let this = &*(this as *const Self);
        let func = (*this.func.get()).take().expect("StackJob executed twice");
        let res = match unwind::halt_unwinding(func) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        };
        *this.result.get() = res;
        // The latch must be set *after* the result is stored.
        this.latch.set();
    }
}

/// A heap-allocated fire-and-forget job.
///
/// The closure is responsible for its own completion signalling (e.g. a
/// scope's CountLatch) and for catching panics it must not leak.
pub(crate) struct HeapJob<F: FnOnce() + Send> {
    func: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    pub(crate) fn new(func: F) -> Box<Self> {
        Box::new(HeapJob { func })
    }

    /// Leak the box into a `JobRef`; the allocation is reclaimed when the
    /// job executes. If the job is never executed (pool shutdown drops a
    /// deque with pending jobs), the allocation leaks — the registry drains
    /// deques at shutdown precisely to avoid this.
    pub(crate) fn into_job_ref(self: Box<Self>) -> JobRef {
        let ptr = Box::into_raw(self);
        unsafe { JobRef::new(ptr) }
    }
}

impl<F: FnOnce() + Send> Job for HeapJob<F> {
    unsafe fn execute(this: *const ()) {
        let this = Box::from_raw(this as *mut Self);
        (this.func)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::{Probe, SpinLatch};

    #[test]
    fn stack_job_roundtrip() {
        let job = StackJob::new(|| 21 * 2, SpinLatch::detached());
        unsafe {
            let r = job.as_job_ref();
            r.execute();
        }
        assert!(job.latch.probe());
        assert_eq!(unsafe { job.into_result() }, 42);
    }

    #[test]
    fn stack_job_captures_panic_and_sets_latch() {
        let job: StackJob<_, _, ()> = StackJob::new(|| panic!("x"), SpinLatch::detached());
        unsafe { job.as_job_ref().execute() };
        assert!(job.latch.probe(), "latch must be set even on panic");
        let caught = crate::unwind::halt_unwinding(move || unsafe { job.into_result() });
        assert!(caught.is_err());
    }

    #[test]
    fn poisoned_job_panics_with_diagnosable_payload() {
        // Collect a StackJob whose latch was set without executing it —
        // the latch-protocol violation the poisoned payload diagnoses.
        let job: StackJob<_, _, i32> = StackJob::new(|| 7, SpinLatch::detached());
        job.latch.set();
        let caught = crate::unwind::halt_unwinding(move || unsafe { job.into_result() })
            .expect_err("collecting a never-executed job must panic");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("poisoned job"), "opaque payload: {msg}");
    }

    /// Intrusive jobs: a drop-counting state must be released exactly once
    /// however its job leaves the deque.
    mod intrusive {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        use crate::job::ArcJob;
        use crate::latch::Probe;
        use crate::{FaultAction, FaultInjector, Site, ThreadPool, ThreadPoolBuilder, WorkerToken};

        /// Runs and drops of one state, observable after the state is gone.
        #[derive(Default)]
        struct Tally {
            runs: AtomicUsize,
            drops: AtomicUsize,
        }

        impl Tally {
            fn get(&self) -> (usize, usize) {
                (self.runs.load(Ordering::SeqCst), self.drops.load(Ordering::SeqCst))
            }
        }

        struct Counted(Arc<Tally>);

        impl ArcJob for Counted {
            fn execute(this: Arc<Self>) {
                this.0.runs.fetch_add(1, Ordering::SeqCst);
            }
        }

        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.drops.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn counted() -> (Arc<Counted>, Arc<Tally>) {
            let tally = Arc::new(Tally::default());
            (Arc::new(Counted(Arc::clone(&tally))), tally)
        }

        /// Probe: the tallied job has run.
        struct Ran<'a>(&'a Tally);

        impl Probe for Ran<'_> {
            fn probe(&self) -> bool {
                self.0.runs.load(Ordering::SeqCst) > 0
            }
        }

        fn spin_until(what: &str, cond: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        }

        #[test]
        fn popped_and_run_releases_once() {
            let pool = ThreadPool::new(1);
            let (state, tally) = counted();
            pool.install(|| {
                let t = WorkerToken::current().unwrap();
                unsafe { t.publish(&state) };
                drop(state);
                t.wait_until(&Ran(&tally));
            });
            assert_eq!(tally.get(), (1, 1));
        }

        #[test]
        fn stolen_and_run_releases_once() {
            let pool = ThreadPool::new(2);
            let (state, tally) = counted();
            let steals = pool.stats().steals;
            pool.install(|| {
                let t = WorkerToken::current().unwrap();
                unsafe { t.publish(&state) };
                drop(state);
                // Busy here (not in `wait_until`), so only a thief runs it.
                spin_until("the thief", || tally.get().0 > 0);
            });
            spin_until("the release", || tally.get().1 > 0);
            assert_eq!(tally.get(), (1, 1));
            assert!(pool.stats().steals > steals);
        }

        #[test]
        fn retracted_releases_once_and_matches_only_its_own_bottom_job() {
            let pool = ThreadPool::new(1);
            let (a, tally_a) = counted();
            let (b, tally_b) = counted();
            let before = pool.stats();
            pool.install(|| {
                let t = WorkerToken::current().unwrap();
                unsafe {
                    t.publish(&a);
                    t.publish(&b);
                }
                assert!(!t.retract(&a), "a is not the bottom entry");
                assert!(t.retract(&b));
                assert!(!t.retract(&b), "b is gone");
                assert!(t.retract(&a));
                assert!(!t.retract(&a), "the deque is empty");
            });
            assert_eq!(Arc::strong_count(&a), 1);
            drop((a, b));
            assert_eq!(tally_a.get(), (0, 1));
            assert_eq!(tally_b.get(), (0, 1));
            let after = pool.stats();
            assert_eq!(after.jobs_pushed - before.jobs_pushed, 2);
            assert_eq!(after.jobs_retracted - before.jobs_retracted, 2);
        }

        #[test]
        fn queued_at_pool_drop_releases_once() {
            let (state, tally) = counted();
            let published = Arc::new(AtomicBool::new(false));
            let pool = ThreadPool::new(1);
            let flag = Arc::clone(&published);
            pool.spawn_detached(move || {
                let t = WorkerToken::current().unwrap();
                unsafe { t.publish(&state) };
                drop(state);
                flag.store(true, Ordering::SeqCst);
                // Still queued when the pool starts shutting down: the
                // worker checks for termination before it looks for work.
                std::thread::sleep(Duration::from_millis(20));
            });
            spin_until("the publish", || published.load(Ordering::SeqCst));
            drop(pool);
            assert_eq!(tally.get(), (1, 1));
        }

        /// Kills the worker named in `victim` at its next `WorkerExit`
        /// visit once armed, one time.
        #[derive(Default)]
        struct KillOnce {
            armed: AtomicBool,
            victim: AtomicUsize,
        }

        impl FaultInjector for KillOnce {
            fn enabled(&self) -> bool {
                true
            }

            fn decide(&self, worker: usize, site: Site) -> FaultAction {
                if site == Site::WorkerExit
                    && worker == self.victim.load(Ordering::SeqCst)
                    && self.armed.swap(false, Ordering::SeqCst)
                {
                    FaultAction::Kill
                } else {
                    FaultAction::None
                }
            }
        }

        #[test]
        fn rescued_from_a_killed_worker_releases_once() {
            let inj = Arc::new(KillOnce::default());
            let pool = ThreadPoolBuilder::new().num_workers(2).fault_injector(inj.clone()).build();
            let (state, tally) = counted();
            let (started, release) =
                (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
            pool.install(|| {
                let t = WorkerToken::current().unwrap();
                // Hold the other worker so the job cannot be stolen before
                // the kill moves it into the injection lanes.
                let (s, r) = (Arc::clone(&started), Arc::clone(&release));
                t.spawn_local(move || {
                    s.store(true, Ordering::SeqCst);
                    while !r.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
                spin_until("the blocker", || started.load(Ordering::SeqCst));
                unsafe { t.publish(&state) };
                inj.victim.store(t.index(), Ordering::SeqCst);
                inj.armed.store(true, Ordering::SeqCst);
            });
            drop(state);
            let rescued = || pool.worker_stats().iter().map(|w| w.orphans_rescued).sum::<u64>();
            spin_until("the rescue", || rescued() > 0);
            release.store(true, Ordering::SeqCst);
            spin_until("the rescued job", || tally.get().1 > 0);
            drop(pool);
            assert_eq!(tally.get(), (1, 1));
        }
    }

    #[test]
    fn heap_job_runs_and_frees() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let job = HeapJob::new(move || r2.store(true, Ordering::Relaxed));
        let jref = job.into_job_ref();
        unsafe { jref.execute() };
        assert!(ran.load(Ordering::Relaxed));
    }
}
