//! The unified scheduling API: pick a [`Schedule`], call [`par_for`] (or
//! [`par_for_chunks`] when the body wants whole chunks).
//!
//! Every loop runs through one dispatcher, [`Loop::run`]: a [`Loop`] spec
//! composes the schedule with a [`GrainPolicy`] and an optional
//! [`CancelToken`], and every combination takes the same path — the
//! grain is resolved once, cancellation gates every chunk, and the
//! scheduling counters come back for every schedule. The infallible entry
//! points ([`par_for`], [`par_for_chunks`], [`par_for_tracked`],
//! [`hybrid_for_with_stats`]) are thin wrappers that re-raise panics.
//!
//! All schedulers are generic over the body type: [`par_for_chunks`] is
//! the primitive, and [`par_for`] layers a per-index loop over each chunk,
//! so iteration bodies still compile to tight monomorphized loops.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parloop_runtime::chaos::chaos_spin;
use parloop_runtime::{
    current_worker_index, CancelToken, FaultAction, Site, ThreadPool, TraceEvent, WorkerToken,
};

use crate::adapt::{AdaptiveSite, LoopSignals, LoopStart};
use crate::affinity::AffinityProbe;
use crate::hybrid::{hybrid_for, HybridError, HybridStats};
use crate::lazy::lazy_for_chunks;
use crate::range::default_grain;
use crate::sharing::{sharing_for, static_sharing_for, SharingPolicy};
use crate::static_part::{static_cyclic_for, static_for};

/// A loop-scheduling policy — one per platform/scheme the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// OpenMP `schedule(static)`: `P` fixed blocks, block `w` on worker `w`.
    Static,
    /// OpenMP `schedule(static, chunk)`: fixed chunks dealt round-robin —
    /// deterministic (affinity-retaining) but interleaved, which spreads
    /// monotonic imbalance.
    StaticCyclic { chunk: usize },
    /// FastFlow static: fixed blocks claimed through a shared counter.
    StaticSharing,
    /// Cilk `cilk_for` ("vanilla"): divide-and-conquer with work stealing.
    /// `grain = None` uses the Cilk default `min(2048, N/8P)`.
    DynamicStealing { grain: Option<usize> },
    /// OpenMP `schedule(dynamic, chunk)` / FastFlow dynamic: fixed chunks
    /// from a shared cursor.
    WorkSharing { chunk: usize },
    /// OpenMP `schedule(guided, min_chunk)`: decreasing chunks
    /// `max(remaining/P, min_chunk)` from a shared cursor.
    Guided { min_chunk: usize },
    /// The paper's hybrid scheme: static earmarking + XOR claim heuristic +
    /// work stealing. `grain = None` uses the Cilk default for the inner
    /// per-partition loops; `oversub` multiplies the partition count
    /// (`R = next_pow2(P · oversub)` — Theorem 5's general `R`; the
    /// paper's default is 1).
    Hybrid { grain: Option<usize>, oversub: usize },
}

impl Schedule {
    /// The paper's `omp_static` configuration.
    pub fn omp_static() -> Self {
        Schedule::Static
    }

    /// OpenMP `schedule(static, chunk)` (cyclic distribution).
    pub fn omp_static_chunked(chunk: usize) -> Self {
        Schedule::StaticCyclic { chunk }
    }

    /// The paper's `omp_dynamic` configuration with an adjusted chunk
    /// (`min(2048, N/8P)` is applied by the caller; pass it here).
    pub fn omp_dynamic(chunk: usize) -> Self {
        Schedule::WorkSharing { chunk }
    }

    /// The paper's `omp_guided` configuration.
    pub fn omp_guided() -> Self {
        Schedule::Guided { min_chunk: 1 }
    }

    /// FastFlow with static partitioning.
    pub fn ff_static() -> Self {
        Schedule::StaticSharing
    }

    /// FastFlow with dynamic partitioning and an adjusted chunk.
    pub fn ff_dynamic(chunk: usize) -> Self {
        Schedule::WorkSharing { chunk }
    }

    /// The paper's `vanilla` configuration (Cilk Plus work stealing).
    pub fn vanilla() -> Self {
        Schedule::DynamicStealing { grain: None }
    }

    /// The paper's `hybrid` configuration (`R = next_pow2(P)`).
    pub fn hybrid() -> Self {
        Schedule::Hybrid { grain: None, oversub: 1 }
    }

    /// The hybrid scheme with `R = next_pow2(P · factor)` partitions —
    /// finer static pieces for better late-phase balancing at `O(R lg R)`
    /// claim cost (the A3 ablation).
    pub fn hybrid_oversub(factor: usize) -> Self {
        Schedule::Hybrid { grain: None, oversub: factor.max(1) }
    }

    /// This schedule with its granularity knob set to `grain` (clamped to
    /// at least 1): the splitter grain of [`Schedule::DynamicStealing`] /
    /// [`Schedule::Hybrid`], the fixed chunk of [`Schedule::WorkSharing`] /
    /// [`Schedule::StaticCyclic`], the minimum chunk of
    /// [`Schedule::Guided`]. The block-partitioned schemes
    /// ([`Schedule::Static`], [`Schedule::StaticSharing`]) have no chunk
    /// knob and come back unchanged.
    ///
    /// `default_grain` only sees the iteration *count*, never the body's
    /// weight — a caller that knows each iteration is heavy (or trivially
    /// light) pins a smaller (or larger) chunk here.
    ///
    /// ```
    /// use parloop_core::{par_for_chunks, Schedule};
    /// use parloop_runtime::ThreadPool;
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    ///
    /// let pool = ThreadPool::new(4);
    /// // default_grain(16384, 4) would be 512; pin 64 instead.
    /// let max_len = AtomicUsize::new(0);
    /// par_for_chunks(&pool, 0..16384, Schedule::vanilla().with_grain(64), |chunk| {
    ///     max_len.fetch_max(chunk.len(), Ordering::Relaxed);
    /// });
    /// // The largest chunk the splitter hands out is exactly the pin.
    /// assert_eq!(max_len.load(Ordering::Relaxed), 64);
    /// ```
    pub fn with_grain(self, grain: usize) -> Schedule {
        let g = grain.max(1);
        match self {
            Schedule::DynamicStealing { .. } => Schedule::DynamicStealing { grain: Some(g) },
            Schedule::Hybrid { oversub, .. } => Schedule::Hybrid { grain: Some(g), oversub },
            Schedule::WorkSharing { .. } => Schedule::WorkSharing { chunk: g },
            Schedule::Guided { .. } => Schedule::Guided { min_chunk: g },
            Schedule::StaticCyclic { .. } => Schedule::StaticCyclic { chunk: g },
            keep @ (Schedule::Static | Schedule::StaticSharing) => keep,
        }
    }

    /// Short name used in tables and plots.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Static => "omp_static",
            Schedule::StaticCyclic { .. } => "omp_static_c",
            Schedule::StaticSharing => "ff_static",
            Schedule::DynamicStealing { .. } => "vanilla",
            Schedule::WorkSharing { .. } => "omp_dynamic",
            Schedule::Guided { .. } => "omp_guided",
            Schedule::Hybrid { .. } => "hybrid",
        }
    }

    /// The roster of schemes the paper's microbenchmark figures compare,
    /// with the paper's chunk-size adjustment (`min(2048, N/8P)`) applied
    /// to the chunked schemes.
    pub fn roster(n: usize, p: usize) -> Vec<Schedule> {
        let chunk = default_grain(n, p);
        vec![
            Schedule::hybrid(),
            Schedule::omp_static(),
            Schedule::omp_dynamic(chunk),
            Schedule::omp_guided(),
            Schedule::vanilla(),
            Schedule::ff_static(),
        ]
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    /// Parse a scheme by its paper name (`hybrid`, `omp_static`,
    /// `omp_dynamic`, `omp_guided`, `vanilla`, `ff_static`,
    /// `omp_static_c`); chunked schemes get sensible defaults
    /// (override with the typed constructors).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hybrid" => Ok(Schedule::hybrid()),
            "omp_static" | "static" => Ok(Schedule::omp_static()),
            "omp_dynamic" | "dynamic" => Ok(Schedule::omp_dynamic(64)),
            "omp_guided" | "guided" => Ok(Schedule::omp_guided()),
            "vanilla" | "cilk" => Ok(Schedule::vanilla()),
            "ff_static" | "ff" => Ok(Schedule::ff_static()),
            "omp_static_c" | "static_cyclic" => Ok(Schedule::omp_static_chunked(64)),
            other => Err(format!(
                "unknown schedule '{other}' (expected one of: hybrid, omp_static, \
                 omp_dynamic, omp_guided, vanilla, ff_static, omp_static_c)"
            )),
        }
    }
}

/// How a loop's grain (and, for the hybrid scheme, its oversubscription
/// factor `R`) is chosen — a [`Loop`] knob beside the schedule and the
/// runtime's `StealPolicy`.
#[derive(Debug, Clone, Copy, Default)]
pub enum GrainPolicy<'a> {
    /// The schedule's own grain: an explicit pin if the [`Schedule`]
    /// carries one, else the static Cilk rule ([`default_grain`]).
    #[default]
    Static,
    /// Feedback-driven: the [`AdaptiveSite`] supplies the grain/R before
    /// the loop and ingests its signals afterwards (see [`crate::adapt`]).
    Adaptive(&'a AdaptiveSite),
}

/// One parallel loop, fully specified: the schedule plus every knob that
/// composes with it. Build with [`Loop::new`] and set fields with struct
/// update syntax; [`Loop::run`] is the single dispatch path every entry
/// point of this crate goes through.
///
/// ```
/// use parloop_core::{Loop, Schedule};
/// use parloop_runtime::{CancelToken, ThreadPool};
///
/// let (pool, cancel) = (ThreadPool::new(2), CancelToken::new());
/// let spec = Loop { cancel: Some(&cancel), ..Loop::new(Schedule::omp_dynamic(64)) };
/// let r = spec.run(&pool, 0..4096, |_| cancel.cancel());
/// assert!(r.is_err(), "chunks claimed after the token fired were skipped");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Loop<'a> {
    /// The scheduling policy.
    pub schedule: Schedule,
    /// Where the grain (and the hybrid `R`) comes from.
    pub grain: GrainPolicy<'a>,
    /// Cooperative cancellation: once the token fires, no further chunk
    /// body (and, under [`Schedule::Hybrid`], no further partition) starts.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> Loop<'a> {
    /// `schedule` with the static grain rule and no cancel token — what
    /// [`par_for_chunks`] runs.
    pub fn new(schedule: Schedule) -> Loop<'a> {
        Loop { schedule, grain: GrainPolicy::Static, cancel: None }
    }

    /// Execute `body(chunk)` over scheduler-chosen chunks of `range` on
    /// `pool`, blocking until the loop resolves. Chunks are non-empty,
    /// disjoint and inside `range`.
    ///
    /// Returns the loop's scheduling counters. `partitions`, `adoptions`,
    /// `failed_claims` and `skipped_partitions` are hybrid-only and read 0
    /// under every other schedule; `assist_joins` counts the lazy
    /// splitter's assistants under [`Schedule::DynamicStealing`] too.
    ///
    /// * `Err(HybridError::Cancelled)` if and only if the token fired and
    ///   some chunk or partition was skipped because of it. A token that
    ///   fires after the last body started still yields `Ok`, and a token
    ///   that fired before the call runs no body at all. Chunks that
    ///   started are never rolled back: everything that ran, ran exactly
    ///   once.
    /// * `Err(HybridError::Panicked)` carries the first panic payload of a
    ///   body (or an injected fault), on every schedule.
    ///
    /// Under [`GrainPolicy::Adaptive`] the site's operating point
    /// overrides the schedule's grain (and, for [`Schedule::Hybrid`], its
    /// `oversub`). A measured loop that completes feeds its wall time and
    /// contention counters back through [`AdaptiveSite::record`], gated by
    /// the `Site::GrainAdjust` chaos site (an injected `Fail` drops the
    /// sample, a `Delay` stalls the recording thread — user iterations are
    /// never at risk). A cancelled or panicked loop records no sample.
    /// Accepted adjustments are counted in `PoolStats::grain_adjustments`
    /// and emitted as `TraceEvent::GrainAdjusted` events.
    pub fn run<F>(
        &self,
        pool: &ThreadPool,
        range: Range<usize>,
        body: F,
    ) -> Result<HybridStats, HybridError>
    where
        F: Fn(Range<usize>) + Sync,
    {
        let n = range.len();
        let mut sched = self.schedule;
        let adaptive = match self.grain {
            GrainPolicy::Adaptive(site) if n > 0 => {
                let start = site.begin(n, pool.num_workers());
                sched = match sched.with_grain(start.grain) {
                    Schedule::Hybrid { grain, .. } => {
                        Schedule::Hybrid { grain, oversub: start.oversub }
                    }
                    other => other,
                };
                // Timestamps only on measured loops: in the settled steady
                // state 15 of 16 loops skip both `Instant::now` calls.
                start.measure.then(|| (site, start, Instant::now()))
            }
            _ => None,
        };
        let result = match self.cancel {
            None => dispatch(pool, range, sched, None, &body),
            Some(cancel) => {
                // The gate every schedule shares: a chunk claimed after the
                // token fired is skipped, and the skip is what makes the
                // loop `Cancelled`. The flag is read after the loop
                // resolved, which orders every participant's store.
                let skipped = AtomicBool::new(false);
                let gated = |chunk: Range<usize>| {
                    if cancel.is_cancelled() {
                        skipped.store(true, Ordering::Relaxed);
                    } else {
                        body(chunk);
                    }
                };
                match dispatch(pool, range, sched, Some(cancel), &gated) {
                    Ok(stats) if skipped.load(Ordering::Relaxed) => {
                        Err(HybridError::Cancelled(stats))
                    }
                    other => other,
                }
            }
        };
        if let (Ok(stats), Some((site, start, t0))) = (&result, adaptive) {
            record_sample(pool, site, &start, n, t0, stats);
        }
        result
    }
}

/// Run one loop under a resolved schedule. Panics come back as
/// `HybridError::Panicked`: the hybrid engine reports them itself, the
/// team and splitter engines re-raise on this thread and are caught here.
fn dispatch<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    cancel: Option<&CancelToken>,
    body: &F,
) -> Result<HybridStats, HybridError>
where
    F: Fn(Range<usize>) + Sync,
{
    // The Cilk default grain is derived from the *pool's* worker count
    // (`min(2048, N/8P)`), never the host's CPU count — the docs and the
    // grain-pinning test below rely on exactly this wiring.
    let n = range.len();
    let grain_or_default =
        |grain: Option<usize>| grain.unwrap_or_else(|| default_grain(n, pool.num_workers()));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut stats = HybridStats::default();
        match sched {
            Schedule::Static => static_for(pool, range, body),
            Schedule::StaticCyclic { chunk } => static_cyclic_for(pool, range, chunk, body),
            Schedule::StaticSharing => static_sharing_for(pool, range, body),
            Schedule::WorkSharing { chunk } => {
                sharing_for(pool, range, SharingPolicy::Fixed(chunk), body)
            }
            Schedule::Guided { min_chunk } => {
                sharing_for(pool, range, SharingPolicy::Guided { min_chunk }, body)
            }
            Schedule::DynamicStealing { grain } => {
                let grain = grain_or_default(grain);
                stats.assist_joins = pool.install(|| lazy_for_chunks(range, grain, body));
            }
            Schedule::Hybrid { grain, oversub } => {
                let grain = grain_or_default(grain);
                return pool.install(|| {
                    let token = WorkerToken::current().expect("install puts us on a worker");
                    hybrid_for(token, range, grain, oversub, cancel, body)
                });
            }
        }
        Ok(stats)
    }));
    ran.unwrap_or_else(|payload| {
        Err(HybridError::Panicked { stats: HybridStats::default(), payload })
    })
}

/// Feed one completed, measured loop to its adaptive site.
fn record_sample(
    pool: &ThreadPool,
    site: &AdaptiveSite,
    start: &LoopStart,
    n: usize,
    t0: Instant,
    stats: &HybridStats,
) {
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Chaos: perturb the *controller*, never the loop. `Fail` drops this
    // sample on the floor (convergence must survive missing
    // observations); `Delay` stalls the recording thread so concurrent
    // loops race their CAS. Panic/Kill are already demoted to Fail by
    // the external-decision path.
    match pool.chaos_decide_external(Site::GrainAdjust) {
        FaultAction::Fail | FaultAction::Panic | FaultAction::Kill => return,
        FaultAction::Delay(spins) => chaos_spin(spins),
        FaultAction::None => {}
    }
    let sig = LoopSignals {
        n,
        workers: pool.num_workers(),
        wall_ns,
        assist_joins: stats.assist_joins,
        failed_claims: stats.failed_claims,
        // Non-hybrid schemes report no partitions; R = 1 disables the
        // controller's R guard for them.
        r_parts: stats.partitions.max(1),
    };
    if let Some(adj) = site.record(start, &sig) {
        pool.note_grain_adjustment();
        pool.trace_external(TraceEvent::GrainAdjusted {
            site: site.id(),
            grain: u32::try_from(adj.grain).unwrap_or(u32::MAX),
            r: u32::try_from(adj.oversub).unwrap_or(u32::MAX),
        });
    }
}

/// The infallible entry points' view of a loop result: a panic resumes on
/// the caller. (They pass no token, so `Cancelled` cannot occur.)
fn stats_or_resume(result: Result<HybridStats, HybridError>) -> HybridStats {
    match result {
        Ok(stats) | Err(HybridError::Cancelled(stats)) => stats,
        Err(HybridError::Panicked { payload, .. }) => resume_unwind(payload),
    }
}

/// Execute `body(i)` for each `i` in `range` under `sched` on `pool`,
/// blocking until the loop completes. Panics in `body` are re-thrown.
///
/// ```
/// use parloop_core::{par_for, Schedule};
/// use parloop_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// par_for(&pool, 0..1000, Schedule::hybrid(), |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn par_for<F>(pool: &ThreadPool, range: Range<usize>, sched: Schedule, body: F)
where
    F: Fn(usize) + Sync,
{
    par_for_chunks(pool, range, sched, move |chunk: Range<usize>| {
        for i in chunk {
            body(i);
        }
    });
}

/// Execute `body(chunk)` for each scheduler-chosen chunk of `range` under
/// `sched` on `pool` — [`Loop::new`]`(sched).run(..)` with panics
/// re-thrown. The body is monomorphized through every scheduler, so a
/// regular chunk body compiles to a tight loop with no per-iteration
/// dispatch. Chunks are non-empty, disjoint, and tile `range`.
///
/// ```
/// use parloop_core::{par_for_chunks, Schedule};
/// use parloop_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// par_for_chunks(&pool, 0..1000, Schedule::hybrid(), |chunk| {
///     let partial: u64 = chunk.map(|i| i as u64).sum();
///     sum.fetch_add(partial, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn par_for_chunks<F>(pool: &ThreadPool, range: Range<usize>, sched: Schedule, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    stats_or_resume(Loop::new(sched).run(pool, range, body));
}

/// Like [`par_for`], but records which worker executed each iteration into
/// `probe` (used for the Figure 2 affinity experiments).
///
/// Ownership is recorded per *chunk*: one worker-index lookup and one
/// probe write-range per scheduler chunk, instead of per iteration.
pub fn par_for_tracked<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    probe: &AffinityProbe,
    body: F,
) where
    F: Fn(usize) + Sync,
{
    par_for_chunks(pool, range, sched, move |chunk: Range<usize>| {
        if let Some(w) = current_worker_index() {
            probe.record_range(chunk.clone(), w);
        }
        for i in chunk {
            body(i);
        }
    });
}

/// Run a hybrid loop (`R = next_pow2(P)`) and return its scheduling
/// counters (tests, benches). Panics in `body` are re-thrown.
pub fn hybrid_for_with_stats<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    grain: Option<usize>,
    body: F,
) -> HybridStats
where
    F: Fn(usize) + Sync,
{
    let spec = Loop::new(Schedule::Hybrid { grain, oversub: 1 });
    stats_or_resume(spec.run(pool, range, |chunk: Range<usize>| {
        for i in chunk {
            body(i);
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn all_schedules(n: usize, p: usize) -> Vec<Schedule> {
        Schedule::roster(n, p)
    }

    #[test]
    fn every_schedule_covers_exactly_once() {
        let n = 2000;
        for p in [1usize, 2, 4] {
            let pool = ThreadPool::new(p);
            for sched in all_schedules(n, p) {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                par_for(&pool, 0..n, sched, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "{} P={p}: iteration {i}",
                        sched.name()
                    );
                }
            }
        }
    }

    #[test]
    fn schedules_compute_identical_reductions() {
        let n = 1234;
        let pool = ThreadPool::new(3);
        let expect: usize = (0..n).map(|i| i * i).sum();
        for sched in all_schedules(n, 3) {
            let sum = AtomicUsize::new(0);
            par_for(&pool, 0..n, sched, |i| {
                sum.fetch_add(i * i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), expect, "{}", sched.name());
        }
    }

    #[test]
    fn tracked_records_owners() {
        let pool = ThreadPool::new(2);
        let probe = AffinityProbe::new(0..100);
        par_for_tracked(&pool, 0..100, Schedule::hybrid(), &probe, |_| {});
        let snap = probe.snapshot();
        assert!(snap.iter().all(|&w| w != crate::affinity::UNRECORDED));
        assert!(snap.iter().all(|&w| (w as usize) < 2));
    }

    #[test]
    fn static_tracked_matches_static_owner() {
        let pool = ThreadPool::new(4);
        let n = 64;
        let probe = AffinityProbe::new(0..n);
        par_for_tracked(&pool, 0..n, Schedule::Static, &probe, |_| {});
        for i in 0..n {
            assert_eq!(probe.owner(i), Some(crate::static_part::static_owner(n, 4, i)));
        }
    }

    #[test]
    fn hybrid_stats_reported() {
        let pool = ThreadPool::new(4);
        let s = hybrid_for_with_stats(&pool, 0..1000, None, |_| {});
        assert_eq!(s.partitions, 4);
        assert!(s.adoptions <= 4);
    }

    #[test]
    fn parse_round_trips_names() {
        for sched in Schedule::roster(1000, 4) {
            let parsed: Schedule = sched.name().parse().unwrap();
            assert_eq!(parsed.name(), sched.name());
        }
        assert!("nonsense".parse::<Schedule>().is_err());
        assert_eq!("static_cyclic".parse::<Schedule>().unwrap().name(), "omp_static_c");
    }

    #[test]
    fn cyclic_static_covers_and_is_deterministic() {
        let pool = ThreadPool::new(4);
        let n = 500;
        let sched = Schedule::omp_static_chunked(16);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(&pool, 0..n, sched, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn loop_spec_completes_when_token_never_fires() {
        let n = 500;
        let pool = ThreadPool::new(3);
        for sched in all_schedules(n, 3) {
            let cancel = CancelToken::new();
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let spec = Loop { cancel: Some(&cancel), ..Loop::new(sched) };
            let stats = spec
                .run(&pool, 0..n, |chunk| {
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap_or_else(|_| panic!("{}: spuriously cancelled", sched.name()));
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{}: not exactly-once",
                sched.name()
            );
            assert_eq!(stats.skipped_partitions, 0, "{}", sched.name());
            let r_parts = if sched.name() == "hybrid" { 4 } else { 0 };
            assert_eq!(stats.partitions, r_parts, "{}: hybrid-only field", sched.name());
        }
    }

    #[test]
    fn loop_spec_rejects_a_pre_fired_token() {
        let pool = ThreadPool::new(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ran = AtomicUsize::new(0);
        for sched in all_schedules(100, 2) {
            let spec = Loop { cancel: Some(&cancel), ..Loop::new(sched) };
            let r = spec.run(&pool, 0..100, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            match r {
                Err(HybridError::Cancelled(stats)) => {
                    assert_eq!(stats.skipped_partitions, stats.partitions, "{}", sched.name());
                }
                other => panic!("{}: expected Cancelled, got {other:?}", sched.name()),
            }
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no body may run after cancellation");
    }

    #[test]
    fn loop_spec_reports_panics_on_every_schedule() {
        let pool = ThreadPool::new(2);
        for sched in all_schedules(100, 2) {
            match Loop::new(sched).run(&pool, 0..100, |chunk| assert!(!chunk.contains(&42))) {
                Err(HybridError::Panicked { .. }) => {}
                other => panic!("{}: expected Panicked, got {other:?}", sched.name()),
            }
        }
        let sum = AtomicUsize::new(0);
        par_for(&pool, 0..10, Schedule::omp_static(), |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45, "pool reusable after panics");
    }

    #[test]
    fn default_grain_uses_pool_worker_count() {
        // `DynamicStealing { grain: None }` must derive the Cilk default
        // grain from the *pool's* worker count, not the host CPU count:
        // for N = 16384 on a 4-worker pool, min(2048, N/8P) = 512. Pin the
        // formula and then observe the wired value — the largest chunk the
        // splitter hands out is exactly one full grain.
        let (n, p) = (16384usize, 4usize);
        assert_eq!(default_grain(n, p), 512);

        let pool = ThreadPool::new(p);
        let max_len = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        par_for_chunks(&pool, 0..n, Schedule::DynamicStealing { grain: None }, |chunk| {
            max_len.fetch_max(chunk.len(), Ordering::Relaxed);
            total.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), n);
        assert_eq!(
            max_len.load(Ordering::Relaxed),
            512,
            "observed grain disagrees with default_grain(n, pool.num_workers())"
        );
    }

    #[test]
    fn with_grain_overrides_every_chunked_scheme() {
        let (n, p) = (4096usize, 2usize);
        let pool = ThreadPool::new(p);
        for sched in [
            Schedule::vanilla(),
            Schedule::hybrid(),
            Schedule::omp_dynamic(999),
            Schedule::omp_static_chunked(999),
        ] {
            let max_len = AtomicUsize::new(0);
            let total = AtomicUsize::new(0);
            par_for_chunks(&pool, 0..n, sched.with_grain(32), |chunk| {
                max_len.fetch_max(chunk.len(), Ordering::Relaxed);
                total.fetch_add(chunk.len(), Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), n, "{}", sched.name());
            assert!(
                max_len.load(Ordering::Relaxed) <= 32,
                "{}: chunk exceeded the 32-iteration pin",
                sched.name()
            );
        }
        // Zero clamps to 1 rather than panicking or hanging; block schemes
        // have no chunk knob.
        assert_eq!(Schedule::vanilla().with_grain(0), Schedule::DynamicStealing { grain: Some(1) });
        assert_eq!(Schedule::omp_static().with_grain(8), Schedule::omp_static());
        assert_eq!(
            Schedule::hybrid_oversub(4).with_grain(8),
            Schedule::Hybrid { grain: Some(8), oversub: 4 }
        );
        let total = AtomicUsize::new(0);
        par_for_chunks(&pool, 0..17, Schedule::vanilla().with_grain(0), |chunk| {
            total.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Schedule::hybrid().name(), "hybrid");
        assert_eq!(Schedule::vanilla().name(), "vanilla");
        assert_eq!(Schedule::omp_static().name(), "omp_static");
        assert_eq!(Schedule::omp_dynamic(8).name(), "omp_dynamic");
        assert_eq!(Schedule::omp_guided().name(), "omp_guided");
        assert_eq!(Schedule::ff_static().name(), "ff_static");
    }
}
