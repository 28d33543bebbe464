//! Integration tests for the chunk-granular execution layer: every
//! scheduler must hand the monomorphized chunk body a set of in-range,
//! non-overlapping chunks that cover the loop exactly once, and the
//! chunked path must place iterations on the same workers as the dyn
//! path (they share one decomposition). The composition table drives
//! every schedule through the one `Loop` dispatcher under every grain
//! policy and cancellation state.

use parloop::core::{
    par_for_chunks, par_for_tracked, AdaptiveSite, AffinityProbe, GrainPolicy, HybridError, Loop,
    Schedule,
};
use parloop::runtime::{current_worker_index, CancelToken, ThreadPool, ThreadPoolBuilder};
use parloop::trace::metrics::max_claim_failure_run;
use parloop::trace::{init_clock, RingTraceSink};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Roster plus the off-roster schemes the chunk layer must also serve.
fn all_schemes(n: usize, p: usize) -> Vec<Schedule> {
    let mut v = Schedule::roster(n, p);
    v.push(Schedule::omp_static_chunked(7));
    v.push(Schedule::hybrid_oversub(4));
    v
}

#[test]
fn chunks_cover_every_index_exactly_once() {
    for p in [1usize, 2, 4, 5] {
        let pool = ThreadPool::new(p);
        for n in [0usize, 1, 13, 256, 1000] {
            for sched in all_schemes(n.max(1), p) {
                let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                par_for_chunks(&pool, 0..n, sched, |chunk| {
                    for i in chunk {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "{} n={n} p={p}: index {i} not covered exactly once",
                        sched.name()
                    );
                }
            }
        }
    }
}

#[test]
fn chunks_cover_offset_ranges() {
    let pool = ThreadPool::new(4);
    let (lo, hi) = (1000usize, 1500usize);
    for sched in all_schemes(hi - lo, 4) {
        let counts: Vec<AtomicU32> = (0..hi - lo).map(|_| AtomicU32::new(0)).collect();
        par_for_chunks(&pool, lo..hi, sched, |chunk| {
            for i in chunk {
                counts[i - lo].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "{}: offset range not covered exactly once",
            sched.name()
        );
    }
}

#[test]
fn chunk_bounds_are_nonempty_and_in_range() {
    let pool = ThreadPool::new(4);
    let n = 777usize;
    for sched in all_schemes(n, 4) {
        let chunks: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
        let calls = AtomicUsize::new(0);
        par_for_chunks(&pool, 0..n, sched, |chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            chunks.lock().unwrap().push(chunk);
        });
        let mut chunks = chunks.into_inner().unwrap();
        assert_eq!(chunks.len(), calls.load(Ordering::Relaxed));
        let mut total = 0usize;
        for c in &chunks {
            assert!(c.start < c.end, "{}: empty chunk {c:?}", sched.name());
            assert!(c.end <= n, "{}: chunk {c:?} out of range", sched.name());
            total += c.len();
        }
        assert_eq!(total, n, "{}: chunk lengths must sum to n", sched.name());
        // Sorted by start, chunks must tile 0..n without gap or overlap
        // (exactly-once, phrased over bounds instead of per-index counts).
        chunks.sort_by_key(|c| c.start);
        let mut expect = 0usize;
        for c in &chunks {
            assert_eq!(c.start, expect, "{}: gap or overlap at {c:?}", sched.name());
            expect = c.end;
        }
        assert_eq!(expect, n);
    }
}

#[test]
fn tracked_probe_matches_dyn_ownership_for_static() {
    // Schedule::Static assigns each index to a fixed worker, so per-chunk
    // tracking (par_for_tracked) and per-index tracking through the dyn
    // path must record identical ownership maps.
    let p = 4usize;
    let n = 1000usize;
    let pool = ThreadPool::new(p);

    let chunked = AffinityProbe::new(0..n);
    par_for_tracked(&pool, 0..n, Schedule::Static, &chunked, |_| {});

    let dyn_probe = AffinityProbe::new(0..n);
    let body: &(dyn Fn(usize) + Sync) = &|i: usize| {
        let w = current_worker_index().expect("loop bodies run on pool workers");
        dyn_probe.record(i, w);
    };
    par_for_chunks(&pool, 0..n, Schedule::Static, |chunk| {
        for i in chunk {
            body(i);
        }
    });

    assert_eq!(
        chunked.snapshot(),
        dyn_probe.snapshot(),
        "per-chunk and per-iteration tracking disagree under Static"
    );
    // Every index must actually have been claimed by some worker.
    for i in 0..n {
        assert!(chunked.owner(i).is_some(), "index {i} untracked");
    }
}

/// Regression: near `usize::MAX` the shared cursor of `omp_dynamic` used to
/// wrap (a debug-build overflow panic, then chunks below `range.start`
/// and a hung pool). Every chunked schedule must cover such a range
/// exactly once without touching anything outside it.
#[test]
fn ranges_ending_at_usize_max_cover_exactly_once() {
    let range = usize::MAX - 100..usize::MAX;
    for p in [1usize, 2, 3] {
        let pool = ThreadPool::new(p);
        for sched in all_schemes(range.len(), p) {
            let counts: Vec<AtomicU32> = range.clone().map(|_| AtomicU32::new(0)).collect();
            par_for_chunks(&pool, range.clone(), sched.with_grain(64), |chunk| {
                assert!(
                    chunk.start >= range.start && chunk.end <= range.end,
                    "{}: chunk {chunk:?} outside the range",
                    sched.name()
                );
                for i in chunk {
                    counts[i - range.start].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{} p={p}: not exactly-once near usize::MAX",
                sched.name()
            );
        }
    }
}

/// A token fired inside the body of the *last* chunk skipped nothing, so
/// the loop completed: every schedule must return `Ok` (the team and
/// splitter schedules used to report `Cancelled` here while the hybrid
/// one did not).
#[test]
fn token_fired_in_the_last_chunk_is_not_a_cancellation() {
    let n = 64;
    let pool = ThreadPool::new(1);
    for sched in all_schemes(n, 1) {
        let cancel = CancelToken::new();
        let executed = AtomicUsize::new(0);
        let spec = Loop { cancel: Some(&cancel), ..Loop::new(sched) };
        let r = spec.run(&pool, 0..n, |chunk| {
            if executed.fetch_add(chunk.len(), Ordering::Relaxed) + chunk.len() == n {
                cancel.cancel();
            }
        });
        assert!(cancel.is_cancelled());
        assert_eq!(executed.load(Ordering::Relaxed), n, "{}", sched.name());
        assert!(r.is_ok(), "{}: completed loop reported {r:?}", sched.name());
    }
}

#[derive(Clone, Copy, Debug)]
enum Grain {
    Default,
    Pinned,
    Adaptive,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Token {
    None,
    Live,
    PreFired,
    FiredMidLoop,
}

/// The controller state a sample would change (`loops` counts loop
/// starts, so it moves on every run).
fn controller_state(site: &AdaptiveSite) -> impl PartialEq + std::fmt::Debug {
    let s = site.snapshot();
    (s.grain, s.oversub, s.phase, s.ref_cost_ns.to_bits(), s.adjustments)
}

/// Every knob composes through the one dispatcher: schedule × grain
/// policy × cancellation state, at P = 1 and P = 3. Each cell checks
/// exactly-once (at-most-once when cancelled), `Err` if and only if an
/// iteration was skipped, that a cancelled adaptive loop feeds its site
/// no sample while a completed one does, and — on hybrid cells — the
/// Lemma 4 bound on traced failed-claim runs.
#[test]
fn every_schedule_grain_and_token_combination_composes() {
    let n = 1000;
    init_clock();
    for p in [1usize, 3] {
        let sink = Arc::new(RingTraceSink::with_capacity(p, 1 << 14));
        let pool = ThreadPoolBuilder::new()
            .num_workers(p)
            .trace_sink(Arc::<RingTraceSink>::clone(&sink))
            .build();
        for sched in Schedule::roster(n, p) {
            for grain in [Grain::Default, Grain::Pinned, Grain::Adaptive] {
                for token in [Token::None, Token::Live, Token::PreFired, Token::FiredMidLoop] {
                    let cell = format!("{} P={p} {grain:?} {token:?}", sched.name());
                    let site = AdaptiveSite::new("composition");
                    // Seed the site so its snapshot is stable before the run.
                    site.begin(n, p);
                    let before = controller_state(&site);
                    let cancel = CancelToken::new();
                    if token == Token::PreFired {
                        cancel.cancel();
                    }
                    let spec = Loop {
                        schedule: match grain {
                            Grain::Pinned => sched.with_grain(32),
                            _ => sched,
                        },
                        grain: match grain {
                            Grain::Adaptive => GrainPolicy::Adaptive(&site),
                            _ => GrainPolicy::Static,
                        },
                        cancel: (token != Token::None).then_some(&cancel),
                    };
                    sink.drain();
                    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                    let r = spec.run(&pool, 0..n, |chunk| {
                        if token == Token::FiredMidLoop {
                            cancel.cancel();
                        }
                        for i in chunk {
                            counts[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) <= 1), "{cell}");
                    let executed: u32 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                    let skipped = executed < n as u32;
                    match &r {
                        Ok(_) => assert!(!skipped, "{cell}: Ok but {executed}/{n} ran"),
                        Err(HybridError::Cancelled(_)) => {
                            assert!(skipped, "{cell}: nothing skipped")
                        }
                        Err(e) => panic!("{cell}: {e:?}"),
                    }
                    match token {
                        Token::None | Token::Live => assert!(!skipped, "{cell}"),
                        Token::PreFired => assert_eq!(executed, 0, "{cell}: a body ran"),
                        Token::FiredMidLoop => assert!(executed > 0, "{cell}"),
                    }
                    if let Grain::Adaptive = grain {
                        if r.is_err() {
                            assert_eq!(controller_state(&site), before, "{cell}: sample recorded");
                        } else {
                            assert!(site.snapshot().ref_cost_ns > 0.0, "{cell}: no sample");
                        }
                    }
                    if let Ok(stats) | Err(HybridError::Cancelled(stats)) = r {
                        if sched.name() == "hybrid" {
                            let bound = stats.partitions.trailing_zeros().max(1);
                            let run = max_claim_failure_run(&sink.drain());
                            assert!(run <= bound, "{cell}: claim-failure run {run} > {bound}");
                        } else {
                            assert_eq!(stats.partitions, 0, "{cell}: hybrid-only field");
                        }
                    }
                }
            }
        }
    }
}
