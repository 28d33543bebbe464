//! Eager divide-and-conquer splitting — the classic `cilk_for` engine.
//!
//! [`ws_for_chunks_eager`] recursively `join`s the two halves of the range
//! until a chunk of at most `grain` iterations remains. With the Cilk
//! default grain `min(2048, N/8P)` this yields span
//! `Θ(lg N) + max_i T_∞(i)`, but every split level costs a deque
//! round-trip even when zero steals occur. Loops run on the lazy splitter
//! ([`crate::lazy`]) instead; this engine remains as the lazy splitter's
//! fallback for ranges longer than `u32::MAX` iterations and as the
//! baseline `split_bench` compares it against.
//!
//! The engine is generic over the body type, so the leaf chunk executes
//! as a monomorphized loop the compiler can unroll and vectorize — no
//! per-iteration virtual dispatch.

use std::ops::Range;

use parloop_runtime::{join, TraceEvent, WorkerToken};

/// Run a leaf chunk of the eager splitter, bracketed with
/// `ChunkStart`/`ChunkEnd` trace events when `tracing` is set. The flag is
/// resolved once per loop at [`ws_for_chunks_eager`]'s entry (it is
/// constant for a pool's lifetime, so it stays valid across steals), so
/// with tracing off a leaf costs one untaken branch — no thread-local
/// lookup per chunk. The token is re-resolved only on the tracing path,
/// because leaves execute on whichever worker stole them.
#[inline]
fn run_leaf<F>(range: Range<usize>, tracing: bool, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    if tracing {
        if let Some(token) = WorkerToken::current() {
            let (start, len) = (range.start as u64, range.len() as u32);
            token.trace(TraceEvent::ChunkStart { start, len });
            body(range);
            token.trace(TraceEvent::ChunkEnd { start, len });
            return;
        }
    }
    body(range);
}

/// Eager divide-and-conquer splitting: one `join` per split level; each
/// chunk handed to `body` has at most `grain` iterations. Must run on a
/// pool worker for actual parallelism; off-pool it degrades to a
/// sequential call (serial elision).
pub fn ws_for_chunks_eager<F>(range: Range<usize>, grain: usize, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    if range.is_empty() {
        return;
    }
    // Resolve tracing once per loop: the flag is pool-global and constant,
    // so it can cross steal boundaries as a plain bool even though the
    // (non-Send) token cannot.
    let tracing = WorkerToken::current().is_some_and(|t| t.tracing_enabled());
    eager_split(range, grain, tracing, body);
}

fn eager_split<F>(range: Range<usize>, grain: usize, tracing: bool, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    if range.len() <= grain {
        run_leaf(range, tracing, body);
        return;
    }
    let mid = range.start + range.len() / 2;
    let (lo, hi) = (range.start..mid, mid..range.end);
    join(|| eager_split(lo, grain, tracing, body), || eager_split(hi, grain, tracing, body));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::lazy_for_chunks;
    use parloop_runtime::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A splitting engine over a type-erased chunk body.
    type Splitter = fn(Range<usize>, usize, &(dyn Fn(Range<usize>) + Sync));

    /// Both splitting engines, for properties that hold for either.
    fn engines() -> [(&'static str, Splitter); 2] {
        [
            ("lazy", |r, g, b| {
                lazy_for_chunks(r, g, &b);
            }),
            ("eager", |r, g, b| ws_for_chunks_eager(r, g, &b)),
        ]
    }

    #[test]
    fn chunks_cover_exactly_once_and_respect_grain() {
        for (name, split) in engines() {
            let pool = ThreadPool::new(4);
            let n = 10_000;
            let grain = 64;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.install(|| {
                split(0..n, grain, &|chunk| {
                    assert!(!chunk.is_empty() && chunk.len() <= grain);
                    for i in chunk {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{name}");
        }
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = ThreadPool::new(2);
        for (_, split) in engines() {
            pool.install(|| split(5..5, 8, &|_| panic!("no chunks expected")));
        }
    }

    #[test]
    fn grain_zero_treated_as_one() {
        let pool = ThreadPool::new(2);
        for (name, split) in engines() {
            let count = AtomicUsize::new(0);
            pool.install(|| {
                split(0..17, 0, &|chunk| {
                    count.fetch_add(chunk.len(), Ordering::Relaxed);
                });
            });
            assert_eq!(count.load(Ordering::Relaxed), 17, "{name}");
        }
    }

    #[test]
    fn works_off_pool_sequentially() {
        for (name, split) in engines() {
            let count = AtomicUsize::new(0);
            split(0..100, 10, &|chunk| {
                count.fetch_add(chunk.len(), Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 100, "{name}");
        }
    }

    #[test]
    fn lazy_pushes_bounded_by_steals_eager_is_linear() {
        // The push bound the split_bench gates, pinned as a unit test on a
        // one-worker pool where steals are impossible: lazy pushes nothing,
        // eager pushes one job per split level (~n/grain).
        let pool = ThreadPool::new(1);
        let (n, grain) = (4096usize, 64usize);
        let pushes = |split: Splitter| {
            let before = pool.stats().jobs_pushed;
            pool.install(|| {
                split(0..n, grain, &|c| {
                    std::hint::black_box(c.len());
                })
            });
            pool.stats().jobs_pushed - before
        };
        let [(_, lazy), (_, eager)] = engines();
        assert_eq!(pushes(lazy), 0);
        assert!(
            pushes(eager) >= (n / grain) as u64 / 2,
            "eager splitting should push O(n/grain) jobs"
        );
    }
}
