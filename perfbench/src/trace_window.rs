//! One traced measurement window: drains the pool's `RingTraceSink` as
//! the window runs, folds the events into counts and busy/parked time,
//! and at the end checks the trace counts against the pool's own
//! counters.
//!
//! Exactness needs a quiet pool at both ends: [`TraceWindow::begin`] and
//! [`TraceWindow::finish`] wait until two reads of the per-worker
//! counters around a drain agree, so every event the counters saw is in
//! the window's drains and nothing after it is.

use std::sync::Arc;
use std::thread::sleep;
use std::time::Duration;

use parloop_runtime::trace::metrics::{event_counts, max_claim_failure_run, EventCounts};
use parloop_runtime::{RingTraceSink, ThreadPool, ThreadPoolBuilder, TraceEvent, WorkerStats};

/// Events kept per worker ring between drains (32 B each). Windows drain
/// after every operation, which stays well below this.
const RING_CAPACITY: usize = 1 << 18;

/// A pool that records into a ring sink, plus the sink.
pub fn traced_pool(workers: usize) -> (Arc<ThreadPool>, Arc<RingTraceSink>) {
    let sink = Arc::new(RingTraceSink::with_capacity(workers, RING_CAPACITY));
    let pool = ThreadPoolBuilder::new()
        .num_workers(workers)
        .trace_sink(Arc::<RingTraceSink>::clone(&sink))
        .build();
    (Arc::new(pool), sink)
}

/// The event tallies a window needs (summed over drains).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub jobs_pushed: u64,
    pub steals: u64,
    pub remote_steals: u64,
    pub failed_steal_sweeps: u64,
    pub assist_joins: u64,
    pub inject_lane_jobs: u64,
    pub targeted_wakes: u64,
    pub backstop_wakes: u64,
    pub grain_adjustments: u64,
    pub parks: u64,
    pub failed_claims: u64,
    pub frames_stolen: u64,
}

impl Counts {
    fn add(&mut self, c: &EventCounts) {
        self.jobs_pushed += c.jobs_pushed;
        self.steals += c.total_steals();
        self.remote_steals += c.remote_steals;
        self.failed_steal_sweeps += c.failed_steal_sweeps;
        self.assist_joins += c.assist_joins;
        self.inject_lane_jobs += c.inject_lane_jobs;
        self.targeted_wakes += c.targeted_wakes;
        self.backstop_wakes += c.backstop_wakes;
        self.grain_adjustments += c.grain_adjustments;
        self.parks += c.parks;
        self.failed_claims += c.failed_claims;
        self.frames_stolen += c.frames_stolen;
    }
}

/// Counter totals the trace must reproduce, from the pool's own stats.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Marks {
    workers: Vec<WorkerStats>,
    grain_adjustments: u64,
}

impl Marks {
    fn read(pool: &ThreadPool) -> Marks {
        Marks { workers: pool.worker_stats(), grain_adjustments: pool.stats().grain_adjustments }
    }

    fn sum(&self, f: fn(&WorkerStats) -> u64) -> u64 {
        self.workers.iter().map(f).sum()
    }
}

pub struct TraceWindow<'a> {
    pool: &'a ThreadPool,
    sink: &'a RingTraceSink,
    start: Marks,
    counts: Counts,
    /// Per worker: open chunk nesting depth and when the outermost began.
    open: Vec<(u32, u64)>,
    /// Per worker: when the current park began.
    parked_at: Vec<Option<u64>>,
    /// Worker-nanoseconds inside leaf chunks (nested chunks count once).
    busy_ns: u64,
    /// Worker-nanoseconds parked.
    parked_ns: u64,
    max_claim_run: u32,
    dropped: u64,
}

impl<'a> TraceWindow<'a> {
    /// Wait for a quiet pool, discard everything recorded so far, and
    /// mark the counters the window's trace will be checked against.
    pub fn begin(pool: &'a ThreadPool, sink: &'a RingTraceSink) -> Self {
        let start = TraceWindow::fresh(pool, sink, Marks::default()).settle();
        TraceWindow::fresh(pool, sink, start)
    }

    fn fresh(pool: &'a ThreadPool, sink: &'a RingTraceSink, start: Marks) -> Self {
        let p = pool.num_workers() + 1;
        TraceWindow {
            pool,
            sink,
            start,
            counts: Counts::default(),
            open: vec![(0, 0); p],
            parked_at: vec![None; p],
            busy_ns: 0,
            parked_ns: 0,
            max_claim_run: 0,
            dropped: 0,
        }
    }

    /// Drain what was recorded since the last drain; returns the leaf
    /// busy worker-nanoseconds it added.
    pub fn collect(&mut self) -> u64 {
        let snap = self.sink.drain();
        let before = self.busy_ns;
        self.dropped += snap.dropped.iter().sum::<u64>();
        self.counts.add(&event_counts(&snap));
        self.max_claim_run = self.max_claim_run.max(max_claim_failure_run(&snap));
        for e in &snap.events {
            let w = (e.worker as usize).min(self.open.len() - 1);
            match e.event {
                TraceEvent::ChunkStart { .. } => {
                    let (depth, since) = &mut self.open[w];
                    if *depth == 0 {
                        *since = e.ts_nanos;
                    }
                    *depth += 1;
                }
                TraceEvent::ChunkEnd { .. } => {
                    let (depth, since) = &mut self.open[w];
                    // An end whose start was drained before the window
                    // began has nothing to close.
                    if *depth > 0 {
                        *depth -= 1;
                        if *depth == 0 {
                            self.busy_ns += e.ts_nanos.saturating_sub(*since);
                        }
                    }
                }
                TraceEvent::Parked => self.parked_at[w] = Some(e.ts_nanos),
                TraceEvent::Unparked => {
                    if let Some(t) = self.parked_at[w].take() {
                        self.parked_ns += e.ts_nanos.saturating_sub(t);
                    }
                }
                _ => {}
            }
        }
        self.busy_ns - before
    }

    /// Drain around counter reads until two reads agree: nothing ran in
    /// between, so the drains hold exactly the events the counters saw.
    fn settle(&mut self) -> Marks {
        for _ in 0..2000 {
            let a = Marks::read(self.pool);
            sleep(Duration::from_millis(1));
            self.collect();
            sleep(Duration::from_millis(1));
            let b = Marks::read(self.pool);
            if a == b {
                return b;
            }
        }
        Marks::read(self.pool)
    }

    /// Close the window that ran for `wall`. The counts are checked
    /// against the pool's counters only when no event was dropped.
    pub fn finish(mut self, wall: Duration) -> Summary {
        let end = self.settle();
        let d = |f: fn(&WorkerStats) -> u64| end.sum(f) - self.start.sum(f);
        let c = self.counts;
        let pairs = [
            ("jobs_pushed", c.jobs_pushed, d(|s| s.jobs_pushed)),
            ("steals", c.steals, d(|s| s.steals)),
            ("remote_steals", c.remote_steals, d(|s| s.remote_steals)),
            ("failed_steal_sweeps", c.failed_steal_sweeps, d(|s| s.failed_steal_sweeps)),
            ("assist_joins", c.assist_joins, d(|s| s.assist_joins)),
            ("inject_lane_jobs", c.inject_lane_jobs, d(|s| s.lane_jobs)),
            ("targeted_wakes", c.targeted_wakes, d(|s| s.notified_wakes)),
            ("backstop_wakes", c.backstop_wakes, d(|s| s.backstop_wakes)),
            (
                "grain_adjustments",
                c.grain_adjustments,
                end.grain_adjustments - self.start.grain_adjustments,
            ),
        ];
        let check = if self.dropped > 0 {
            Check::Skipped
        } else {
            match pairs.iter().find(|(_, traced, counted)| traced != counted) {
                Some((name, traced, counted)) => {
                    Check::Mismatch(format!("{name}: trace {traced} != pool stats {counted}"))
                }
                None => Check::Exact,
            }
        };
        Summary {
            counts: c,
            busy_ns: self.busy_ns,
            parked_ns: self.parked_ns,
            max_claim_run: self.max_claim_run,
            dropped: self.dropped,
            lane_latency_jobs: d(|s| s.latency_jobs),
            lane_batch_jobs: d(|s| s.batch_jobs),
            wall_ns: wall.as_nanos() as u64,
            check,
        }
    }
}

/// Whether a window's trace counts matched the pool's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    Exact,
    /// Events were dropped, so the counts could not be compared.
    Skipped,
    Mismatch(String),
}

impl Check {
    /// The weaker of two checks: any mismatch, else any skip.
    fn and(self, other: Check) -> Check {
        match (self, other) {
            (Check::Mismatch(m), _) | (_, Check::Mismatch(m)) => Check::Mismatch(m),
            (Check::Skipped, _) | (_, Check::Skipped) => Check::Skipped,
            _ => Check::Exact,
        }
    }
}

/// What a closed traced window measured.
#[derive(Debug, Clone)]
pub struct Summary {
    pub counts: Counts,
    pub busy_ns: u64,
    pub parked_ns: u64,
    pub max_claim_run: u32,
    pub dropped: u64,
    pub lane_latency_jobs: u64,
    pub lane_batch_jobs: u64,
    pub wall_ns: u64,
    pub check: Check,
}

impl Summary {
    /// Two windows of the same part, as one.
    pub fn merge(self, o: Summary) -> Summary {
        let (a, b) = (self.counts, o.counts);
        Summary {
            counts: Counts {
                jobs_pushed: a.jobs_pushed + b.jobs_pushed,
                steals: a.steals + b.steals,
                remote_steals: a.remote_steals + b.remote_steals,
                failed_steal_sweeps: a.failed_steal_sweeps + b.failed_steal_sweeps,
                assist_joins: a.assist_joins + b.assist_joins,
                inject_lane_jobs: a.inject_lane_jobs + b.inject_lane_jobs,
                targeted_wakes: a.targeted_wakes + b.targeted_wakes,
                backstop_wakes: a.backstop_wakes + b.backstop_wakes,
                grain_adjustments: a.grain_adjustments + b.grain_adjustments,
                parks: a.parks + b.parks,
                failed_claims: a.failed_claims + b.failed_claims,
                frames_stolen: a.frames_stolen + b.frames_stolen,
            },
            busy_ns: self.busy_ns + o.busy_ns,
            parked_ns: self.parked_ns + o.parked_ns,
            max_claim_run: self.max_claim_run.max(o.max_claim_run),
            dropped: self.dropped + o.dropped,
            lane_latency_jobs: self.lane_latency_jobs + o.lane_latency_jobs,
            lane_batch_jobs: self.lane_batch_jobs + o.lane_batch_jobs,
            wall_ns: self.wall_ns + o.wall_ns,
            check: self.check.and(o.check),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parloop_core::{par_for_chunks, Schedule};

    #[test]
    fn trace_counts_equal_pool_stat_deltas() {
        let (pool, sink) = traced_pool(2);
        let mut w = TraceWindow::begin(&pool, &sink);
        let t0 = std::time::Instant::now();
        for _ in 0..50 {
            par_for_chunks(&pool, 0..4096, Schedule::hybrid(), |c| {
                std::hint::black_box(c);
            });
            w.collect();
        }
        let s = w.finish(t0.elapsed());
        assert_eq!(s.check, Check::Exact);
        assert!(s.counts.jobs_pushed > 0 && s.counts.inject_lane_jobs >= 50);
        assert!(s.busy_ns > 0 && s.busy_ns < 2 * s.wall_ns);
    }
}
