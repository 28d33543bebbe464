//! `tenant`: open-loop latency traffic next to a closed-loop batch
//! tenant, through `parloop_tenant` on the shared pool — the only part
//! that goes through the inject lanes, the QoS queue, sleep/wake and
//! admission.
//!
//! A generator thread issues latency-class `Tenant::install` calls of a
//! trivial op at seeded Poisson arrivals (mean 2000/s). A call that fell
//! due while an earlier one was running is timed from when it was due,
//! so a stall also delays the calls queued behind it; one that fell due
//! while the generator slept is timed from when it was issued, so the
//! generator's own wake-up delay (about 60 µs at the median on a 2-vCPU
//! VM, more than half the call) is left out. One batch-class thread
//! submits 4096-iteration hybrid loops back to back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parloop_bench::irregular::splitmix64;
use parloop_core::Schedule;
use parloop_runtime::{QosClass, ThreadPool};
use parloop_tenant::Tenant;

use crate::stats::{quantile, Rng, Tally};
use crate::trace_window::TraceWindow;

/// Mean latency-call arrival rate.
const RATE_PER_S: f64 = 2000.0;
/// Iterations per batch loop.
const BATCH_N: usize = 4096;
/// How often a traced window drains the rings from the generator.
const DRAIN_EVERY: Duration = Duration::from_millis(20);

pub struct TenantPart {
    pub latency: Tenant,
    batch: Tenant,
    arrivals: Rng,
}

#[derive(Debug, Default)]
pub struct TenantSamples {
    /// Per call: microseconds from when it was due (or issued, when the
    /// generator slept until then) to when it returned.
    pub lat_us: Vec<f64>,
    /// How late the generator issued its latest call.
    pub late_max_us: f64,
    pub batch_loops: u64,
    pub batch_secs: f64,
    /// Per batch loop when traced: wall minus leaf time per worker.
    pub batch_self_us: Vec<f64>,
    /// Per slice: p50 and p90 call latency and batch loops per second.
    pub slice_p50_us: Vec<f64>,
    pub slice_p90_us: Vec<f64>,
    pub slice_batch_per_s: Vec<f64>,
    spent: Duration,
}

/// Whether a batch loop completed and ran exactly its range.
pub fn batch_ok(completed: bool, iterations: u64, n: usize) -> bool {
    completed && iterations == n as u64
}

impl TenantPart {
    pub fn setup(pool: &Arc<ThreadPool>, seed: u64) -> Self {
        TenantPart {
            latency: Tenant::builder("latency").class(QosClass::Latency).build_on(Arc::clone(pool)),
            batch: Tenant::builder("batch").class(QosClass::Batch).build_on(Arc::clone(pool)),
            arrivals: Rng::new(seed ^ 0x7465_6e00),
        }
    }

    /// Calls and loops either tenant's admission control turned away.
    pub fn rejected(&self) -> u64 {
        self.latency.stats().rejected + self.batch.stats().rejected
    }

    /// One latency call; its op's answer must come back intact.
    fn call(&self, i: u64) -> bool {
        matches!(self.latency.install(move || splitmix64(i)), Ok(v) if v == splitmix64(i))
    }

    /// One batch loop; with `leaf`, each chunk's time is added to it.
    fn batch_loop(&self, leaf: Option<&AtomicU64>) -> bool {
        let done = AtomicU64::new(0);
        let r = self.batch.par_for_chunks(0..BATCH_N, Schedule::hybrid(), |chunk| {
            let t = leaf.map(|_| Instant::now());
            let len = chunk.len() as u64;
            let mut h = 0u64;
            for i in chunk {
                h ^= (0..16).fold(i as u64, |x, _| splitmix64(x));
            }
            std::hint::black_box(h);
            done.fetch_add(len, Ordering::Relaxed);
            if let (Some(l), Some(t)) = (leaf, t) {
                l.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        batch_ok(r.is_ok(), done.load(Ordering::Relaxed), BATCH_N)
    }

    pub fn warm(&mut self, pool: &ThreadPool, tally: &mut Tally) {
        let mut s = TenantSamples::default();
        self.slice(pool, Duration::from_millis(200), tally, None, &mut s);
    }

    /// Traffic until the window's time spent reaches `budget`: latency
    /// arrivals due within the slice, with batch traffic running until
    /// the last of them has returned.
    pub fn slice(
        &mut self,
        pool: &ThreadPool,
        budget: Duration,
        tally: &mut Tally,
        trace: Option<&mut TraceWindow>,
        s: &mut TenantSamples,
    ) {
        if s.spent >= budget {
            return;
        }
        let t0 = Instant::now();
        let first = s.lat_us.len();
        let (loops, secs) = self.traffic(pool, budget - s.spent, tally, trace, s);
        s.spent += t0.elapsed();
        let lat = &mut s.lat_us[first..].to_vec();
        if let (Some(p50), Some(p90)) = (quantile(lat, 0.5), quantile(lat, 0.9)) {
            s.slice_p50_us.push(p50);
            s.slice_p90_us.push(p90);
        }
        s.slice_batch_per_s.push(loops as f64 / secs);
    }

    /// One stretch of traffic lasting `window`; appends to `s` and
    /// returns the batch loops run and the seconds they took.
    fn traffic(
        &mut self,
        pool: &ThreadPool,
        window: Duration,
        tally: &mut Tally,
        trace: Option<&mut TraceWindow>,
        s: &mut TenantSamples,
    ) -> (u64, f64) {
        let traced = trace.is_some();
        let workers = pool.num_workers() as f64;
        let stop = AtomicBool::new(false);
        let mut next_arrivals = self.arrivals.clone();
        let arrivals = &mut next_arrivals;
        let this = &*self;
        let (loops, secs) = thread::scope(|sc| {
            let batch = sc.spawn(|| {
                let mut t = Tally::default();
                let mut self_us = Vec::new();
                let leaf = AtomicU64::new(0);
                let t0 = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    let t1 = Instant::now();
                    t.check(this.batch_loop(traced.then_some(&leaf)));
                    if traced {
                        let busy = leaf.swap(0, Ordering::Relaxed) as f64 / workers;
                        self_us.push((t1.elapsed().as_nanos() as f64 - busy) / 1e3);
                    }
                }
                (t, t0.elapsed().as_secs_f64(), self_us)
            });
            let generator = sc.spawn(move || {
                let mut trace = trace;
                let mut t = Tally::default();
                let mut lat_us = Vec::new();
                let mut late_max = Duration::ZERO;
                let start = Instant::now();
                let mut due = start;
                let mut drained = start;
                for i in 0u64.. {
                    due += Duration::from_secs_f64(arrivals.exp(1.0 / RATE_PER_S));
                    if due >= start + window {
                        break;
                    }
                    // From issue after a sleep, else from due (see the
                    // module docs); the sleep's overshoot shows in
                    // `late_max`.
                    let now = Instant::now();
                    let from = if due > now {
                        thread::sleep(due - now);
                        Instant::now()
                    } else {
                        due
                    };
                    late_max = late_max.max(Instant::now().saturating_duration_since(due));
                    t.check(this.call(i));
                    lat_us.push(from.elapsed().as_nanos() as f64 / 1e3);
                    if let Some(tw) = trace.as_deref_mut() {
                        if drained.elapsed() >= DRAIN_EVERY {
                            tw.collect();
                            drained = Instant::now();
                        }
                    }
                }
                (t, lat_us, late_max)
            });
            let (gt, lat_us, late_max) = generator.join().expect("generator thread panicked");
            stop.store(true, Ordering::Release);
            let (bt, secs, self_us) = batch.join().expect("batch thread panicked");
            tally.add(gt);
            tally.add(bt);
            s.lat_us.extend(lat_us);
            s.late_max_us = s.late_max_us.max(late_max.as_nanos() as f64 / 1e3);
            s.batch_loops += bt.attempted;
            s.batch_secs += secs;
            s.batch_self_us.extend(self_us);
            (bt.attempted, secs)
        });
        self.arrivals = next_arrivals;
        (loops, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_window_checks_every_call_and_loop() {
        let pool = Arc::new(ThreadPool::new(2));
        let mut part = TenantPart::setup(&pool, 9);
        let mut tally = Tally::default();
        let mut s = TenantSamples::default();
        part.slice(&pool, Duration::from_millis(50), &mut tally, None, &mut s);
        assert_eq!(tally.failed, 0);
        assert_eq!(s.slice_p90_us.len(), 1);
        assert_eq!(tally.attempted, s.lat_us.len() as u64 + s.batch_loops);
        assert!(!s.lat_us.is_empty() && s.batch_loops > 0);
        assert_eq!(part.rejected(), 0);
    }

    #[test]
    fn short_batch_loop_is_a_failed_operation() {
        assert!(batch_ok(true, 4096, 4096));
        assert!(!batch_ok(true, 4095, 4096));
        assert!(!batch_ok(false, 4096, 4096));
    }
}
