//! Scheduling-overhead harness: dyn-dispatch vs monomorphized chunk path.
//!
//! For every scheme in `Schedule::roster` the same near-empty body (an
//! 8-byte store per iteration) runs two ways over the same range:
//!
//! * **dyn** — through `par_for_dyn` below: identical chunk decomposition,
//!   but the body is a `&dyn Fn(usize)` trait object, so every iteration
//!   pays one virtual call (the pre-chunk-layer execution model);
//! * **chunked** — through [`par_for_chunks`] with a monomorphized chunk
//!   body: the leaf loop compiles to a tight store loop.
//!
//! The ratio between the two is the per-iteration dispatch overhead the
//! chunk layer removes. Results print as a table and are written to
//! `results/overhead_chunks.json` (hand-rolled JSON; no deps).
//!
//! Usage: `cargo run --release -p parloop-bench --bin overhead_chunks
//! [--quick]`

use parloop_bench::{quick_flag, time_best_ns, Table};
use std::ops::Range;

use parloop_core::{par_for_chunks, Schedule};
use parloop_runtime::ThreadPool;

/// Dyn-dispatch `par_for`: the body is a trait object, so every iteration
/// pays one virtual call. It runs through [`par_for_chunks`], so it
/// decomposes `range` into exactly the same chunks (and places them on
/// the same workers) as the monomorphized path it is compared against.
fn par_for_dyn(
    pool: &ThreadPool,
    range: Range<usize>,
    sched: Schedule,
    body: &(dyn Fn(usize) + Sync),
) {
    par_for_chunks(pool, range, sched, move |chunk: Range<usize>| {
        for i in chunk {
            body(i);
        }
    });
}

/// A write-only output vector shared across workers. Iterations write
/// disjoint indices (every scheduler covers each index exactly once), so
/// plain stores through a raw pointer are race-free.
struct Sink {
    ptr: *mut u64,
    len: usize,
}
unsafe impl Send for Sink {}
unsafe impl Sync for Sink {}

impl Sink {
    #[inline]
    fn write(&self, i: usize, v: u64) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v };
    }
}

struct SchemeResult {
    name: &'static str,
    dyn_ns: f64,
    chunked_ns: f64,
}

fn main() {
    let quick = quick_flag();
    let p = 4usize;
    let n: usize = 1 << 16;
    let reps = if quick { 10 } else { 40 };

    let pool = ThreadPool::new(p);
    let mut out = vec![0u64; n];
    let sink = Sink { ptr: out.as_mut_ptr(), len: out.len() };

    println!("chunked vs dyn-dispatch scheduling overhead");
    println!("n = {n} iterations, P = {p} workers, best of {reps} reps\n");

    let mut results: Vec<SchemeResult> = Vec::new();
    for sched in Schedule::roster(n, p) {
        let dyn_body = |i: usize| sink.write(i, (i as u64).wrapping_mul(3));
        let dyn_total = time_best_ns(reps, || {
            par_for_dyn(&pool, 0..n, sched, &dyn_body);
        });
        let chunked_total = time_best_ns(reps, || {
            par_for_chunks(&pool, 0..n, sched, |chunk| {
                for i in chunk {
                    sink.write(i, (i as u64).wrapping_mul(3));
                }
            });
        });
        results.push(SchemeResult {
            name: sched.name(),
            dyn_ns: dyn_total / n as f64,
            chunked_ns: chunked_total / n as f64,
        });
    }
    assert_eq!(out[7], 21, "harness body must actually run");

    let mut t = Table::new(vec!["scheme", "dyn ns/iter", "chunked ns/iter", "speedup"]);
    for r in &results {
        t.row(vec![
            r.name.to_string(),
            format!("{:.3}", r.dyn_ns),
            format!("{:.3}", r.chunked_ns),
            format!("{:.2}x", r.dyn_ns / r.chunked_ns),
        ]);
    }
    t.print();

    let json = render_json(n, p, reps, &results);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/overhead_chunks.json", &json).expect("write results JSON");
    println!("\nwrote results/overhead_chunks.json");

    // The tentpole's acceptance bar: the monomorphized path must beat the
    // dyn path by >= 2x on the overhead-sensitive schemes.
    let mut failed = Vec::new();
    for must in ["vanilla", "hybrid", "omp_dynamic"] {
        let r = results.iter().find(|r| r.name == must).expect("scheme in roster");
        let speedup = r.dyn_ns / r.chunked_ns;
        println!("check {must}: {speedup:.2}x (need >= 2.0x)");
        if speedup < 2.0 {
            failed.push(must);
        }
    }
    if !failed.is_empty() {
        eprintln!("FAILED: chunked path under 2x on {failed:?}");
        std::process::exit(1);
    }
    println!("ok: chunked path >= 2x faster on all checked schemes");
}

fn render_json(n: usize, p: usize, reps: usize, results: &[SchemeResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"n\": {n},\n  \"workers\": {p},\n  \"reps\": {reps},\n"));
    s.push_str("  \"unit\": \"ns_per_iteration\",\n  \"schemes\": [\n");
    for (k, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"dyn\": {:.4}, \"chunked\": {:.4}, \"speedup\": {:.4}}}{}\n",
            r.name,
            r.dyn_ns,
            r.chunked_ns,
            r.dyn_ns / r.chunked_ns,
            if k + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
