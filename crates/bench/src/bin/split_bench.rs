//! Splitter benchmark: lazy steal-driven splitting (`lazy_for_chunks`,
//! the engine every loop runs on) vs eager divide-and-conquer
//! (`ws_for_chunks_eager`) for the work-stealing inner loop.
//!
//! Two measurements, written to `results/lazy_split.json`:
//!
//! * **deque pushes per loop** — the structural quantity the lazy splitter
//!   exists to kill. Eager binary splitting pushes one job per split level
//!   (`~n/grain - 1` per loop even with zero steals); the lazy splitter
//!   publishes exactly one assist handle plus one re-publish per adoption,
//!   so its per-loop pushes are bounded by `steals + 1`. The bound is a
//!   counting identity over `PoolStats` deltas (`jobs_pushed`, `steals`,
//!   `assist_joins`), not a wall-clock ratio, so it holds on any host —
//!   including a 1-CPU CI box — and is enforced in both modes. Measured on
//!   a 1-worker pool (steals impossible: lazy must push *nothing*) and a
//!   4-worker pool (pushes ≤ steals + loops).
//! * **ns/iter** — lazy vs eager at the grains 64 / 512 / 2048 on a
//!   1-worker pool, where the policies run the same chunks in the same
//!   order and the difference is pure splitting overhead (best-of-reps;
//!   multi-worker timing on a time-shared host measures the OS scheduler,
//!   not the splitter). Full mode enforces lazy ≤ eager at every grain;
//!   `--smoke` reports the ratios without enforcing them (shared CI boxes
//!   make tight wall-clock bars flaky) and shrinks `n`.
//! * **per-loop floor (`floor/*`)** — ns per near-empty loop (64
//!   iterations, grain 16: the body is negligible, so the timing *is* the
//!   per-loop fixed cost) at P = 1/2/4, lazy vs eager, plus the forced
//!   coordinator path at P = 1 (`floor/lazy_coord/p1` — what every P = 1
//!   loop paid before the single-worker bypass). Timed *inside* one
//!   `install`, so the injection round-trip is excluded and only the
//!   loop machinery is measured. Full mode enforces the bypass bar
//!   (`floor/lazy/p1` at least 2x below `floor/lazy_coord/p1`); P > 1
//!   floors are report-only everywhere — on an oversubscribed host they
//!   time the OS scheduler.
//!
//! Usage: `cargo run --release -p parloop-bench --bin split_bench
//! [--smoke] [--bench-json PATH]`
//!
//! `--bench-json PATH` additionally writes a flat, stable
//! `{"benchmark": ..., "results": [{"name", "value", "unit"}]}` file
//! (`scripts/bench.sh` points it at the repo-top `BENCH_parloop.json`)
//! so the perf trajectory can be compared across commits.

use std::ops::Range;

use parloop_bench::{time_best_ns, Table};
use parloop_core::{lazy_for_chunks, lazy_for_chunks_coordinator, ws_for_chunks_eager};
use parloop_runtime::{PoolStats, ThreadPool};

/// The two splitting engines under comparison.
#[derive(Clone, Copy)]
enum Split {
    Lazy,
    Eager,
}

fn split<F: Fn(Range<usize>) + Sync>(engine: Split, range: Range<usize>, grain: usize, body: &F) {
    match engine {
        Split::Lazy => {
            lazy_for_chunks(range, grain, body);
        }
        Split::Eager => ws_for_chunks_eager(range, grain, body),
    }
}

/// `PoolStats` deltas from running `loops` identical lazy/eager loops.
struct PushSample {
    workers: usize,
    loops: u64,
    lazy_pushes: u64,
    lazy_steals: u64,
    lazy_assists: u64,
    eager_pushes: u64,
}

fn delta(before: &PoolStats, after: &PoolStats) -> (u64, u64, u64) {
    (
        after.jobs_pushed - before.jobs_pushed,
        after.steals - before.steals,
        after.assist_joins - before.assist_joins,
    )
}

fn measure_pushes(workers: usize, loops: u64, n: usize, grain: usize) -> PushSample {
    let pool = ThreadPool::new(workers);
    let body = |chunk: Range<usize>| {
        std::hint::black_box(chunk.len());
    };
    let run = |engine: Split| {
        let before = pool.stats();
        for _ in 0..loops {
            pool.install(|| split(engine, 0..n, grain, &body));
        }
        let after = pool.stats();
        delta(&before, &after)
    };
    let (lazy_pushes, lazy_steals, lazy_assists) = run(Split::Lazy);
    let (eager_pushes, _, _) = run(Split::Eager);
    PushSample { workers, loops, lazy_pushes, lazy_steals, lazy_assists, eager_pushes }
}

struct TimeRow {
    grain: usize,
    lazy_ns_per_iter: f64,
    eager_ns_per_iter: f64,
}

fn measure_time(pool: &ThreadPool, n: usize, grain: usize, reps: usize) -> TimeRow {
    let body = |chunk: Range<usize>| {
        let mut acc = 0u64;
        for i in chunk {
            acc = acc.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9));
        }
        std::hint::black_box(acc);
    };
    let time = |engine: Split| {
        time_best_ns(reps, || {
            pool.install(|| split(engine, 0..n, grain, &body));
        }) / n as f64
    };
    TimeRow { grain, lazy_ns_per_iter: time(Split::Lazy), eager_ns_per_iter: time(Split::Eager) }
}

/// Per-loop fixed cost at one worker count: ns per near-empty loop.
struct FloorRow {
    workers: usize,
    lazy_ns: f64,
    eager_ns: f64,
    /// The pre-bypass coordinator path, measured at P = 1 only (elsewhere
    /// it is the same code `lazy_ns` already measures).
    coord_ns: Option<f64>,
}

fn measure_floor(workers: usize, reps: usize) -> FloorRow {
    // 64 iterations at grain 16: four chunks of trivial work, so the
    // timing is dominated by the per-loop machinery, not the body.
    let n = 64usize;
    let grain = 16usize;
    // Batch loops inside each timed rep so the clock quantum cannot
    // swallow a single ~100ns loop.
    const LOOPS: usize = 256;
    let pool = ThreadPool::new(workers);
    let body = |chunk: Range<usize>| {
        std::hint::black_box(chunk.len());
    };
    let time_engine = |engine: Split| {
        pool.install(|| {
            time_best_ns(reps, || {
                for _ in 0..LOOPS {
                    split(engine, 0..n, grain, &body);
                }
            })
        }) / LOOPS as f64
    };
    let lazy_ns = time_engine(Split::Lazy);
    let eager_ns = time_engine(Split::Eager);
    let coord_ns = (workers == 1).then(|| {
        pool.install(|| {
            time_best_ns(reps, || {
                for _ in 0..LOOPS {
                    lazy_for_chunks_coordinator(0..n, grain, &body);
                }
            })
        }) / LOOPS as f64
    });
    FloorRow { workers, lazy_ns, eager_ns, coord_ns }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut bench_json = None;
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--bench-json" {
            bench_json = Some(args.next().expect("--bench-json requires a path"));
        }
    }
    let n = if smoke { 1 << 16 } else { 1 << 20 };
    let reps = if smoke { 5 } else { 20 };
    let push_loops = if smoke { 10u64 } else { 50 };
    let push_grain = 64usize;
    let grains = [64usize, 512, 2048];

    println!(
        "split bench: n={n}, grains {grains:?}, best of {reps}{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Deque pushes per loop: steals impossible (P=1), then steals possible.
    let samples = [
        measure_pushes(1, push_loops, n, push_grain),
        measure_pushes(4, push_loops, n, push_grain),
    ];

    let mut t = Table::new(vec![
        "workers",
        "loops",
        "lazy pushes",
        "steals",
        "assists",
        "eager pushes",
        "bound (steals+loops)",
    ]);
    for s in &samples {
        t.row(vec![
            s.workers.to_string(),
            s.loops.to_string(),
            s.lazy_pushes.to_string(),
            s.lazy_steals.to_string(),
            s.lazy_assists.to_string(),
            s.eager_pushes.to_string(),
            (s.lazy_steals + s.loops).to_string(),
        ]);
    }
    t.print();

    // ns/iter on a 1-worker pool: same chunk sequence either way, so the
    // difference is splitting overhead alone.
    let timing_pool = ThreadPool::new(1);
    let rows: Vec<TimeRow> =
        grains.iter().map(|&g| measure_time(&timing_pool, n, g, reps)).collect();

    let mut t = Table::new(vec!["grain", "lazy ns/iter", "eager ns/iter", "eager/lazy"]);
    for r in &rows {
        t.row(vec![
            r.grain.to_string(),
            format!("{:.3}", r.lazy_ns_per_iter),
            format!("{:.3}", r.eager_ns_per_iter),
            format!("{:.2}x", r.eager_ns_per_iter / r.lazy_ns_per_iter),
        ]);
    }
    println!();
    t.print();

    // Per-loop fixed cost at P = 1/2/4 (the paper's Fig. 1 latency-floor
    // measurement, which `split/lazy/*` ns/iter amortizes away).
    let floors: Vec<FloorRow> = [1usize, 2, 4].iter().map(|&p| measure_floor(p, reps)).collect();
    let mut t = Table::new(vec!["workers", "lazy ns/loop", "eager ns/loop", "coord ns/loop"]);
    for f in &floors {
        t.row(vec![
            f.workers.to_string(),
            format!("{:.1}", f.lazy_ns),
            format!("{:.1}", f.eager_ns),
            f.coord_ns.map_or_else(|| "-".into(), |c| format!("{c:.1}")),
        ]);
    }
    println!();
    t.print();

    let cpus = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let json = render_json(cpus, n, push_grain, &samples, &rows, &floors);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/lazy_split.json", &json).expect("write results JSON");
    println!("\nwrote results/lazy_split.json");

    if let Some(path) = &bench_json {
        let flat = render_bench_json(&samples, &rows, &floors);
        std::fs::write(path, &flat).expect("write bench JSON");
        println!("wrote {path}");
    }

    // Acceptance bars. The push bounds are counting identities —
    // host-core-count independent, enforced in both modes.
    let mut failed = false;
    let one = &samples[0];
    println!(
        "\ncheck P=1 lazy pushes: {} (need 0: no thieves, no handle published)",
        one.lazy_pushes
    );
    if one.lazy_pushes != 0 {
        failed = true;
    }
    let four = &samples[1];
    let bound = four.lazy_steals + four.loops;
    println!(
        "check P=4 lazy pushes: {} <= steals + loops = {bound} (pushes per loop <= steals + 1)",
        four.lazy_pushes
    );
    if four.lazy_pushes > bound {
        failed = true;
    }
    let eager_floor = (n / push_grain) as u64 / 2 * one.loops;
    println!(
        "check P=1 eager pushes: {} >= {eager_floor} (O(n/grain) per loop — the overhead killed)",
        one.eager_pushes
    );
    if one.eager_pushes < eager_floor {
        failed = true;
    }
    for r in &rows {
        let ok = r.lazy_ns_per_iter <= r.eager_ns_per_iter;
        if smoke {
            println!(
                "check grain {}: lazy {:.3} vs eager {:.3} ns/iter (reported only in smoke mode)",
                r.grain, r.lazy_ns_per_iter, r.eager_ns_per_iter
            );
        } else {
            println!(
                "check grain {}: lazy {:.3} <= eager {:.3} ns/iter [{}]",
                r.grain,
                r.lazy_ns_per_iter,
                r.eager_ns_per_iter,
                if ok { "OK" } else { "FAIL" }
            );
            if !ok {
                failed = true;
            }
        }
    }
    // The bypass bar: the P = 1 fixed cost must sit at least 2x below the
    // coordinator path it replaced. Report-only in smoke mode (same
    // wall-clock flakiness argument as the ns/iter bars).
    let f1 = &floors[0];
    let coord = f1.coord_ns.expect("P=1 floor row measures the coordinator");
    let ratio = coord / f1.lazy_ns.max(1e-9);
    if smoke {
        println!(
            "check P=1 floor: bypass {:.1} vs coordinator {coord:.1} ns/loop = {ratio:.2}x \
             (reported only in smoke mode)",
            f1.lazy_ns
        );
    } else {
        let ok = f1.lazy_ns * 2.0 <= coord;
        println!(
            "check P=1 floor: bypass {:.1} * 2 <= coordinator {coord:.1} ns/loop ({ratio:.2}x) [{}]",
            f1.lazy_ns,
            if ok { "OK" } else { "FAIL" }
        );
        if !ok {
            failed = true;
        }
    }
    if failed {
        eprintln!("FAILED: split acceptance bars not met");
        std::process::exit(1);
    }
    println!(
        "ok: lazy splitting bounds pushes by steals+1 per loop and is never slower than eager"
    );
}

/// The flat cross-commit tracking format: one `{name, value, unit}` entry
/// per measured quantity, names stable across PRs.
fn render_bench_json(samples: &[PushSample], rows: &[TimeRow], floors: &[FloorRow]) -> String {
    let mut entries: Vec<(String, String, &str)> = Vec::new();
    for r in rows {
        entries.push((
            format!("split/lazy/grain{}", r.grain),
            format!("{:.4}", r.lazy_ns_per_iter),
            "ns_per_iter",
        ));
        entries.push((
            format!("split/eager/grain{}", r.grain),
            format!("{:.4}", r.eager_ns_per_iter),
            "ns_per_iter",
        ));
    }
    for ps in samples {
        entries.push((
            format!("split/lazy/pushes_p{}", ps.workers),
            format!("{:.2}", ps.lazy_pushes as f64 / ps.loops as f64),
            "pushes_per_loop",
        ));
        entries.push((
            format!("split/eager/pushes_p{}", ps.workers),
            format!("{:.2}", ps.eager_pushes as f64 / ps.loops as f64),
            "pushes_per_loop",
        ));
    }
    for f in floors {
        entries.push((
            format!("floor/lazy/p{}", f.workers),
            format!("{:.1}", f.lazy_ns),
            "ns_per_loop",
        ));
        entries.push((
            format!("floor/eager/p{}", f.workers),
            format!("{:.1}", f.eager_ns),
            "ns_per_loop",
        ));
        if let Some(c) = f.coord_ns {
            entries.push((
                format!("floor/lazy_coord/p{}", f.workers),
                format!("{c:.1}"),
                "ns_per_loop",
            ));
        }
    }
    let mut s = String::from("{\n  \"benchmark\": \"parloop\",\n  \"results\": [\n");
    for (k, (name, value, unit)) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}{}\n",
            if k + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn render_json(
    cpus: usize,
    n: usize,
    push_grain: usize,
    samples: &[PushSample],
    rows: &[TimeRow],
    floors: &[FloorRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"host_cpus\": {cpus},\n  \"n\": {n},\n"));
    s.push_str(&format!("  \"push_grain\": {push_grain},\n"));
    s.push_str("  \"pushes\": [\n");
    for (k, ps) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"loops\": {}, \"lazy_jobs_pushed\": {}, \"steals\": {}, \
             \"assist_joins\": {}, \"eager_jobs_pushed\": {}, \"bound_steals_plus_loops\": {}}}{}\n",
            ps.workers,
            ps.loops,
            ps.lazy_pushes,
            ps.lazy_steals,
            ps.lazy_assists,
            ps.eager_pushes,
            ps.lazy_steals + ps.loops,
            if k + 1 < samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ns_per_iter\": [\n");
    for (k, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"grain\": {}, \"lazy\": {:.4}, \"eager\": {:.4}, \"eager_over_lazy\": {:.4}}}{}\n",
            r.grain,
            r.lazy_ns_per_iter,
            r.eager_ns_per_iter,
            r.eager_ns_per_iter / r.lazy_ns_per_iter,
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"floor_ns_per_loop\": [\n");
    for (k, f) in floors.iter().enumerate() {
        let coord = f.coord_ns.map_or_else(|| "null".into(), |c| format!("{c:.1}"));
        s.push_str(&format!(
            "    {{\"workers\": {}, \"lazy\": {:.1}, \"eager\": {:.1}, \"lazy_coord\": {coord}}}{}\n",
            f.workers,
            f.lazy_ns,
            f.eager_ns,
            if k + 1 < floors.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
