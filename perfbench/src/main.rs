//! End-to-end benchmark of parloop.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nas|micro_fine> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run builds one pool of `available_parallelism` workers and
//! measures all four parts (`nas`, `micro_fine`, `irregular`, `tenant`),
//! so every run prints every metric; the workload decides how `--seconds`
//! is shared between them (see [`SHARES`]). The parts take turns in
//! twenty rounds, so host noise spreads over all of them. The end-to-end
//! times are interquartile means (see [`stats::interquartile_mean`]):
//! over kernel runs for NAS, over the twenty slices' values for the
//! fine loops, the irregular passes and the batch rate. Call latencies
//! take the first quartile of their slices instead (see [`quiet`]).
//! Every operation's output is checked and counted.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs each part
//! twice at half length — untraced, then on a second pool recording into
//! a `RingTraceSink` — and prints the per-layer metrics, the layer probes
//! and the tracing overhead. The last line of standard output is the
//! result object; the line before it records the run's provenance.

mod irregular;
mod micro;
mod nas;
mod probes;
mod report;
mod stats;
mod tenant;
mod trace_window;

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parloop_runtime::{RingTraceSink, ThreadPool};

use crate::irregular::{IrregularPart, IrregularSamples};
use crate::micro::{MicroPart, MicroSamples};
use crate::nas::{NasPart, NasSamples, KERNELS};
use crate::report::{json_string, result_line, Metrics, E2E, PARTS, PER_LAYER, WORKLOADS};
use crate::stats::{interquartile_mean, median, quantile, Tally};
use crate::tenant::{TenantPart, TenantSamples};
use crate::trace_window::{traced_pool, Check, Summary, TraceWindow};

/// Share of `--seconds` each part gets (in `PARTS` order), per workload
/// (in `WORKLOADS` order). NAS has the largest share in both: a kernel
/// run takes up to 0.7 s (EP), so its samples cost seconds, while each
/// other part gathers thousands of samples a second.
const SHARES: [[f64; 4]; 2] = [[0.5, 0.2, 0.15, 0.15], [0.35, 0.35, 0.15, 0.15]];
/// Slices per part per run (in interleaved rounds), so a burst of host
/// noise lands in few slices of each part.
const ROUNDS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| *w == value)
                        .ok_or_else(|| bad(&format!("one of {WORKLOADS:?}")))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(|| bad("≥ 1"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Window length of each part (in `PARTS` order).
fn windows(workload: usize, seconds: f64) -> [Duration; 4] {
    SHARES[workload].map(|share| Duration::from_secs_f64(seconds * share))
}

/// Everything one pool's measurement needs: the pool and every part's
/// inputs.
struct Env {
    pool: Arc<ThreadPool>,
    nas: NasPart,
    micro: MicroPart,
    irregular: IrregularPart,
    tenant: TenantPart,
}

impl Env {
    /// Set-up: input generation plus the irregular reference checksums.
    fn setup(pool: Arc<ThreadPool>, seed: u64) -> Env {
        Env {
            nas: NasPart::setup(seed),
            micro: MicroPart::setup(),
            irregular: IrregularPart::setup(&pool, seed),
            tenant: TenantPart::setup(&pool, seed),
            pool,
        }
    }
}

#[derive(Default)]
struct Samples {
    nas: NasSamples,
    micro: MicroSamples,
    irregular: IrregularSamples,
    tenant: TenantSamples,
}

/// Warm up every part, then measure in `ROUNDS` rounds that each give
/// every part one slice of its window. With a sink, each slice is traced
/// and the slices of a part are merged into one summary.
fn measure(
    env: &mut Env,
    windows: [Duration; 4],
    tally: &mut Tally,
    sink: Option<&RingTraceSink>,
) -> (Samples, Vec<Summary>) {
    let pool = Arc::clone(&env.pool);
    let pool = &*pool;
    env.nas.warm(pool, tally);
    env.micro.warm(pool, tally);
    env.irregular.warm(pool, tally);
    env.tenant.warm(pool, tally);
    let mut s = Samples::default();
    let mut summaries: Vec<Option<Summary>> = vec![None; 4];
    for round in 1..=ROUNDS as u32 {
        for (part, summary) in summaries.iter_mut().enumerate() {
            let budget = windows[part] * round / ROUNDS as u32;
            let mut tw = sink.map(|sink| TraceWindow::begin(pool, sink));
            let t0 = Instant::now();
            let trace = tw.as_mut();
            match part {
                0 => env.nas.slice(pool, budget, tally, trace, &mut s.nas),
                1 => env.micro.slice(pool, budget, tally, trace, &mut s.micro),
                2 => env.irregular.slice(pool, budget, tally, trace, &mut s.irregular),
                _ => env.tenant.slice(pool, budget, tally, trace, &mut s.tenant),
            }
            if let Some(tw) = tw {
                let new = tw.finish(t0.elapsed());
                *summary = Some(match summary.take() {
                    Some(old) => old.merge(new),
                    None => new,
                });
            }
        }
    }
    (s, summaries.into_iter().flatten().collect())
}

fn med(v: &[f64]) -> f64 {
    median(&mut v.to_vec()).unwrap_or(f64::NAN)
}

fn pct(v: &[f64], q: f64) -> f64 {
    quantile(&mut v.to_vec(), q).unwrap_or(f64::NAN)
}

/// Per NAS kernel (in `KERNELS` order): leaf time, rate and busy share.
const NAS_LAYER_NAMES: [[&str; 3]; 5] = [
    ["nas.ep.leaf_s", "nas.ep.ops_per_s", "core.leaf_busy_frac.nas.ep"],
    ["nas.cg.leaf_s", "nas.cg.ops_per_s", "core.leaf_busy_frac.nas.cg"],
    ["nas.mg.leaf_s", "nas.mg.ops_per_s", "core.leaf_busy_frac.nas.mg"],
    ["nas.ft.leaf_s", "nas.ft.ops_per_s", "core.leaf_busy_frac.nas.ft"],
    ["nas.is.leaf_s", "nas.is.ops_per_s", "core.leaf_busy_frac.nas.is"],
];

/// The interquartile mean of `v`.
fn iqm(v: &[f64]) -> f64 {
    interquartile_mean(&mut v.to_vec()).unwrap_or(f64::NAN)
}

/// The quiet quartile of per-slice call latencies: their first quartile.
/// A host stall makes a slice's latencies heavy (p90 up to 25 ms against
/// about 0.1 ms), and such stalls can fill most of a run's slices, which
/// moves even the interquartile mean tenfold; the first quartile still
/// moves with the program, as every slice does.
fn quiet(v: &[f64]) -> f64 {
    pct(v, 0.25)
}

fn end_to_end(m: &mut Metrics, s: &Samples) {
    for (k, name) in ["ep_s", "cg_s", "mg_s", "ft_s", "is_s"].into_iter().enumerate() {
        m.set(name, iqm(&s.nas.wall_s[k]));
    }
    let slices = [
        ("loop_p50_us", &s.micro.slice_p50_us, iqm as fn(&[f64]) -> f64),
        ("loop_p90_us", &s.micro.slice_p90_us, iqm),
        ("pass_ms", &s.irregular.slice_ms, iqm),
        ("lat_p50_us", &s.tenant.slice_p50_us, quiet),
        ("lat_p90_us", &s.tenant.slice_p90_us, quiet),
        ("batch_loops_per_s", &s.tenant.slice_batch_per_s, iqm),
    ];
    for (name, v, aggregate) in slices {
        m.set(name, aggregate(v));
        let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        eprintln!("perfbench: {name} per slice: {}", all.join(" "));
    }
}

/// Per-layer metrics from the untraced (`u`) and traced (`t`) halves of
/// a traced run; `w` holds the traced windows in `PARTS` order.
fn per_layer(m: &mut Metrics, env: &Env, traced: &Env, u: &Samples, t: &Samples, w: &[Summary]) {
    let p = env.pool.num_workers() as f64;
    let busy = |s: &Summary, wall_s: f64| s.busy_ns as f64 * 1e-9 / (wall_s * p);

    // The fine loops: runtime and core counts per loop.
    let (mw, loops) = (&w[1], t.micro.wall_ns.len() as f64);
    let c = mw.counts;
    let loop_wall_s = t.micro.wall_ns.iter().sum::<f64>() * 1e-9;
    m.set("runtime.steals_per_loop", c.steals as f64 / loops);
    m.set("runtime.pushes_per_loop", c.jobs_pushed as f64 / loops);
    m.set(
        "runtime.steal_success",
        c.steals as f64 / (c.steals + c.failed_steal_sweeps).max(1) as f64,
    );
    m.set("runtime.parks_per_loop", c.parks as f64 / loops);
    m.set("runtime.parked_frac", mw.parked_ns as f64 / (mw.wall_ns as f64 * p));
    m.set("core.hybrid.failed_claims_per_loop", c.failed_claims as f64 / loops);
    let lg_r = (probes::partitions(&traced.pool) as f64).log2().max(1.0);
    m.set("core.hybrid.claim_bound_ratio", f64::from(mw.max_claim_run) / lg_r);
    m.set("core.hybrid.adoptions_per_loop", c.frames_stolen as f64 / loops);
    m.set("core.lazy.assists_per_loop", c.assist_joins as f64 / loops);
    m.set("core.leaf_busy_frac.micro_fine", busy(mw, loop_wall_s));
    let leaf_ns: f64 = t.micro.leaf_ns.iter().sum();
    m.set("micro.leaf_ns_per_elem", leaf_ns / (loops * env.micro.micro().elements() as f64));
    let self_us: Vec<f64> =
        t.micro.wall_ns.iter().zip(&t.micro.leaf_ns).map(|(w, l)| (w - l / p) / 1e3).collect();
    m.set("micro.loop_self_us", med(&self_us));
    m.set("micro.loop_p99_us", pct(&u.micro.wall_ns, 0.99) / 1e3);

    // NAS: leaf time per kernel run and the rate it implies.
    let (mut leaf_all, mut wall_all) = (0.0, 0.0);
    for (k, [leaf_name, ops_name, busy_name]) in NAS_LAYER_NAMES.into_iter().enumerate() {
        let (leaf, wall) = (&t.nas.leaf_s[k], &t.nas.wall_s[k]);
        let (leaf_sum, wall_sum) = (leaf.iter().sum::<f64>(), wall.iter().sum::<f64>());
        leaf_all += leaf_sum;
        wall_all += wall_sum;
        let leaf_s = med(leaf);
        m.set(leaf_name, leaf_s);
        m.set(ops_name, env.nas.ops(KERNELS[k]) / leaf_s);
        m.set(busy_name, leaf_sum / (wall_sum * p));
    }
    m.set("core.leaf_busy_frac.nas", leaf_all / (wall_all * p));

    // The irregular suite and its controller.
    let passes = t.irregular.pass_s.len() as f64;
    m.set("core.leaf_busy_frac.irregular", busy(&w[2], t.irregular.pass_s.iter().sum()));
    m.set("core.adapt.adjustments_per_pass", t.irregular.adjustments as f64 / passes);
    m.set("core.adapt.settled_frac", traced.irregular.settled_frac());

    // Tenant traffic: wakes, lanes, admission, generator health.
    let tw = &w[3];
    let tenant_s = tw.wall_ns as f64 * 1e-9;
    m.set("runtime.wakes_notified_per_s", tw.counts.targeted_wakes as f64 / tenant_s);
    m.set("runtime.wakes_backstop_per_s", tw.counts.backstop_wakes as f64 / tenant_s);
    m.set("runtime.lane_latency_jobs", tw.lane_latency_jobs as f64);
    m.set("runtime.lane_batch_jobs", tw.lane_batch_jobs as f64);
    m.set("core.leaf_busy_frac.tenant", busy(tw, t.tenant.batch_secs));
    m.set("tenant.batch_self_us", med(&t.tenant.batch_self_us));
    m.set("tenant.rejected", (env.tenant.rejected() + traced.tenant.rejected()) as f64);
    let hist_p99 = env.tenant.latency.p99_install_latency().map_or(f64::NAN, |d| d.as_secs_f64());
    m.set("tenant.hist_p99_us", hist_p99 * 1e6);
    m.set("tenant.lat_p99_us", pct(&u.tenant.lat_us, 0.99));
    m.set("tenant.gen_late_max_us", u.tenant.late_max_us);

    // What tracing costs, per workload.
    let nas_total = |s: &Samples| (0..5).map(|k| med(&s.nas.wall_s[k])).sum::<f64>();
    m.set("trace.overhead.nas", nas_total(t) / nas_total(u));
    m.set("trace.overhead.micro_fine", pct(&t.micro.wall_ns, 0.5) / pct(&u.micro.wall_ns, 0.5));
    m.set("trace.overhead.irregular", med(&t.irregular.pass_s) / med(&u.irregular.pass_s));
    m.set("trace.overhead.tenant", pct(&t.tenant.lat_us, 0.5) / pct(&u.tenant.lat_us, 0.5));
    m.set("trace.dropped", w.iter().map(|s| s.dropped).sum::<u64>() as f64);
    let exact = w.iter().filter(|s| s.check == Check::Exact).count();
    m.set("trace.counts_checked", exact as f64);
}

/// Prints, per kind of benchmark-side span (a call into a layer), the
/// median wall time and self time: wall minus the leaf time its child
/// chunks cover, per worker.
fn print_self_times(t: &Samples, p: f64) {
    let kernels = ["nas.ep", "nas.cg", "nas.mg", "nas.ft", "nas.is"];
    let mut rows: Vec<(&str, Vec<f64>, Vec<f64>)> = kernels
        .iter()
        .enumerate()
        .map(|(k, name)| (*name, t.nas.wall_s[k].clone(), t.nas.leaf_s[k].clone()))
        .collect();
    let ns = |v: &[f64]| v.iter().map(|x| x * 1e-9).collect::<Vec<f64>>();
    rows.push(("micro.loop", ns(&t.micro.wall_ns), ns(&t.micro.leaf_ns)));
    rows.push(("irregular.pass", t.irregular.pass_s.clone(), t.irregular.leaf_s.clone()));
    eprintln!("{:<16} {:>8} {:>14} {:>14}", "span", "count", "median_wall_us", "median_self_us");
    for (name, wall, leaf) in rows {
        let self_s: Vec<f64> = wall.iter().zip(&leaf).map(|(w, l)| w - l / p).collect();
        eprintln!(
            "{name:<16} {:>8} {:>14.2} {:>14.2}",
            wall.len(),
            med(&wall) * 1e6,
            med(&self_s) * 1e6
        );
    }
    let batch = &t.tenant.batch_self_us;
    eprintln!("{:<16} {:>8} {:>14} {:>14.2}", "tenant.batch", batch.len(), "-", med(batch));
}

/// Output of a provenance command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"pool_workers\": {nproc}, \"rustc\": {}, \"git_commit\": {}}}}}",
        json_string(WORKLOADS[args.workload]),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&command_line("rustc", &["--version"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
    );

    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take()); // joins the previous pool's workers, untimed
        let t = Instant::now();
        let e = Env::setup(Arc::new(ThreadPool::new(nproc)), args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        env = Some(e);
    }
    let mut env = env.expect("at least one set-up");
    let mut m = Metrics::default();
    let mut correct = true;
    let windows = windows(args.workload, args.seconds as f64);

    let spec = if args.trace {
        let half = windows.map(|w| w / 2);
        let (u, _) = measure(&mut env, half, &mut tally, None);
        let (pool, sink) = traced_pool(nproc);
        let mut traced = Env::setup(pool, args.seed);
        let (t, w) = measure(&mut traced, half, &mut tally, Some(&sink));
        for (s, name) in w.iter().zip(PARTS) {
            match &s.check {
                Check::Exact => {}
                Check::Skipped => {
                    eprintln!("perfbench: traced {name} window dropped events; counts unchecked")
                }
                Check::Mismatch(why) => {
                    eprintln!("perfbench: traced {name} window: {why}");
                    correct = false;
                }
            }
        }
        per_layer(&mut m, &env, &traced, &u, &t, &w);
        print_self_times(&t, nproc as f64);
        let pool = &env.pool;
        m.set("runtime.install_rt_us", probes::install_rt_us(pool));
        m.set("core.loop_floor_us", probes::loop_floor_us(pool));
        m.set("core.affinity", probes::affinity(pool, &mut tally));
        m.set(
            "tenant.admit_overhead_us",
            probes::admit_overhead_us(pool, &env.tenant.latency, &mut tally),
        );
        let (is_params, keys) = env.nas.is_inputs();
        let (ep_s, is_s, micro_us) = probes::sequential(is_params, keys, &mut tally);
        m.set("nas.ep.seq_s", ep_s);
        m.set("nas.is.seq_s", is_s);
        m.set("micro.seq_us", micro_us);
        PER_LAYER
    } else {
        let (s, _) = measure(&mut env, windows, &mut tally, None);
        end_to_end(&mut m, &s);
        m.set("setup_s", med(&setup_s));
        E2E
    };
    let missing = m.missing(spec);
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
    }
    println!(
        "{}",
        result_line(correct && tally.failed == 0, tally.attempted, tally.failed, spec, &m)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload micro_fine --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (1, 7, 20, true));
        assert!(args("--workload tenant --seed 7 --seconds 20 --trace 1").is_err());
        assert!(args("--workload nope --seed 7 --seconds 20 --trace 1").is_err());
        assert!(args("--workload nas --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload nas --seed 7 --seconds 20").is_err());
        assert!(args("--workload nas --seed -1 --seconds 20 --trace 0").is_err());
    }

    #[test]
    fn quiet_quartile_ignores_slices_slowed_by_a_stall() {
        let mut p90 = vec![0.1, 0.11, 0.12];
        p90.extend([25.0; 7]);
        assert_eq!(quiet(&p90), 0.12);
    }

    #[test]
    fn windows_sum_to_the_run_length_and_favor_the_workload() {
        for (workload, name) in WORKLOADS.iter().enumerate() {
            let w = windows(workload, 20.0);
            let total: f64 = w.iter().map(Duration::as_secs_f64).sum();
            assert!((total - 20.0).abs() < 1e-9);
            let own = PARTS.iter().position(|p| p == name).unwrap();
            assert!(w.iter().all(|d| *d <= w[own]));
        }
    }
}
