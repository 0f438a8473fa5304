//! The two library workloads: one process calling the sequential and the
//! pooled entry points back to back on one generated input.
//!
//! * `batch-exact` — ss3d, `grid_exact` / `grid_exact_par`.
//! * `batch-approx` — ss5d, `rho_approx` / `rho_approx_par`.

use crate::layers::{probe_layers, LayerSamples};
use crate::trace::Tracer;
use crate::util::{
    median, ms, proc_status_kb, quantile, reset_peak_rss, Metrics, SplitMix, Yardstick,
};
use crate::{Opts, Outcome, EPS, MIN_PTS, RHO};
use dbscan_core::algorithms::{grid_exact, grid_exact_with, rho_approx, BcpStrategy};
use dbscan_core::parallel::{
    grid_exact_par, grid_exact_par_instrumented, rho_approx_par, rho_approx_par_instrumented,
};
use dbscan_core::{Clustering, Counter, DbscanParams, Stats};
use dbscan_datagen::{seed_spreader, SpreaderConfig};
use dbscan_eval::same_clustering;
use dbscan_eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_geom::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Exact,
    Approx,
}

/// Seed-spreader input of `n` points in `D` dimensions from the workload
/// seed, with about `restarts` clusters (the paper's generator uses 10).
pub fn spreader_points<const D: usize>(seed: u64, n: usize, restarts: f64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(SplitMix(seed ^ ((D as u64) << 32)).next_u64());
    let mut cfg = SpreaderConfig::paper_defaults(n, D);
    cfg.restart_prob = (restarts / cfg.cluster_points() as f64).min(1.0);
    seed_spreader::<D>(&cfg, &mut rng)
}

/// FNV fingerprint of the flat labels, the server's `label_hash`.
pub fn fingerprint(c: &Clustering) -> u64 {
    dbscan_server::label_hash(&c.flat_labels())
}

fn params() -> DbscanParams {
    DbscanParams::new(EPS, MIN_PTS).expect("pinned parameters are valid")
}

fn run_seq<const D: usize>(algo: Algo, pts: &[Point<D>]) -> Clustering {
    match algo {
        Algo::Exact => grid_exact(pts, params()),
        Algo::Approx => rho_approx(pts, params(), RHO),
    }
}

fn run_par<const D: usize>(algo: Algo, pts: &[Point<D>], threads: usize) -> Clustering {
    match algo {
        Algo::Exact => grid_exact_par(pts, params(), Some(threads)),
        Algo::Approx => rho_approx_par(pts, params(), RHO, Some(threads)),
    }
}

/// Times `f`, returning its result and wall milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms(t.elapsed()))
}

struct LoopResult {
    seq_ms: Vec<f64>,
    par_ms: Vec<f64>,
    /// One yardstick sort after each pair of calls.
    sort_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The untraced loop: alternate a sequential and a pooled call, each pair
/// followed by a yardstick sort, until `seconds` have passed. Every call's
/// fingerprint must equal `want`.
fn timed_loop<const D: usize>(
    algo: Algo,
    pts: &[Point<D>],
    yardstick: &Yardstick,
    threads: usize,
    seconds: f64,
    want: u64,
    corrupt: bool,
) -> LoopResult {
    let mut r = LoopResult {
        seq_ms: Vec::new(),
        par_ms: Vec::new(),
        sort_ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || r.par_ms.is_empty() {
        let (mut c, t) = timed(|| run_seq(algo, pts));
        if corrupt && r.attempted == 0 {
            corrupt_one(&mut c);
        }
        r.seq_ms.push(t);
        r.attempted += 1;
        r.failed += u64::from(fingerprint(&c) != want);
        let (c, t) = timed(|| run_par(algo, pts, threads));
        r.par_ms.push(t);
        r.attempted += 1;
        r.failed += u64::from(fingerprint(&c) != want);
        r.sort_ms.push(yardstick.time_ms());
    }
    r
}

/// Flips one point's label in the harness's copy of a result (the self-test
/// proves such a corruption is caught and counted).
pub fn corrupt_one(c: &mut Clustering) {
    use dbscan_core::Assignment;
    if let Some(a) = c.assignments.first_mut() {
        *a = match a {
            Assignment::Noise => Assignment::Core(0),
            _ => Assignment::Noise,
        };
    }
}

/// Pins glibc's mmap threshold at its initial 128 KiB, which also turns
/// off its adjustment. By default glibc raises the threshold each time a
/// mapped block is freed, so whether a call's large buffers are mapped
/// fresh (and page-faulted) or reused from the heap depends on what the
/// process allocated and freed before: one input's sequential call took
/// 198 or 171 ms by seed and process history alone, and 195 and 188 ms
/// with the threshold pinned. Pinned, every call pays for its buffers as
/// the first call of a fresh process does. Only the batch workloads pin
/// it: on the daemon workloads this process is the client, whose receive
/// buffers are part of the latency, and pinning there raised
/// `service-bulk`'s median from 42 to 68 ms.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator parameter, under glibc's
    // own arena locks.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

pub fn run(algo: Algo, opts: &Opts) -> Result<Outcome, String> {
    pin_mmap_threshold();
    match algo {
        Algo::Exact => run_dim::<3>(algo, opts, if opts.smoke { 20_000 } else { 1_000_000 }),
        Algo::Approx => run_dim::<5>(algo, opts, if opts.smoke { 5_000 } else { 100_000 }),
    }
}

fn run_dim<const D: usize>(algo: Algo, opts: &Opts, n: usize) -> Result<Outcome, String> {
    let threads = opts.threads;
    let t_gen = Instant::now();
    // More clusters than the paper's 10, so that one input's cost does not
    // hinge on how a few clusters fell. With ten, exact seq cost moved by
    // tens of percent from seed to seed; at n = 10^6 with 100 it still
    // spanned 0.84-1.16 of its median over ten seeds, with 1,000 0.95-1.03
    // (at 2.3 times the cost). The 5-D input of 10^5 points keeps 100
    // (0.82-1.05; 300 was no steadier).
    let restarts = match algo {
        Algo::Exact => 1000.0,
        Algo::Approx => 100.0,
    };
    let pts: Vec<Point<D>> = spreader_points(opts.seed, n, restarts);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let yardstick = Yardstick::default();
    let mut out = Outcome::new(format!(
        "{} on ss{D}d n={n}, eps={EPS} MinPts={MIN_PTS} rho={RHO}, threads={threads}",
        match algo {
            Algo::Exact => "grid_exact / grid_exact_par",
            Algo::Approx => "rho_approx / rho_approx_par",
        }
    ));
    // Peak memory excludes the generated input and the yardstick's array
    // (a sort's own buffers, 12 MiB, stay below a call's): reset the
    // high-water mark now and subtract the resident size at this point.
    reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"))?;
    let pid = std::process::id();
    let rss0 = proc_status_kb(pid, "VmRSS").unwrap_or(0);

    // Set-up: the untimed cold first call of each entry point.
    let (first, cold_seq) = timed(|| run_seq(algo, &pts));
    let (first_par, cold_par) = timed(|| run_par(algo, &pts, threads));
    let want = fingerprint(&first);
    out.check(
        "first sequential and pooled calls agree",
        fingerprint(&first_par) == want,
    );
    let t_check = Instant::now();
    cross_check(algo, &pts, &first, &mut out);
    out.table.push(format!(
        "input generated in {gen_s:.2} s; cross-check took {:.2} s",
        t_check.elapsed().as_secs_f64()
    ));
    drop((first, first_par));

    let mut m = Metrics::default();
    let seconds = opts.seconds;
    let (main, traced) = if opts.trace {
        // Traced run: an untraced third for the overhead baseline, then
        // the traced loop.
        let base = timed_loop(algo, &pts, &yardstick, threads, seconds / 3.0, want, false);
        let traced = traced_loop(algo, &pts, threads, seconds * 2.0 / 3.0, want, &opts.tracer);
        (base, Some(traced))
    } else {
        (
            timed_loop(algo, &pts, &yardstick, threads, seconds, want, opts.corrupt),
            None,
        )
    };
    out.attempted += main.attempted;
    out.failed += main.failed;
    let peak_kb = proc_status_kb(pid, "VmHWM")
        .unwrap_or(0)
        .saturating_sub(rss0);

    let (seq_p50, par_p50) = (median(&main.seq_ms), median(&main.par_ms));
    let (seq_p90, par_p90) = (quantile(&main.seq_ms, 0.9), quantile(&main.par_ms, 0.9));
    let sort = median(&main.sort_ms);
    // A batch caller's latency is the pooled call's.
    m.put("latency_in_sorts_p50", par_p50 / sort, "sorts");
    m.put("latency.p50_ms", par_p50, "ms");
    m.put("latency.p90_ms", par_p90, "ms");
    m.put("seq_in_sorts_p50", seq_p50 / sort, "sorts");
    m.put("seq.p50_ms", seq_p50, "ms");
    m.put("seq.p90_ms", seq_p90, "ms");
    m.put("par_in_sorts_p50", par_p50 / sort, "sorts");
    m.put("par.p50_ms", par_p50, "ms");
    m.put("par.p90_ms", par_p90, "ms");
    m.put("yardstick.sort_ms", sort, "ms");
    // Calls per second of calling, the yardstick's sorts left out.
    let call_s = main.seq_ms.iter().chain(&main.par_ms).sum::<f64>() / 1e3;
    m.put("jobs_per_s", 2.0 * main.seq_ms.len() as f64 / call_s, "1/s");
    m.put("setup_s", (cold_seq + cold_par) / 1e3, "s");
    m.put("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    out.sample_counts(&[
        ("seq", &main.seq_ms),
        ("par", &main.par_ms),
        ("yardstick sort", &main.sort_ms),
    ]);

    if let Some(t) = traced {
        t.samples.put_metrics(&mut m);
        let seq_traced = median(&t.seq_ms);
        let par_traced = median(&t.par_ms);
        m.put("pool.speedup", seq_traced / par_traced, "ratio");
        m.put("pool.tasks_stolen", median(&t.stolen), "count");
        m.put("pool.cold_ms", cold_par - par_p50, "ms");
        let layers = t.samples.self_sum_ms();
        m.put("attrib.e2e_ms", seq_traced, "ms");
        m.put("attrib.layers_ms", layers, "ms");
        m.put("attrib.residual_ms", seq_traced - layers, "ms");
        m.put("trace.overhead", seq_traced / seq_p50, "ratio");
        out.attempted += t.attempted;
        out.failed += t.failed;
    }
    out.metrics = m;
    Ok(out)
}

/// One untimed cross-check per run: exact against a second BCP strategy;
/// approx against the Sandwich Theorem bounds (exact at ε and ε(1+ρ)).
fn cross_check<const D: usize>(
    algo: Algo,
    pts: &[Point<D>],
    first: &Clustering,
    out: &mut Outcome,
) {
    match algo {
        Algo::Exact => {
            let other = grid_exact_with(pts, params(), BcpStrategy::BruteForceOnly);
            out.check(
                "grid_exact equals the BruteForceOnly BCP strategy",
                same_clustering(first, &other),
            );
        }
        Algo::Approx => {
            let inner = grid_exact(pts, params());
            let outer = grid_exact(
                pts,
                DbscanParams::new(EPS * (1.0 + RHO), MIN_PTS).expect("valid outer radius"),
            );
            out.check(
                "rho_approx lies between exact at eps and eps(1+rho)",
                check_sandwich(&inner, first, &outer) == SandwichOutcome::Holds,
            );
        }
    }
}

struct Traced {
    samples: LayerSamples,
    seq_ms: Vec<f64>,
    par_ms: Vec<f64>,
    stolen: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The traced loop: each iteration decomposes the sequential pipeline into
/// its layers (grid, cells, finish, counters), then times the whole
/// sequential and pooled entry points, all as spans of one request id.
fn traced_loop<const D: usize>(
    algo: Algo,
    pts: &[Point<D>],
    threads: usize,
    seconds: f64,
    want: u64,
    tracer: &Tracer,
) -> Traced {
    let mut t = Traced {
        samples: LayerSamples::default(),
        seq_ms: Vec::new(),
        par_ms: Vec::new(),
        stolen: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed().as_secs_f64() < seconds || t.par_ms.is_empty() {
        req += 1;
        let root = tracer.begin(req, 0, "perfbench", "iteration");
        let fp = probe_layers(
            tracer,
            req,
            root.id,
            pts,
            algo == Algo::Approx,
            &mut t.samples,
        );
        // The split pipeline must land on the whole call's labels.
        t.attempted += 1;
        t.failed += u64::from(match algo {
            Algo::Exact => fp != Some(want),
            Algo::Approx => fp.is_none(),
        });
        let (c, seq) = tracer.span(
            req,
            root.id,
            "core::algorithms",
            match algo {
                Algo::Exact => "grid_exact",
                Algo::Approx => "rho_approx",
            },
            || run_seq(algo, pts),
        );
        t.attempted += 1;
        t.failed += u64::from(fingerprint(&c) != want);
        let stats = Stats::new();
        let (c, par) = tracer.span(
            req,
            root.id,
            "core::parallel",
            match algo {
                Algo::Exact => "grid_exact_par_instrumented",
                Algo::Approx => "rho_approx_par_instrumented",
            },
            || match algo {
                Algo::Exact => grid_exact_par_instrumented(pts, params(), Some(threads), &stats),
                Algo::Approx => {
                    rho_approx_par_instrumented(pts, params(), RHO, Some(threads), &stats)
                }
            },
        );
        t.attempted += 1;
        t.failed += u64::from(fingerprint(&c) != want);
        tracer.end(root);
        t.seq_ms.push(seq);
        t.par_ms.push(par);
        t.stolen.push(stats.counter(Counter::TasksStolen) as f64);
    }
    t
}
