//! Multi-threaded variants of the paper's two grid algorithms.
//!
//! The paper's algorithms decompose into per-cell work (labeling, per-cell
//! structures, border assignment) and per-pair work (the ε-neighbor edge
//! tests of the core-cell graph `G`). Both are parallelized here over a
//! [`WorkQueue`] — a std-only self-scheduling task list, heaviest task first
//! (see [`crate::scheduler`]) — instead of the static contiguous chunking of
//! the earlier design, which load-imbalanced badly on skewed cell
//! populations.
//!
//! The edge phase is *fused*: one barrier-free stage performs lazy per-cell
//! structure builds (kd-trees / Lemma 5 counters, each built at most once via
//! [`OnceLock`] by whichever worker first needs it), the pair tests, and the
//! unions — into a lock-free [`ConcurrentUnionFind`]. Because unions land in
//! a structure every worker can read *live*, workers skip candidate pairs
//! whose cells another worker already joined, exactly like the sequential
//! path's `uf.same` short-circuit. [`Counter::EdgeTestsSkipped`] is therefore
//! nonzero in parallel runs again (its exact value is timing-dependent; the
//! evaluated-pair set it leaves behind always yields the same components).
//! An earlier design collected edges per chunk behind a barrier and unioned
//! them sequentially, and had to give that short-circuit up.
//!
//! Results are bit-identical to the sequential versions: the edge predicates
//! are deterministic, a skipped pair is by definition already connected (a
//! `same() == true` answer is definitive even mid-race), union by index makes
//! the final partition independent of thread timing, and
//! [`UnionFind::compact_labels`] assigns cluster ids by first appearance over
//! ranks, independent of forest shape.
//!
//! # Worker pool
//!
//! All three phases (labeling, the fused edge stage, border assignment) run
//! on a persistent [`WorkerPool`]: workers are spawned once — lazily through
//! the process-wide [`WorkerPool::global`] cache, or explicitly via
//! [`ParConfig::pool`] for callers that manage their own handle — and parked
//! on a condvar between phases. Successive phases are handed to the same
//! workers through the pool's epoch protocol; the per-phase [`WorkQueue`],
//! [`Heartbeats`], [`Poison`] latch, and [`RunCtl`] checkpoints all rebind
//! per phase exactly as they did when each phase spawned its own
//! `std::thread::scope`. (The earlier scoped design respawned `threads`
//! workers up to six times per clustering run; at n=20k that spawn overhead
//! alone exceeded the useful edge work by two orders of magnitude.)
//!
//! The `*_instrumented` entry points share one [`StatsSink`] across all
//! worker threads (its counters are relaxed atomics); workers accumulate
//! counts in locals and flush once per phase. Phase times are wall-clock
//! spans measured on the coordinating thread. The fused edge stage's span is
//! split three ways, mirroring the sequential connect loop: nanoseconds the
//! workers spent in lazy `OnceLock` structure builds go to
//! [`Phase::StructureBuild`], nanoseconds spent in `cuf.union` go to
//! [`Phase::UnionFind`], and the remainder is [`Phase::EdgeTests`]. The
//! build/union figures are *summed per-worker* time, so with more than one
//! worker they are attribution shares rather than exclusive wall-clock spans;
//! both are capped at the stage span so the disjoint-phases invariant (the
//! named phases never sum past [`Phase::Total`]) holds on any core count.
//!
//! # Fault isolation
//!
//! Every task a worker claims runs under [`std::panic::catch_unwind`]. A
//! panicking task poisons the run through a shared [`Poison`] latch: the
//! panicking worker records the first panic's task id and payload and stops;
//! the remaining workers observe the latch before their next claim and drain
//! cooperatively (no abort, no hang, no half-written output — stage results
//! are discarded wholesale on poison). The driver then surfaces
//! [`DbscanError::WorkerPanicked`] — or, under
//! [`RecoveryPolicy::FallbackSequential`], transparently re-runs the
//! sequential algorithm, which shares no state with the poisoned attempt and
//! therefore produces the exact sequential result. Both events are visible in
//! the stats report ([`Counter::WorkerPanics`],
//! [`Counter::SequentialFallbacks`]).
//!
//! The deterministic chaos hooks ([`FaultPlan`]) are compiled to no-ops
//! unless the `fault-injection` feature is on.
//!
//! # Deadlines and stalls
//!
//! Every stage is additionally a cooperative cancellation point: workers
//! consult the run's [`RunCtl`] before each claim, so a tripped time budget
//! stops the whole fleet within one task's worth of work (the queue is
//! closed by the first observer, which bounds how much the others can still
//! claim). Under [`DeadlinePolicy::Degrade`](crate::deadline::DeadlinePolicy)
//! the edge stage instead switches the remaining pair tests to the Lemma 5
//! approximate counters (see [`crate::deadline`] for why the mixed result is
//! still a legal ρ′-approximate clustering). A coordinator-side stall
//! watchdog — armed by [`DeadlineConfig::stall_timeout`] — watches per-worker
//! [`Heartbeats`]; a worker that stops beating past the threshold emits a
//! `stall` trace instant and poisons the run through the same latch a panic
//! uses, so stalls escalate to the existing [`RecoveryPolicy`] machinery.

use crate::algorithms::BcpStrategy;
use crate::bcp;
use crate::border::assign_border_clusters;
use crate::cells::{assemble_clustering_ctl, CoreCells};
use crate::deadline::{
    precheck_degrade, DeadlineConfig, DeadlineReport, Heartbeats, RunCtl, StageId,
};
use crate::error::{validate_rho, DbscanError, RecoveryPolicy, ResourceLimits};
use crate::faults::{FaultPlan, FaultSite};
use crate::labeling::label_core_points_ctl;
use crate::scheduler::{Poison, WorkQueue, WorkerPool};
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::trace::{hist::HistKind, EventName};
use crate::types::{Assignment, Clustering, DbscanParams};
use crate::unionfind::{ConcurrentUnionFind, UnionFind};
use dbscan_geom::grid::{base_side, hierarchy_levels};
use dbscan_geom::Point;
use dbscan_index::{ApproxRangeCounter, GridIndex, KdTree};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Configuration for the fallible `try_*_par` entry points: worker count,
/// what to do when a worker panics, resource budgets, and the (test-only)
/// fault-injection plan.
#[derive(Clone, Debug, Default)]
pub struct ParConfig {
    /// Worker threads; `None` defers to [`resolve_threads`].
    pub threads: Option<usize>,
    /// What to do when a worker panics mid-run.
    pub recovery: RecoveryPolicy,
    /// Resource budgets enforced before index builds.
    pub limits: ResourceLimits,
    /// Deterministic fault plan; a no-op unless the `fault-injection`
    /// feature is enabled.
    pub faults: FaultPlan,
    /// Time budget, expiry policy, and stall watchdog threshold.
    pub deadline: DeadlineConfig,
    /// Worker pool to run on. `None` (the default) shares the lazily-spawned
    /// process-wide [`WorkerPool::global`] pool for the resolved thread
    /// count; a caller that manages its own pool lifetime (e.g. a service
    /// tier pinning one pool across requests) passes a handle here, and its
    /// thread count overrides [`ParConfig::threads`].
    pub pool: Option<Arc<WorkerPool>>,
}

impl ParConfig {
    /// A config that only sets the worker count, like the infallible entry
    /// points' `threads` argument.
    pub fn with_threads(threads: Option<usize>) -> Self {
        ParConfig {
            threads,
            ..ParConfig::default()
        }
    }
}

/// Environment variable consulted when no explicit thread count is given.
/// Same convention as the resolved value: a positive integer is the worker
/// count, `0` means all available cores.
pub const THREADS_ENV: &str = "DBSCAN_THREADS";

/// Number of worker threads for the `*_par` entry points.
///
/// Resolution order: explicit `threads` argument, then the [`THREADS_ENV`]
/// environment variable, then all available cores. `Some(0)` (or an env value
/// of `0`) also means all available cores. An env value that does not parse
/// as an integer is ignored here — front ends (the CLI) are expected to
/// validate it and reject with a diagnostic before calling in.
pub fn resolve_threads(threads: Option<usize>) -> usize {
    let requested = threads.or_else(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
    });
    match requested {
        // `available_parallelism` walks cgroup files on Linux — tens of
        // microseconds per call, which a pooled run pays on *every* launch.
        // The count is stable for the process lifetime, so resolve it once.
        None | Some(0) => {
            *ALL_CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        Some(t) => t,
    }
}

static ALL_CORES: OnceLock<usize> = OnceLock::new();

/// The pool a run executes on: an explicit [`ParConfig::pool`] handle wins
/// (its thread count is authoritative); otherwise the process-wide shared
/// pool for the [`resolve_threads`] count.
fn resolve_pool(config: &ParConfig) -> Arc<WorkerPool> {
    config
        .pool
        .clone()
        .unwrap_or_else(|| WorkerPool::global(resolve_threads(config.threads)))
}

/// Runs one phase body on the pool, with the coordinator-side stall watchdog
/// scoped around it when [`RunCtl::stall_timeout`] is armed. The watchdog is
/// the one remaining per-phase thread spawn, and only on runs that opt into
/// stall detection; it exits as soon as every worker marks its heartbeat done
/// (which each phase body does before returning).
#[allow(clippy::too_many_arguments)]
fn run_pool_phase<S: StatsSink, F: Fn(usize) + Sync>(
    pool: &WorkerPool,
    ctl: &RunCtl,
    hb: &Heartbeats,
    poison: &Poison,
    queue: &WorkQueue,
    phase: &'static str,
    stats: &S,
    body: F,
) {
    if let Some(stall) = ctl.stall_timeout() {
        std::thread::scope(|s| {
            s.spawn(|| stall_watchdog(stall, hb, poison, queue, phase, stats));
            pool.run_phase(&body);
        });
    } else {
        pool.run_phase(&body);
    }
}

/// Converts a finished stage's [`Poison`] latch into the driver-level error,
/// recording the panic count ([`Counter::WorkerPanics`]) on the way out. The
/// error names every distinct phase that recorded a failure (normally just
/// this stage's, but a latch can outlive a stage in tests) and carries the
/// total failure count.
fn check_poison<S: StatsSink>(
    poison: &Poison,
    phase: &'static str,
    stats: &S,
) -> Result<(), DbscanError> {
    if let Some(summary) = poison.take_summary() {
        stats.add(Counter::WorkerPanics, summary.panic_count);
        let phases = if summary.phases.is_empty() {
            phase.to_string()
        } else {
            summary.phases
        };
        return Err(DbscanError::WorkerPanicked {
            phase: phases,
            task: summary.task,
            payload: summary.payload,
            panic_count: summary.panic_count,
        });
    }
    Ok(())
}

/// Coordinator-side stall watchdog: polls the per-worker [`Heartbeats`] at a
/// quarter of the threshold (clamped to [1ms, 25ms]) and, when some live
/// worker's last beat is older than `stall`, emits a [`EventName::Stall`]
/// trace instant, records a poison message (escalating to the run's
/// [`RecoveryPolicy`] exactly like a panic), and closes the queue so the
/// healthy workers drain promptly. It deliberately does *not* trip the
/// cancellation token: a stall is a fault, not a budget expiry, and the
/// fallback rerun should keep whatever budget remains.
fn stall_watchdog<S: StatsSink>(
    stall: Duration,
    hb: &Heartbeats,
    poison: &Poison,
    queue: &WorkQueue,
    phase: &'static str,
    stats: &S,
) {
    let poll = (stall / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    loop {
        std::thread::sleep(poll);
        if hb.all_done() || poison.is_poisoned() || queue.is_closed() {
            return;
        }
        if let Some((w, age)) = hb.stalest_age() {
            if age >= stall {
                stats.trace_instant(
                    0,
                    EventName::Stall,
                    [w as u32, age.as_millis().min(u32::MAX as u128) as u32],
                );
                poison.record_message(
                    phase,
                    w as u32,
                    format!(
                        "stall watchdog: worker {w} made no progress for {age:?} \
                         (threshold {stall:?})"
                    ),
                );
                queue.close();
                return;
            }
        }
    }
}

/// Parallel core-point labeling: workers claim cells (weighted by point
/// count, heaviest first) from a shared [`WorkQueue`] and return the ids of
/// points they proved core; the caller scatters them. With an enabled sink
/// each worker accumulates its distance-computation and steal counts locally
/// and flushes them once ([`Counter::GridPointsExamined`],
/// [`Counter::TasksStolen`]). A panicking task poisons the run (the partial
/// results are discarded) and surfaces as [`DbscanError::WorkerPanicked`].
fn label_core_points_par<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    grid: &GridIndex<D>,
    params: DbscanParams,
    pool: &WorkerPool,
    faults: &FaultPlan,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Vec<bool>, DbscanError> {
    let threads = pool.threads();
    if threads <= 1 || grid.num_cells() < 2 * threads {
        return Ok(label_core_points_ctl(points, grid, params, stats, ctl));
    }
    if ctl.armed() {
        ctl.stage_begin(StageId::Labeling, grid.num_cells() as u64);
    }
    let min_pts = params.min_pts();
    let queue = WorkQueue::new(grid.cells().iter().map(|c| c.len() as u64), threads);
    let poison = Poison::new();
    let hb = Heartbeats::new(threads);
    let mut is_core = vec![false; points.len()];
    // Per-worker result slots (the pool shares one `Fn` body by reference, so
    // workers cannot return values through join handles). One uncontended
    // lock per worker per phase.
    let slots: Vec<Mutex<Vec<u32>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    run_pool_phase(pool, ctl, &hb, &poison, &queue, "labeling", stats, |w| {
        let mut core_ids = Vec::new();
        let mut examined = 0u64;
        let mut kernel_calls = 0u64;
        let mut stolen = 0u64;
        loop {
            if poison.is_poisoned() {
                // cooperative drain after a peer's panic
                stats.trace_instant(w + 1, EventName::PoisonTrip, [0, 0]);
                queue.close();
                break;
            }
            if ctl.should_stop() {
                // budget tripped: close so peers stop claiming too
                queue.close();
                break;
            }
            let Some(claim) = queue.claim(w) else {
                break;
            };
            hb.beat(w);
            let cell_id = claim.task;
            stolen += u64::from(claim.stolen);
            if claim.stolen {
                stats.trace_instant(w + 1, EventName::Steal, [cell_id, claim.home as u32]);
            }
            faults.maybe_steal_delay(claim.stolen);
            let t0 = stats.trace_start();
            let task = catch_unwind(AssertUnwindSafe(|| {
                faults.maybe_panic(FaultSite::Labeling, cell_id);
                let ids = grid.points_of(cell_id);
                if ids.len() >= min_pts {
                    core_ids.extend_from_slice(ids);
                } else {
                    for &p in ids {
                        let count = if S::ENABLED {
                            kernel_calls += 1;
                            grid.count_within_eps_counted(points, p, min_pts, &mut examined)
                        } else {
                            grid.count_within_eps(points, p, min_pts)
                        };
                        if count >= min_pts {
                            core_ids.push(p);
                        }
                    }
                }
            }));
            stats.trace_task_span(
                w + 1,
                EventName::TaskLabeling,
                t0,
                cell_id,
                grid.cell_population(cell_id) as u64,
                claim.stolen,
                claim.home,
            );
            if let Err(payload) = task {
                stats.trace_instant(w + 1, EventName::WorkerPanic, [cell_id, 0]);
                poison.record("labeling", cell_id, payload);
                break;
            }
            if ctl.armed() {
                ctl.stage_done(StageId::Labeling, 1);
            }
        }
        hb.mark_done(w);
        if S::ENABLED {
            stats.add(Counter::GridPointsExamined, examined);
            stats.add(Counter::BlockKernelCalls, kernel_calls);
            stats.add(Counter::TasksStolen, stolen);
        }
        *slots[w].lock().unwrap_or_else(|e| e.into_inner()) = core_ids;
    });
    check_poison(&poison, "labeling", stats)?;
    for slot in &slots {
        for &p in slot.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            is_core[p as usize] = true;
        }
    }
    Ok(is_core)
}

/// Builds [`CoreCells`] with parallel labeling. Phase attribution matches
/// [`CoreCells::build_instrumented`]: the grid build is [`Phase::GridBuild`],
/// labeling plus core-cell collection is [`Phase::Labeling`]. Input
/// validation, the index byte budget, and panic isolation all report through
/// the typed error.
fn build_core_cells_par<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    pool: &WorkerPool,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<CoreCells<D>, DbscanError> {
    crate::validate::check_points_finite(points)?;
    let grid_span = stats.now();
    let grid = GridIndex::try_build(points, params.eps(), config.limits.max_index_bytes)?;
    stats.finish(Phase::GridBuild, grid_span);
    let span = stats.now();
    let is_core = label_core_points_par(points, &grid, params, pool, &config.faults, stats, ctl)?;

    let mut core_cells = Vec::new();
    let mut rank_of_cell = vec![u32::MAX; grid.num_cells()];
    let mut core_points_of = Vec::new();
    for ci in 0..grid.num_cells() {
        let core_pts: Vec<u32> = grid
            .points_of(ci as u32)
            .iter()
            .copied()
            .filter(|&p| is_core[p as usize])
            .collect();
        if !core_pts.is_empty() {
            rank_of_cell[ci] = core_cells.len() as u32;
            core_cells.push(ci as u32);
            core_points_of.push(core_pts);
        }
    }
    stats.finish(Phase::Labeling, span);
    // Same layout and attribution as the sequential builder: the SoA gather
    // is a structure build, not labeling.
    let span = stats.now();
    let (core_soa, core_soa_start, core_box) =
        crate::cells::gather_core_soa(points, &core_points_of);
    stats.finish(Phase::StructureBuild, span);
    Ok(CoreCells {
        params,
        grid,
        is_core,
        core_cells,
        rank_of_cell,
        core_points_of,
        core_soa,
        core_soa_start,
        core_box,
    })
}

/// The fused edge phase: workers claim core cells from a [`WorkQueue`]
/// (weighted by [`CoreCells::edge_task_weight`], heaviest first), run the
/// read-only `edge_test` on each candidate pair, and union discovered edges
/// into a shared [`ConcurrentUnionFind`] *while testing continues* — so a
/// pair whose cells are already connected is skipped
/// ([`Counter::EdgeTestsSkipped`]), exactly like the sequential
/// short-circuit.
///
/// Every candidate pair counts one [`Counter::EdgeTests`] whether or not it
/// is skipped, exactly as the sequential loop counts them *before* its
/// `uf.same` check — so the sequential and parallel totals agree on identical
/// inputs. `edge_test` is expected to build any per-cell structure it needs
/// lazily and report nanoseconds spent doing so through `build_nanos` (see
/// the callers); the stage's wall span — including the final snapshot
/// conversion to a sequential [`UnionFind`] — is then split into
/// [`Phase::StructureBuild`] (reported builds), [`Phase::UnionFind`] (summed
/// `cuf.union` time), and [`Phase::EdgeTests`] (the remainder), mirroring the
/// sequential connect loop's three-way attribution. Both carve-outs are
/// capped at the span so the phases stay disjoint on any core count.
fn connect_par<const D: usize, S: StatsSink>(
    cc: &CoreCells<D>,
    pool: &WorkerPool,
    faults: &FaultPlan,
    stats: &S,
    ctl: &RunCtl,
    build_nanos: &AtomicU64,
    edge_test: impl Fn(usize, usize) -> bool + Sync,
) -> Result<UnionFind, DbscanError> {
    let threads = pool.threads();
    let m = cc.num_core_cells();
    if ctl.armed() {
        ctl.stage_begin(StageId::EdgeTests, m as u64);
    }
    let span = stats.now();
    // The weight pass re-enumerates every candidate pair — worth it only
    // when there is more than one claimant to balance across.
    let queue = if threads > 1 {
        WorkQueue::new((0..m).map(|r| cc.edge_task_weight(r)), threads)
    } else {
        WorkQueue::unweighted(m, threads)
    };
    let cuf = ConcurrentUnionFind::new(m);
    let poison = Poison::new();
    let hb = Heartbeats::new(threads);
    let union_nanos = AtomicU64::new(0);
    run_pool_phase(pool, ctl, &hb, &poison, &queue, "edge_tests", stats, |w| {
        let mut tests = 0u64;
        let mut skipped = 0u64;
        let mut edges = 0u64;
        let mut retries = 0u64;
        let mut stolen = 0u64;
        let mut unions_ns = 0u64;
        loop {
            if poison.is_poisoned() {
                // cooperative drain after a peer's panic
                stats.trace_instant(w + 1, EventName::PoisonTrip, [0, 0]);
                queue.close();
                break;
            }
            if ctl.should_stop() {
                // budget tripped: close so peers stop claiming too.
                // Under `degrade` this branch never fires — the edge
                // closure flips to the approximate path instead.
                queue.close();
                break;
            }
            let Some(claim) = queue.claim(w) else {
                break;
            };
            hb.beat(w);
            let r1 = claim.task;
            stolen += u64::from(claim.stolen);
            if claim.stolen {
                stats.trace_instant(w + 1, EventName::Steal, [r1, claim.home as u32]);
            }
            faults.maybe_steal_delay(claim.stolen);
            let retries_before = retries;
            let t0 = stats.trace_start();
            let task = catch_unwind(AssertUnwindSafe(|| {
                faults.maybe_panic(FaultSite::EdgeTests, r1);
                let r1 = r1 as usize;
                cc.for_candidate_partners(r1, |r2| {
                    tests += 1;
                    // A `true` from the concurrent structure is definitive
                    // even mid-race, so skipping can only drop a pair that
                    // is already redundant for connectivity.
                    if cuf.same(r1 as u32, r2 as u32) {
                        skipped += 1;
                    } else {
                        let e0 = stats.trace_start();
                        let hit = edge_test(r1, r2);
                        if let Some(e0) = e0 {
                            stats.trace_hist(
                                HistKind::EdgeTestNanos,
                                e0.elapsed().as_nanos() as u64,
                            );
                        }
                        if hit {
                            edges += 1;
                            if S::ENABLED {
                                let t = Instant::now();
                                cuf.union(r1 as u32, r2 as u32, &mut retries);
                                unions_ns += t.elapsed().as_nanos() as u64;
                            } else {
                                cuf.union(r1 as u32, r2 as u32, &mut retries);
                            }
                        }
                    }
                });
            }));
            if S::TRACE_ENABLED {
                stats.trace_task_span(
                    w + 1,
                    EventName::TaskEdge,
                    t0,
                    r1,
                    cc.edge_task_weight(r1 as usize),
                    claim.stolen,
                    claim.home,
                );
                let burst = retries - retries_before;
                if burst > 0 {
                    stats.trace_instant(
                        w + 1,
                        EventName::UfCasRetries,
                        [r1, burst.min(u32::MAX as u64) as u32],
                    );
                }
            }
            if let Err(payload) = task {
                stats.trace_instant(w + 1, EventName::WorkerPanic, [r1, 0]);
                poison.record("edge_tests", r1, payload);
                break;
            }
            if ctl.armed() {
                ctl.stage_done(StageId::EdgeTests, 1);
            }
        }
        hb.mark_done(w);
        if S::ENABLED {
            stats.add(Counter::EdgeTests, tests);
            stats.add(Counter::EdgeTestsSkipped, skipped);
            stats.add(Counter::EdgesFound, edges);
            stats.add(Counter::UnionOps, edges);
            stats.add(Counter::UfCasRetries, retries);
            stats.add(Counter::TasksStolen, stolen);
            union_nanos.fetch_add(unions_ns, Ordering::Relaxed);
        }
    });
    check_poison(&poison, "edge_tests", stats)?;
    let uf = UnionFind::from_parents(cuf.into_parents());
    if let Some(start) = span {
        // Same three-way split as the sequential connect loop (see
        // `connect_core_cells_instrumented`): lazy builds and unions are
        // carved out of the stage span, capped so the named phases can never
        // sum past it even when summed per-worker time exceeds wall clock.
        let total = start.elapsed().as_nanos() as u64;
        let builds = build_nanos.load(Ordering::Relaxed).min(total);
        let unions = union_nanos.load(Ordering::Relaxed).min(total - builds);
        let edge = total - builds - unions;
        stats.add_phase_nanos(Phase::UnionFind, unions);
        stats.add_phase_nanos(Phase::StructureBuild, builds);
        stats.add_phase_nanos(Phase::EdgeTests, edge);
        if S::TRACE_ENABLED {
            stats.trace_connect_spans(start, edge, unions, builds);
        }
    }
    Ok(uf)
}

/// Assembles the clustering with parallel border assignment: workers claim
/// grid cells (weighted by point count) and classify each cell's non-core
/// points. [`Phase::BorderAssign`], like the sequential assembler.
fn assemble_par<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
    pool: &WorkerPool,
    faults: &FaultPlan,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let threads = pool.threads();
    if threads <= 1 {
        // One worker gains nothing from the claim/steal machinery; run the
        // sequential assembler (same final assignments — border writes are
        // per-point independent). Mirrors the labeling fallback above; like
        // there, per-task fault injection does not fire on this path.
        return Ok(assemble_clustering_ctl(points, cc, uf, stats, ctl));
    }
    if ctl.armed() {
        // Core scatter always completes; the budgeted tasks are the border
        // cells (totals are per-path task counts: cells here, points on the
        // sequential path).
        ctl.stage_begin(StageId::BorderAssign, cc.grid.num_cells() as u64);
    }
    let span = stats.now();
    let (component_of_rank, num_clusters) = uf.compact_labels();
    let mut assignments = vec![Assignment::Noise; points.len()];
    for (rank, core_pts) in cc.core_points_of.iter().enumerate() {
        let cluster = component_of_rank[rank];
        for &p in core_pts {
            assignments[p as usize] = Assignment::Core(cluster);
        }
    }
    let queue = WorkQueue::new(cc.grid.cells().iter().map(|c| c.len() as u64), threads);
    let poison = Poison::new();
    let hb = Heartbeats::new(threads);
    // Per-worker buffers of (border point, adjacent cluster ids) pairs.
    type BorderOut = Vec<(u32, Vec<u32>)>;
    let slots: Vec<Mutex<BorderOut>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    run_pool_phase(
        pool,
        ctl,
        &hb,
        &poison,
        &queue,
        "border_assign",
        stats,
        |w| {
            let component_of_rank = &component_of_rank;
            let mut out = Vec::new();
            let mut stolen = 0u64;
            loop {
                if poison.is_poisoned() {
                    // cooperative drain after a peer's panic
                    stats.trace_instant(w + 1, EventName::PoisonTrip, [0, 0]);
                    queue.close();
                    break;
                }
                if ctl.should_stop() {
                    // budget tripped: close so peers stop claiming too
                    queue.close();
                    break;
                }
                let Some(claim) = queue.claim(w) else {
                    break;
                };
                hb.beat(w);
                let cell_id = claim.task;
                stolen += u64::from(claim.stolen);
                if claim.stolen {
                    stats.trace_instant(w + 1, EventName::Steal, [cell_id, claim.home as u32]);
                }
                faults.maybe_steal_delay(claim.stolen);
                let t0 = stats.trace_start();
                let task = catch_unwind(AssertUnwindSafe(|| {
                    faults.maybe_panic(FaultSite::BorderAssign, cell_id);
                    for &p in cc.grid.points_of(cell_id) {
                        if cc.is_core[p as usize] {
                            continue;
                        }
                        let clusters = assign_border_clusters(points, cc, component_of_rank, p);
                        if !clusters.is_empty() {
                            out.push((p, clusters));
                        }
                    }
                }));
                stats.trace_task_span(
                    w + 1,
                    EventName::TaskBorder,
                    t0,
                    cell_id,
                    cc.grid.cell_population(cell_id) as u64,
                    claim.stolen,
                    claim.home,
                );
                if let Err(payload) = task {
                    stats.trace_instant(w + 1, EventName::WorkerPanic, [cell_id, 0]);
                    poison.record("border_assign", cell_id, payload);
                    break;
                }
                if ctl.armed() {
                    ctl.stage_done(StageId::BorderAssign, 1);
                }
            }
            hb.mark_done(w);
            if S::ENABLED {
                stats.add(Counter::TasksStolen, stolen);
            }
            *slots[w].lock().unwrap_or_else(|e| e.into_inner()) = out;
        },
    );
    check_poison(&poison, "border_assign", stats)?;
    for slot in slots {
        for (p, clusters) in slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            assignments[p as usize] = Assignment::Border(clusters);
        }
    }
    stats.finish(Phase::BorderAssign, span);
    Ok(Clustering {
        assignments,
        num_clusters,
    })
}

/// Parallel version of [`crate::algorithms::grid_exact`] (the paper's exact
/// algorithm). `threads = None` defers to [`resolve_threads`] (the
/// [`THREADS_ENV`] variable, else all available cores). Produces the same
/// clustering as the sequential version.
pub fn grid_exact_par<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    threads: Option<usize>,
) -> Clustering {
    grid_exact_par_instrumented(points, params, threads, &NoStats)
}

/// [`grid_exact_par`] with an observability sink (see [`crate::stats`]).
///
/// Per-pair counters mirror the sequential algorithm's: kd-trees are built
/// lazily inside the fused edge stage ([`Counter::KdTreeBuilds`] on first
/// use via [`OnceLock`], [`Counter::TreeCacheHits`] after), so
/// [`Counter::TreeFallbackBrute`] is structurally zero — there is no prebuilt
/// set to fall outside of. With [`NoStats`] every recording site compiles
/// away.
pub fn grid_exact_par_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    threads: Option<usize>,
    stats: &S,
) -> Clustering {
    try_grid_exact_par_instrumented(points, params, &ParConfig::with_threads(threads), stats)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`grid_exact_par`] with the default [`ParConfig`] knobs
/// exposed.
pub fn try_grid_exact_par<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
) -> Result<Clustering, DbscanError> {
    try_grid_exact_par_instrumented(points, params, config, &NoStats)
}

/// Fallible twin of [`grid_exact_par_instrumented`]; the infallible entry
/// points delegate here. Under [`RecoveryPolicy::FallbackSequential`] a
/// worker panic is absorbed: the run is retried on the sequential exact
/// algorithm (recorded as [`Counter::SequentialFallbacks`]); any other error
/// — and a panic under [`RecoveryPolicy::Fail`] — is returned.
pub fn try_grid_exact_par_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
    stats: &S,
) -> Result<Clustering, DbscanError> {
    let ctl = RunCtl::new(&config.deadline);
    grid_exact_par_run(points, params, config, stats, &ctl)
}

/// Deadline-aware twin of [`try_grid_exact_par_instrumented`]: runs under
/// [`ParConfig::deadline`] and additionally returns the [`DeadlineReport`]
/// (outcome, degraded-edge count, measured cancellation latency, per-stage
/// progress).
pub fn try_grid_exact_par_deadline<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
    stats: &S,
) -> Result<(Clustering, DeadlineReport), DbscanError> {
    let ctl = RunCtl::new(&config.deadline);
    let out = grid_exact_par_run(points, params, config, stats, &ctl)?;
    Ok((out, ctl.report()))
}

/// Cancellation-aware parallel entry point taking an externally owned
/// [`RunCtl`], so a host (e.g. the service daemon) can interrupt or degrade
/// the run mid-flight. The sequential-fallback recovery path shares the same
/// `ctl`, so an interrupt lands regardless of which attempt is running.
pub fn try_grid_exact_par_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    grid_exact_par_run(points, params, config, stats, ctl)
}

fn grid_exact_par_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    match grid_exact_par_attempt(points, params, config, stats, ctl) {
        Err(DbscanError::WorkerPanicked { .. })
            if config.recovery == RecoveryPolicy::FallbackSequential =>
        {
            stats.bump(Counter::SequentialFallbacks);
            stats.trace_instant(0, EventName::SequentialFallback, [0, 0]);
            // The rerun shares the same RunCtl: whatever time budget remains
            // carries over, and the sequential pass re-declares its stage
            // totals via `stage_begin`.
            crate::algorithms::grid_exact_ctl(
                points,
                params,
                BcpStrategy::TreeAssisted,
                &config.limits,
                stats,
                ctl,
            )
        }
        other => other,
    }
}

fn grid_exact_par_attempt<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    precheck_degrade(points, params, ctl)?;
    let total = stats.now();
    let pool = resolve_pool(config);
    let cc = build_core_cells_par(points, params, &pool, config, stats, ctl)?;
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::Labeling));
    }
    let eps = params.eps();

    let trees: Vec<OnceLock<KdTree<D>>> =
        (0..cc.num_core_cells()).map(|_| OnceLock::new()).collect();
    let degrade_counters: Vec<OnceLock<ApproxRangeCounter<D>>> = if ctl.may_degrade() {
        (0..cc.num_core_cells()).map(|_| OnceLock::new()).collect()
    } else {
        Vec::new()
    };
    // Nanoseconds workers spend in lazy kd-tree builds, reported back to
    // `connect_par` so they land in Phase::StructureBuild (the sequential
    // path's `deferred` cell, made shareable across workers).
    let edge_builds = AtomicU64::new(0);
    let mut uf = connect_par(
        &cc,
        &pool,
        &config.faults,
        stats,
        ctl,
        &edge_builds,
        |r1, r2| {
            if ctl.edge_degraded() {
                ctl.note_degraded_edge();
                stats.bump(Counter::CounterDecisions);
                return crate::algorithms::degraded_edge_test_shared(
                    points,
                    &cc,
                    &degrade_counters,
                    ctl.degrade_rho(),
                    r1,
                    r2,
                    stats,
                );
            }
            // The same scan rungs as the sequential route; only a pair they
            // leave undecided builds a tree.
            if let Some(hit) = crate::algorithms::exact_edge_scan(&cc, r1, r2, stats) {
                return hit;
            }
            let (a, b) = (&cc.core_points_of[r1], &cc.core_points_of[r2]);
            // Probe the smaller side, tree on the larger (ties to the higher
            // rank) — the same designation the sequential lazy cache uses.
            let (probe, tree_rank) = if a.len() <= b.len() { (a, r2) } else { (b, r1) };
            // Cache-hit fast path: one `OnceLock::get` load and no clock
            // read, matching the cost of the sequential lazy cache's hit
            // branch. The clock is only touched when a build may happen.
            let tree = match trees[tree_rank].get() {
                Some(tree) => {
                    stats.bump(Counter::TreeCacheHits);
                    tree
                }
                None => {
                    let mut built = false;
                    let t0 = if S::ENABLED {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let tree = trees[tree_rank].get_or_init(|| {
                        built = true;
                        let ids = &cc.core_points_of[tree_rank];
                        KdTree::build_entries(
                            ids.iter().map(|&i| (points[i as usize], i)).collect(),
                        )
                    });
                    if built {
                        stats.bump(Counter::KdTreeBuilds);
                        if let Some(t0) = t0 {
                            edge_builds
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                    } else {
                        // Another worker won the init race between `get` and
                        // `get_or_init`; from this task's view it is a hit.
                        stats.bump(Counter::TreeCacheHits);
                    }
                    tree
                }
            };
            if S::ENABLED {
                let mut nodes = 0u64;
                let hit = bcp::within_threshold_tree_counted(points, probe, tree, eps, &mut nodes);
                stats.add(Counter::IndexNodesVisited, nodes);
                hit
            } else {
                bcp::within_threshold_tree(points, probe, tree, eps)
            }
        },
    )?;
    if S::ENABLED {
        // Mirrors the sequential accounting: cells whose lazy kd-tree was
        // never initialized by any worker finished on the blocked kernel.
        let unbuilt = trees.iter().filter(|t| t.get().is_none()).count();
        stats.add(Counter::BruteForceCells, unbuilt as u64);
    }
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::EdgeTests));
    }
    let out = assemble_par(points, &cc, &mut uf, &pool, &config.faults, stats, ctl)?;
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::BorderAssign));
    }
    stats.finish(Phase::Total, total);
    Ok(out)
}

/// Parallel version of [`crate::algorithms::rho_approx`] (ρ-approximate
/// DBSCAN). `threads = None` defers to [`resolve_threads`].
pub fn rho_approx_par<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    threads: Option<usize>,
) -> Clustering {
    rho_approx_par_instrumented(points, params, rho, threads, &NoStats)
}

/// [`rho_approx_par`] with an observability sink (see [`crate::stats`]).
///
/// Lemma 5 counters are built lazily inside the fused edge stage
/// ([`Counter::CounterBuilds`], one per cell that actually serves as the
/// count side of a reached pair — the same set the sequential lazy build
/// materializes, minus pairs the live short-circuit skips); edge tests record
/// [`Counter::CounterDecisions`], [`Counter::CounterQueries`], and
/// [`Counter::IndexNodesVisited`]. With [`NoStats`] every recording site
/// compiles away.
pub fn rho_approx_par_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    threads: Option<usize>,
    stats: &S,
) -> Clustering {
    try_rho_approx_par_instrumented(
        points,
        params,
        rho,
        &ParConfig::with_threads(threads),
        stats,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`rho_approx_par`] with the default [`ParConfig`] knobs
/// exposed.
pub fn try_rho_approx_par<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    config: &ParConfig,
) -> Result<Clustering, DbscanError> {
    try_rho_approx_par_instrumented(points, params, rho, config, &NoStats)
}

/// Fallible twin of [`rho_approx_par_instrumented`]; the infallible entry
/// points delegate here. Under [`RecoveryPolicy::FallbackSequential`] a
/// worker panic is absorbed by retrying on the sequential ρ-approximate
/// algorithm (recorded as [`Counter::SequentialFallbacks`]).
pub fn try_rho_approx_par_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    config: &ParConfig,
    stats: &S,
) -> Result<Clustering, DbscanError> {
    let ctl = RunCtl::new(&config.deadline);
    rho_approx_par_run(points, params, rho, config, stats, &ctl)
}

/// Deadline-aware twin of [`try_rho_approx_par_instrumented`]: runs under
/// [`ParConfig::deadline`] and additionally returns the [`DeadlineReport`].
/// A degraded run answers some edges at ρ and the rest at the configured
/// `degrade_rho` ρ′, so the result is a legal max(ρ, ρ′)-approximate
/// clustering.
pub fn try_rho_approx_par_deadline<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    config: &ParConfig,
    stats: &S,
) -> Result<(Clustering, DeadlineReport), DbscanError> {
    let ctl = RunCtl::new(&config.deadline);
    let out = rho_approx_par_run(points, params, rho, config, stats, &ctl)?;
    Ok((out, ctl.report()))
}

/// Cancellation-aware parallel ρ-approximate entry point; see
/// [`try_grid_exact_par_ctl`] for the contract.
pub fn try_rho_approx_par_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    rho_approx_par_run(points, params, rho, config, stats, ctl)
}

fn rho_approx_par_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    match rho_approx_par_attempt(points, params, rho, config, stats, ctl) {
        Err(DbscanError::WorkerPanicked { .. })
            if config.recovery == RecoveryPolicy::FallbackSequential =>
        {
            stats.bump(Counter::SequentialFallbacks);
            stats.trace_instant(0, EventName::SequentialFallback, [0, 0]);
            // Shares the RunCtl with the failed attempt — remaining budget
            // carries over (see `grid_exact_par_run`).
            crate::algorithms::rho_approx_ctl(points, params, rho, &config.limits, stats, ctl)
        }
        other => other,
    }
}

fn rho_approx_par_attempt<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    validate_rho(params.eps(), rho)?;
    precheck_degrade(points, params, ctl)?;
    let total = stats.now();
    let pool = resolve_pool(config);
    let cc = build_core_cells_par(points, params, &pool, config, stats, ctl)?;
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::Labeling));
    }
    // Same leaf-level representability and counter-budget pre-checks as the
    // sequential try path, so the lazy in-loop builds stay infallible.
    let leaf_side = base_side::<D>(params.eps()) / (1u64 << (hierarchy_levels(rho) - 1)) as f64;
    crate::validate::check_cell_range(points, leaf_side)?;
    if let Some(budget) = config.limits.max_index_bytes {
        let estimated =
            dbscan_index::counter::estimated_build_bytes::<D>(cc.num_core_points(), rho);
        if estimated > budget {
            return Err(DbscanError::ResourceLimit {
                structure: "approximate range counters",
                estimated_bytes: estimated,
                budget_bytes: budget,
            });
        }
    }

    let counters: Vec<OnceLock<ApproxRangeCounter<D>>> =
        (0..cc.num_core_cells()).map(|_| OnceLock::new()).collect();
    // A second counter set at `degrade_rho` for edges answered after a
    // degrade trip (distinct from the ρ counters above).
    let degrade_counters: Vec<OnceLock<ApproxRangeCounter<D>>> = if ctl.may_degrade() {
        (0..cc.num_core_cells()).map(|_| OnceLock::new()).collect()
    } else {
        Vec::new()
    };
    // Lazy Lemma 5 counter builds report their nanoseconds here so the bench
    // phase columns stay comparable with the sequential path (whose
    // structure_build dominates the ρ-approximate profile).
    let edge_builds = AtomicU64::new(0);
    let mut uf = connect_par(
        &cc,
        &pool,
        &config.faults,
        stats,
        ctl,
        &edge_builds,
        |r1, r2| {
            stats.bump(Counter::CounterDecisions);
            if ctl.edge_degraded() {
                ctl.note_degraded_edge();
                return crate::algorithms::degraded_edge_test_shared(
                    points,
                    &cc,
                    &degrade_counters,
                    ctl.degrade_rho(),
                    r1,
                    r2,
                    stats,
                );
            }
            let (probe, count_side) = crate::algorithms::counter_sides(&cc, r1, r2);
            // Same cache-hit fast path as the exact closure: no clock read
            // unless this task may perform the build.
            let counter = match counters[count_side].get() {
                Some(counter) => counter,
                None => {
                    let mut built = false;
                    let t0 = if S::ENABLED {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let counter = counters[count_side].get_or_init(|| {
                        built = true;
                        crate::algorithms::build_cell_counter(points, &cc, count_side, rho)
                    });
                    if built {
                        stats.bump(Counter::CounterBuilds);
                        if let Some(t0) = t0 {
                            edge_builds
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                    }
                    counter
                }
            };
            crate::algorithms::probe_cell_counter(points, &cc, probe, counter, stats)
        },
    )?;
    if S::ENABLED {
        // Approximate analogue of the exact path's accounting: cells whose
        // Lemma 5 counter no worker ever initialized.
        let unbuilt = counters.iter().filter(|c| c.get().is_none()).count();
        stats.add(Counter::BruteForceCells, unbuilt as u64);
    }
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::EdgeTests));
    }
    let out = assemble_par(points, &cc, &mut uf, &pool, &config.faults, stats, ctl)?;
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::BorderAssign));
    }
    stats.finish(Phase::Total, total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{grid_exact, grid_exact_instrumented, rho_approx, BcpStrategy};
    use crate::cells::{assemble_clustering, connect_core_cells};
    use crate::labeling::label_core_points;
    use crate::stats::Stats;
    use dbscan_geom::point::p2;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    fn lcg_points(n: usize, span: f64, seed: u64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * span
        };
        (0..n).map(|_| p2(next(), next())).collect()
    }

    /// `n` points along the rising diagonal of grid cell `(cx, 0)` for
    /// ε = 1 (side 1/√2), inset 5% and 10% from its corners. Diagonals in
    /// cells `(cx, 0)` and `(cx + 2, 0)` are ε-neighbors whose box filter
    /// keeps about a third of each side, yet every cross pair is at least
    /// √1.0225 apart, so the budgeted probe runs dry and the pair needs the
    /// kd-tree.
    fn cell_diagonal(n: usize, cx: i32) -> Vec<Point<2>> {
        let side = std::f64::consts::FRAC_1_SQRT_2;
        (0..n)
            .map(|i| {
                let t = side * (0.05 + 0.85 * i as f64 / (n - 1) as f64);
                p2(f64::from(cx) * side + t, t)
            })
            .collect()
    }

    #[test]
    fn resolve_threads_explicit_zero_and_none() {
        let all = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1)), 1);
        // 0 means "all cores", not "clamp to one".
        assert_eq!(resolve_threads(Some(0)), all);
        // None defers to the environment / all cores; with the env var unset
        // in the test harness this is all cores. (The DBSCAN_THREADS path is
        // exercised through the CLI integration tests — a separate process —
        // because mutating the environment races with other test threads.)
        if std::env::var(THREADS_ENV).is_err() {
            assert_eq!(resolve_threads(None), all);
        }
    }

    #[test]
    fn parallel_exact_matches_sequential() {
        for seed in [1u64, 2] {
            let pts = lcg_points(1_500, 30.0, seed);
            for (eps, min_pts) in [(1.0, 4), (2.5, 10)] {
                let p = params(eps, min_pts);
                let seq = grid_exact(&pts, p);
                for threads in [1, 2, 4, 7] {
                    let par = grid_exact_par(&pts, p, Some(threads));
                    assert_eq!(
                        par.assignments, seq.assignments,
                        "threads={threads} seed={seed}"
                    );
                    assert_eq!(par.num_clusters, seq.num_clusters);
                }
            }
        }
    }

    #[test]
    fn parallel_approx_matches_sequential() {
        let pts = lcg_points(1_500, 30.0, 3);
        let p = params(1.5, 5);
        for rho in [0.001, 0.1] {
            let seq = rho_approx(&pts, p, rho);
            let par = rho_approx_par(&pts, p, rho, Some(4));
            assert_eq!(par.assignments, seq.assignments, "rho={rho}");
        }
    }

    #[test]
    fn parallel_labeling_matches_sequential() {
        let pts = lcg_points(2_000, 40.0, 9);
        let p = params(1.0, 5);
        let grid = GridIndex::build(&pts, p.eps());
        let seq = label_core_points(&pts, &grid, p);
        for threads in [2, 3, 8] {
            assert_eq!(
                label_core_points_par(
                    &pts,
                    &grid,
                    p,
                    &WorkerPool::global(threads),
                    &FaultPlan::default(),
                    &NoStats,
                    &RunCtl::unlimited()
                )
                .unwrap(),
                seq
            );
        }
    }

    #[test]
    fn parallel_connect_matches_sequential_components() {
        let pts = lcg_points(1_000, 20.0, 5);
        let p = params(1.2, 4);
        let cc = CoreCells::build(&pts, p);
        let edge = |r1: usize, r2: usize| {
            bcp::within_threshold_brute(
                &pts,
                &cc.core_points_of[r1],
                &cc.core_points_of[r2],
                p.eps(),
            )
        };
        let mut seq_uf = connect_core_cells(&cc, edge);
        let mut par_uf = connect_par(
            &cc,
            &WorkerPool::global(4),
            &FaultPlan::default(),
            &NoStats,
            &RunCtl::unlimited(),
            &AtomicU64::new(0),
            edge,
        )
        .unwrap();
        let seq = assemble_clustering(&pts, &cc, &mut seq_uf);
        let par = assemble_clustering(&pts, &cc, &mut par_uf);
        assert_eq!(seq.assignments, par.assignments);
    }

    /// The fused stage restores the sequential path's two key counter
    /// properties: the candidate-pair enumeration is identical (EdgeTests
    /// agree exactly) and the live union-find short-circuit fires
    /// (EdgeTestsSkipped > 0), while lazy tree builds via `OnceLock` make the
    /// prebuild fallback structurally impossible.
    #[test]
    fn fused_edge_stage_skips_and_matches_sequential_counters() {
        // Dense blob (cells far above the brute-force product limit — with
        // the raised 16384 crossover that needs ~130+ core points per cell)
        // plus a sparse fringe (cells below it), so both scan rungs fire;
        // the blob's pairs are all decided before the tree. Two diagonals
        // far from both pass the box filter and the probe, so the tree
        // route fires too.
        let mut pts = lcg_points(6_000, 4.0, 11);
        pts.extend(lcg_points(2_000, 30.0, 12));
        pts.extend(cell_diagonal(800, 200));
        pts.extend(cell_diagonal(800, 202));
        let p = params(1.0, 4);

        let seq_stats = Stats::new();
        let seq = grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &seq_stats);
        let par_stats = Stats::new();
        let par = grid_exact_par_instrumented(&pts, p, Some(4), &par_stats);
        assert_eq!(seq.assignments, par.assignments);

        let sr = seq_stats.report();
        let pr = par_stats.report();
        assert!(
            pr.counter(Counter::TreeProbeDecisions) > 0,
            "test data must exercise the tree route"
        );
        assert!(
            pr.counter(Counter::BruteForceDecisions) > 0,
            "test data must exercise the brute route"
        );
        // Both paths enumerate the identical candidate-pair set...
        assert_eq!(
            sr.counter(Counter::EdgeTests),
            pr.counter(Counter::EdgeTests)
        );
        // ...and the parallel path prunes it through live connectivity.
        assert!(pr.counter(Counter::EdgeTestsSkipped) > 0);
        // Trees are built lazily on first use; no prebuild set to miss.
        assert_eq!(pr.counter(Counter::TreeFallbackBrute), 0);
        assert!(pr.counter(Counter::KdTreeBuilds) > 0);
        // Every union attempt stems from a discovered edge.
        assert_eq!(
            pr.counter(Counter::UnionOps),
            pr.counter(Counter::EdgesFound)
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(
            grid_exact_par::<2>(&[], params(1.0, 2), Some(4)).num_clusters,
            0
        );
        let one = rho_approx_par(&[p2(0.0, 0.0)], params(1.0, 1), 0.01, Some(16));
        assert_eq!(one.num_clusters, 1);
    }
}
