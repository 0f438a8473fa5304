//! The five DBSCAN algorithms evaluated in the paper.
//!
//! All exact algorithms ([`kdd96`], [`gunawan_2d`], [`grid_exact`], [`cit08`])
//! compute the unique clustering of Problem 1 and differ only in running time;
//! [`rho_approx`] computes a legal ρ-approximate clustering (Problem 2) under the
//! sandwich guarantee of Theorem 3.

mod cit08;
mod grid_exact;
mod gunawan2d;
pub(crate) mod kdd96;
mod rho_approx;

pub use cit08::{
    cit08, cit08_instrumented, try_cit08, try_cit08_ctl, try_cit08_deadline,
    try_cit08_instrumented, Cit08Config,
};
pub use grid_exact::{
    grid_exact, grid_exact_instrumented, grid_exact_with, try_grid_exact, try_grid_exact_ctl,
    try_grid_exact_deadline, try_grid_exact_from_cells_ctl, try_grid_exact_instrumented,
    try_grid_exact_with, BcpStrategy,
};
pub use gunawan2d::{
    gunawan_2d, gunawan_2d_instrumented, try_gunawan_2d, try_gunawan_2d_ctl,
    try_gunawan_2d_deadline, try_gunawan_2d_instrumented,
};
pub use kdd96::{
    kdd96, kdd96_instrumented, kdd96_kdtree, kdd96_kdtree_instrumented, kdd96_linear,
    kdd96_linear_instrumented, kdd96_rtree, kdd96_rtree_instrumented, try_kdd96,
    try_kdd96_instrumented, try_kdd96_kdtree, try_kdd96_kdtree_ctl, try_kdd96_kdtree_deadline,
    try_kdd96_kdtree_instrumented, try_kdd96_linear, try_kdd96_rtree, try_kdd96_rtree_instrumented,
};
pub use rho_approx::{
    rho_approx, rho_approx_instrumented, try_rho_approx, try_rho_approx_ctl,
    try_rho_approx_deadline, try_rho_approx_from_cells_ctl, try_rho_approx_instrumented,
};

// The ctl-threaded sequential bodies, for the parallel layer's
// budget-sharing sequential fallback.
pub(crate) use grid_exact::grid_exact_ctl;
pub(crate) use rho_approx::rho_approx_ctl;

use crate::bcp;
use crate::cells::CoreCells;
use crate::stats::{Counter, StatsSink};
use dbscan_geom::Point;
use dbscan_index::ApproxRangeCounter;
use std::cell::Cell as StdCell;
use std::sync::OnceLock;
use std::time::Instant;

/// The scan rungs of the exact edge test of `(r1, r2)`, shared by the
/// sequential and pooled edge closures: box filter, blocked scan and
/// budgeted probe ([`bcp::within_threshold_filtered`]). `Some(hit)` is the
/// decision, counted as a brute-force decision; `None` means the caller must
/// decide the pair on its cached kd-tree, and is counted as a tree-probe
/// decision.
pub(crate) fn exact_edge_scan<const D: usize, S: StatsSink>(
    cc: &CoreCells<D>,
    r1: usize,
    r2: usize,
    stats: &S,
) -> Option<bool> {
    let mut kernel_calls = 0u64;
    let decided = bcp::within_threshold_filtered(
        &cc.core_block(r1),
        &cc.core_block(r2),
        &cc.core_box[r2],
        cc.params.eps(),
        &mut kernel_calls,
    );
    stats.add(Counter::BlockKernelCalls, kernel_calls);
    stats.bump(if decided.is_some() {
        Counter::BruteForceDecisions
    } else {
        Counter::TreeProbeDecisions
    });
    decided
}

/// Orders the core cells of edge `(r1, r2)` as `(probe, count_side)`: the
/// smaller cell probes the Lemma 5 counter built over the larger one.
pub(crate) fn counter_sides<const D: usize>(
    cc: &CoreCells<D>,
    r1: usize,
    r2: usize,
) -> (usize, usize) {
    if cc.core_points_of[r1].len() <= cc.core_points_of[r2].len() {
        (r1, r2)
    } else {
        (r2, r1)
    }
}

/// Builds the Lemma 5 counter at `rho` over the core points of core cell
/// `rank`.
pub(crate) fn build_cell_counter<const D: usize>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    rank: usize,
    rho: f64,
) -> ApproxRangeCounter<D> {
    let pts: Vec<Point<D>> = cc.core_points_of[rank]
        .iter()
        .map(|&i| points[i as usize])
        .collect();
    ApproxRangeCounter::build(&pts, cc.params.eps(), rho)
}

/// The counter edge test: whether some core point of cell `probe` has a
/// positive approximate count in `counter`. With stats enabled, counts the
/// queries and the hierarchy cells they visit.
pub(crate) fn probe_cell_counter<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    probe: usize,
    counter: &ApproxRangeCounter<D>,
    stats: &S,
) -> bool {
    if S::ENABLED {
        let mut visited = 0u64;
        let mut queries = 0u64;
        let hit = cc.core_points_of[probe].iter().any(|&p| {
            queries += 1;
            counter.query_positive_counted(&points[p as usize], &mut visited)
        });
        stats.add(Counter::CounterQueries, queries);
        stats.add(Counter::IndexNodesVisited, visited);
        hit
    } else {
        cc.core_points_of[probe]
            .iter()
            .any(|&p| counter.query_positive(&points[p as usize]))
    }
}

/// The counter edge test of the sequential paths: decide the `(r1, r2)` edge
/// with a Lemma 5 approximate counter at `rho`, built lazily over the larger
/// cell's core points (its build time added to `deferred`) and probed with
/// the smaller cell's. The ρ-approximate algorithm's edge rule at its own
/// `rho`, and the degraded edge test of the sequential deadline paths at the
/// configured `degrade_rho`. Sharing the mechanics is what makes a mixed
/// exact/degraded run a valid ρ′-approximate clustering under the Sandwich
/// Theorem.
#[allow(clippy::too_many_arguments)] // mirrors the exact edge-closure signature
pub(crate) fn counter_edge_test<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    counters: &mut [Option<ApproxRangeCounter<D>>],
    rho: f64,
    r1: usize,
    r2: usize,
    stats: &S,
    deferred: &StdCell<u64>,
) -> bool {
    let (probe, count_side) = counter_sides(cc, r1, r2);
    if S::ENABLED && counters[count_side].is_none() {
        stats.bump(Counter::CounterBuilds);
        let t = Instant::now();
        counters[count_side] = Some(build_cell_counter(points, cc, count_side, rho));
        deferred.set(deferred.get() + t.elapsed().as_nanos() as u64);
    }
    let counter =
        counters[count_side].get_or_insert_with(|| build_cell_counter(points, cc, count_side, rho));
    probe_cell_counter(points, cc, probe, counter, stats)
}

/// [`counter_edge_test`] over `OnceLock` slots, for the `Fn + Sync` closures
/// of the parallel edge phase's degraded edges (racing builds are possible;
/// the losing build is dropped, and both are deterministic functions of the
/// cell's points).
pub(crate) fn degraded_edge_test_shared<const D: usize, S: StatsSink + Sync>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    counters: &[OnceLock<ApproxRangeCounter<D>>],
    rho: f64,
    r1: usize,
    r2: usize,
    stats: &S,
) -> bool {
    let (probe, count_side) = counter_sides(cc, r1, r2);
    let counter = counters[count_side].get_or_init(|| {
        if S::ENABLED {
            stats.bump(Counter::CounterBuilds);
        }
        build_cell_counter(points, cc, count_side, rho)
    });
    probe_cell_counter(points, cc, probe, counter, stats)
}
