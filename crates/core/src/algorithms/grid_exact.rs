//! "OurExact" — the paper's exact algorithm for any fixed d ≥ 3 (Section 3.2,
//! Theorem 2), which also subsumes the 2D case.
//!
//! Grid of side `ε/√d`; vertices of `G` are core cells; an edge `(c₁, c₂)` exists
//! iff the bichromatic closest pair between the cells' core points is within ε.
//! Clusters are the connected components of `G` (Lemma 1); border points are
//! assigned afterwards.

use crate::bcp;
use crate::cells::{assemble_clustering_ctl, connect_core_cells_ctl, CoreCells};
use crate::deadline::{precheck_degrade, DeadlineConfig, DeadlineReport, RunCtl, StageId};
use crate::error::{DbscanError, ResourceLimits};
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::types::{Clustering, DbscanParams};
use dbscan_geom::Point;
use dbscan_index::{ApproxRangeCounter, KdTree};
use std::cell::Cell as StdCell;
use std::time::Instant;

/// Exact DBSCAN via grid + BCP (the paper's Theorem 2 algorithm).
///
/// The theoretical BCP routine of Agarwal et al. is replaced by an early-exit
/// predicate: small cell pairs use a brute-force scan; large ones are first
/// filtered by each other's bounding box and scanned, and only a pair still
/// undecided probes a lazily built (and cached) kd-tree over the bigger
/// cell's core points.
///
/// ```
/// use dbscan_core::{DbscanParams, algorithms::grid_exact};
/// use dbscan_geom::Point;
///
/// let pts = vec![
///     Point([0.0, 0.0]), Point([0.5, 0.0]), Point([0.0, 0.5]), // a cluster
///     Point([9.0, 9.0]),                                       // an outlier
/// ];
/// let c = grid_exact(&pts, DbscanParams::new(1.0, 3).unwrap());
/// assert_eq!(c.num_clusters, 1);
/// assert!(c.assignments[0].is_core());
/// assert!(c.assignments[3].is_noise());
/// ```
pub fn grid_exact<const D: usize>(points: &[Point<D>], params: DbscanParams) -> Clustering {
    grid_exact_with(points, params, BcpStrategy::TreeAssisted)
}

/// How the BCP edge predicate between two core cells is evaluated.
///
/// The ablation matters for interpreting the paper's Figure 11/12: its exact
/// algorithm's cost is dominated by the BCP computations, and the quality of
/// the BCP routine moves the exact/approximate crossover. See EXPERIMENTS.md.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BcpStrategy {
    /// Early-exit brute force for small pairs; for large ones a bounding-box
    /// filter, then brute force or a budgeted probe, then cached kd-tree
    /// probing (this crate's substitute for Agarwal et al.'s BCP; see
    /// [`crate::bcp`]).
    #[default]
    TreeAssisted,
    /// Early-exit brute force for every pair — no trees, but the scan stops at
    /// the first pair within ε.
    BruteForceOnly,
    /// Compute the full bichromatic closest pair of every ε-neighbor core-cell
    /// pair (tree-assisted) and only then compare it against ε — Section 3.2
    /// runs a BCP algorithm as a black box, so there is no threshold early exit.
    FullBcp,
    /// Like [`BcpStrategy::FullBcp`] but with the quadratic pairwise scan as
    /// the BCP routine: the most pessimistic legitimate implementation, and
    /// the closest to the cost profile behind the paper's measured OurExact
    /// curves (see EXPERIMENTS.md).
    FullBruteBcp,
}

/// [`grid_exact`] with an explicit [`BcpStrategy`]. Both strategies return the
/// identical (unique) clustering; only the running time differs.
pub fn grid_exact_with<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
) -> Clustering {
    grid_exact_instrumented(points, params, strategy, &NoStats)
}

/// [`grid_exact_with`] with an observability sink (see [`crate::stats`]).
///
/// Records per-phase wall times plus the edge-test decision counters: how many
/// candidate pairs went through early-exit brute force, tree probing (with
/// cache hits and lazy builds), or full BCP. With [`NoStats`] every recording
/// site compiles away and this is exactly the uninstrumented algorithm.
pub fn grid_exact_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
    stats: &S,
) -> Clustering {
    try_grid_exact_instrumented(points, params, strategy, &ResourceLimits::UNLIMITED, stats)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`grid_exact`]: returns a typed [`DbscanError`] for
/// non-finite coordinates or unrepresentable cell indices instead of
/// panicking.
pub fn try_grid_exact<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
) -> Result<Clustering, DbscanError> {
    try_grid_exact_with(points, params, BcpStrategy::TreeAssisted)
}

/// Fallible twin of [`grid_exact_with`].
pub fn try_grid_exact_with<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
) -> Result<Clustering, DbscanError> {
    try_grid_exact_instrumented(
        points,
        params,
        strategy,
        &ResourceLimits::UNLIMITED,
        &NoStats,
    )
}

/// Fallible twin of [`grid_exact_instrumented`]: validates the input and
/// enforces `limits`' index-build byte budget, returning a typed
/// [`DbscanError`] instead of panicking. The infallible entry points all
/// delegate here.
pub fn try_grid_exact_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
    limits: &ResourceLimits,
    stats: &S,
) -> Result<Clustering, DbscanError> {
    grid_exact_ctl(
        points,
        params,
        strategy,
        limits,
        stats,
        &RunCtl::unlimited(),
    )
}

/// Deadline-aware entry point: runs [`try_grid_exact_instrumented`] under the
/// given [`DeadlineConfig`] and additionally returns the [`DeadlineReport`]
/// describing how the budget played out. Under `degrade` the edge tests that
/// run after the budget expires switch to Lemma 5 approximate counting at
/// `degrade_rho` (see the module docs of [`crate::deadline`] for why the
/// mixed result is still a valid ρ′-approximate clustering).
pub fn try_grid_exact_deadline<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
    limits: &ResourceLimits,
    deadline: &DeadlineConfig,
    stats: &S,
) -> Result<(Clustering, DeadlineReport), DbscanError> {
    let ctl = RunCtl::new(deadline);
    let out = grid_exact_ctl(points, params, strategy, limits, stats, &ctl)?;
    Ok((out, ctl.report()))
}

/// Job-boundary twin of [`try_grid_exact_instrumented`] that runs under a
/// caller-owned [`RunCtl`], so long-lived front ends (the CLI's signal
/// handling, the server's `cancel` verb) can trip the run externally and
/// read the [`DeadlineReport`](crate::DeadlineReport) via
/// [`RunCtl::report`] afterwards.
pub fn try_grid_exact_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
    limits: &ResourceLimits,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    grid_exact_ctl(points, params, strategy, limits, stats, ctl)
}

/// Runs the edge and assembly phases over a *prebuilt* [`CoreCells`] — the
/// cache fast path of the service tier: a repeat query over the same
/// `(dataset, eps, min_pts)` skips the grid build and labeling entirely and
/// lands on the identical clustering (the cells fully determine it). The
/// cells must have been built over exactly `points`; a length mismatch is
/// refused with [`DbscanError::IndexSizeMismatch`].
pub fn try_grid_exact_from_cells_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cells: &CoreCells<D>,
    strategy: BcpStrategy,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    if cells.is_core.len() != points.len() {
        return Err(DbscanError::IndexSizeMismatch {
            index_len: cells.is_core.len(),
            points_len: points.len(),
        });
    }
    let params = cells.params;
    precheck_degrade(points, params, ctl)?;
    let total = stats.now();
    grid_exact_finish(points, cells, params, strategy, stats, ctl, total)
}

pub(crate) fn grid_exact_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
    limits: &ResourceLimits,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    precheck_degrade(points, params, ctl)?;
    let total = stats.now();
    let cc = CoreCells::try_build_ctl(points, params, limits, stats, ctl)?;
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::Labeling));
    }
    grid_exact_finish(points, &cc, params, strategy, stats, ctl, total)
}

/// The post-build phases shared by [`grid_exact_ctl`] (fresh cells) and
/// [`try_grid_exact_from_cells_ctl`] (cached cells): BCP edge tests over the
/// core-cell graph, then border assignment. `total` is the caller's
/// [`Phase::Total`] start mark, so a cached run's total covers exactly the
/// work it did.
#[allow(clippy::too_many_arguments)]
fn grid_exact_finish<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    params: DbscanParams,
    strategy: BcpStrategy,
    stats: &S,
    ctl: &RunCtl,
    total: Option<Instant>,
) -> Result<Clustering, DbscanError> {
    let eps = params.eps();

    // Lazily cache one kd-tree per core cell; only cells that participate in a
    // large pair ever pay for a build. Build time spent inside the edge loop is
    // reported through `deferred` so it lands in Phase::StructureBuild.
    let deferred = StdCell::new(0u64);
    let mut trees: Vec<Option<KdTree<D>>> = (0..cc.num_core_cells()).map(|_| None).collect();
    let mut degrade_counters: Vec<Option<ApproxRangeCounter<D>>> = if ctl.may_degrade() {
        (0..cc.num_core_cells()).map(|_| None).collect()
    } else {
        Vec::new()
    };
    let mut uf = connect_core_cells_ctl(cc, stats, &deferred, ctl, |r1, r2| {
        if ctl.edge_degraded() {
            ctl.note_degraded_edge();
            stats.bump(Counter::CounterDecisions);
            return crate::algorithms::counter_edge_test(
                points,
                cc,
                &mut degrade_counters,
                ctl.degrade_rho(),
                r1,
                r2,
                stats,
                &deferred,
            );
        }
        let (a, b) = (&cc.core_points_of[r1], &cc.core_points_of[r2]);
        match strategy {
            BcpStrategy::FullBcp => {
                stats.bump(Counter::FullBcpDecisions);
                return bcp::closest_pair(points, a, b).is_some_and(|(_, _, d)| d <= eps * eps);
            }
            BcpStrategy::FullBruteBcp => {
                stats.bump(Counter::FullBcpDecisions);
                return bcp::closest_pair_brute(points, a, b)
                    .is_some_and(|(_, _, d)| d <= eps * eps);
            }
            BcpStrategy::TreeAssisted | BcpStrategy::BruteForceOnly => {}
        }
        if strategy == BcpStrategy::BruteForceOnly {
            stats.bump(Counter::BruteForceDecisions);
            stats.bump(Counter::BlockKernelCalls);
            return bcp::within_threshold_blocks(&cc.core_block(r1), &cc.core_block(r2), eps);
        }
        // Box filter, blocked scan, budgeted probe; only a pair none of them
        // decides pays for the tree route below.
        if let Some(hit) = crate::algorithms::exact_edge_scan(cc, r1, r2, stats) {
            return hit;
        }
        let (probe, tree_rank, tree_pts) = if a.len() <= b.len() {
            (a, r2, b)
        } else {
            (b, r1, a)
        };
        if S::ENABLED {
            if trees[tree_rank].is_some() {
                stats.bump(Counter::TreeCacheHits);
            } else {
                stats.bump(Counter::KdTreeBuilds);
                let t = Instant::now();
                trees[tree_rank] = Some(KdTree::build_entries(
                    tree_pts.iter().map(|&i| (points[i as usize], i)).collect(),
                ));
                deferred.set(deferred.get() + t.elapsed().as_nanos() as u64);
            }
            let tree = trees[tree_rank].as_ref().unwrap();
            let mut nodes = 0u64;
            let hit = bcp::within_threshold_tree_counted(points, probe, tree, eps, &mut nodes);
            stats.add(Counter::IndexNodesVisited, nodes);
            hit
        } else {
            let tree = trees[tree_rank].get_or_insert_with(|| {
                KdTree::build_entries(tree_pts.iter().map(|&i| (points[i as usize], i)).collect())
            });
            bcp::within_threshold_tree(points, probe, tree, eps)
        }
    });
    if S::ENABLED {
        // Core cells whose kd-tree was never needed: with the raised
        // brute-force crossover this is the usual case, and it is the
        // counterpart of the shrinking structure_build phase.
        let unbuilt = trees.iter().filter(|t| t.is_none()).count();
        stats.add(Counter::BruteForceCells, unbuilt as u64);
    }
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::EdgeTests));
    }
    let out = assemble_clustering_ctl(points, cc, &mut uf, stats, ctl);
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::BorderAssign));
    }
    stats.finish(Phase::Total, total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::{p2, p3};

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    #[test]
    fn empty_input() {
        let c = grid_exact::<2>(&[], params(1.0, 2));
        assert_eq!(c.num_clusters, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn single_point_is_noise_unless_min_pts_one() {
        let pts = vec![p2(0.0, 0.0)];
        assert!(grid_exact(&pts, params(1.0, 2)).assignments[0].is_noise());
        let c = grid_exact(&pts, params(1.0, 1));
        assert!(c.assignments[0].is_core());
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn two_separated_blobs() {
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(p2(i as f64 * 0.1, 0.0));
        }
        for i in 0..5 {
            pts.push(p2(100.0 + i as f64 * 0.1, 0.0));
        }
        let c = grid_exact(&pts, params(0.5, 3));
        c.validate().unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.noise_count(), 0);
        // Points in the same blob share a cluster; across blobs they differ.
        let l = c.flat_labels();
        assert_eq!(l[0], l[4]);
        assert_eq!(l[5], l[9]);
        assert_ne!(l[0], l[5]);
    }

    #[test]
    fn chain_spanning_many_cells_is_one_cluster() {
        // A long chain with gaps just under ε: the "chained effect" of Section 1.
        let pts: Vec<Point<2>> = (0..100).map(|i| p2(i as f64 * 0.95, 0.0)).collect();
        let c = grid_exact(&pts, params(1.0, 2));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.core_count(), 100);
    }

    #[test]
    fn chain_with_one_gap_splits() {
        let mut pts: Vec<Point<2>> = (0..50).map(|i| p2(i as f64 * 0.95, 0.0)).collect();
        pts.extend((0..50).map(|i| p2(60.0 + i as f64 * 0.95, 0.0)));
        let c = grid_exact(&pts, params(1.0, 2));
        assert_eq!(c.num_clusters, 2);
    }

    #[test]
    fn works_in_3d() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(p3(i as f64 * 0.5, 0.0, 0.0));
            pts.push(p3(0.0, 20.0 + i as f64 * 0.5, 0.0));
        }
        pts.push(p3(50.0, 50.0, 50.0));
        let c = grid_exact(&pts, params(1.0, 3));
        c.validate().unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.noise_count(), 1);
    }

    #[test]
    fn bcp_strategies_agree() {
        let mut pts: Vec<Point<2>> = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                pts.push(p2(i as f64 * 0.3, j as f64 * 0.3));
            }
        }
        pts.push(p2(100.0, 100.0));
        let p = params(0.5, 5);
        let a = grid_exact_with(&pts, p, BcpStrategy::TreeAssisted);
        let b = grid_exact_with(&pts, p, BcpStrategy::BruteForceOnly);
        let c = grid_exact_with(&pts, p, BcpStrategy::FullBcp);
        let d = grid_exact_with(&pts, p, BcpStrategy::FullBruteBcp);
        assert_eq!(a.assignments, d.assignments);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.assignments, c.assignments);
        assert_eq!(a.num_clusters, b.num_clusters);
    }

    #[test]
    fn all_identical_points() {
        // The adversarial instance of footnote 1: everything within ε of
        // everything. Must be one cluster, and must terminate fast.
        let pts = vec![p2(1.0, 1.0); 500];
        let c = grid_exact(&pts, params(1.0, 100));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.core_count(), 500);
    }
}
