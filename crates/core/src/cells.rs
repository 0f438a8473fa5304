//! Core cells, the core-cell graph `G`, and cluster assembly — the skeleton
//! shared by Gunawan's 2D algorithm, the paper's exact algorithm (Section 3.2),
//! and the ρ-approximate algorithm (Section 4.4).
//!
//! All three algorithms are instances of the same template:
//!
//! 1. build the side-`ε/√d` grid and label core points;
//! 2. take the *core cells* (cells with at least one core point) as vertices of
//!    a graph `G` and decide edges between ε-neighbor core cells with some
//!    *edge test* (nearest-neighbor search, BCP, or approximate counting);
//! 3. the connected components of `G` are exactly the clusters restricted to
//!    core points (Lemma 1);
//! 4. assign border points to the clusters of core points within ε.
//!
//! Only step 2 differs between the algorithms, so it is a closure parameter of
//! [`connect_core_cells`].

use crate::border::assign_border_clusters;
use crate::deadline::{RunCtl, StageId};
use crate::error::{DbscanError, ResourceLimits};
use crate::labeling::label_core_points_ctl;
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::types::{Assignment, Clustering, DbscanParams};
use crate::unionfind::UnionFind;
use dbscan_geom::kernels::SoaBlock;
use dbscan_geom::{Aabb, Point};
use dbscan_index::GridIndex;
use std::cell::Cell as StdCell;
use std::time::Instant;

/// The grid, core labels, and the per-cell core point lists that the cell-graph
/// algorithms operate on.
pub struct CoreCells<const D: usize> {
    pub params: DbscanParams,
    pub grid: GridIndex<D>,
    /// Per input point: is it a core point?
    pub is_core: Vec<bool>,
    /// Indices (into `grid.cells()`) of the cells containing at least one core
    /// point, in cell order. The position of a cell in this list is its *rank* —
    /// the vertex id in the graph `G`.
    pub core_cells: Vec<u32>,
    /// Inverse of `core_cells`: `rank_of_cell[cell] == u32::MAX` for non-core cells.
    pub rank_of_cell: Vec<u32>,
    /// Per rank, the ids of the core points in that cell.
    pub core_points_of: Vec<Vec<u32>>,
    /// Per-rank core-point coordinates gathered into contiguous lanes (rank
    /// `r`'s region holds lane 0 of all its points, then lane 1, …), so the
    /// blocked BCP and border kernels stream coordinates instead of chasing
    /// point ids. Same point order as `core_points_of[r]`.
    pub(crate) core_soa: Vec<f64>,
    /// Prefix offsets into `core_soa` in *points*: rank `r`'s lanes occupy
    /// `core_soa[start[r]*D .. start[r+1]*D]`. Length `num_core_cells() + 1`.
    pub(crate) core_soa_start: Vec<u32>,
    /// Per rank, the bounding box of its core points: the box filter of the
    /// exact edge test ([`crate::bcp::within_threshold_filtered`]) drops the
    /// points of one cell that lie beyond ε of the other cell's box.
    pub(crate) core_box: Vec<Aabb<D>>,
}

/// Gathers each rank's core-point coordinates into one flat lane-major buffer
/// (see [`CoreCells::core_soa`]) and takes each rank's bounding box (see
/// [`CoreCells::core_box`]); shared by the sequential and parallel builders
/// so both produce the identical layout.
pub(crate) fn gather_core_soa<const D: usize>(
    points: &[Point<D>],
    core_points_of: &[Vec<u32>],
) -> (Vec<f64>, Vec<u32>, Vec<Aabb<D>>) {
    let total: usize = core_points_of.iter().map(Vec::len).sum();
    let mut soa = Vec::with_capacity(total * D);
    let mut start = Vec::with_capacity(core_points_of.len() + 1);
    let mut boxes = Vec::with_capacity(core_points_of.len());
    let mut off = 0u32;
    start.push(off);
    for ids in core_points_of {
        // Same lane-major layout as `SoaBlock::gather`, written straight
        // into the shared buffer (no per-cell temporary).
        for d in 0..D {
            soa.extend(ids.iter().map(|&i| points[i as usize][d]));
        }
        let cell = SoaBlock::from_contiguous(&soa[off as usize * D..], ids.len());
        boxes.push(cell.bounds().expect("a core cell holds a core point"));
        off += ids.len() as u32;
        start.push(off);
    }
    (soa, start, boxes)
}

impl<const D: usize> CoreCells<D> {
    /// Approximate resident heap footprint in bytes (grid index plus the
    /// core-cell side tables). Used by hosts that cache built structures
    /// under a byte budget; ignores allocator slack.
    pub fn approx_bytes(&self) -> u64 {
        let side_tables = self.is_core.len() * std::mem::size_of::<bool>()
            + self.core_cells.len() * std::mem::size_of::<u32>()
            + self.rank_of_cell.len() * std::mem::size_of::<u32>()
            + self
                .core_points_of
                .iter()
                .map(|v| std::mem::size_of::<Vec<u32>>() + v.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.core_soa.len() * std::mem::size_of::<f64>()
            + self.core_soa_start.len() * std::mem::size_of::<u32>()
            + self.core_box.len() * std::mem::size_of::<Aabb<D>>();
        self.grid.approx_bytes() + side_tables as u64
    }

    /// Builds the grid, labels core points, and collects core cells.
    pub fn build(points: &[Point<D>], params: DbscanParams) -> Self {
        Self::build_instrumented(points, params, &NoStats)
    }

    /// Instrumented twin of [`CoreCells::build`]: the grid build is timed as
    /// [`Phase::GridBuild`]; labeling and core-cell collection as
    /// [`Phase::Labeling`]. Panics on invalid input (non-finite coordinates,
    /// cell overflow); see [`CoreCells::try_build_instrumented`].
    pub fn build_instrumented<S: StatsSink>(
        points: &[Point<D>],
        params: DbscanParams,
        stats: &S,
    ) -> Self {
        Self::try_build_instrumented(points, params, &ResourceLimits::UNLIMITED, stats)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`CoreCells::build_instrumented`]: validates the
    /// points (finite coordinates, representable cell indices) and builds the
    /// grid under `limits`' byte budget, returning a typed [`DbscanError`]
    /// instead of panicking or silently corrupting the grid.
    pub fn try_build_instrumented<S: StatsSink>(
        points: &[Point<D>],
        params: DbscanParams,
        limits: &ResourceLimits,
        stats: &S,
    ) -> Result<Self, DbscanError> {
        Self::try_build_ctl(points, params, limits, stats, &RunCtl::unlimited())
    }

    /// Deadline-aware twin of [`CoreCells::try_build_instrumented`]: the
    /// labeling pass checkpoints the run's budget once per cell (see
    /// [`label_core_points_ctl`]); the grid build itself is atomic (it is a
    /// single allocation-and-scatter pass, not task-shaped). Under `abort`
    /// the caller converts the observed expiry to the typed error after this
    /// returns; under `partial` the remaining cells simply come back
    /// non-core.
    pub fn try_build_ctl<S: StatsSink>(
        points: &[Point<D>],
        params: DbscanParams,
        limits: &ResourceLimits,
        stats: &S,
        ctl: &RunCtl,
    ) -> Result<Self, DbscanError> {
        crate::validate::check_points_finite(points)?;
        let span = stats.now();
        let grid = GridIndex::try_build(points, params.eps(), limits.max_index_bytes)?;
        stats.finish(Phase::GridBuild, span);
        let span = stats.now();
        let is_core = label_core_points_ctl(points, &grid, params, stats, ctl);

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
        // The gather is a structure build (it is what the edge kernels run
        // over), kept out of the labeling span like the lazy kd-tree builds.
        let span = stats.now();
        let (core_soa, core_soa_start, core_box) = gather_core_soa(points, &core_points_of);
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

    /// Number of core cells (vertices of `G`).
    pub fn num_core_cells(&self) -> usize {
        self.core_cells.len()
    }

    /// Total number of core points.
    pub fn num_core_points(&self) -> usize {
        self.core_points_of.iter().map(Vec::len).sum()
    }

    /// Structure-of-arrays view of rank `r`'s core points, in
    /// `core_points_of[r]` order — the input of the blocked distance kernels
    /// ([`dbscan_geom::kernels`]).
    pub fn core_block(&self, r: usize) -> SoaBlock<'_, D> {
        let s = self.core_soa_start[r] as usize;
        let e = self.core_soa_start[r + 1] as usize;
        SoaBlock::from_contiguous(&self.core_soa[s * D..e * D], e - s)
    }

    /// Calls `f(r2)` for every candidate partner of rank `r1`: the ε-neighbor
    /// core cells with rank greater than `r1`. Iterating every rank therefore
    /// enumerates each unordered candidate pair of `G` exactly once — the
    /// shared enumeration behind the sequential connect loop and the parallel
    /// per-cell edge tasks, which is what keeps their
    /// [`Counter::EdgeTests`] totals identical.
    pub fn for_candidate_partners(&self, r1: usize, mut f: impl FnMut(usize)) {
        for &nb in self.grid.neighbors_of(self.core_cells[r1]) {
            let r2 = self.rank_of_cell[nb as usize];
            if r2 != u32::MAX && (r2 as usize) > r1 {
                f(r2 as usize);
            }
        }
    }

    /// Scheduling weight of rank `r1`'s edge-test task: Σ |c₁|·|c₂| over its
    /// candidate pairs — an upper bound on the pair-test cost (the
    /// brute-force scan is exactly that product; tree probes and counter
    /// queries are cheaper). Used by the parallel layer to order tasks
    /// heaviest-first (see [`crate::scheduler`]).
    pub fn edge_task_weight(&self, r1: usize) -> u64 {
        let len1 = self.core_points_of[r1].len() as u64;
        let mut weight = 0u64;
        self.for_candidate_partners(r1, |r2| {
            weight += len1 * self.core_points_of[r2].len() as u64;
        });
        weight
    }
}

/// Computes the connected components of the core-cell graph `G`.
///
/// `edge_test(r1, r2)` is consulted for each unordered pair of ε-neighbor core
/// cells (by rank, `r1 < r2`) that is not already connected — the union-find
/// short-circuit means an algorithm never pays for an edge that cannot change
/// the components, mirroring the "all such p have been tried" early exits of the
/// paper's edge computations.
pub fn connect_core_cells<const D: usize>(
    cc: &CoreCells<D>,
    edge_test: impl FnMut(usize, usize) -> bool,
) -> UnionFind {
    connect_core_cells_instrumented(cc, &NoStats, &StdCell::new(0), edge_test)
}

/// Instrumented twin of [`connect_core_cells`].
///
/// Counting semantics: every enumerated candidate pair bumps
/// [`Counter::EdgeTests`] *before* the union-find short-circuit, so sequential
/// and parallel runs of the same algorithm report identical edge-test counts;
/// pairs the short-circuit drops bump [`Counter::EdgeTestsSkipped`] instead of
/// reaching the closure.
///
/// Time attribution: the loop is measured once and split three ways —
/// `uf.union` nanoseconds go to [`Phase::UnionFind`], nanoseconds the edge
/// closure reports via `deferred_build_nanos` (lazy kd-tree / counter builds it
/// performed while deciding an edge) go to [`Phase::StructureBuild`], and the
/// remainder is [`Phase::EdgeTests`]. Eagerly-built callers pass a fresh zero
/// cell.
pub fn connect_core_cells_instrumented<const D: usize, S: StatsSink>(
    cc: &CoreCells<D>,
    stats: &S,
    deferred_build_nanos: &StdCell<u64>,
    edge_test: impl FnMut(usize, usize) -> bool,
) -> UnionFind {
    connect_impl(cc, stats, deferred_build_nanos, None, edge_test)
}

/// Deadline-aware twin of [`connect_core_cells_instrumented`]: checkpoints
/// the budget once per core cell (the parallel layer's task granularity).
/// Under `degrade` the checkpoint never stops the loop — it only flips
/// [`RunCtl::edge_degraded`], and the *closure* (owned by the algorithm)
/// switches to its approximate path; under `partial`/`abort` the loop breaks
/// and the union-find holds exactly the edges decided so far.
pub fn connect_core_cells_ctl<const D: usize, S: StatsSink>(
    cc: &CoreCells<D>,
    stats: &S,
    deferred_build_nanos: &StdCell<u64>,
    ctl: &RunCtl,
    edge_test: impl FnMut(usize, usize) -> bool,
) -> UnionFind {
    connect_impl(cc, stats, deferred_build_nanos, Some(ctl), edge_test)
}

fn connect_impl<const D: usize, S: StatsSink>(
    cc: &CoreCells<D>,
    stats: &S,
    deferred_build_nanos: &StdCell<u64>,
    ctl: Option<&RunCtl>,
    mut edge_test: impl FnMut(usize, usize) -> bool,
) -> UnionFind {
    let ctl = ctl.filter(|c| c.armed());
    if let Some(ctl) = ctl {
        ctl.stage_begin(StageId::EdgeTests, cc.num_core_cells() as u64);
    }
    let span = stats.now();
    let mut union_nanos = 0u64;
    let mut uf = UnionFind::new(cc.num_core_cells());
    for (r1, &cell1) in cc.core_cells.iter().enumerate() {
        if let Some(ctl) = ctl {
            if ctl.should_stop() {
                break;
            }
        }
        for &nb in cc.grid.neighbors_of(cell1) {
            let r2 = cc.rank_of_cell[nb as usize];
            if r2 == u32::MAX || (r2 as usize) <= r1 {
                continue;
            }
            stats.bump(Counter::EdgeTests);
            if uf.same(r1 as u32, r2) {
                stats.bump(Counter::EdgeTestsSkipped);
                continue;
            }
            let hit = if S::TRACE_ENABLED {
                let t = Instant::now();
                let hit = edge_test(r1, r2 as usize);
                stats.trace_hist(
                    crate::trace::hist::HistKind::EdgeTestNanos,
                    t.elapsed().as_nanos() as u64,
                );
                hit
            } else {
                edge_test(r1, r2 as usize)
            };
            if hit {
                stats.bump(Counter::EdgesFound);
                stats.bump(Counter::UnionOps);
                if S::ENABLED {
                    let t = Instant::now();
                    uf.union(r1 as u32, r2);
                    union_nanos += t.elapsed().as_nanos() as u64;
                } else {
                    uf.union(r1 as u32, r2);
                }
            }
        }
        if let Some(ctl) = ctl {
            ctl.stage_done(StageId::EdgeTests, 1);
        }
    }
    if let Some(start) = span {
        let total = start.elapsed().as_nanos() as u64;
        let deferred = deferred_build_nanos.get();
        let edge = total.saturating_sub(union_nanos + deferred);
        stats.add_phase_nanos(Phase::UnionFind, union_nanos);
        stats.add_phase_nanos(Phase::StructureBuild, deferred);
        stats.add_phase_nanos(Phase::EdgeTests, edge);
        if S::TRACE_ENABLED {
            // Same nanos as the stats attribution above, rendered as three
            // consecutive coordinator sub-spans from the loop's start —
            // placement is synthetic (the three kinds of work interleave),
            // durations are exact.
            stats.trace_connect_spans(start, edge, union_nanos, deferred);
        }
    }
    uf
}

/// Turns the connected components of `G` into the final [`Clustering`]:
/// core points inherit their cell's component, border points are assigned to
/// every cluster owning a core point within ε, the rest is noise (Section 2.2,
/// "Assigning Border Points").
pub fn assemble_clustering<const D: usize>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
) -> Clustering {
    assemble_clustering_instrumented(points, cc, uf, &NoStats)
}

/// Instrumented twin of [`assemble_clustering`]: the whole assembly pass
/// (label compaction, core assignment, border assignment) is timed as
/// [`Phase::BorderAssign`].
pub fn assemble_clustering_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
    stats: &S,
) -> Clustering {
    let span = stats.now();
    let out = assemble_impl(points, cc, uf, None);
    stats.finish(Phase::BorderAssign, span);
    out
}

/// Deadline-aware twin of [`assemble_clustering_instrumented`]: the border
/// pass checkpoints the budget once per non-core point. Core-point
/// assignment (a scatter over the union-find components) always completes —
/// it is what makes a `partial` result a coherent clustering; only border
/// assignment can be truncated, in which case the remaining border points
/// come back as noise (the conservative direction: never a wrong cluster).
pub fn assemble_clustering_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
    stats: &S,
    ctl: &RunCtl,
) -> Clustering {
    let span = stats.now();
    let out = assemble_impl(points, cc, uf, Some(ctl).filter(|c| c.armed()));
    stats.finish(Phase::BorderAssign, span);
    out
}

fn assemble_impl<const D: usize>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    uf: &mut UnionFind,
    ctl: Option<&RunCtl>,
) -> Clustering {
    let (component_of_rank, num_clusters) = uf.compact_labels();

    let mut assignments = vec![Assignment::Noise; points.len()];
    for (rank, core_pts) in cc.core_points_of.iter().enumerate() {
        let cluster = component_of_rank[rank];
        for &p in core_pts {
            assignments[p as usize] = Assignment::Core(cluster);
        }
    }
    if let Some(ctl) = ctl {
        let non_core = points.len() as u64 - cc.num_core_points() as u64;
        ctl.stage_begin(StageId::BorderAssign, non_core);
    }
    for p in 0..points.len() as u32 {
        if cc.is_core[p as usize] {
            continue;
        }
        if let Some(ctl) = ctl {
            if ctl.should_stop() {
                break;
            }
        }
        let clusters = assign_border_clusters(points, cc, &component_of_rank, p);
        if !clusters.is_empty() {
            assignments[p as usize] = Assignment::Border(clusters);
        }
        if let Some(ctl) = ctl {
            ctl.stage_done(StageId::BorderAssign, 1);
        }
    }
    Clustering {
        assignments,
        num_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    #[test]
    fn core_cells_collects_only_core() {
        // Cluster of 3 at origin (MinPts 3) + 1 faraway noise point.
        let pts = vec![p2(0.0, 0.0), p2(0.5, 0.0), p2(0.0, 0.5), p2(50.0, 50.0)];
        let cc = CoreCells::build(&pts, params(1.0, 3));
        assert_eq!(cc.is_core, vec![true, true, true, false]);
        assert_eq!(cc.num_core_points(), 3);
        assert!(cc.num_core_cells() >= 1);
        // Every core point appears in exactly one core cell list.
        let all: Vec<u32> = cc.core_points_of.iter().flatten().copied().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn connect_respects_edge_test() {
        // Two dense singleton-cell groups within ε of each other.
        let pts = vec![p2(0.0, 0.0), p2(0.0, 0.1), p2(0.9, 0.0), p2(0.9, 0.1)];
        let cc = CoreCells::build(&pts, params(1.0, 2));
        // With an always-false edge test the cells stay separate...
        let mut uf = connect_core_cells(&cc, |_, _| false);
        let expected_cells = cc.num_core_cells();
        assert_eq!(uf.num_components(), expected_cells);
        // ...and with an always-true test everything ε-adjacent merges.
        let mut uf2 = connect_core_cells(&cc, |_, _| true);
        assert_eq!(uf2.num_components(), 1);
        let _ = (&mut uf, &mut uf2);
    }

    #[test]
    fn assemble_produces_consistent_clustering() {
        let pts = vec![
            p2(0.0, 0.0),
            p2(0.5, 0.0),
            p2(0.0, 0.5),
            p2(1.4, 0.0), // border: within ε of core 1 but has only 2 neighbors
            p2(50.0, 50.0),
        ];
        let p = params(1.0, 3);
        let cc = CoreCells::build(&pts, p);
        let mut uf = connect_core_cells(&cc, |r1, r2| {
            crate::bcp::within_threshold_brute(
                &pts,
                &cc.core_points_of[r1],
                &cc.core_points_of[r2],
                p.eps(),
            )
        });
        let clustering = assemble_clustering(&pts, &cc, &mut uf);
        clustering.validate().unwrap();
        assert_eq!(clustering.num_clusters, 1);
        assert!(clustering.assignments[3].is_border());
        assert!(clustering.assignments[4].is_noise());
    }
}
