//! Library layers timed from outside: the sequential pipeline split at its
//! public seams (grid build, core-cell build, exact or ρ-approx finish)
//! plus a Lemma 5 counter sweep, each call recorded as a span.

use crate::trace::Tracer;
use crate::util::{median, Metrics};
use crate::{EPS, MIN_PTS, RHO};
use dbscan_core::algorithms::{
    try_grid_exact_from_cells_ctl, try_rho_approx_from_cells_ctl, BcpStrategy,
};
use dbscan_core::{CoreCells, Counter, DbscanParams, ResourceLimits, RunCtl, Stats};
use dbscan_geom::Point;
use dbscan_index::{ApproxRangeCounter, GridIndex};

/// Per-call layer timings (ms) and the counts of the last call.
#[derive(Default)]
pub struct LayerSamples {
    pub grid_ms: Vec<f64>,
    pub cells_ms: Vec<f64>,
    pub label_ms: Vec<f64>,
    pub exact_ms: Vec<f64>,
    pub approx_ms: Vec<f64>,
    pub counter_ms: Vec<f64>,
    pub grid_cells: f64,
    pub grid_mb: f64,
    pub core_cells: f64,
    pub core_points: f64,
    pub edge_tests: f64,
    pub kdtree_builds: f64,
    pub counter_builds: f64,
    pub counter_queries: f64,
}

impl LayerSamples {
    pub fn put_metrics(&self, m: &mut Metrics) {
        m.put("grid.build_ms", median(&self.grid_ms), "ms");
        m.put("grid.cells", self.grid_cells, "count");
        m.put("grid.mb", self.grid_mb, "MB");
        m.put("cells.build_ms", median(&self.cells_ms), "ms");
        m.put("cells.label_ms", median(&self.label_ms), "ms");
        m.put("cells.core_cells", self.core_cells, "count");
        m.put("cells.core_points", self.core_points, "count");
        m.put("exact.finish_ms", median(&self.exact_ms), "ms");
        m.put("exact.edge_tests", self.edge_tests, "count");
        m.put("exact.kdtree_builds", self.kdtree_builds, "count");
        m.put("approx.finish_ms", median(&self.approx_ms), "ms");
        m.put("counter.build_ms", median(&self.counter_ms), "ms");
        m.put("counter.builds", self.counter_builds, "count");
        m.put("counter.queries", self.counter_queries, "count");
    }

    /// Self time of the sequential pipeline's layers: grid build, labeling
    /// (cell build minus its grid), and whichever finish the workload's
    /// entry point runs.
    pub fn self_sum_ms(&self) -> f64 {
        let finish = if self.approx_ms.is_empty() {
            median(&self.exact_ms)
        } else {
            median(&self.approx_ms)
        };
        median(&self.grid_ms) + median(&self.label_ms) + finish
    }
}

/// Runs each library layer once on `pts` under spans of request `req`.
/// With `approx`, also the ρ-approx finish and a Lemma 5 counter build over
/// every core cell's core points. Returns the label fingerprint of the
/// exact finish, `None` if a finish call failed.
pub fn probe_layers<const D: usize>(
    tracer: &Tracer,
    req: u64,
    parent: u64,
    pts: &[Point<D>],
    approx: bool,
    s: &mut LayerSamples,
) -> Option<u64> {
    let params = DbscanParams::new(EPS, MIN_PTS).expect("pinned parameters are valid");
    let (grid, grid_ms) = tracer.span(req, parent, "index::grid", "GridIndex::build", || {
        GridIndex::build(pts, EPS)
    });
    s.grid_cells = grid.num_cells() as f64;
    s.grid_mb = grid.approx_bytes() as f64 / 1e6;
    drop(grid);
    let (cc, cells_ms) = tracer.span(req, parent, "core::cells", "CoreCells::build", || {
        CoreCells::build(pts, params)
    });
    s.core_cells = cc.num_core_cells() as f64;
    s.core_points = cc.num_core_points() as f64;
    let ctl = RunCtl::unlimited();
    let stats = Stats::new();
    let (exact, exact_ms) = tracer.span(
        req,
        parent,
        "core::algorithms",
        "try_grid_exact_from_cells_ctl",
        || try_grid_exact_from_cells_ctl(pts, &cc, BcpStrategy::TreeAssisted, &stats, &ctl),
    );
    s.edge_tests = stats.counter(Counter::EdgeTests) as f64;
    s.kdtree_builds = stats.counter(Counter::KdTreeBuilds) as f64;
    let mut fp = exact.ok().map(|c| crate::batch::fingerprint(&c));
    if approx {
        let stats = Stats::new();
        let (res, approx_ms) = tracer.span(
            req,
            parent,
            "core::algorithms",
            "try_rho_approx_from_cells_ctl",
            || {
                try_rho_approx_from_cells_ctl(
                    pts,
                    &cc,
                    RHO,
                    &ResourceLimits::UNLIMITED,
                    &stats,
                    &ctl,
                )
            },
        );
        if res.is_err() {
            fp = None;
        }
        s.approx_ms.push(approx_ms);
        s.counter_builds = stats.counter(Counter::CounterBuilds) as f64;
        s.counter_queries = stats.counter(Counter::CounterQueries) as f64;
        let sweep = tracer.begin(req, parent, "perfbench", "counter_sweep");
        let mut build_ms = 0.0;
        let mut core_pts: Vec<Point<D>> = Vec::new();
        for ids in &cc.core_points_of {
            core_pts.clear();
            core_pts.extend(ids.iter().map(|&i| pts[i as usize]));
            let (counter, t) = tracer.span(
                req,
                sweep.id,
                "index::counter",
                "ApproxRangeCounter::build",
                || ApproxRangeCounter::build(&core_pts, EPS, RHO),
            );
            std::hint::black_box(counter.num_points());
            build_ms += t;
        }
        tracer.end(sweep);
        s.counter_ms.push(build_ms);
    }
    s.grid_ms.push(grid_ms);
    s.cells_ms.push(cells_ms);
    s.label_ms.push(cells_ms - grid_ms);
    s.exact_ms.push(exact_ms);
    fp
}
