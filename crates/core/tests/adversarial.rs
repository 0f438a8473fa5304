//! Adversarial-input corpus: every algorithm's fallible entry point must
//! return a clean `Ok` or a typed `DbscanError` — never panic — on inputs
//! chosen to stress the failure layer (PR 3's hardening contract).

use dbscan_core::algorithms::{
    try_cit08, try_grid_exact, try_grid_exact_instrumented, try_gunawan_2d, try_kdd96_kdtree,
    try_kdd96_linear, try_kdd96_rtree, try_rho_approx, try_rho_approx_instrumented, BcpStrategy,
    Cit08Config,
};
use dbscan_core::parallel::{try_grid_exact_par, try_rho_approx_par, ParConfig};
use dbscan_core::{Clustering, DbscanError, DbscanParams, NoStats, ResourceLimits};
use dbscan_geom::point::p2;
use dbscan_geom::Point;

fn params(eps: f64, min_pts: usize) -> DbscanParams {
    DbscanParams::new(eps, min_pts).unwrap()
}

/// Runs every fallible entry point (the five sequential algorithms plus the
/// two parallel variants) on one input and hands each result to `check`.
fn run_all(
    pts: &[Point<2>],
    p: DbscanParams,
    check: impl Fn(&'static str, Result<Clustering, DbscanError>),
) {
    check("kdd96_linear", try_kdd96_linear(pts, p));
    check("kdd96_kdtree", try_kdd96_kdtree(pts, p));
    check("kdd96_rtree", try_kdd96_rtree(pts, p));
    check("gunawan_2d", try_gunawan_2d(pts, p));
    check("grid_exact", try_grid_exact(pts, p));
    check("rho_approx", try_rho_approx(pts, p, 0.001));
    check("cit08", try_cit08(pts, p, Cit08Config::default()));
    let config = ParConfig::with_threads(Some(4));
    check("grid_exact_par", try_grid_exact_par(pts, p, &config));
    check("rho_approx_par", try_rho_approx_par(pts, p, 0.001, &config));
}

#[test]
fn all_duplicate_points_cluster_cleanly() {
    // Footnote 1's adversarial instance: n identical points. Everything is
    // within eps of everything; one cluster, no noise, no panic.
    let pts = vec![p2(3.25, -1.5); 500];
    run_all(&pts, params(1.0, 10), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 1, "{name}");
        assert_eq!(c.core_count(), 500, "{name}");
    });
}

#[test]
fn coordinates_near_f64_max_give_typed_errors_not_wraps() {
    // |q| = 1e308 / (eps/sqrt(2)) overflows any i64 cell grid. The grid-based
    // algorithms must say so with CoordinateOverflow; KDD'96 has no grid and
    // must simply cluster the two far-apart points as noise.
    let pts = vec![p2(1e308, 0.0), p2(-1e308, 0.0), p2(0.0, 0.0)];
    let p = params(1.0, 2);
    for (name, r) in [
        ("gunawan_2d", try_gunawan_2d(&pts, p)),
        ("grid_exact", try_grid_exact(&pts, p)),
        ("rho_approx", try_rho_approx(&pts, p, 0.001)),
        ("cit08", try_cit08(&pts, p, Cit08Config::default())),
        (
            "grid_exact_par",
            try_grid_exact_par(&pts, p, &ParConfig::default()),
        ),
        (
            "rho_approx_par",
            try_rho_approx_par(&pts, p, 0.001, &ParConfig::default()),
        ),
    ] {
        match r {
            Err(DbscanError::CoordinateOverflow { value, .. }) => {
                assert_eq!(value.abs(), 1e308, "{name}")
            }
            other => panic!("{name}: expected CoordinateOverflow, got {other:?}"),
        }
    }
    for (name, r) in [
        ("kdd96_linear", try_kdd96_linear(&pts, p)),
        ("kdd96_kdtree", try_kdd96_kdtree(&pts, p)),
        ("kdd96_rtree", try_kdd96_rtree(&pts, p)),
    ] {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 0, "{name}");
        assert_eq!(c.noise_count(), 3, "{name}");
    }
}

#[test]
fn min_pts_larger_than_n_means_all_noise() {
    let pts: Vec<Point<2>> = (0..20).map(|i| p2(i as f64 * 0.1, 0.0)).collect();
    run_all(&pts, params(1.0, 100), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 0, "{name}");
        assert_eq!(c.noise_count(), 20, "{name}");
    });
}

#[test]
fn single_point_dataset() {
    let pts = vec![p2(0.0, 0.0)];
    run_all(&pts, params(1.0, 1), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 1, "{name}");
        assert_eq!(c.core_count(), 1, "{name}");
    });
}

#[test]
fn empty_dataset() {
    run_all(&[], params(1.0, 2), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 0, "{name}");
        assert!(c.assignments.is_empty(), "{name}");
    });
}

#[test]
fn nan_coordinate_reports_offending_point() {
    let pts = vec![p2(0.0, 0.0), p2(1.0, f64::NAN), p2(2.0, 0.0)];
    run_all(&pts, params(1.0, 2), |name, r| match r {
        Err(DbscanError::NonFinitePoint { index }) => assert_eq!(index, 1, "{name}"),
        other => panic!("{name}: expected NonFinitePoint, got {other:?}"),
    });
}

#[test]
fn invalid_rho_values_are_typed_errors() {
    let pts = vec![p2(0.0, 0.0), p2(0.5, 0.0)];
    let p = params(1.0, 1);
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-12] {
        for (name, r) in [
            ("rho_approx", try_rho_approx(&pts, p, bad)),
            (
                "rho_approx_par",
                try_rho_approx_par(&pts, p, bad, &ParConfig::default()),
            ),
        ] {
            match r {
                Err(DbscanError::InvalidRho { rho, .. }) => {
                    assert!(
                        rho.is_nan() == bad.is_nan() && (rho.is_nan() || rho == bad),
                        "{name}"
                    )
                }
                other => panic!("{name} rho={bad}: expected InvalidRho, got {other:?}"),
            }
        }
    }
    // eps * (1 + rho) overflowing f64 is also rejected up front.
    assert!(matches!(
        try_rho_approx(&pts, params(1e300, 1), 1e10),
        Err(DbscanError::InvalidRho { .. })
    ));
}

#[test]
fn tiny_byte_budget_is_refused_not_oom() {
    let pts: Vec<Point<2>> = (0..2_000)
        .map(|i| p2((i % 50) as f64 * 0.4, (i / 50) as f64 * 0.4))
        .collect();
    let p = params(1.0, 4);
    let limits = ResourceLimits::with_max_index_bytes(64);
    for (name, r) in [
        (
            "grid_exact",
            try_grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &limits, &NoStats),
        ),
        (
            "rho_approx",
            try_rho_approx_instrumented(&pts, p, 0.001, &limits, &NoStats),
        ),
        (
            "grid_exact_par",
            try_grid_exact_par(
                &pts,
                p,
                &ParConfig {
                    limits,
                    ..ParConfig::default()
                },
            ),
        ),
    ] {
        match r {
            Err(DbscanError::ResourceLimit {
                estimated_bytes,
                budget_bytes,
                ..
            }) => {
                assert!(estimated_bytes > budget_bytes, "{name}");
                assert_eq!(budget_bytes, 64, "{name}");
            }
            other => panic!("{name}: expected ResourceLimit, got {other:?}"),
        }
    }
    // A generous budget admits the same run.
    let roomy = ResourceLimits::with_max_index_bytes(64 << 20);
    assert!(
        try_grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &roomy, &NoStats).is_ok()
    );
}
