//! Abort hygiene of deadline-aware execution: an impossible budget surfaces
//! a typed error and repeated aborting calls leave the thread count flat.
//!
//! This is its own test binary because it counts every thread of the
//! process: tests running beside it in one binary would start and stop
//! threads of their own and make the count meaningless.

use dbscan_core::algorithms::{try_grid_exact_deadline, BcpStrategy};
use dbscan_core::parallel::{try_grid_exact_par_deadline, ParConfig};
use dbscan_core::{
    DbscanError, DbscanParams, DeadlineConfig, DeadlinePolicy, NoStats, RecoveryPolicy,
    ResourceLimits,
};
use dbscan_geom::point::p2;
use dbscan_geom::Point;
use std::time::Duration;

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

#[test]
fn abort_surfaces_typed_error_and_leaks_no_threads() {
    let pts = lcg_points(4_000, 40.0, 9);
    let p = DbscanParams::new(1.0, 4).unwrap();
    let dl = DeadlineConfig {
        budget: Some(Duration::ZERO),
        policy: DeadlinePolicy::Abort,
        degrade_rho: 0.05,
        stall_timeout: None,
    };
    let config = ParConfig {
        threads: Some(4),
        recovery: RecoveryPolicy::Fail,
        limits: ResourceLimits::UNLIMITED,
        deadline: dl,
        ..ParConfig::default()
    };

    // Sequential: the first checkpoint observes the trip in the labeling
    // stage.
    let err = try_grid_exact_deadline(
        &pts,
        p,
        BcpStrategy::TreeAssisted,
        &ResourceLimits::UNLIMITED,
        &dl,
        &NoStats,
    )
    .unwrap_err();
    match &err {
        DbscanError::DeadlineExceeded { phase, .. } => assert_eq!(*phase, "labeling"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Parallel: same typed error. Workers now live on the persistent shared
    // pool (parked, not torn down — see `dbscan_core::WorkerPool`), so the
    // hygiene invariant is *no growth across calls*: after a first call has
    // warmed the pool for this thread count, repeated aborting calls must
    // leave the process thread count exactly where it was.
    let start = std::time::Instant::now();
    let err = try_grid_exact_par_deadline(&pts, p, &config, &NoStats).unwrap_err();
    assert!(
        matches!(err, DbscanError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    // An impossible budget must terminate promptly — well inside budget +
    // cancellation-latency bound, generously padded for CI jitter.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "abort took {:?}",
        start.elapsed()
    );
    let baseline = thread_count();
    for _ in 0..5 {
        let err = try_grid_exact_par_deadline(&pts, p, &config, &NoStats).unwrap_err();
        assert!(matches!(err, DbscanError::DeadlineExceeded { .. }));
    }
    let now = thread_count();
    assert!(now <= baseline, "leaked threads: {baseline} -> {now}");
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}
