//! Bichromatic closest-pair (BCP) computations between the core points of two
//! ε-neighbor cells.
//!
//! Section 3.2 computes each candidate edge of the core-cell graph `G` by solving
//! BCP on the two cells' core-point sets with the (purely theoretical) algorithm
//! of Agarwal et al. \[1\]. As discussed in DESIGN.md, we substitute a practical
//! routine: for the edge decision only the *predicate* "is the BCP distance ≤ ε?"
//! is needed, so small set pairs use the blocked early-exit scan
//! ([`within_threshold_blocks`]). Larger pairs first pass a *box filter*
//! ([`within_threshold_filtered`]): the points of one set farther than ε from
//! the other set's bounding box cannot be in a close pair, and neither can
//! the points of the other set farther than ε from the survivors' box. Many
//! large pairs between ε-neighbor core cells have no edge (see
//! EXPERIMENTS.md, "Kernel architecture"), and the filter usually empties a
//! side or shrinks the pair below [`BRUTE_FORCE_LIMIT`]. What is still large
//! gets an optimistic budgeted round of the blocked scan
//! ([`probe_within_threshold_blocks`]) before falling back to probing a
//! kd-tree built over the bigger full set. The full closest pair is also
//! exposed ([`closest_pair`]) for completeness and for validating the
//! predicate.
//!
//! The filter is exact: [`Aabb::min_dist_sq`] is a lower bound, bit for bit,
//! on every kernel distance to a point in the box. Per dimension the box gap
//! is the rounded difference to the nearest face, rounding is monotone, and
//! both sums accumulate dimensions `0..D` in the same order (no fused
//! multiply-add), so no pair the kernels count as within ε is ever dropped.

use dbscan_geom::kernels::{self, SoaBlock};
use dbscan_geom::{Aabb, Point};
use dbscan_index::KdTree;

/// Below this product of set sizes, the early-exit blocked scan beats building
/// or probing a tree. Raised from 1024 when the edge predicate moved to the
/// blocked SoA kernel ([`within_threshold_blocks`]): streaming ≤64-wide
/// coordinate blocks is cheap enough that even ~128×128 pairs finish before a
/// kd-tree build over one side pays off (measured on the `repro bench`
/// ss3d/ss5d matrix; see EXPERIMENTS.md, "Kernel architecture").
pub const BRUTE_FORCE_LIMIT: usize = 16384;

/// Distance-evaluation budget of the optimistic probe that large pairs get
/// after the box filter and before the tree route builds anything
/// ([`probe_within_threshold_blocks`]): one crossover's worth of blocked-scan
/// work. A pair still large after the filter has many points near the other
/// cell, where the blocked kernel's between-chunk early exit usually finds a
/// close pair within the first few chunks; the rare undecided pair pays one
/// bounded probe extra and then proceeds to the tree.
pub const PROBE_EVAL_BUDGET: usize = BRUTE_FORCE_LIMIT;

/// The exact bichromatic closest pair between `a_ids` and `b_ids` (ids into
/// `points`): returns `(a, b, dist_sq)`, or `None` if either set is empty.
pub fn closest_pair<const D: usize>(
    points: &[Point<D>],
    a_ids: &[u32],
    b_ids: &[u32],
) -> Option<(u32, u32, f64)> {
    if a_ids.is_empty() || b_ids.is_empty() {
        return None;
    }
    if a_ids.len() * b_ids.len() <= BRUTE_FORCE_LIMIT {
        return closest_pair_brute(points, a_ids, b_ids);
    }
    // Probe a tree on the larger set with every point of the smaller set.
    let (probe, tree_side) = if a_ids.len() <= b_ids.len() {
        (a_ids, b_ids)
    } else {
        (b_ids, a_ids)
    };
    let tree = KdTree::build_entries(tree_side.iter().map(|&i| (points[i as usize], i)).collect());
    let mut best: Option<(u32, u32, f64)> = None;
    let mut bound = f64::INFINITY;
    for &p in probe {
        if let Some((q, d)) = tree.nearest_within_impl(&points[p as usize], bound.sqrt()) {
            if best.is_none() || d < best.unwrap().2 {
                best = Some((p, q, d));
                bound = d;
            }
        }
    }
    // Normalize orientation: first id from `a_ids`' side.
    best.map(|(p, q, d)| {
        if a_ids.len() <= b_ids.len() {
            (p, q, d)
        } else {
            (q, p, d)
        }
    })
}

/// Brute-force exact BCP (the oracle for tests).
pub fn closest_pair_brute<const D: usize>(
    points: &[Point<D>],
    a_ids: &[u32],
    b_ids: &[u32],
) -> Option<(u32, u32, f64)> {
    let mut best: Option<(u32, u32, f64)> = None;
    for &a in a_ids {
        let pa = &points[a as usize];
        for &b in b_ids {
            let d = pa.dist_sq(&points[b as usize]);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((a, b, d));
            }
        }
    }
    best
}

/// The edge predicate of the exact algorithm: is there a pair
/// `(p, q) ∈ a_ids × b_ids` with `dist(p, q) ≤ eps`? Exits on the first hit.
pub fn within_threshold_brute<const D: usize>(
    points: &[Point<D>],
    a_ids: &[u32],
    b_ids: &[u32],
    eps: f64,
) -> bool {
    let eps_sq = eps * eps;
    a_ids.iter().any(|&a| {
        let pa = &points[a as usize];
        b_ids
            .iter()
            .any(|&b| pa.dist_sq(&points[b as usize]) <= eps_sq)
    })
}

/// Blocked variant of the edge predicate over structure-of-arrays core-point
/// views (see [`crate::cells::CoreCells::core_block`]): decides the same
/// "∃ pair within ε" boolean as [`within_threshold_brute`] — distances use
/// the identical accumulation order as [`Point::dist_sq`], so the exact same
/// pairs qualify — with the smaller side as queries against ≤64-wide blocks
/// of the larger, early-exiting between blocks.
pub fn within_threshold_blocks<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps: f64,
) -> bool {
    kernels::bcp_block_pair(a, b, eps * eps)
}

/// Optimistic budgeted probe for pairs *above* [`BRUTE_FORCE_LIMIT`]: runs
/// the blocked predicate for at most [`PROBE_EVAL_BUDGET`] distance
/// evaluations. `Some(hit)` is an exact decision (identical to
/// [`within_threshold_blocks`]); `None` means the budget ran out and the
/// caller should fall back to the kd-tree route. Keeps the worst case at the
/// tree bound plus a constant-size probe while letting the common
/// edge-exists case skip the tree build entirely.
pub fn probe_within_threshold_blocks<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps: f64,
) -> Option<bool> {
    kernels::bcp_block_pair_budgeted(a, b, eps * eps, PROBE_EVAL_BUDGET)
}

/// The points of `block` whose box distance to `other` ([`Aabb::min_dist_sq`])
/// is at most `eps_sq`, gathered lane-major for
/// [`SoaBlock::from_contiguous`]; returns the buffer and the point count.
fn box_survivors<const D: usize>(
    block: &SoaBlock<'_, D>,
    other: &Aabb<D>,
    eps_sq: f64,
) -> (Vec<f64>, usize) {
    let keep: Vec<usize> = (0..block.len())
        .filter(|&j| other.min_dist_sq(&block.point(j)) <= eps_sq)
        .collect();
    let mut data = Vec::with_capacity(keep.len() * D);
    for d in 0..D {
        let lane = block.lane(d);
        data.extend(keep.iter().map(|&j| lane[j]));
    }
    (data, keep.len())
}

/// The scan rungs of the exact edge predicate for the pair `(a, b)`, where
/// `b_box` is the bounding box of `b`'s points. `Some(hit)` is the exact
/// answer of [`within_threshold_blocks`] on `(a, b)`; `None` means the pair
/// needs the kd-tree route ([`within_threshold_tree`] over the full sets).
///
/// A pair of at most [`BRUTE_FORCE_LIMIT`] cross pairs is scanned as it is.
/// A larger pair is box-filtered first: `a′` keeps the points of `a` within
/// ε of `b_box`, `b′` the points of `b` within ε of `a′`'s box, and an empty
/// side decides `false`. `(a′, b′)` then gets the blocked scan if it is
/// within [`BRUTE_FORCE_LIMIT`], else the budgeted probe
/// ([`probe_within_threshold_blocks`]). The filter drops only points that
/// cannot be in a close pair (see the module docs), so every answer equals
/// the unfiltered one. `kernel_calls` counts the blocked-kernel runs.
pub fn within_threshold_filtered<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    b_box: &Aabb<D>,
    eps: f64,
    kernel_calls: &mut u64,
) -> Option<bool> {
    if a.len() * b.len() <= BRUTE_FORCE_LIMIT {
        *kernel_calls += 1;
        return Some(within_threshold_blocks(a, b, eps));
    }
    let eps_sq = eps * eps;
    let (a_data, a_len) = box_survivors(a, b_box, eps_sq);
    let a_kept = SoaBlock::from_contiguous(&a_data, a_len);
    let Some(a_box) = a_kept.bounds() else {
        return Some(false);
    };
    let (b_data, b_len) = box_survivors(b, &a_box, eps_sq);
    if b_len == 0 {
        return Some(false);
    }
    let b_kept = SoaBlock::from_contiguous(&b_data, b_len);
    *kernel_calls += 1;
    if a_len * b_len <= BRUTE_FORCE_LIMIT {
        return Some(within_threshold_blocks(&a_kept, &b_kept, eps));
    }
    probe_within_threshold_blocks(&a_kept, &b_kept, eps)
}

/// Tree-probing variant of the edge predicate: probes `tree` (built over one
/// cell's core points) with every id in `probe_ids`.
pub fn within_threshold_tree<const D: usize>(
    points: &[Point<D>],
    probe_ids: &[u32],
    tree: &KdTree<D>,
    eps: f64,
) -> bool {
    probe_ids
        .iter()
        .any(|&p| tree.nearest_within_impl(&points[p as usize], eps).is_some())
}

/// Counted twin of [`within_threshold_tree`]: adds to `nodes_visited` the
/// kd-tree nodes touched across all probes (the observability layer records it
/// as [`crate::Counter::IndexNodesVisited`]).
pub fn within_threshold_tree_counted<const D: usize>(
    points: &[Point<D>],
    probe_ids: &[u32],
    tree: &KdTree<D>,
    eps: f64,
    nodes_visited: &mut u64,
) -> bool {
    probe_ids.iter().any(|&p| {
        tree.nearest_within_counted(&points[p as usize], eps, nodes_visited)
            .is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

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
    fn empty_sets() {
        let pts = vec![p2(0.0, 0.0)];
        assert!(closest_pair(&pts, &[], &[0]).is_none());
        assert!(closest_pair(&pts, &[0], &[]).is_none());
        assert!(!within_threshold_brute(&pts, &[], &[0], 1.0));
    }

    #[test]
    fn simple_pair() {
        let pts = vec![p2(0.0, 0.0), p2(1.0, 0.0), p2(5.0, 0.0)];
        let (a, b, d) = closest_pair(&pts, &[0], &[1, 2]).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(d, 1.0);
    }

    #[test]
    fn tree_path_matches_brute_force() {
        // Large enough sets to exceed BRUTE_FORCE_LIMIT and take the tree path.
        let pts = lcg_points(300, 100.0, 99);
        let a_ids: Vec<u32> = (0..120).collect();
        let b_ids: Vec<u32> = (120..300).collect();
        assert!(a_ids.len() * b_ids.len() > BRUTE_FORCE_LIMIT);
        let fast = closest_pair(&pts, &a_ids, &b_ids).unwrap();
        let brute = closest_pair_brute(&pts, &a_ids, &b_ids).unwrap();
        assert_eq!(fast.2, brute.2, "closest distance must match");
        assert!(a_ids.contains(&fast.0) && b_ids.contains(&fast.1));
    }

    #[test]
    fn threshold_predicates_agree() {
        let pts = lcg_points(200, 50.0, 7);
        let a_ids: Vec<u32> = (0..100).collect();
        let b_ids: Vec<u32> = (100..200).collect();
        let tree = KdTree::build_entries(b_ids.iter().map(|&i| (pts[i as usize], i)).collect());
        for eps in [0.1, 1.0, 3.0, 100.0] {
            let brute = within_threshold_brute(&pts, &a_ids, &b_ids, eps);
            let via_tree = within_threshold_tree(&pts, &a_ids, &tree, eps);
            let via_bcp = closest_pair(&pts, &a_ids, &b_ids).unwrap().2 <= eps * eps;
            assert_eq!(brute, via_tree, "eps={eps}");
            assert_eq!(brute, via_bcp, "eps={eps}");
        }
    }

    #[test]
    fn threshold_includes_boundary() {
        let pts = vec![p2(0.0, 0.0), p2(3.0, 4.0)];
        assert!(within_threshold_brute(&pts, &[0], &[1], 5.0));
        assert!(!within_threshold_brute(&pts, &[0], &[1], 4.999));
    }

    /// LCG coordinates in `[0, 1)`, mapped through `f(point, dim, u)`.
    fn lcg_cloud<const D: usize>(
        n: usize,
        seed: u64,
        f: impl Fn(usize, usize, f64) -> f64,
    ) -> Vec<Point<D>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Point(std::array::from_fn(|d| f(i, d, next()))))
            .collect()
    }

    /// The exact edge test as the grid closures run it: the scan rungs of
    /// [`within_threshold_filtered`], then a kd-tree over the larger full set
    /// probed with the smaller one.
    fn ladder_decision<const D: usize>(
        pts: &[Point<D>],
        a_ids: &[u32],
        b_ids: &[u32],
        eps: f64,
    ) -> bool {
        let a_data = SoaBlock::gather(pts, a_ids);
        let b_data = SoaBlock::gather(pts, b_ids);
        let a = SoaBlock::<D>::from_contiguous(&a_data, a_ids.len());
        let b = SoaBlock::<D>::from_contiguous(&b_data, b_ids.len());
        let b_box = b.bounds().expect("nonempty side");
        let mut calls = 0u64;
        within_threshold_filtered(&a, &b, &b_box, eps, &mut calls).unwrap_or_else(|| {
            let (probe, tree_ids) = if a_ids.len() <= b_ids.len() {
                (a_ids, b_ids)
            } else {
                (b_ids, a_ids)
            };
            let tree =
                KdTree::build_entries(tree_ids.iter().map(|&i| (pts[i as usize], i)).collect());
            within_threshold_tree(pts, probe, &tree, eps)
        })
    }

    /// Checks the ladder against both oracles on `pts[..split]` ×
    /// `pts[split..]`, in both orientations, and returns the decision.
    fn check_pair<const D: usize>(pts: &[Point<D>], split: usize, eps: f64, label: &str) -> bool {
        let a_ids: Vec<u32> = (0..split as u32).collect();
        let b_ids: Vec<u32> = (split as u32..pts.len() as u32).collect();
        let brute = within_threshold_brute(pts, &a_ids, &b_ids, eps);
        let bcp = closest_pair(pts, &a_ids, &b_ids).is_some_and(|(_, _, d)| d <= eps * eps);
        assert_eq!(brute, bcp, "{label} D={D} eps={eps}: oracles disagree");
        assert_eq!(
            ladder_decision(pts, &a_ids, &b_ids, eps),
            brute,
            "{label} D={D} eps={eps}"
        );
        assert_eq!(
            ladder_decision(pts, &b_ids, &a_ids, eps),
            brute,
            "{label} D={D} eps={eps} (swapped)"
        );
        brute
    }

    /// `n` points along the diagonal of the square `[0, side]²` spanned by
    /// dimensions 0 and 1 (inset by 5% and 10% of `side`), shifted by `shift`
    /// along dimension 0; the other coordinates are `side / 2`.
    fn diagonal<const D: usize>(n: usize, side: f64, shift: f64) -> Vec<Point<D>> {
        (0..n)
            .map(|i| {
                let t = side * (0.05 + 0.85 * i as f64 / (n - 1) as f64);
                Point(std::array::from_fn(|d| match d {
                    0 => shift + t,
                    1 => t,
                    _ => 0.5 * side,
                }))
            })
            .collect()
    }

    fn filtered_matches_oracles_in<const D: usize>() {
        // Random clouds: sizes on both sides of BRUTE_FORCE_LIMIT, offsets
        // that put the closest cross pair on either side of ε.
        for seed in 0..12u64 {
            let na = [40, 130, 200][seed as usize % 3];
            let nb = [150, 90, 260][seed as usize % 3];
            let gap = 0.6 + 0.15 * seed as f64;
            let pts = lcg_cloud::<D>(na + nb, seed + 100, |i, d, u| {
                if i >= na && d == 0 {
                    gap + u
                } else {
                    u
                }
            });
            for eps in [0.05, 0.3, 0.7, 1.5] {
                check_pair(&pts, na, eps, &format!("random seed={seed}"));
            }
        }

        // A cross pair at exactly ε (3-4-5 triangle); every other point far.
        let mut pts = vec![Point([0.0; D])];
        pts.extend((0..140).map(|i| Point(std::array::from_fn(|d| -10.0 - (i + d) as f64))));
        let split = pts.len();
        pts.push(Point(std::array::from_fn(|d| match d {
            0 => 3.0,
            1 => 4.0,
            _ => 0.0,
        })));
        pts.extend((0..140).map(|i| Point(std::array::from_fn(|d| 13.0 + (i + d) as f64))));
        assert!(check_pair(&pts, split, 5.0, "exact-eps"));
        assert!(!check_pair(
            &pts,
            split,
            f64::from_bits(5.0f64.to_bits() - 1),
            "just below eps"
        ));

        // Points exactly on the other box's faces and corners (and a
        // duplicate of one of its corners), at small ε.
        let b_side = lcg_cloud::<D>(150, 7, |_, _, u| 1.0 + u);
        let bb = Aabb::bounding(&b_side).unwrap();
        let mut pts: Vec<Point<D>> = (0..150)
            .map(|i| {
                Point(std::array::from_fn(|d| {
                    let face = if (i >> (d % 8)) & 1 == 1 {
                        bb.hi[d]
                    } else {
                        bb.lo[d]
                    };
                    if i % 3 == 0 && d == i % D {
                        0.5 * (bb.lo[d] + bb.hi[d])
                    } else {
                        face
                    }
                }))
            })
            .collect();
        pts.push(bb.lo);
        pts.extend_from_slice(&b_side);
        for eps in [0.0, 1e-9, 0.01, 0.2] {
            check_pair(&pts, 151, eps, "faces and corners");
        }

        // Duplicates, negative coordinates, and large magnitudes: a shift of
        // 1e8 makes every difference round; ±1e200 squares overflow to inf.
        for (scale, shift) in [(1.0, -1e8), (1e3, 0.0), (1.0, -5.0)] {
            let pts = lcg_cloud::<D>(300, 31, |i, d, u| {
                let base = if i % 4 == 0 { (i / 4 % 5) as f64 } else { u };
                shift + scale * (base + if i >= 140 && d == 0 { 0.9 } else { 0.0 })
            });
            for eps in [0.5 * scale, 0.95 * scale, 2.0 * scale] {
                check_pair(
                    &pts,
                    140,
                    eps,
                    &format!("magnitude scale={scale} shift={shift}"),
                );
            }
        }
        let mut huge = lcg_cloud::<D>(300, 41, |_, _, u| u);
        for (i, p) in huge.iter_mut().enumerate().step_by(7) {
            p.0[0] = if i < 140 { -1e200 } else { 1e200 };
        }
        for eps in [0.2, 1e150] {
            check_pair(&huge, 140, eps, "overflowing magnitudes");
        }

        // One side filters to empty: the first box lies beyond ε of the
        // second, though both are large.
        let pts = lcg_cloud::<D>(300, 51, |i, d, u| {
            u + if i >= 140 && d == 0 { 3.0 } else { 0.0 }
        });
        assert!(!check_pair(&pts, 140, 1.5, "filters to empty"));

        // Boxes within ε, nearest cross pair beyond it: two parallel
        // diagonals two squares of side ε/√2 apart along dimension 0 (every
        // cross distance is at least √1.0225 ε).
        let side = 1.0 / 2f64.sqrt();
        let mut pts = diagonal::<D>(400, side, 0.0);
        pts.extend(diagonal::<D>(400, side, 2.0 * side));
        let near = pts[0].dist_sq(&pts[400]).sqrt();
        assert!(!check_pair(&pts, 400, 1.0, "diagonals"));
        assert!(check_pair(&pts, 400, near, "diagonals at their gap"));
    }

    #[test]
    fn filtered_matches_oracles_2d() {
        filtered_matches_oracles_in::<2>();
    }

    #[test]
    fn filtered_matches_oracles_3d() {
        filtered_matches_oracles_in::<3>();
    }

    #[test]
    fn filtered_matches_oracles_5d() {
        filtered_matches_oracles_in::<5>();
    }

    #[test]
    fn filtered_matches_oracles_7d() {
        filtered_matches_oracles_in::<7>();
    }

    /// The filter's premise: the box distance never exceeds the kernel
    /// distance to any point in the box, bit for bit.
    #[test]
    fn box_distance_is_a_lower_bound_on_kernel_distance() {
        let pts = lcg_cloud::<5>(400, 61, |i, _, u| 1e7 + u * (1 + i % 3) as f64);
        let (box_side, queries) = pts.split_at(200);
        let data = SoaBlock::gather(box_side, &(0..200).collect::<Vec<u32>>());
        let block = SoaBlock::<5>::from_contiguous(&data, 200);
        let bb = block.bounds().unwrap();
        let mut out = vec![0.0; 200];
        for q in queries {
            kernels::dist_sq_one_to_block(q, &block, &mut out);
            let lower = bb.min_dist_sq(q);
            assert!(out.iter().all(|&d| lower <= d));
        }
    }
}
