//! The hierarchical-grid **approximate range counter** of Lemma 5.
//!
//! For fixed `ε` and `ρ`, the structure stores the point multiset in a
//! quadtree-like hierarchy of grids: level 0 has side `ε/√d`, every level halves
//! the side, and the hierarchy stops once the side is at most `ερ/√d` — i.e.
//! `h = max(1, 1 + ⌈log₂(1/ρ)⌉)` levels. Only non-empty cells are materialized.
//!
//! A query with center `q` returns an integer `ans` with
//!
//! ```text
//! |B(q, ε) ∩ P|  ≤  ans  ≤  |B(q, ε(1+ρ)) ∩ P|
//! ```
//!
//! by the paper's three-way cell classification: cells disjoint from `B(q, ε)`
//! are skipped, cells fully inside `B(q, ε(1+ρ))` contribute their count, and
//! leaf cells intersecting `B(q, ε)` contribute their count (sound because a
//! leaf's diameter is at most `ερ`). Everything else recurses.
//!
//! The build computes each point's leaf cell once; a cell's ancestors are
//! arithmetic shifts of its coordinates. One comparison sort puts the leaf
//! keys in depth-first hierarchy order, which places every node's children
//! next to each other in the next level, and linear passes over the sorted
//! keys then size and fill the levels: O(n log n + n·h) in all.

use crate::error::{check_budget, BuildError};
use crate::kdtree::KdTree;
use dbscan_geom::grid::{base_side, hierarchy_levels};
use dbscan_geom::{CellCoord, CellError, Point};
use std::cmp::Ordering;
use std::mem::size_of;

struct CounterNode<const D: usize> {
    coord: CellCoord<D>,
    count: u32,
    /// Children occupy `child_start..child_end` of the next level's node list.
    child_start: u32,
    child_end: u32,
}

/// Approximate range counter for fixed `(ε, ρ)` (Lemma 5 of the paper):
/// O(n·h) space, O(n log n + n·h) build, O(1) expected query for constant `ρ`
/// and `d`. The paper's O(n) expected build hashes cells; this one sorts.
///
/// ```
/// use dbscan_index::ApproxRangeCounter;
/// use dbscan_geom::Point;
///
/// let pts = vec![Point([0.0, 0.0]), Point([0.5, 0.0]), Point([9.0, 9.0])];
/// let counter = ApproxRangeCounter::build(&pts, 1.0, 0.01);
/// let ans = counter.query(&Point([0.1, 0.0]));
/// // Guaranteed: |B(q, 1.0)| = 2  <=  ans  <=  |B(q, 1.01)| = 2.
/// assert_eq!(ans, 2);
/// assert!(!counter.query_positive(&Point([20.0, 20.0])));
/// ```
pub struct ApproxRangeCounter<const D: usize> {
    eps: f64,
    rho: f64,
    /// Side length per level: `sides[i] = ε/(2^i √d)`.
    sides: Vec<f64>,
    levels: Vec<Vec<CounterNode<D>>>,
    /// Accelerates finding the level-0 cells near `q` when the structure spans
    /// many level-0 cells (the per-grid-cell counters used inside the
    /// ρ-approximate algorithm have only a handful, and skip this).
    root_tree: Option<KdTree<D>>,
}

/// Build a kd-tree over level-0 centers once there are this many roots.
const ROOT_TREE_THRESHOLD: usize = 32;

impl<const D: usize> ApproxRangeCounter<D> {
    /// Builds the counter over `points`. `eps` must be positive and `rho` in
    /// `(0, +∞)` (values ≥ 1 degenerate to a single level). One comparison
    /// sort of the points' leaf cells, then a linear pass that sizes the
    /// levels and one that fills them, each touching at most `h` levels per
    /// point: O(n log n + n·h) time.
    ///
    /// Panics on invalid parameters; callers with untrusted input should use
    /// [`ApproxRangeCounter::try_build`].
    pub fn build(points: &[Point<D>], eps: f64, rho: f64) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        assert!(rho > 1e-9, "rho must be positive (and not absurdly small)");
        Self::build_inner(points, eps, rho)
    }

    /// Fallible twin of [`ApproxRangeCounter::build`]: rejects, with a typed
    /// [`BuildError`], non-positive/non-finite `eps` and `rho` (including
    /// `rho ≤ 1e-9`, where the Lemma 5 hierarchy degenerates), coordinates
    /// whose cell index at the *deepest* (smallest-side) level would overflow
    /// `i64` — the unchecked build saturates there and silently merges distant
    /// points into one leaf, breaking the sandwich guarantee — and, when
    /// `max_bytes` is given, builds whose estimated `h`-level footprint (see
    /// [`estimated_build_bytes`]) exceeds the budget.
    pub fn try_build(
        points: &[Point<D>],
        eps: f64,
        rho: f64,
        max_bytes: Option<u64>,
    ) -> Result<Self, BuildError> {
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(BuildError::Cell(CellError::BadSide {
                side: base_side::<D>(eps),
            }));
        }
        if !(rho.is_finite() && rho > 1e-9) {
            return Err(BuildError::Param {
                what: "rho",
                value: rho,
            });
        }
        let h = hierarchy_levels(rho);
        check_budget(
            "approximate range counter",
            estimated_build_bytes::<D>(points.len(), rho),
            max_bytes,
        )?;
        // Validate at the deepest level's side: it is the smallest, so its cell
        // coordinates are the largest in magnitude; if they fit, every
        // shallower level fits too.
        let leaf_side = base_side::<D>(eps) / (1u64 << (h - 1)) as f64;
        for p in points {
            CellCoord::try_of(p, leaf_side)?;
        }
        Ok(Self::build_inner(points, eps, rho))
    }

    fn build_inner(points: &[Point<D>], eps: f64, rho: f64) -> Self {
        let h = hierarchy_levels(rho);
        let sides: Vec<f64> = (0..h)
            .map(|i| base_side::<D>(eps) / (1u64 << i) as f64)
            .collect();

        // Each point's leaf cell, computed once. Its level-l ancestor is
        // `leaf >> (h-1-l)`, the floor `CellCoord::parent` takes: `sides[l]`
        // is `sides[h-1]` times a power of two, so `CellCoord::of(p, sides[l])`
        // floors the same quotient, exactly scaled. (The one exception is a
        // quotient that underflows to -0 at a coarse level; there the shift
        // is what keeps the child inside its parent.)
        let mut keys: Vec<[i64; D]> = points
            .iter()
            .map(|p| CellCoord::of(p, sides[h - 1]).0)
            .collect();
        // Depth-first hierarchy order: every node's children end up
        // consecutive in the next level's list.
        keys.sort_unstable_by(|a, b| split(a, b, h).1);
        // Key `i` opens a node on every level from `first_new(i)` down to the
        // leaves: the first key one on each, a repeated leaf none.
        let first_new = |i: usize| {
            if i == 0 {
                0
            } else {
                split(&keys[i - 1], &keys[i], h).0
            }
        };

        // Tallying where keys open nodes sizes every level exactly.
        let mut opened = vec![0usize; h + 1];
        for i in 0..keys.len() {
            opened[first_new(i)] += 1;
        }
        let mut levels: Vec<Vec<CounterNode<D>>> = Vec::with_capacity(h);
        let mut nodes = 0;
        for &n in &opened[..h] {
            nodes += n;
            levels.push(Vec::with_capacity(nodes));
        }

        for (i, key) in keys.iter().enumerate() {
            for lvl in first_new(i)..h {
                let child_start = levels.get(lvl + 1).map_or(0, |next| next.len() as u32);
                levels[lvl].push(CounterNode {
                    coord: CellCoord(key.map(|c| c >> (h - 1 - lvl))),
                    count: 0,
                    child_start,
                    child_end: child_start,
                });
            }
            for lvl in 0..h {
                let child_end = levels.get(lvl + 1).map_or(0, |next| next.len() as u32);
                let node = levels[lvl]
                    .last_mut()
                    .expect("every level has an open node");
                node.count += 1;
                node.child_end = child_end;
            }
        }
        drop(keys);

        let root_tree = if levels[0].len() >= ROOT_TREE_THRESHOLD {
            let centers: Vec<Point<D>> =
                levels[0].iter().map(|n| n.coord.center(sides[0])).collect();
            Some(KdTree::build(&centers))
        } else {
            None
        };

        ApproxRangeCounter {
            eps,
            rho,
            sides,
            levels,
            root_tree,
        }
    }

    /// The `ε` the structure was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The `ρ` the structure was built for.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Number of levels `h`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total number of indexed points.
    pub fn num_points(&self) -> usize {
        self.levels[0].iter().map(|n| n.count as usize).sum()
    }

    /// Answers the approximate range-count query at `q`: the result is between
    /// `|B(q, ε) ∩ P|` and `|B(q, ε(1+ρ)) ∩ P|`.
    pub fn query(&self, q: &Point<D>) -> usize {
        let mut ans = 0usize;
        self.for_candidate_roots(q, |this, root| {
            this.visit(0, root, q, &mut ans, usize::MAX);
            true
        });
        ans
    }

    /// Whether the approximate count at `q` is non-zero, with early exit.
    /// `true` guarantees some point lies in `B(q, ε(1+ρ))`; `false` guarantees
    /// `B(q, ε)` is empty. This is the edge test of the ρ-approximate algorithm.
    pub fn query_positive(&self, q: &Point<D>) -> bool {
        let mut ans = 0usize;
        self.for_candidate_roots(q, |this, root| {
            this.visit(0, root, q, &mut ans, 1);
            ans == 0
        });
        ans > 0
    }

    /// Counted twin of [`Self::query_positive`]: adds to `cells_visited` every
    /// hierarchy cell touched (cells rejected as disjoint included — the
    /// classification test is the work the paper's Lemma 5 bounds). Separate
    /// from the uncounted recursion so the hot path stays unchanged.
    pub fn query_positive_counted(&self, q: &Point<D>, cells_visited: &mut u64) -> bool {
        let mut ans = 0usize;
        let mut visited = 0u64;
        self.for_candidate_roots(q, |this, root| {
            this.visit_counted(0, root, q, &mut ans, 1, &mut visited);
            ans == 0
        });
        *cells_visited += visited;
        ans > 0
    }

    /// Invokes `f` on every level-0 node that could intersect `B(q, ε(1+ρ))`,
    /// until `f` returns `false`.
    fn for_candidate_roots(&self, q: &Point<D>, mut f: impl FnMut(&Self, usize) -> bool) {
        match &self.root_tree {
            Some(tree) => {
                // A level-0 cell intersecting the query ball has its center
                // within radius eps(1+rho) + half the cell diagonal.
                let reach = self.eps * (1.0 + self.rho) + 0.5 * self.eps + 1e-9 * self.eps;
                tree.for_each_within(q, reach, |i, _| f(self, i as usize));
            }
            None => {
                for i in 0..self.levels[0].len() {
                    if !f(self, i) {
                        break;
                    }
                }
            }
        }
    }

    /// Core recursion; stops adding once `ans >= stop_at`.
    fn visit(&self, lvl: usize, node_idx: usize, q: &Point<D>, ans: &mut usize, stop_at: usize) {
        if *ans >= stop_at {
            return;
        }
        let node = &self.levels[lvl][node_idx];
        let bbox = node.coord.aabb(self.sides[lvl]);
        if !bbox.intersects_ball(q, self.eps) {
            // Disjoint from B(q, ε): contributes nothing (even if it intersects
            // the outer ball — the paper's SW(5) case in Figure 7).
            return;
        }
        let is_leaf = lvl + 1 == self.levels.len();
        if is_leaf || bbox.inside_ball(q, self.eps * (1.0 + self.rho)) {
            *ans += node.count as usize;
            return;
        }
        for child in node.child_start..node.child_end {
            self.visit(lvl + 1, child as usize, q, ans, stop_at);
        }
    }

    fn visit_counted(
        &self,
        lvl: usize,
        node_idx: usize,
        q: &Point<D>,
        ans: &mut usize,
        stop_at: usize,
        cells_visited: &mut u64,
    ) {
        if *ans >= stop_at {
            return;
        }
        *cells_visited += 1;
        let node = &self.levels[lvl][node_idx];
        let bbox = node.coord.aabb(self.sides[lvl]);
        if !bbox.intersects_ball(q, self.eps) {
            return;
        }
        let is_leaf = lvl + 1 == self.levels.len();
        if is_leaf || bbox.inside_ball(q, self.eps * (1.0 + self.rho)) {
            *ans += node.count as usize;
            return;
        }
        for child in node.child_start..node.child_end {
            self.visit_counted(lvl + 1, child as usize, q, ans, stop_at, cells_visited);
        }
    }
}

/// Conservative upper bound on the bytes an [`ApproxRangeCounter`] build over
/// `n` points needs: at most `n` non-empty nodes on each of the
/// `h = hierarchy_levels(rho)` levels (each level is allocated at its exact
/// node count), plus the one buffer of `n` leaf keys the build sorts. Not
/// counted: the kd-tree over level-0 cells, built after the key buffer is
/// freed and only for counters with 32 or more of them (a per-grid-cell
/// counter of the ρ-approximate algorithm has one). Exposed so callers
/// that build *many* counters (those per-cell counters) can check an
/// aggregate budget up front without constructing anything.
pub fn estimated_build_bytes<const D: usize>(n: usize, rho: f64) -> u64 {
    let h = hierarchy_levels(rho) as u64;
    let node = size_of::<CounterNode<D>>() as u64;
    let key = size_of::<[i64; D]>() as u64;
    (n as u64).saturating_mul(h.saturating_mul(node).saturating_add(key))
}

/// Where two leaf keys of an `h`-level hierarchy part: the shallowest level
/// whose cells differ (`h` for the same leaf) and their order in the
/// depth-first hierarchy order. Level-0 cells compare lexicographically; below
/// that, children of one parent compare by their bucket, the low coordinate
/// bits read with dimension 0 most significant.
///
/// Compares coordinates, never a packed Morton key: `D · (h-1)` bits exceed
/// 64 in 7-D at ρ = 0.001.
fn split<const D: usize>(a: &[i64; D], b: &[i64; D], h: usize) -> (usize, Ordering) {
    let top = h - 1;
    for i in 0..D {
        match (a[i] >> top).cmp(&(b[i] >> top)) {
            Ordering::Equal => {}
            order => return (0, order),
        }
    }
    let mask = (1u64 << top) - 1;
    let diff = (0..D).fold(0u64, |acc, i| acc | ((a[i] ^ b[i]) as u64 & mask));
    if diff == 0 {
        return (h, Ordering::Equal);
    }
    // The highest differing bit `bit` is the one level `h-1-bit` reads.
    let bit = 63 - diff.leading_zeros() as usize;
    let order = (0..D)
        .map(|i| ((a[i] >> bit) & 1).cmp(&((b[i] >> bit) & 1)))
        .find(|o| o.is_ne())
        .expect("some dimension differs at the highest differing bit");
    (top - bit, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::cell::MAX_ABS_CELL_COORD;
    use dbscan_geom::point::p2;

    fn brute_count<const D: usize>(pts: &[Point<D>], q: &Point<D>, r: f64) -> usize {
        pts.iter().filter(|p| p.dist_sq(q) <= r * r).count()
    }

    fn lcg_points<const D: usize>(n: usize, span: f64, seed: u64) -> Vec<Point<D>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * span
        };
        (0..n)
            .map(|_| Point(std::array::from_fn(|_| next())))
            .collect()
    }

    /// Child bucket of a level-l cell (l ≥ 1) inside its parent: the low
    /// coordinate bits, dimension 0 most significant.
    fn bucket<const D: usize>(c: &CellCoord<D>) -> usize {
        c.0.iter().fold(0, |b, &x| (b << 1) | (x & 1) as usize)
    }

    /// Checks the hierarchy of `c`, built over `pts`, node by node: counts
    /// add up, children refine and tile their parent in ascending bucket
    /// order, and every point sits in the cell `CellCoord::of` gives it at
    /// every level.
    fn assert_structure<const D: usize>(pts: &[Point<D>], c: &ApproxRangeCounter<D>) {
        let h = c.levels.len();
        assert_eq!(h, hierarchy_levels(c.rho));
        let level0: usize = c.levels[0].iter().map(|n| n.count as usize).sum();
        assert_eq!(level0, pts.len(), "level-0 counts sum to n");
        for w in c.levels[0].windows(2) {
            assert!(w[0].coord < w[1].coord, "roots ascend lexicographically");
        }
        for lvl in 0..h {
            let mut next_child = 0;
            for node in &c.levels[lvl] {
                assert!(node.count > 0, "only non-empty cells are materialized");
                if lvl + 1 == h {
                    assert_eq!((node.child_start, node.child_end), (0, 0));
                    continue;
                }
                let (s, e) = (node.child_start as usize, node.child_end as usize);
                assert!(s < e, "an internal node has children");
                assert_eq!(s, next_child, "children tile the next level in order");
                next_child = e;
                let children = &c.levels[lvl + 1][s..e];
                let sum: u32 = children.iter().map(|ch| ch.count).sum();
                assert_eq!(node.count, sum, "count is the sum of the children's");
                for ch in children {
                    assert_eq!(ch.coord.parent(), node.coord, "child refines parent");
                }
                for w in children.windows(2) {
                    assert!(bucket(&w[0].coord) < bucket(&w[1].coord), "siblings ascend");
                }
            }
            if lvl + 1 < h {
                assert_eq!(
                    next_child,
                    c.levels[lvl + 1].len(),
                    "every child has a parent"
                );
            }
        }
        // Every point's root-to-leaf path exists, and each cell on it is the
        // one `CellCoord::of` assigns at that level. Excepted: a negative
        // coordinate whose quotient underflows to -0 at a coarse level. There
        // `CellCoord::of` says cell 0 while the finer levels say -1, and the
        // build keeps the cell that contains its children (the leaf's
        // ancestor), as a hierarchy must.
        for p in pts {
            let leaf = CellCoord::of(p, c.sides[h - 1]);
            let mut node = None;
            for lvl in 0..h {
                let want = CellCoord(leaf.0.map(|x| x >> (h - 1 - lvl)));
                let underflow = (0..D).any(|i| p[i] < 0.0 && p[i] / c.sides[lvl] == 0.0);
                if !underflow {
                    assert_eq!(want, CellCoord::of(p, c.sides[lvl]), "{p:?} at level {lvl}");
                }
                let range = match node {
                    None => 0..c.levels[0].len(),
                    Some(i) => {
                        let n: &CounterNode<D> = &c.levels[lvl - 1][i];
                        n.child_start as usize..n.child_end as usize
                    }
                };
                let found = range.clone().find(|&j| c.levels[lvl][j].coord == want);
                node = Some(found.unwrap_or_else(|| panic!("{p:?} has no level-{lvl} cell")));
            }
            let leaf_count = pts
                .iter()
                .filter(|q| CellCoord::of(q, c.sides[h - 1]) == leaf)
                .count();
            assert_eq!(c.levels[h - 1][node.unwrap()].count as usize, leaf_count);
        }
    }

    #[test]
    fn hierarchy_structure_holds_on_random_and_adversarial_inputs() {
        let rhos = [0.001, 0.01, 0.3, 1.0, 4.0];
        // Random points, centered on the origin so that every level sees
        // negative coordinates.
        for seed in 0..4 {
            let shift = |p: Point<2>| Point(p.0.map(|x| x - 10.0));
            let pts2: Vec<Point<2>> = lcg_points(300, 20.0, seed).into_iter().map(shift).collect();
            let pts5: Vec<Point<5>> = lcg_points(300, 8.0, seed);
            let pts7: Vec<Point<7>> = lcg_points(200, 6.0, seed);
            for rho in rhos {
                assert_structure(&pts2, &ApproxRangeCounter::build(&pts2, 1.5, rho));
                assert_structure(&pts5, &ApproxRangeCounter::build(&pts5, 2.0, rho));
                assert_structure(&pts7, &ApproxRangeCounter::build(&pts7, 2.0, rho));
            }
        }
        for rho in rhos {
            let eps = 1.0;
            let leaf = base_side::<2>(eps) / (1u64 << (hierarchy_levels(rho) - 1)) as f64;
            // Duplicates, with a few distinct points among them.
            let mut dups = vec![p2(0.25, -0.75); 50];
            dups.extend([p2(0.25, -0.75 + leaf), p2(-3.0, 2.0), p2(-3.0, 2.0)]);
            assert_structure(&dups, &ApproxRangeCounter::build(&dups, eps, rho));
            // Points exactly on leaf-cell boundaries, either side of 0.
            let grid: Vec<Point<2>> = (-6..6i32)
                .flat_map(|i| (-6..6i32).map(move |j| p2(i as f64 * leaf, j as f64 * 3.0 * leaf)))
                .collect();
            assert_structure(&grid, &ApproxRangeCounter::build(&grid, eps, rho));
            // Leaf coordinates at and near `try_build`'s 2^61 limit.
            let limit = MAX_ABS_CELL_COORD as f64 * leaf;
            let far = vec![
                p2(limit, -limit),
                p2(-limit, limit),
                p2(limit * 0.75, 0.0),
                p2(-limit * 0.75, 0.5 * leaf),
                p2(0.0, 0.0),
                p2(limit, -limit),
            ];
            let c = ApproxRangeCounter::try_build(&far, eps, rho, None).expect("within the limit");
            assert_structure(&far, &c);
        }
        // A negative coordinate whose quotient underflows to -0 at the
        // coarse levels but not at the leaf.
        let tiny = vec![p2(-1e-318, 1.0), p2(1e-318, -1e-318), p2(0.0, 0.0)];
        let c = ApproxRangeCounter::build(&tiny, 1e6, 0.001);
        assert_eq!(CellCoord::of(&tiny[0], c.sides[0]), CellCoord([0, 0]));
        assert_eq!(CellCoord::of(&tiny[0], c.sides[10]).0[0], -1);
        assert_structure(&tiny, &c);
    }

    #[test]
    fn empty_counter() {
        let c = ApproxRangeCounter::<2>::build(&[], 1.0, 0.01);
        assert_eq!(c.query(&p2(0.0, 0.0)), 0);
        assert!(!c.query_positive(&p2(0.0, 0.0)));
        assert_eq!(c.num_points(), 0);
    }

    #[test]
    fn counts_are_exact_when_far_from_boundary() {
        let pts = vec![p2(0.0, 0.0), p2(0.1, 0.0), p2(10.0, 10.0)];
        let c = ApproxRangeCounter::build(&pts, 1.0, 0.01);
        // Points well inside / outside both balls are counted exactly.
        assert_eq!(c.query(&p2(0.05, 0.0)), 2);
        assert_eq!(c.query(&p2(20.0, 20.0)), 0);
    }

    #[test]
    fn sandwich_guarantee_on_random_points() {
        let pts: Vec<Point<2>> = lcg_points(500, 20.0, 0xDEADBEEF);
        for rho in [0.001, 0.01, 0.1, 0.5] {
            let eps = 1.5;
            let c = ApproxRangeCounter::build(&pts, eps, rho);
            for q in pts.iter().step_by(7) {
                let lo = brute_count(&pts, q, eps);
                let hi = brute_count(&pts, q, eps * (1.0 + rho));
                let ans = c.query(q);
                assert!(
                    lo <= ans && ans <= hi,
                    "rho={rho}: {lo} <= {ans} <= {hi} violated at {q:?}"
                );
                assert_eq!(c.query_positive(q), ans > 0);
            }
        }
    }

    #[test]
    fn level_count_matches_formula() {
        let pts = vec![p2(0.0, 0.0)];
        assert_eq!(ApproxRangeCounter::build(&pts, 1.0, 0.001).num_levels(), 11);
        assert_eq!(ApproxRangeCounter::build(&pts, 1.0, 0.5).num_levels(), 2);
        assert_eq!(ApproxRangeCounter::build(&pts, 1.0, 1.0).num_levels(), 1);
    }

    #[test]
    fn num_points_counts_multiset() {
        let pts = vec![p2(1.0, 1.0); 17];
        let c = ApproxRangeCounter::build(&pts, 2.0, 0.1);
        assert_eq!(c.num_points(), 17);
        assert_eq!(c.query(&p2(1.0, 1.0)), 17);
    }

    #[test]
    fn root_tree_path_agrees_with_scan_path() {
        // Enough spread-out points to trigger the kd-tree over level-0 cells.
        let pts: Vec<Point<2>> = lcg_points(2000, 500.0, 42);
        let eps = 3.0;
        let rho = 0.05;
        let c = ApproxRangeCounter::build(&pts, eps, rho);
        for q in pts.iter().step_by(31) {
            let lo = brute_count(&pts, q, eps);
            let hi = brute_count(&pts, q, eps * (1.0 + rho));
            let ans = c.query(q);
            assert!(lo <= ans && ans <= hi, "{lo} <= {ans} <= {hi} at {q:?}");
        }
    }

    #[test]
    fn query_positive_early_exit_consistency() {
        let pts: Vec<Point<2>> = lcg_points(300, 10.0, 7);
        let c = ApproxRangeCounter::build(&pts, 0.8, 0.01);
        for q in pts.iter().step_by(11) {
            assert_eq!(c.query_positive(q), c.query(q) > 0);
        }
    }

    #[test]
    fn try_build_rejects_bad_params() {
        let pts = vec![p2(0.0, 0.0)];
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ApproxRangeCounter::try_build(&pts, eps, 0.01, None),
                Err(BuildError::Cell(CellError::BadSide { .. }))
            ));
        }
        for rho in [0.0, -0.5, 1e-10, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ApproxRangeCounter::try_build(&pts, 1.0, rho, None),
                Err(BuildError::Param { what: "rho", .. })
            ));
        }
    }

    #[test]
    fn try_build_rejects_leaf_level_overflow() {
        // 1e17 fits the level-0 grid at eps = 1, but the hierarchy for
        // rho = 0.001 divides the side by 2^10, pushing the leaf coordinate
        // past the checked 2^61 bound.
        let pts = vec![p2(1e17, 0.0)];
        assert!(ApproxRangeCounter::try_build(&pts, 1.0, 0.5, None).is_ok());
        assert!(matches!(
            ApproxRangeCounter::try_build(&pts, 1.0, 0.001, None),
            Err(BuildError::Cell(CellError::Overflow { .. }))
        ));
    }

    #[test]
    fn try_build_respects_byte_budget() {
        let pts: Vec<Point<2>> = lcg_points(200, 20.0, 3);
        assert!(matches!(
            ApproxRangeCounter::try_build(&pts, 1.0, 0.01, Some(100)),
            Err(BuildError::Budget {
                structure: "approximate range counter",
                ..
            })
        ));
        let c = ApproxRangeCounter::try_build(&pts, 1.0, 0.01, Some(1 << 24)).unwrap();
        assert_eq!(c.num_points(), 200);
    }

    #[test]
    fn counted_query_positive_agrees_and_counts() {
        let pts: Vec<Point<2>> = lcg_points(300, 10.0, 7);
        let c = ApproxRangeCounter::build(&pts, 0.8, 0.01);
        let mut total = 0u64;
        for q in pts.iter().step_by(11) {
            let before = total;
            assert_eq!(c.query_positive_counted(q, &mut total), c.query_positive(q));
            assert!(total > before, "every query visits at least one cell");
        }
    }
}
