//! The paper's bitmask dynamic program (Eq. 11–12) with budget pruning.
//!
//! `dp[mask][j]` is the length of the shortest path that starts at the
//! user's location, visits exactly the task set `mask`, and ends at task
//! `j ∈ mask`. The recurrence (Eq. 12):
//!
//! ```text
//! dp[mask ∪ {q}][q] = min over j ∈ mask of dp[mask][j] + dist(j, q)
//! ```
//!
//! The paper fills the full `2^m × (m+1)` table (Fig. 4, `O(m²·2^m)`,
//! Theorem 2). We additionally *prune by the travel budget*: a state
//! whose length already exceeds the budget can never become feasible
//! again (distances are non-negative), so none of its supersets are
//! expanded through it. When the budget binds — the common case in the
//! paper's workload, where a user can walk 2–4 km across a 3 km × 3 km
//! region per round — this makes the exact solver output-sensitive and
//! fast even at m = 20. Passing `budget = ∞` reproduces the full table.
//!
//! # Layout
//!
//! A solve allocates a handful of flat buffers, not one per mask:
//!
//! * an `m × m` pair-distance table, filled from
//!   [`CostMatrix::between`] once per unordered pair;
//! * the *arena*: the stored masks in generation order, layer by layer
//!   (ascending popcount), and per mask of popcount `k` one row of `k`
//!   cells, one per task in the mask in ascending index order. A cell
//!   is a path length (`f64`, `∞` where no state ends there) and a
//!   parent index (`u8`), 9 bytes, in two parallel arrays. Rows of one
//!   layer share a width, so a row's first cell follows from its
//!   layer's first row and first cell;
//! * an open-addressing index from mask to arena row, keyed by a
//!   multiplicative (Fibonacci) hash.
//!
//! A mask is stored only once a path of finite, within-budget length
//! visits it, so [`SubsetDp::feasible_mask_count`] counts exactly the
//! masks [`SubsetDp::feasible_masks`] yields.
//!
//! # Pull form
//!
//! State `(S ∪ {q}, q)` has exactly one predecessor mask, `S`. The solver
//! walks the current layer's rows and, for every `q ∉ S`, takes the
//! minimum over `j ∈ S` in ascending `j` with a strict `<`, then writes
//! the cell once: one index lookup per (mask, added task). The first `j`
//! that attains the minimum is the parent, so lengths and parent
//! pointers are bit-identical to relaxing every edge into the cell in
//! ascending `j` order.
//!
//! # Ties
//!
//! Every tie is broken by index, never by storage order: a state's
//! parent is the lowest `j` reaching its length, [`SubsetDp::reconstruct`]
//! ends the route at the lowest task reaching the mask's shortest
//! length, and [`solve_exact`](crate::orienteering::solve_exact) picks
//! the lowest mask value among equally profitable masks.

use std::ops::Range;

use crate::{CostMatrix, RoutingError};

/// Maximum number of tasks the exact solver accepts (bitmask width and
/// memory guard; the paper's own evaluation uses m = 20).
pub const MAX_TASKS: usize = 25;

/// Sentinel parent for states whose path is `start → j` directly.
const PARENT_START: u8 = u8::MAX;

/// The solved table: shortest path lengths for every *budget-feasible*
/// subset of tasks, with parent pointers for route reconstruction.
///
/// # Examples
///
/// ```
/// use paydemand_geo::Point;
/// use paydemand_routing::{subset_dp, CostMatrix};
///
/// let costs = CostMatrix::from_points(
///     Point::ORIGIN,
///     &[Point::new(10.0, 0.0), Point::new(20.0, 0.0)],
/// );
/// let dp = subset_dp::solve(&costs, f64::INFINITY)?;
/// // Visiting both tasks: straight line 0 -> t0 -> t1 is 20 m.
/// assert_eq!(dp.shortest(0b11), Some(20.0));
/// assert_eq!(dp.reconstruct(0b11), Some(vec![0, 1]));
/// # Ok::<(), paydemand_routing::RoutingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubsetDp {
    tasks: usize,
    /// Stored masks in generation order; mask `masks[r]` owns row `r`.
    masks: Vec<u32>,
    /// Per cell, the shortest length ending at that cell's task, `∞`
    /// where no state ends there.
    dist: Vec<f64>,
    /// Per cell, the ending task of the predecessor state, or
    /// [`PARENT_START`].
    parent: Vec<u8>,
    /// `layers[k]` is the first row and first cell of the masks of
    /// popcount `k`.
    layers: [(usize, usize); MAX_TASKS + 1],
    index: MaskIndex,
    /// Number of finite cells.
    states: u64,
}

/// Runs the budget-pruned DP. `distance_budget` is in the same unit as
/// the cost matrix (metres); states longer than it are discarded.
///
/// # Errors
///
/// * [`RoutingError::TooManyTasks`] if the matrix has more than
///   [`MAX_TASKS`] tasks;
/// * [`RoutingError::InvalidParameter`] if `distance_budget` is NaN or
///   negative (`+∞` is allowed and disables pruning).
pub fn solve(costs: &CostMatrix, distance_budget: f64) -> Result<SubsetDp, RoutingError> {
    let m = costs.tasks();
    if m > MAX_TASKS {
        return Err(RoutingError::TooManyTasks { got: m, max: MAX_TASKS });
    }
    if distance_budget.is_nan() || distance_budget < 0.0 {
        return Err(RoutingError::InvalidParameter {
            name: "distance_budget",
            value: distance_budget,
        });
    }

    // Reserve room for the singletons and as many pairs up front: most
    // solves in the paper's workload store less and never regrow.
    let mut dp = SubsetDp {
        tasks: m,
        masks: Vec::with_capacity(2 * m),
        dist: Vec::with_capacity(3 * m),
        parent: Vec::with_capacity(3 * m),
        layers: [(0, 0); MAX_TASKS + 1],
        index: MaskIndex::with_capacity(2 * m),
        states: 0,
    };

    // Layer 1: start -> j.
    for j in 0..m {
        let d = costs.from_start(j);
        if d.is_finite() && d <= distance_budget {
            let row = dp.row_or_insert(1 << j);
            dp.set(dp.cells(row).start, d, PARENT_START);
        }
    }

    // `between[q·m + j]` is the distance j → q: `between` is bitwise
    // symmetric, so one call per unordered pair fills both cells.
    let mut between = vec![0.0; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let d = costs.between(i, j);
            between[i * m + j] = d;
            between[j * m + i] = d;
        }
    }

    // Expand layer by layer: rows `layer` hold the masks of popcount `k`,
    // and every successor lands in layer `k + 1`, appended after them.
    let all = if m == 0 { 0 } else { u32::MAX >> (32 - m) };
    let mut layer = 0..dp.masks.len();
    for k in 1..m {
        if layer.is_empty() {
            break;
        }
        let next_start = dp.masks.len();
        dp.layers[k + 1] = (next_start, dp.dist.len());
        for row in layer {
            let mask = dp.masks[row];
            let from = dp.cells(row);
            for q in bits(all & !mask) {
                let to_q = &between[q * m..(q + 1) * m];
                let (mut best, mut parent) = (f64::INFINITY, PARENT_START);
                for (j, &d) in bits(mask).zip(&dp.dist[from.clone()]) {
                    // An absent state holds ∞, and ∞ + d is never < best.
                    let cand = d + to_q[j];
                    if cand <= distance_budget && cand < best {
                        best = cand;
                        parent = j as u8;
                    }
                }
                if best.is_finite() {
                    let next_mask = mask | 1 << q;
                    let next = dp.row_or_insert(next_mask);
                    dp.set(dp.cells(next).start + rank(next_mask, q), best, parent);
                }
            }
        }
        layer = next_start..dp.masks.len();
    }

    Ok(dp)
}

/// The set bits of `mask`, in ascending index order.
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Position of task `j` among the set bits of `mask` (`j < 32`).
fn rank(mask: u32, j: usize) -> usize {
    (mask & ((1 << j) - 1)).count_ones() as usize
}

impl SubsetDp {
    /// The arena row of `mask`, appending an all-`∞` row if absent. Rows
    /// must be appended layer by layer, after `layers` records the
    /// layer's start.
    fn row_or_insert(&mut self, mask: u32) -> usize {
        if let Some(row) = self.index.get(mask, &self.masks) {
            return row;
        }
        let row = self.masks.len();
        let width = mask.count_ones() as usize;
        self.masks.push(mask);
        self.dist.resize(self.dist.len() + width, f64::INFINITY);
        self.parent.resize(self.parent.len() + width, PARENT_START);
        self.index.insert(row, &self.masks);
        row
    }

    /// The cells of row `row`: one per task in its mask, ascending.
    fn cells(&self, row: usize) -> Range<usize> {
        let width = self.masks[row].count_ones() as usize;
        let (first_row, first_cell) = self.layers[width];
        let start = first_cell + (row - first_row) * width;
        start..start + width
    }

    /// Writes a finite state; each cell is written once.
    fn set(&mut self, cell: usize, dist: f64, parent: u8) {
        self.dist[cell] = dist;
        self.parent[cell] = parent;
        self.states += 1;
    }

    /// The path lengths of `mask`'s row, if it is stored.
    fn row(&self, mask: u32) -> Option<&[f64]> {
        let row = self.index.get(mask, &self.masks)?;
        Some(&self.dist[self.cells(row)])
    }

    /// Number of tasks the DP was run over.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Shortest length of any path visiting exactly `mask`, the paper's
    /// `dp[ℓ] = min_j dp[ℓ][j]`. `Some(0.0)` for the empty mask; `None`
    /// if no within-budget path visits `mask`.
    #[must_use]
    pub fn shortest(&self, mask: u32) -> Option<f64> {
        if mask == 0 {
            return Some(0.0);
        }
        let best = row_min(self.row(mask)?);
        best.is_finite().then_some(best)
    }

    /// Every stored mask with its [`shortest`](Self::shortest) length,
    /// in generation order, read straight from the arena.
    pub(crate) fn shortest_by_mask(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        (0..self.masks.len()).map(|row| (self.masks[row], row_min(&self.dist[self.cells(row)])))
    }

    /// Shortest length of a path visiting exactly `mask` and ending at
    /// task `j` — the paper's `dp[ℓ][j]`. `None` when infeasible.
    #[must_use]
    pub fn shortest_ending_at(&self, mask: u32, j: usize) -> Option<f64> {
        let row = self.row(mask)?;
        if j >= self.tasks || mask & (1 << j) == 0 {
            return None;
        }
        let d = row[rank(mask, j)];
        d.is_finite().then_some(d)
    }

    /// Reconstructs the optimal visit order for `mask` (empty for mask
    /// 0). `None` when infeasible.
    #[must_use]
    pub fn reconstruct(&self, mask: u32) -> Option<Vec<usize>> {
        if mask == 0 {
            return Some(Vec::new());
        }
        let row = self.row(mask)?;
        let (mut j, _) = bits(mask)
            .zip(row)
            .filter(|(_, d)| d.is_finite())
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))?;
        let mut order = Vec::with_capacity(mask.count_ones() as usize);
        let mut cur_mask = mask;
        loop {
            order.push(j);
            let row = self.index.get(cur_mask, &self.masks)?;
            let parent = self.parent[self.cells(row).start + rank(cur_mask, j)];
            cur_mask &= !(1 << j);
            if parent == PARENT_START {
                debug_assert_eq!(cur_mask, 0, "parent chain must consume the mask");
                break;
            }
            j = usize::from(parent);
        }
        order.reverse();
        Some(order)
    }

    /// Iterates all budget-feasible non-empty masks, layer by layer
    /// (ascending popcount); within a layer the order is unspecified.
    /// Mask 0 (stay home) is always implicitly feasible.
    pub fn feasible_masks(&self) -> impl Iterator<Item = u32> + '_ {
        self.masks.iter().copied()
    }

    /// Number of stored (feasible) masks — useful to observe how hard
    /// the budget prunes. Always equals `feasible_masks().count()`.
    #[must_use]
    pub fn feasible_mask_count(&self) -> usize {
        self.masks.len()
    }

    /// Total number of finite `(mask, ending-task)` states the DP
    /// stored — the work the solver actually performed after budget
    /// pruning. Feeds the `selector_states_expanded_total` metric.
    #[must_use]
    pub fn state_count(&self) -> u64 {
        self.states
    }
}

/// `min_j row[j]`, folded in index order.
fn row_min(row: &[f64]) -> f64 {
    row.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Open-addressing index from a mask to its arena row: linear probing
/// over a power-of-two table kept at most half full. A slot holds
/// `row + 1`, with 0 for empty; the key is read back from the arena's
/// mask list, so a slot costs 4 bytes.
#[derive(Debug, Clone)]
struct MaskIndex {
    slots: Vec<u32>,
    /// `32 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl MaskIndex {
    fn with_capacity(rows: usize) -> Self {
        let len = (2 * rows).next_power_of_two().max(8);
        MaskIndex { slots: vec![0; len], shift: 32 - len.trailing_zeros() }
    }

    fn home(&self, mask: u32) -> usize {
        (mask.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    fn get(&self, mask: u32, masks: &[u32]) -> Option<usize> {
        let wrap = self.slots.len() - 1;
        let mut i = self.home(mask);
        loop {
            let row = (self.slots[i] as usize).checked_sub(1)?;
            if masks[row] == mask {
                return Some(row);
            }
            i = (i + 1) & wrap;
        }
    }

    /// Indexes `row` (whose mask is `masks[row]`, not yet indexed),
    /// doubling the table first if it would pass half full.
    fn insert(&mut self, row: usize, masks: &[u32]) {
        if 2 * (row + 1) > self.slots.len() {
            let mut grown = MaskIndex::with_capacity(self.slots.len());
            for (r, &mask) in masks[..row].iter().enumerate() {
                grown.place(r, mask);
            }
            *self = grown;
        }
        self.place(row, masks[row]);
    }

    fn place(&mut self, row: usize, mask: u32) {
        let wrap = self.slots.len() - 1;
        let mut i = self.home(mask);
        while self.slots[i] != 0 {
            i = (i + 1) & wrap;
        }
        self.slots[i] = row as u32 + 1;
    }
}

/// The reference DP the arena must match bit for bit: one `HashMap` row
/// of `m` states per mask, relaxing every (state, successor) edge in
/// push form.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    use super::PARENT_START;
    use crate::CostMatrix;

    #[derive(Debug, Clone, Copy)]
    struct State {
        dist: f64,
        parent: u8,
    }

    pub(super) struct OracleDp {
        tasks: usize,
        states: HashMap<u32, Vec<State>>,
    }

    /// [`super::solve`] for a valid budget and `m ≤ MAX_TASKS`.
    pub(super) fn solve(costs: &CostMatrix, distance_budget: f64) -> OracleDp {
        let m = costs.tasks();
        let mut states: HashMap<u32, Vec<State>> = HashMap::new();
        let mut frontier: Vec<u32> = Vec::new();
        for j in 0..m {
            let d = costs.from_start(j);
            if d <= distance_budget {
                let mask = 1u32 << j;
                let mut row = vec![State { dist: f64::INFINITY, parent: PARENT_START }; m];
                row[j] = State { dist: d, parent: PARENT_START };
                states.insert(mask, row);
                frontier.push(mask);
            }
        }
        while !frontier.is_empty() {
            let mut next_layer: Vec<u32> = Vec::new();
            for &mask in &frontier {
                for j in 0..m {
                    let dist_j = states[&mask][j].dist;
                    if !dist_j.is_finite() {
                        continue;
                    }
                    for q in 0..m {
                        if mask & (1 << q) != 0 {
                            continue;
                        }
                        let cand = dist_j + costs.between(j, q);
                        if cand > distance_budget {
                            continue;
                        }
                        let new_mask = mask | (1 << q);
                        let row = states.entry(new_mask).or_insert_with(|| {
                            next_layer.push(new_mask);
                            vec![State { dist: f64::INFINITY, parent: PARENT_START }; m]
                        });
                        if cand < row[q].dist {
                            row[q] = State { dist: cand, parent: j as u8 };
                        }
                    }
                }
            }
            frontier = next_layer;
        }
        OracleDp { tasks: m, states }
    }

    impl OracleDp {
        pub(super) fn shortest(&self, mask: u32) -> Option<f64> {
            if mask == 0 {
                return Some(0.0);
            }
            let row = self.states.get(&mask)?;
            let best = row.iter().map(|s| s.dist).fold(f64::INFINITY, f64::min);
            best.is_finite().then_some(best)
        }

        pub(super) fn shortest_ending_at(&self, mask: u32, j: usize) -> Option<f64> {
            let d = self.states.get(&mask)?.get(j)?.dist;
            d.is_finite().then_some(d)
        }

        pub(super) fn reconstruct(&self, mask: u32) -> Option<Vec<usize>> {
            if mask == 0 {
                return Some(Vec::new());
            }
            let row = self.states.get(&mask)?;
            let mut j = (0..self.tasks)
                .filter(|&j| row[j].dist.is_finite())
                .min_by(|&a, &b| row[a].dist.partial_cmp(&row[b].dist).expect("finite"))?;
            let mut order = Vec::new();
            let mut cur_mask = mask;
            loop {
                order.push(j);
                let state = self.states.get(&cur_mask)?[j];
                cur_mask &= !(1 << j);
                if state.parent == PARENT_START {
                    break;
                }
                j = state.parent as usize;
            }
            order.reverse();
            Some(order)
        }

        /// Masks with at least one finite state (the oracle also stores
        /// all-`∞` rows when an infinite step fits an infinite budget).
        pub(super) fn feasible_masks(&self) -> impl Iterator<Item = u32> + '_ {
            self.states
                .iter()
                .filter_map(|(&mask, row)| row.iter().any(|s| s.dist.is_finite()).then_some(mask))
        }

        pub(super) fn state_count(&self) -> u64 {
            self.states
                .values()
                .map(|row| row.iter().filter(|s| s.dist.is_finite()).count() as u64)
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_matrix::tests::{grid_points, tabulated};
    use paydemand_geo::Point;
    use proptest::prelude::*;

    fn line_costs() -> CostMatrix {
        // Tasks on a line east of the start: 10, 20, 30 metres out.
        CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(10.0, 0.0), Point::new(20.0, 0.0), Point::new(30.0, 0.0)],
        )
    }

    #[test]
    fn single_task_masks() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
        assert_eq!(dp.shortest(0b010), Some(20.0));
        assert_eq!(dp.shortest(0b100), Some(30.0));
        assert_eq!(dp.reconstruct(0b010), Some(vec![1]));
    }

    #[test]
    fn full_mask_takes_the_line_in_order() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        assert_eq!(dp.shortest(0b111), Some(30.0));
        assert_eq!(dp.reconstruct(0b111), Some(vec![0, 1, 2]));
    }

    #[test]
    fn empty_mask_is_free() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        assert_eq!(dp.shortest(0), Some(0.0));
        assert_eq!(dp.reconstruct(0), Some(vec![]));
    }

    #[test]
    fn ending_at_specific_task() {
        let dp = solve(&line_costs(), f64::INFINITY).unwrap();
        // Visit {t0, t1} ending at t0: 0 -> t1 -> t0 = 20 + 10 = 30.
        assert_eq!(dp.shortest_ending_at(0b011, 0), Some(30.0));
        // Ending at t1: 0 -> t0 -> t1 = 10 + 10 = 20.
        assert_eq!(dp.shortest_ending_at(0b011, 1), Some(20.0));
        // t2 is not in the mask.
        assert_eq!(dp.shortest_ending_at(0b011, 2), None);
    }

    #[test]
    fn budget_prunes_far_tasks() {
        let dp = solve(&line_costs(), 15.0).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
        assert_eq!(dp.shortest(0b010), None, "20 m exceeds the 15 m budget");
        assert_eq!(dp.shortest(0b111), None);
        assert_eq!(dp.feasible_mask_count(), 1);
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let dp = solve(&line_costs(), 10.0).unwrap();
        assert_eq!(dp.shortest(0b001), Some(10.0));
    }

    #[test]
    fn zero_budget_allows_nothing() {
        let dp = solve(&line_costs(), 0.0).unwrap();
        assert_eq!(dp.feasible_mask_count(), 0);
        assert_eq!(dp.shortest(0), Some(0.0));
    }

    #[test]
    fn rejects_too_many_tasks() {
        let pts: Vec<Point> = (0..MAX_TASKS + 1).map(|i| Point::new(i as f64, 0.0)).collect();
        let costs = CostMatrix::from_points(Point::ORIGIN, &pts);
        assert!(matches!(
            solve(&costs, 10.0),
            Err(RoutingError::TooManyTasks { got, max: MAX_TASKS }) if got == MAX_TASKS + 1
        ));
    }

    #[test]
    fn rejects_bad_budget() {
        assert!(matches!(
            solve(&line_costs(), f64::NAN),
            Err(RoutingError::InvalidParameter { .. })
        ));
        assert!(matches!(solve(&line_costs(), -1.0), Err(RoutingError::InvalidParameter { .. })));
    }

    #[test]
    fn square_detour_is_found() {
        // Start in the middle of a square of tasks: the optimal tour of
        // all four visits adjacent corners, not diagonals.
        let costs = CostMatrix::from_points(
            Point::new(5.0, 5.0),
            &[
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ],
        );
        let dp = solve(&costs, f64::INFINITY).unwrap();
        let best = dp.shortest(0b1111).unwrap();
        // centre -> corner (√50) + 3 sides (30).
        assert!((best - (50f64.sqrt() + 30.0)).abs() < 1e-9);
        let order = dp.reconstruct(0b1111).unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(costs.route_length(&order), best);
    }

    /// Brute-force shortest path over all permutations of `mask`.
    fn brute_force(costs: &CostMatrix, mask: u32) -> Option<f64> {
        let tasks: Vec<usize> = (0..costs.tasks()).filter(|&j| mask & (1 << j) != 0).collect();
        if tasks.is_empty() {
            return Some(0.0);
        }
        fn perms(items: &[usize]) -> Vec<Vec<usize>> {
            if items.len() <= 1 {
                return vec![items.to_vec()];
            }
            let mut out = Vec::new();
            for (i, &head) in items.iter().enumerate() {
                let mut rest = items.to_vec();
                rest.remove(i);
                for mut p in perms(&rest) {
                    p.insert(0, head);
                    out.push(p);
                }
            }
            out
        }
        perms(&tasks)
            .into_iter()
            .map(|p| costs.route_length(&p))
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dp_matches_brute_force(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..6),
            (sx, sy) in (0.0..100.0f64, 0.0..100.0f64),
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::new(sx, sy), &pts);
            let dp = solve(&costs, f64::INFINITY).unwrap();
            let full: u32 = (1 << pts.len()) - 1;
            for mask in 0..=full {
                let expect = brute_force(&costs, mask).unwrap();
                let got = dp.shortest(mask).unwrap();
                prop_assert!((got - expect).abs() < 1e-9,
                    "mask {mask:b}: dp {got} vs brute {expect}");
                // Reconstructed route must realise the reported length
                // and visit exactly the mask.
                let order = dp.reconstruct(mask).unwrap();
                prop_assert!((costs.route_length(&order) - got).abs() < 1e-9);
                let visited: u32 = order.iter().map(|&j| 1u32 << j).sum();
                prop_assert_eq!(visited, mask);
            }
        }

        #[test]
        fn pruned_dp_agrees_with_full_dp_below_budget(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..6),
            budget in 0.0..300.0f64,
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let costs = CostMatrix::from_points(Point::ORIGIN, &pts);
            let full_dp = solve(&costs, f64::INFINITY).unwrap();
            let pruned = solve(&costs, budget).unwrap();
            let full: u32 = (1 << pts.len()) - 1;
            for mask in 0..=full {
                match (pruned.shortest(mask), full_dp.shortest(mask)) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                    (None, Some(b)) => prop_assert!(b > budget,
                        "pruned lost a feasible mask {mask:b} of length {b} <= {budget}"),
                    (Some(_), None) => prop_assert!(false, "pruned found an impossible mask"),
                    (None, None) => {}
                }
            }
        }
    }

    #[test]
    fn infinite_pair_costs_store_no_phantom_rows() {
        // Each task is 1 m from the start, but they are unreachable from
        // each other: only the two singletons are feasible, whatever the
        // budget.
        let costs = CostMatrix::from_fn(vec![1.0, 1.0], |_, _| f64::INFINITY);
        for budget in [10.0, f64::INFINITY] {
            let dp = solve(&costs, budget).unwrap();
            assert_eq!(dp.feasible_mask_count(), 2, "budget {budget}");
            assert_eq!(dp.feasible_masks().count(), 2, "budget {budget}");
            assert_eq!(dp.state_count(), 2);
            assert_eq!(dp.shortest(0b11), None);
            assert_eq!(dp.reconstruct(0b11), None);
        }
        // An unreachable task is still visited second.
        let costs = CostMatrix::from_fn(vec![f64::INFINITY, 1.0], |_, _| 1.0);
        let dp = solve(&costs, f64::INFINITY).unwrap();
        let mut masks: Vec<u32> = dp.feasible_masks().collect();
        masks.sort_unstable();
        assert_eq!(masks, vec![0b10, 0b11]);
        assert_eq!(dp.feasible_mask_count(), 2);
        assert_eq!(dp.shortest(0b01), None);
        assert_eq!(dp.reconstruct(0b11), Some(vec![1, 0]));
    }

    #[test]
    fn non_finite_inputs_yield_only_finite_masks_and_routes() {
        use crate::orienteering::{solve_exact, Instance};

        let nan_task = CostMatrix::from_points(
            Point::ORIGIN,
            &[Point::new(10.0, 0.0), Point::new(f64::NAN, 5.0), Point::new(20.0, 0.0)],
        );
        let inf_pairs =
            CostMatrix::from_fn(
                vec![1.0, 2.0, 3.0],
                |i, j| {
                    if i + j == 1 {
                        f64::INFINITY
                    } else {
                        4.0
                    }
                },
            );
        let rewards = [1.0, 1.0, 1.0];
        for costs in [&nan_task, &inf_pairs] {
            for budget in [0.5, 15.0, 25.0, 1e9, f64::INFINITY] {
                let dp = solve(costs, budget).unwrap();
                assert_eq!(dp.feasible_mask_count(), dp.feasible_masks().count());
                for mask in dp.feasible_masks() {
                    let d = dp.shortest(mask).expect("a stored mask has a length");
                    assert!(d.is_finite() && d <= budget, "mask {mask:b}: {d} at budget {budget}");
                    let order = dp.reconstruct(mask).expect("a stored mask reconstructs");
                    assert_eq!(costs.route_length(&order).to_bits(), d.to_bits());
                }
                let best = solve_exact(&Instance::new(costs, &rewards, budget, 0.002).unwrap())
                    .expect("dp solves");
                assert!(best.distance.is_finite() && best.distance <= budget);
                assert_eq!(costs.route_length(&best.order).to_bits(), best.distance.to_bits());
            }
        }
        // The NaN task never enters a feasible mask.
        let dp = solve(&nan_task, f64::INFINITY).unwrap();
        assert!(dp.feasible_masks().all(|mask| mask & 0b010 == 0));
        assert_eq!(dp.feasible_mask_count(), 3);
    }

    /// Asserts the arena DP and the `HashMap` oracle agree bit for bit
    /// on every mask, ending, route and count.
    fn assert_matches_oracle(costs: &CostMatrix, budget: f64) -> Result<(), String> {
        let dp = solve(costs, budget).unwrap();
        let reference = oracle::solve(costs, budget);
        let m = costs.tasks();
        let bits = |d: Option<f64>| d.map(f64::to_bits);
        for mask in 0..1u32 << m {
            prop_assert_eq!(
                (mask, bits(dp.shortest(mask)), dp.reconstruct(mask)),
                (mask, bits(reference.shortest(mask)), reference.reconstruct(mask))
            );
            for j in 0..=m {
                prop_assert_eq!(
                    (mask, j, bits(dp.shortest_ending_at(mask, j))),
                    (mask, j, bits(reference.shortest_ending_at(mask, j)))
                );
            }
        }
        prop_assert_eq!(dp.state_count(), reference.state_count());
        let mut got: Vec<u32> = dp.feasible_masks().collect();
        let mut want: Vec<u32> = reference.feasible_masks().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(dp.feasible_mask_count(), got.len());
        prop_assert_eq!(got, want);
        Ok(())
    }

    /// Differential battery cases: full scale in release builds (CI runs
    /// it there), scaled down under debug assertions.
    const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 24 } else { 1024 };

    /// A budget: `∞` for `pick == 0`, otherwise a finite one up to
    /// `reach` metres (`pick == 1` gives 0).
    fn budget_of(pick: u8, frac: f64, reach: f64) -> f64 {
        match pick {
            0 => f64::INFINITY,
            1 => 0.0,
            _ => frac * reach,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]
        #[test]
        fn arena_matches_the_hashmap_oracle_on_grid_points(
            cells in proptest::collection::vec((0u8..6, 0u8..6), 0..14),
            start in (0.0..200.0f64, 0.0..200.0f64),
            tabulate in 0u8..2,
            pick in 0u8..5,
            frac in 0.0..1.0f64,
        ) {
            // Up to 14 tasks, duplicates common (coarse grid plus an
            // explicit copy of the first point), over either representation.
            let pts = if cells.is_empty() { Vec::new() } else { grid_points(cells) };
            let start = Point::from(start);
            let costs = if tabulate == 1 { tabulated(start, &pts) } else { CostMatrix::from_points(start, &pts) };
            assert_matches_oracle(&costs, budget_of(pick, frac, 900.0))?;
        }

        #[test]
        fn arena_matches_the_hashmap_oracle_on_from_fn_tables(
            start in proptest::collection::vec(0u8..45, 0..=14),
            pairs in proptest::collection::vec(0u8..45, 91),
            pick in 0u8..5,
            frac in 0.0..1.0f64,
        ) {
            // Integral-ish costs make equal-length paths, and so parent
            // ties, common; `∞` entries exercise unreachable steps.
            let cost = |d: u8| if d < 40 { f64::from(d) * 2.5 } else { f64::INFINITY };
            let m = start.len();
            let costs = CostMatrix::from_fn(start.into_iter().map(cost).collect(), |i, j| {
                cost(pairs[(i * m + j) % pairs.len()])
            });
            assert_matches_oracle(&costs, budget_of(pick, frac, 400.0))?;
        }
    }
}
