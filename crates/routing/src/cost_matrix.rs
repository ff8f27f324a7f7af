use serde::{Deserialize, Serialize};

use paydemand_geo::{DistanceMatrix, Point};

/// Travel distances between one *start* location (the user's position)
/// and `m` task locations.
///
/// Task indices are `0..m`; the start is addressed by its own accessors
/// rather than an index, which rules out off-by-one confusion between
/// "node 0 = depot" and "task 0".
///
/// Start distances are computed once, at construction. Pairwise task
/// distances depend on how the matrix was built:
/// [`from_points`](Self::from_points) keeps the task points and computes
/// each Euclidean distance when it is asked for, so a greedy solve pays
/// for the `O(k·m)` distances it reads rather than all `m(m−1)/2`;
/// [`from_fn`](Self::from_fn) evaluates its closure once per unordered
/// pair into a [`DistanceMatrix`] table, for costs that are expensive to
/// compute (road networks, street grids).
///
/// # Examples
///
/// ```
/// use paydemand_geo::Point;
/// use paydemand_routing::CostMatrix;
///
/// let c = CostMatrix::from_points(
///     Point::new(0.0, 0.0),
///     &[Point::new(3.0, 4.0), Point::new(6.0, 8.0)],
/// );
/// assert_eq!(c.tasks(), 2);
/// assert_eq!(c.from_start(0), 5.0);
/// assert_eq!(c.between(0, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMatrix {
    /// Distance start → task j.
    start: Vec<f64>,
    /// Pairwise task distances.
    tasks: TaskCosts,
}

/// Where [`CostMatrix::between`] gets its answer.
#[derive(Debug, Clone, PartialEq)]
enum TaskCosts {
    /// Task locations; Euclidean distances are computed on demand.
    /// `Point::distance` is bitwise symmetric (`dx`, `dy` only change
    /// sign), so every value equals what a precomputed table would hold.
    Euclidean(Vec<Point>),
    /// Precomputed pairwise costs.
    Table(DistanceMatrix),
}

impl CostMatrix {
    /// Builds the matrix from the start point and task locations, with
    /// straight-line distances.
    #[must_use]
    pub fn from_points(start: Point, task_locations: &[Point]) -> Self {
        CostMatrix {
            start: task_locations.iter().map(|&t| start.distance(t)).collect(),
            tasks: TaskCosts::Euclidean(task_locations.to_vec()),
        }
    }

    /// Builds a matrix from explicit distances, for non-Euclidean costs.
    /// `start[j]` is the distance from the start to task `j`;
    /// `between(i, j)` is provided by the closure (symmetric by
    /// construction, evaluated once per unordered pair).
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(start: Vec<f64>, dist: F) -> Self {
        let n = start.len();
        CostMatrix { start, tasks: TaskCosts::Table(DistanceMatrix::from_fn(n, dist)) }
    }

    /// Number of tasks.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.start.len()
    }

    /// Distance from the start location to task `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= tasks()`.
    #[must_use]
    pub fn from_start(&self, j: usize) -> f64 {
        self.start[j]
    }

    /// Distance between tasks `i` and `j` (0 when `i == j`).
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= tasks()`.
    #[must_use]
    pub fn between(&self, i: usize, j: usize) -> f64 {
        match &self.tasks {
            TaskCosts::Euclidean(points) => {
                let (a, b) = (points[i], points[j]);
                if i == j {
                    0.0
                } else {
                    a.distance(b)
                }
            }
            TaskCosts::Table(table) => table.get(i, j),
        }
    }

    /// Total length of the route start → `order[0]` → `order[1]` → …
    /// (an open path: the user does not return to the start).
    ///
    /// Returns 0 for an empty order.
    ///
    /// # Panics
    ///
    /// Panics if any index in `order` is `>= tasks()`.
    #[must_use]
    pub fn route_length(&self, order: &[usize]) -> f64 {
        match order.first() {
            None => 0.0,
            Some(&first) => {
                self.from_start(first)
                    + order.windows(2).map(|w| self.between(w[0], w[1])).sum::<f64>()
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CostMatrix {
        CostMatrix::from_points(
            Point::new(0.0, 0.0),
            &[Point::new(10.0, 0.0), Point::new(10.0, 10.0), Point::new(0.0, 10.0)],
        )
    }

    #[test]
    fn distances_match_geometry() {
        let c = sample();
        assert_eq!(c.tasks(), 3);
        assert_eq!(c.from_start(0), 10.0);
        assert!((c.from_start(1) - 200f64.sqrt()).abs() < 1e-12);
        assert_eq!(c.between(0, 1), 10.0);
        assert_eq!(c.between(1, 2), 10.0);
        assert_eq!(c.between(2, 2), 0.0);
    }

    #[test]
    fn route_length_sums_open_path() {
        let c = sample();
        assert_eq!(c.route_length(&[]), 0.0);
        assert_eq!(c.route_length(&[0]), 10.0);
        assert_eq!(c.route_length(&[0, 1, 2]), 30.0);
        // Visiting the diagonal first is longer.
        assert!(c.route_length(&[1, 0, 2]) > 30.0);
    }

    #[test]
    fn from_fn_builds_custom_costs() {
        let c = CostMatrix::from_fn(vec![1.0, 2.0], |_, _| 7.0);
        assert_eq!(c.from_start(1), 2.0);
        assert_eq!(c.between(0, 1), 7.0);
        assert_eq!(c.between(1, 0), 7.0);
        assert_eq!(c.route_length(&[0, 1]), 8.0);
    }

    #[test]
    fn empty_matrix() {
        let c = CostMatrix::from_points(Point::ORIGIN, &[]);
        assert_eq!(c.tasks(), 0);
        assert_eq!(c.route_length(&[]), 0.0);
    }

    /// Points on a coarse grid, so duplicate locations are common, plus
    /// an explicit copy of the first point.
    pub(crate) fn grid_points(cells: Vec<(u8, u8)>) -> Vec<Point> {
        let mut pts: Vec<Point> = cells
            .into_iter()
            .map(|(x, y)| Point::new(f64::from(x) * 37.5, f64::from(y) * 41.25))
            .collect();
        pts.push(pts[0]);
        pts
    }

    /// The same distances as a precomputed [`DistanceMatrix`] table:
    /// index 0 is the start, task `j` is index `j + 1`.
    pub(crate) fn tabulated(start: Point, pts: &[Point]) -> CostMatrix {
        let mut all = vec![start];
        all.extend_from_slice(pts);
        let table = DistanceMatrix::from_points(&all);
        CostMatrix::from_fn((1..all.len()).map(|j| table.get(0, j)).collect(), |i, j| {
            table.get(i + 1, j + 1)
        })
    }

    proptest! {
        #[test]
        fn on_demand_euclidean_costs_equal_the_table_bitwise(
            cells in proptest::collection::vec((0u8..6, 0u8..6), 1..12),
            start in (0.0..200.0f64, 0.0..200.0f64),
            shuffle in 0usize..1000,
        ) {
            let pts = grid_points(cells);
            let start = Point::from(start);
            let lazy = CostMatrix::from_points(start, &pts);
            let table = tabulated(start, &pts);
            let m = pts.len();
            prop_assert_eq!(lazy.tasks(), m);
            for i in 0..m {
                prop_assert_eq!(lazy.from_start(i).to_bits(), table.from_start(i).to_bits());
                for j in 0..m {
                    prop_assert_eq!(lazy.between(i, j).to_bits(), table.between(i, j).to_bits());
                    prop_assert_eq!(lazy.between(i, j).to_bits(), lazy.between(j, i).to_bits());
                }
                prop_assert_eq!(lazy.between(i, i).to_bits(), 0f64.to_bits());
            }
            // The appended duplicate sits at distance 0 from point 0.
            prop_assert_eq!(lazy.between(0, m - 1).to_bits(), 0f64.to_bits());
            let order: Vec<usize> = (0..m).map(|k| (k * 7 + shuffle) % m).collect();
            prop_assert_eq!(lazy.route_length(&order).to_bits(), table.route_length(&order).to_bits());
        }

        #[test]
        fn every_solver_returns_the_same_outcome_over_either_representation(
            cells in proptest::collection::vec((0u8..6, 0u8..6), 1..9),
            start in (0.0..200.0f64, 0.0..200.0f64),
            reward_pool in proptest::collection::vec(0.05..2.0f64, 10..11),
            budget in 0.0..700.0f64,
        ) {
            use crate::orienteering::{self, Instance};
            use crate::{branch_bound, insertion};

            let pts = grid_points(cells);
            let start = Point::from(start);
            let lazy = CostMatrix::from_points(start, &pts);
            let table = tabulated(start, &pts);
            let rewards = &reward_pool[..pts.len()];
            let a = Instance::new(&lazy, rewards, budget, 0.002).expect("valid instance");
            let b = Instance::new(&table, rewards, budget, 0.002).expect("valid instance");
            prop_assert_eq!(orienteering::solve_greedy(&a), orienteering::solve_greedy(&b));
            prop_assert_eq!(
                orienteering::solve_greedy_two_opt(&a),
                orienteering::solve_greedy_two_opt(&b)
            );
            prop_assert_eq!(insertion::solve_insertion(&a), insertion::solve_insertion(&b));
            prop_assert_eq!(
                branch_bound::solve_branch_bound(&a),
                branch_bound::solve_branch_bound(&b)
            );
            prop_assert_eq!(
                orienteering::solve_exact(&a).expect("dp solves"),
                orienteering::solve_exact(&b).expect("dp solves")
            );
        }

        #[test]
        fn route_length_is_order_of_magnitude_sane(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..8)
        ) {
            let pts: Vec<Point> = coords.into_iter().map(Point::from).collect();
            let c = CostMatrix::from_points(Point::ORIGIN, &pts);
            let order: Vec<usize> = (0..pts.len()).collect();
            let len = c.route_length(&order);
            prop_assert!(len >= c.from_start(0));
            // Never longer than the sum of all segment upper bounds.
            prop_assert!(len <= 150.0 * pts.len() as f64);
        }
    }
}
