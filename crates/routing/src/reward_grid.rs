//! The pick step of the Theorem 3 greedy over a reward-bounded grid.
//!
//! Each greedy pick wants the open task with the highest marginal
//! profit `r_j − c·d(last, j)` that still fits the budget. Scanning all
//! `m` open tasks per pick costs `O(k·m)` distance evaluations for a
//! route of `k` picks. [`RewardGrid`] instead buckets the task indices
//! of one solve into a uniform grid over their bounding box (a counting
//! sort, `O(m)`), keeps each cell's highest reward, and searches cells
//! ring by ring outward from `last`.
//!
//! # Exactness
//!
//! A cell is skipped only when none of its tasks could be the scan's
//! answer. For a lower bound `d_lb` on the computed `Point::distance`
//! from `last` to any task in the cell, and the cell's highest reward
//! `r_max`:
//!
//! * rounding is monotone, so every task in the cell has
//!   `loaded + d + service ≥ loaded + d_lb` and
//!   `r_j − c·d ≤ r_max − c·d_lb`;
//! * so the cell holds no feasible task when `loaded + d_lb > budget`,
//!   no profitable one when `r_max − c·d_lb ≤ 0`, and no task that
//!   beats or ties the best marginal `b` found so far when
//!   `r_max − c·d_lb < b` (strictly: an equal marginal at a lower index
//!   still wins, as the scan's strict `>` keeps the first of equals).
//!
//! `d_lb` comes from the cell's extent: points are bucketed by the
//! clamped floor `⌊(x − x_min)·(1/side)⌋`, which is monotone in each
//! coordinate, so a point in column `c` lies in `[x_min + c·side,
//! x_min + (c+1)·side]` up to a few ulps of the coordinates' magnitude.
//! The gap from `last` to that box, shrunk by a slack of `1e-9` of that
//! magnitude and scaled by `1 − 1e-9`, is below the computed distance
//! to every point in the cell. The same argument bounds a whole ring: a
//! cell `k` rings out is at least `k − 1` cell sides away. The search
//! stops at the first ring whose bound, taken with the highest reward
//! of any task, fails the tests above.
//!
//! Every task that survives is scored with the scan's own arithmetic:
//! `loaded + detour + service > budget` rejects, the marginal is
//! `r_j − c·detour`, and ties go to the lowest index. A task whose
//! detour is not finite is never picked.
//!
//! A [`CostMatrix::from_fn`](crate::CostMatrix::from_fn) table has no
//! locations: its grid is one cell with `d_lb = 0`, which the same
//! search reads in full. So is the grid of fewer than 128 tasks.

use paydemand_geo::Point;

use crate::orienteering::Instance;

/// Mean number of tasks per cell the grid is sized for.
const TASKS_PER_CELL: usize = 2;

/// Fewer tasks than this share one cell: measured on 64 and 100
/// uniform tasks, scanning them all was no slower than the rings.
const MIN_GRID_TASKS: usize = 128;

/// Relative slack that keeps `d_lb` below the computed distance.
const SLACK: f64 = 1e-9;

/// Where the grid sits: the start and task locations of a Euclidean
/// matrix, and the cells over them.
#[derive(Clone, Copy)]
struct Frame<'i> {
    start: Point,
    points: &'i [Point],
    min: Point,
    side: f64,
    /// `1 / side`: bucketing multiplies by it.
    inv: f64,
    cols: usize,
    rows: usize,
    /// Absolute slack: [`SLACK`] × the coordinates' magnitude.
    slack: f64,
}

impl Frame<'_> {
    /// The row-major cell of `p`: a clamped floor, monotone in each
    /// coordinate (non-finite coordinates land in the first row or
    /// column; such tasks are never picked).
    fn cell(&self, p: Point) -> usize {
        let c = (((p.x - self.min.x) * self.inv) as usize).min(self.cols - 1);
        let r = (((p.y - self.min.y) * self.inv) as usize).min(self.rows - 1);
        r * self.cols + c
    }

    /// A lower bound on the computed distance from `origin` to any
    /// point bucketed in cell (`c`, `r`).
    fn lower_bound(&self, origin: Point, c: usize, r: usize) -> f64 {
        let gap = |o: f64, lo: f64| {
            let hi = lo + self.side;
            ((lo - o).max(o - hi) - self.slack).max(0.0)
        };
        let gx = gap(origin.x, self.min.x + c as f64 * self.side);
        let gy = gap(origin.y, self.min.y + r as f64 * self.side);
        (gx * gx + gy * gy).sqrt() * (1.0 - SLACK)
    }

    /// A lower bound on the computed distance from a point bucketed (or
    /// clamped) into one cell to any point bucketed `k` rings out: at
    /// least `k − 1` whole cells lie between them along one axis.
    fn ring_lower_bound(&self, k: usize) -> f64 {
        let gap = k.saturating_sub(1) as f64 * self.side;
        (gap - self.slack).max(0.0) * (1.0 - SLACK)
    }
}

/// The best candidate of a pick so far: (task, detour, marginal).
type Best = Option<(usize, f64, f64)>;

/// The open tasks of one greedy solve, bucketed by location with each
/// cell's highest reward; see the module docs.
pub(crate) struct RewardGrid<'i, 'a> {
    instance: &'i Instance<'a>,
    /// `None`: a single cell with `d_lb = 0`.
    frame: Option<Frame<'i>>,
    cells: Vec<Cell>,
    /// Task indices grouped by cell.
    tasks: Vec<u32>,
    /// The highest reward of any task.
    reward_max_all: f64,
}

/// One grid cell: its open tasks are `tasks[first..first + open]`.
#[derive(Clone, Copy)]
struct Cell {
    first: u32,
    open: u32,
    /// The highest reward ever bucketed here (an upper bound on the
    /// open tasks' rewards).
    reward_max: f64,
}

impl<'i, 'a> RewardGrid<'i, 'a> {
    /// Buckets every task of `instance`, all open.
    pub(crate) fn new(instance: &'i Instance<'a>) -> Self {
        let m = instance.costs().tasks();
        let frame =
            instance.costs().locations().and_then(|(start, points)| frame_for(start, points));
        let cells = frame.map_or(1, |f| f.cols * f.rows);
        let empty = Cell { first: 0, open: 0, reward_max: f64::NEG_INFINITY };
        let mut grid = RewardGrid {
            instance,
            frame,
            cells: vec![empty; cells],
            tasks: vec![0; m],
            reward_max_all: f64::NEG_INFINITY,
        };
        // A counting sort: tally each cell, turn the tallies into
        // offsets, then place the tasks in ascending index order.
        for j in 0..m {
            let reward = instance.rewards()[j];
            let cell = grid.cell_of(j);
            let cell = &mut grid.cells[cell];
            cell.open += 1;
            cell.reward_max = cell.reward_max.max(reward);
            grid.reward_max_all = grid.reward_max_all.max(reward);
        }
        let mut first = 0;
        for cell in &mut grid.cells {
            cell.first = first;
            first += std::mem::take(&mut cell.open);
        }
        for j in 0..m {
            let cell = grid.cell_of(j);
            let cell = &mut grid.cells[cell];
            grid.tasks[(cell.first + cell.open) as usize] = j as u32;
            cell.open += 1;
        }
        grid
    }

    /// Removes the open task `j` from the open set.
    pub(crate) fn take(&mut self, j: usize) {
        let cell = self.cell_of(j);
        let cell = &mut self.cells[cell];
        let open = &mut self.tasks[cell.first as usize..(cell.first + cell.open) as usize];
        let at = open.iter().position(|&t| t as usize == j).expect("only open tasks are taken");
        open.swap(at, open.len() - 1);
        cell.open -= 1;
    }

    /// The open task a greedy step from `last` (the start when `None`)
    /// moves to, with its detour: the highest marginal profit
    /// `reward − rate · detour` among tasks with a finite detour that
    /// fit `loaded + detour + service ≤ budget`, if positive; the lowest
    /// index among equals.
    pub(crate) fn pick(&self, last: Option<usize>, loaded: f64) -> Option<(usize, f64)> {
        let mut best: Best = None;
        match self.frame {
            Some(frame) => {
                let origin = last.map_or(frame.start, |l| frame.points[l]);
                if !(origin.x.is_finite() && origin.y.is_finite()) {
                    // Every detour from here is ∞ or NaN.
                    return None;
                }
                self.search_rings(&frame, origin, last, loaded, &mut best);
            }
            None => self.scan_cell(0, 0.0, last, loaded, &mut best),
        }
        best.map(|(j, detour, _)| (j, detour))
    }

    /// Visits the cells ring by ring outward from `origin`'s cell until
    /// a whole ring is out of reach.
    fn search_rings(
        &self,
        frame: &Frame<'_>,
        origin: Point,
        last: Option<usize>,
        loaded: f64,
        best: &mut Best,
    ) {
        let (cols, rows) = (frame.cols, frame.rows);
        let home = frame.cell(origin);
        let (c0, r0) = (home % cols, home / cols);
        let reach = c0.max(cols - 1 - c0).max(r0).max(rows - 1 - r0);
        for k in 0..=reach {
            if self.hopeless(self.reward_max_all, frame.ring_lower_bound(k), loaded, *best) {
                return;
            }
            let mut visit = |c: usize, r: usize| {
                let cell = r * cols + c;
                if self.cells[cell].open > 0 {
                    let lb = frame.lower_bound(origin, c, r);
                    self.scan_cell(cell, lb, last, loaded, best);
                }
            };
            for r in r0.saturating_sub(k)..=(r0 + k).min(rows - 1) {
                if r + k == r0 || r == r0 + k {
                    (c0.saturating_sub(k)..=(c0 + k).min(cols - 1)).for_each(|c| visit(c, r));
                } else {
                    // Between its top and bottom rows a ring has two cells.
                    if c0 >= k {
                        visit(c0 - k, r);
                    }
                    if c0 + k < cols {
                        visit(c0 + k, r);
                    }
                }
            }
        }
    }

    /// Scores the open tasks of `cell`, unless its bound `lb` on their
    /// detours rules them all out.
    fn scan_cell(&self, cell: usize, lb: f64, last: Option<usize>, loaded: f64, best: &mut Best) {
        let Cell { first, open, reward_max } = self.cells[cell];
        if self.hopeless(reward_max, lb, loaded, *best) {
            return;
        }
        let instance = self.instance;
        let (costs, rewards) = (instance.costs(), instance.rewards());
        let (budget, rate) = (instance.distance_budget(), instance.cost_per_meter());
        for &j in &self.tasks[first as usize..(first + open) as usize] {
            let j = j as usize;
            if best.is_some_and(|(_, _, bm)| rewards[j] - rate * lb < bm) {
                continue;
            }
            let detour = match last {
                None => costs.from_start(j),
                Some(last) => costs.between(last, j),
            };
            if !detour.is_finite() || loaded + detour + instance.service_of(j) > budget {
                continue;
            }
            let marginal = rewards[j] - rate * detour;
            if marginal <= 0.0 {
                continue;
            }
            if best.is_none_or(|(bj, _, bm)| marginal > bm || (marginal == bm && j < bj)) {
                *best = Some((j, detour, marginal));
            }
        }
    }

    /// Whether no task with reward at most `reward` and detour at least
    /// `lb` can fit, profit, or beat or tie `best`.
    fn hopeless(&self, reward: f64, lb: f64, loaded: f64, best: Best) -> bool {
        let bound = reward - self.instance.cost_per_meter() * lb;
        loaded + lb > self.instance.distance_budget()
            || bound <= 0.0
            || best.is_some_and(|(_, _, bm)| bound < bm)
    }

    /// The cell task `j` is bucketed in.
    fn cell_of(&self, j: usize) -> usize {
        self.frame.map_or(0, |f| f.cell(f.points[j]))
    }
}

/// Sizes the grid for the task `points`: about [`TASKS_PER_CELL`]
/// tasks per cell over the finite points' bounding box, and at most
/// `m / TASKS_PER_CELL + 1` cells along either side. `None` (one cell,
/// `d_lb = 0`) for fewer than [`MIN_GRID_TASKS`] tasks, or a box that is
/// empty, a single point, or too large to measure.
fn frame_for(start: Point, points: &[Point]) -> Option<Frame<'_>> {
    if points.len() < MIN_GRID_TASKS {
        return None;
    }
    let mut min = Point::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points.iter().filter(|p| p.x.is_finite() && p.y.is_finite()) {
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    }
    let (w, h) = (max.x - min.x, max.y - min.y);
    let cells = (points.len() / TASKS_PER_CELL) as f64;
    let side = (w * h / cells).sqrt().max(w.max(h) / cells);
    if !(w.is_finite() && h.is_finite() && side > 0.0 && side.is_finite()) {
        return None;
    }
    let magnitude = min.x.abs().max(min.y.abs()).max(max.x.abs()).max(max.y.abs()) + side;
    Some(Frame {
        start,
        points,
        min,
        side,
        inv: 1.0 / side,
        cols: (w / side).ceil().max(1.0) as usize,
        rows: (h / side).ceil().max(1.0) as usize,
        slack: SLACK * magnitude,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_matrix::tests::tabulated;
    use crate::orienteering::{self, Solution};
    use crate::{two_opt, CostMatrix};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Theorem 3 greedy as a linear scan over every open task per
    /// pick: the reference the grid search must reproduce bit for bit.
    mod oracle {
        use super::*;

        fn scan_pick(
            instance: &Instance<'_>,
            selected: &[bool],
            last: Option<usize>,
            loaded: f64,
        ) -> Option<(usize, f64)> {
            let costs = instance.costs();
            let mut best: Option<(usize, f64, f64)> = None;
            for j in (0..costs.tasks()).filter(|&j| !selected[j]) {
                let detour = match last {
                    None => costs.from_start(j),
                    Some(last) => costs.between(last, j),
                };
                if !detour.is_finite()
                    || loaded + detour + instance.service_of(j) > instance.distance_budget()
                {
                    continue;
                }
                let marginal = instance.rewards()[j] - instance.cost_per_meter() * detour;
                if marginal <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, _, bm)| marginal > bm) {
                    best = Some((j, detour, marginal));
                }
            }
            best.map(|(j, detour, _)| (j, detour))
        }

        fn extend(instance: &Instance<'_>, base: Solution) -> (Solution, u64) {
            let mut selected = vec![false; instance.costs().tasks()];
            for &j in &base.order {
                selected[j] = true;
            }
            let mut order = base.order;
            let mut traveled = base.distance;
            let mut loaded = traveled + instance.service_load(&order);
            let mut passes = 0;
            loop {
                passes += 1;
                let Some((j, detour)) =
                    scan_pick(instance, &selected, order.last().copied(), loaded)
                else {
                    return (Solution::from_order(order, instance), passes);
                };
                selected[j] = true;
                order.push(j);
                traveled += detour;
                loaded = traveled + instance.service_load(&order);
            }
        }

        pub(super) fn greedy(instance: &Instance<'_>) -> (Solution, u64) {
            extend(instance, Solution::stay_home())
        }

        pub(super) fn greedy_two_opt(instance: &Instance<'_>) -> (Solution, u64) {
            let (mut solution, mut iterations) = greedy(instance);
            loop {
                iterations += 1;
                let improved = two_opt::improve(instance.costs(), solution.order.clone());
                let (extended, _) = extend(instance, Solution::from_order(improved, instance));
                if extended.profit > solution.profit {
                    solution = extended;
                } else {
                    return (solution, iterations);
                }
            }
        }
    }

    /// Differential battery cases: full scale in release builds (CI runs
    /// it there), scaled down under debug assertions.
    const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 32 } else { 1024 };

    /// The 3 km square's side, as in the paper's area.
    const SIDE: f64 = 3000.0;

    /// `m` task locations in one of four layouts:
    /// 0. uniform over the square;
    /// 1. a coarse 8 × 8 lattice, so duplicate points are common;
    /// 2. multiples of `SIDE / n` with the square's corners pinned and
    ///    `m = 2n²`, so the grid's cells are `SIDE / n` wide and most
    ///    points sit on (or an ulp off) a cell border;
    /// 3. uniform, with one in eight coordinates NaN or `±∞`.
    fn layout(kind: u8, m: usize, rng: &mut StdRng) -> Vec<Point> {
        let uniform =
            |rng: &mut StdRng| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE));
        match kind {
            0 => (0..m).map(|_| uniform(rng)).collect(),
            1 => (0..m)
                .map(|_| {
                    let (x, y) = (rng.gen_range(0u8..8), rng.gen_range(0u8..8));
                    Point::new(f64::from(x) * 375.0, f64::from(y) * 375.0)
                })
                .collect(),
            2 => {
                let n = (1..=17).rev().find(|n| 2 * n * n <= m.max(2)).unwrap_or(1);
                let step = SIDE / n as f64;
                let mut pts = vec![Point::ORIGIN, Point::new(SIDE, SIDE)];
                while pts.len() < m {
                    let (x, y) = (rng.gen_range(0..=2 * n), rng.gen_range(0..=2 * n));
                    pts.push(Point::new(x as f64 * step / 2.0, y as f64 * step / 2.0));
                }
                pts.truncate(m);
                pts
            }
            _ => (0..m)
                .map(|_| {
                    let mut p = uniform(rng);
                    if rng.gen_range(0u8..8) == 0 {
                        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                        p.x = bad[rng.gen_range(0usize..3)];
                    }
                    p
                })
                .collect(),
        }
    }

    /// Runs both greedy solvers and their oracles on one instance.
    fn assert_matches_oracle(instance: &Instance<'_>) -> Result<(), String> {
        let bits = |(s, passes): &(Solution, u64)| {
            (s.order.clone(), s.distance.to_bits(), s.reward.to_bits(), s.profit.to_bits(), *passes)
        };
        let got = orienteering::solve_greedy_with_stats(instance);
        prop_assert_eq!(bits(&got), bits(&oracle::greedy(instance)));
        let got = orienteering::solve_greedy_two_opt_with_stats(instance);
        prop_assert_eq!(bits(&got), bits(&oracle::greedy_two_opt(instance)));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]
        #[test]
        fn grid_pick_matches_the_scan_oracle(
            seed in 0u64..u64::MAX,
            m in 0usize..=600,
            kind in 0u8..4,
            (levels, rate, serviced, tabulate) in (0u8..2, 0u8..3, 0u8..3, 0u8..5),
            (budget_pick, frac) in (0u8..4, 0.0..1.0f64),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // One case in five runs on a `from_fn` table; tables cost m² to
            // build, so they stay at up to 160 tasks.
            let m = if tabulate == 0 { m.min(160) } else { m };
            let pts = layout(kind, m, &mut rng);
            let start = if rng.gen_range(0u8..16) == 0 {
                Point::new(f64::NAN, 0.0)
            } else {
                Point::new(rng.gen_range(-500.0..SIDE + 500.0), rng.gen_range(-500.0..SIDE + 500.0))
            };
            let costs = if tabulate == 0 {
                tabulated(start, &pts)
            } else {
                CostMatrix::from_points(start, &pts)
            };
            // Five levels make equal marginals common; continuous rewards
            // make every cell's bound different.
            let rewards: Vec<f64> = (0..m)
                .map(|_| match levels {
                    0 => f64::from(rng.gen_range(1u8..=5)) * 0.5,
                    _ => rng.gen_range(0.05..3.0),
                })
                .collect();
            let rate = [0.0, 0.002, 0.02][usize::from(rate)];
            let budget = match budget_pick {
                0 => f64::INFINITY,
                1 => 0.0,
                _ => frac * 4.0 * SIDE,
            };
            let instance = Instance::new(&costs, &rewards, budget, rate).expect("valid instance");
            let instance = match serviced {
                0 => instance,
                1 => instance.with_service(vec![120.0; m]).expect("valid service"),
                _ => instance
                    .with_service((0..m).map(|_| rng.gen_range(0.0..400.0)).collect())
                    .expect("valid service"),
            };
            assert_matches_oracle(&instance)?;
        }

        #[test]
        fn lower_bounds_never_exceed_a_computed_distance(
            seed in 0u64..u64::MAX,
            m in 1usize..=600,
            kind in 0u8..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = layout(kind, m, &mut rng);
            let start = Point::new(rng.gen_range(-500.0..SIDE + 500.0), rng.gen_range(-500.0..SIDE + 500.0));
            let costs = CostMatrix::from_points(start, &pts);
            let rewards = vec![1.0; m];
            let instance = Instance::new(&costs, &rewards, f64::INFINITY, 0.002).expect("valid");
            let grid = RewardGrid::new(&instance);
            let Some(frame) = grid.frame else { return Ok(()) };
            let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
            let origins: Vec<Point> =
                std::iter::once(start).chain(pts.iter().copied().filter(finite).take(40)).collect();
            for origin in origins {
                let home = frame.cell(origin);
                let (c0, r0) = (home % frame.cols, home / frame.cols);
                for (j, p) in pts.iter().enumerate().filter(|(_, p)| finite(p)) {
                    let cell = grid.cell_of(j);
                    let (c, r) = (cell % frame.cols, cell / frame.cols);
                    let d = origin.distance(*p);
                    let lb = frame.lower_bound(origin, c, r);
                    prop_assert!(lb <= d, "cell bound {lb} > {d} from {origin:?} to {p:?}");
                    let ring = c.abs_diff(c0).max(r.abs_diff(r0));
                    let ring_lb = frame.ring_lower_bound(ring);
                    prop_assert!(ring_lb <= d, "ring {ring} bound {ring_lb} > {d}");
                }
            }
        }
    }

    #[test]
    fn taken_tasks_leave_their_cells() {
        let pts: Vec<Point> = (0..200).map(|i| Point::new(f64::from(i) * 10.0, 0.0)).collect();
        let costs = CostMatrix::from_points(Point::ORIGIN, &pts);
        let rewards = vec![1.0; 200];
        let instance = Instance::new(&costs, &rewards, f64::INFINITY, 0.002).unwrap();
        let mut grid = RewardGrid::new(&instance);
        assert!(grid.frame.is_some_and(|f| f.cols > 1), "a 1,990 m line spans several cells");
        assert_eq!(grid.pick(None, 0.0), Some((0, 0.0)));
        grid.take(0);
        assert_eq!(grid.pick(None, 0.0), Some((1, 10.0)));
        assert_eq!(grid.cells.iter().map(|c| c.open).sum::<u32>(), 199);
    }
}
