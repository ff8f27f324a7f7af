use paydemand_routing::orienteering;

use crate::selection::{SelectionOutcome, SelectionProblem, SolveStats, TaskSelector};
use crate::CoreError;

/// The paper's greedy task selection (§V-B, Theorem 3, `O(m²)`).
///
/// "Each mobile user will greedily select the task which can mostly
/// increase the total profit at each step within the traveling
/// time/distance budget until no satisfied task can be found."
///
/// # Examples
///
/// ```
/// use paydemand_core::selection::{GreedySelector, SelectionProblem, TaskSelector};
/// use paydemand_core::{PublishedTask, TaskId};
/// use paydemand_geo::Point;
///
/// let tasks = vec![PublishedTask {
///     id: TaskId(0),
///     location: Point::new(100.0, 0.0),
///     reward: 2.0,
/// }];
/// let problem = SelectionProblem::new(Point::ORIGIN, &tasks, 500.0, 2.0, 0.002)?;
/// let outcome = GreedySelector.select(&problem)?;
/// assert_eq!(outcome.tasks(), &[TaskId(0)]);
/// # Ok::<(), paydemand_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedySelector;

impl TaskSelector for GreedySelector {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn select(&self, problem: &SelectionProblem) -> Result<SelectionOutcome, CoreError> {
        let parts = problem.instance()?;
        let instance = parts.build(problem)?;
        Ok(problem.outcome_from(orienteering::solve_greedy(&instance)))
    }

    fn select_with_stats(
        &self,
        problem: &SelectionProblem,
    ) -> Result<(SelectionOutcome, SolveStats), CoreError> {
        let parts = problem.instance()?;
        let instance = parts.build(problem)?;
        let (solution, iterations) = orienteering::solve_greedy_with_stats(&instance);
        let stats = SolveStats { iterations, ..SolveStats::default() };
        Ok((problem.outcome_from(solution), stats))
    }
}

/// Greedy selection polished by 2-opt route shortening, with the saved
/// distance re-invested into further greedy picks.
///
/// An extension beyond the paper (its ablation quantifies how much of
/// the DP-vs-greedy profit gap cheap local search closes while staying
/// polynomial).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyTwoOptSelector;

impl TaskSelector for GreedyTwoOptSelector {
    fn name(&self) -> &'static str {
        "greedy+2opt"
    }

    fn select(&self, problem: &SelectionProblem) -> Result<SelectionOutcome, CoreError> {
        let parts = problem.instance()?;
        let instance = parts.build(problem)?;
        Ok(problem.outcome_from(orienteering::solve_greedy_two_opt(&instance)))
    }

    fn select_with_stats(
        &self,
        problem: &SelectionProblem,
    ) -> Result<(SelectionOutcome, SolveStats), CoreError> {
        let parts = problem.instance()?;
        let instance = parts.build(problem)?;
        let (solution, iterations) = orienteering::solve_greedy_two_opt_with_stats(&instance);
        let stats = SolveStats { iterations, ..SolveStats::default() };
        Ok((problem.outcome_from(solution), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::tests::published;
    use crate::selection::DpSelector;
    use crate::TaskId;
    use paydemand_geo::Point;
    use proptest::prelude::*;

    #[test]
    fn greedy_scales_past_the_dp_cap() {
        let tasks: Vec<_> = (0..200)
            .map(|i| published(i, (i % 20) as f64 * 50.0, (i / 20) as f64 * 50.0, 1.0))
            .collect();
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 2000.0, 2.0, 0.002).unwrap();
        let o = GreedySelector.select(&p).unwrap();
        assert!(o.distance() <= p.distance_budget());
        assert!(!o.tasks().is_empty());
        assert!(o.profit() > 0.0);
    }

    #[test]
    fn two_opt_never_worse_than_greedy() {
        let tasks = vec![
            published(0, 100.0, 0.0, 1.0),
            published(1, 0.0, 100.0, 1.0),
            published(2, 100.0, 100.0, 1.0),
            published(3, 200.0, 0.0, 1.0),
        ];
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 1000.0, 2.0, 0.002).unwrap();
        let g = GreedySelector.select(&p).unwrap();
        let t = GreedyTwoOptSelector.select(&p).unwrap();
        assert!(t.profit() >= g.profit() - 1e-12);
    }

    #[test]
    fn greedy_skips_tasks_at_non_finite_locations() {
        let tasks = vec![
            published(0, 100.0, 0.0, 1.0),
            published(1, f64::NAN, 0.0, 1.0),
            published(2, 200.0, 0.0, 1.0),
        ];
        let p = SelectionProblem::new(Point::ORIGIN, &tasks, 1000.0, 2.0, 0.002).unwrap();
        let o = GreedySelector.select(&p).unwrap();
        assert_eq!(o.tasks(), &[TaskId(0), TaskId(2)]);
        assert_eq!(o.distance(), 200.0);
        assert!(o.profit().is_finite());
        // A user at a NaN location reaches nothing.
        let p =
            SelectionProblem::new(Point::new(f64::NAN, 0.0), &tasks, 1000.0, 2.0, 0.002).unwrap();
        let (o, stats) = GreedySelector.select_with_stats(&p).unwrap();
        assert!(o.tasks().is_empty());
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(GreedySelector.name(), "greedy");
        assert_eq!(GreedyTwoOptSelector.name(), "greedy+2opt");
    }

    #[test]
    fn empty_problem_stays_home() {
        let p = SelectionProblem::new(Point::ORIGIN, &[], 1000.0, 2.0, 0.002).unwrap();
        for selector in [&GreedySelector as &dyn TaskSelector, &GreedyTwoOptSelector] {
            let o = selector.select(&p).unwrap();
            assert!(o.tasks().is_empty());
            assert_eq!(o.end_location(), Point::ORIGIN);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn dp_dominates_heuristics(
            coords in proptest::collection::vec((0.0..1500.0f64, 0.0..1500.0f64), 0..7),
            rewards in proptest::collection::vec(0.5..2.5f64, 7),
            time_budget in 0.0..2000.0f64,
        ) {
            let tasks: Vec<_> = coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| published(i, x, y, rewards[i]))
                .collect();
            let p = SelectionProblem::new(
                Point::new(750.0, 750.0), &tasks, time_budget, 2.0, 0.002,
            ).unwrap();
            let dp = DpSelector.select(&p).unwrap();
            let greedy = GreedySelector.select(&p).unwrap();
            let two = GreedyTwoOptSelector.select(&p).unwrap();
            prop_assert!(dp.profit() >= greedy.profit() - 1e-9);
            prop_assert!(dp.profit() >= two.profit() - 1e-9);
            prop_assert!(two.profit() >= greedy.profit() - 1e-9);
            for o in [&dp, &greedy, &two] {
                prop_assert!(o.distance() <= p.distance_budget() + 1e-9);
                prop_assert!(o.profit() >= 0.0);
            }
        }
    }
}
