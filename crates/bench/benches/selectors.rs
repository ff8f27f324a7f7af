//! Solver micro-benchmarks: the empirical face of Theorems 2 and 3.
//!
//! * `dp/m` — the exact DP's exponential growth in the task count;
//! * `dp_budget/meters` — how the travel budget prunes the DP;
//! * `dp_paper/meters` — the DP as `Scenario::paper_default()` runs it:
//!   14 candidates within reach at the paper's 1,200 m and 2,400 m
//!   budgets (600–1,200 s at 2 m/s);
//! * `greedy/m`, `greedy2opt/m` — the polynomial heuristics at scales
//!   the DP cannot touch;
//! * `greedy_city` — one greedy solve as `city_round` runs it: 543 open
//!   candidates in the 3 km square (1k tasks, about half still open) at
//!   the five on-demand reward levels 0.5–2.5 $.
//!
//! Each iteration builds the `SelectionProblem` and solves it, as the
//! engine does per user: Euclidean travel costs are computed during the
//! solve, so timing `select` alone would leave out the cost of building
//! the problem.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use paydemand_bench::{random_published_tasks, random_user};
use paydemand_core::selection::{
    DpSelector, GreedySelector, GreedyTwoOptSelector, SelectionOutcome, SelectionProblem,
    TaskSelector,
};
use paydemand_core::PublishedTask;
use paydemand_geo::Point;
use rand::SeedableRng;

/// Builds the problem and solves it with the exact DP.
fn build_and_solve(user: Point, tasks: &[PublishedTask], time_budget: f64) -> SelectionOutcome {
    let problem = SelectionProblem::new(user, black_box(tasks), time_budget, 2.0, 0.002).unwrap();
    DpSelector.select(&problem).unwrap()
}

fn bench_dp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp");
    for m in [6usize, 10, 14, 18] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(m as u64);
        let tasks = random_published_tasks(m, &mut rng);
        let user = random_user(&mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(m), &tasks, |b, tasks| {
            b.iter(|| build_and_solve(user, tasks, 900.0));
        });
    }
    group.finish();
}

fn bench_dp_budget_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_budget");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let tasks = random_published_tasks(16, &mut rng);
    let user = random_user(&mut rng);
    for time_budget in [300.0f64, 600.0, 1200.0, 2400.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}m", (time_budget * 2.0) as u64)),
            &tasks,
            |b, tasks| {
                b.iter(|| build_and_solve(user, tasks, time_budget));
            },
        );
    }
    group.finish();
}

fn bench_dp_paper(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_paper");
    for time_budget in [600.0f64, 1200.0] {
        let reach = time_budget * 2.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(reach as u64);
        let user = random_user(&mut rng);
        // The engine's candidate cap: at most 14 tasks, all within reach.
        let tasks: Vec<PublishedTask> = random_published_tasks(400, &mut rng)
            .into_iter()
            .filter(|t| user.distance(t.location) <= reach)
            .take(14)
            .collect();
        assert_eq!(tasks.len(), 14, "the paper area holds 14 tasks within {reach} m");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{reach}m")),
            &tasks,
            |b, tasks| {
                b.iter(|| build_and_solve(user, tasks, time_budget));
            },
        );
    }
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    for (name, selector) in
        [("greedy", &GreedySelector as &dyn TaskSelector), ("greedy2opt", &GreedyTwoOptSelector)]
    {
        let mut group = c.benchmark_group(name);
        for m in [20usize, 100, 400, 1000] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(m as u64);
            let tasks = random_published_tasks(m, &mut rng);
            let user = random_user(&mut rng);
            group.bench_with_input(BenchmarkId::from_parameter(m), &tasks, |b, tasks| {
                b.iter(|| {
                    let problem =
                        SelectionProblem::new(user, black_box(tasks), 900.0, 2.0, 0.002).unwrap();
                    selector.select(&problem).unwrap()
                });
            });
        }
        group.finish();
    }
}

fn bench_greedy_city(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(543);
    let user = random_user(&mut rng);
    let mut tasks = random_published_tasks(543, &mut rng);
    for task in &mut tasks {
        // Round to the nearest 0.5 $: Eq. 7's five levels at r0 = λ = 0.5.
        task.reward = (task.reward * 2.0).round() / 2.0;
    }
    c.bench_function("greedy_city", |b| {
        b.iter(|| {
            let problem =
                SelectionProblem::new(user, black_box(&tasks), 900.0, 2.0, 0.002).unwrap();
            GreedySelector.select(&problem).unwrap()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_dp_scaling, bench_dp_budget_pruning, bench_dp_paper, bench_heuristics,
        bench_greedy_city
}
criterion_main!(benches);
