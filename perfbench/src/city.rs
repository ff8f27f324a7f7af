//! `city_round`: one `Engine` with 100k users × 1k tasks in the paper's
//! 3 km square — φ = 20, the greedy selector, the on-demand mechanism
//! and the shipped defaults otherwise (incremental Eq. 5 backend, one
//! demand thread, the paper's 2.5 × Σφ budget ratio) — stepped until
//! finished with `max_rounds = 3`.
//!
//! Each repetition builds a fresh engine (`setup_s` is `Engine::new`)
//! and times its `step_round` calls (`run_s`). Correctness: the same
//! scenario runs once more with the decision journal on, the journal is
//! replay-verified, and every timed repetition must reproduce its
//! result digest.

use std::time::Instant;

use paydemand_obs::Recorder;
use paydemand_sim::{Engine, MechanismKind, Scenario, SelectorKind};

use crate::layers;
use crate::stats::{median, peak_rss_mb, result_digest};
use crate::{harness, repeat_for, BenchError, Outcome, RunConfig, Scale};

/// The workload's scenario at `scale`.
#[must_use]
pub fn scenario(seed: u64, scale: Scale) -> Scenario {
    let (users, tasks) = match scale {
        Scale::Full => (100_000, 1_000),
        Scale::Mini => (2_000, 50),
    };
    let mut scenario = Scenario::paper_default()
        .with_users(users)
        .with_tasks(tasks)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_max_rounds(3)
        .with_seed(seed);
    // The paper's budget ratio, 2.5 × Σφ, keeps Eq. 9's base reward
    // positive at 1k tasks.
    scenario.reward_budget = 2.5 * tasks as f64 * f64::from(scenario.required_per_task);
    scenario
}

/// One timed repetition.
struct Repetition {
    engine_new_s: f64,
    run_s: f64,
    /// `None` when a round failed.
    digest: Option<u64>,
    rounds: u64,
}

/// One untraced engine run: `Engine::new`, then `step_round` to the end.
fn repetition(scenario: &Scenario) -> Result<Repetition, BenchError> {
    let started = Instant::now();
    let mut engine =
        Engine::new(scenario, &Recorder::disabled()).map_err(harness("Engine::new"))?;
    let engine_new_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut rounds = 0;
    let mut failed = false;
    while !engine.is_finished() {
        rounds += 1;
        if let Err(e) = engine.step_round() {
            eprintln!("perfbench: city_round: step_round failed: {e}");
            failed = true;
            break;
        }
    }
    let run_s = started.elapsed().as_secs_f64();
    let digest = if failed {
        None
    } else {
        Some(result_digest(&engine.finish().map_err(harness("Engine::finish"))?))
    };
    Ok(Repetition { engine_new_s, run_s, digest, rounds })
}

fn check(rep: &Repetition, want: u64) -> Result<(), BenchError> {
    match rep.digest {
        Some(got) if got != want => Err(BenchError::Incorrect(format!(
            "timed run digest {got:#018x} differs from the journalled run's {want:#018x}"
        ))),
        _ => Ok(()),
    }
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// As [`crate::run_workload`].
pub fn run(config: &RunConfig) -> Result<Outcome, BenchError> {
    let scenario = scenario(config.seed, config.scale);
    if config.trace {
        return traced(&scenario);
    }
    let mut reps = Vec::new();
    repeat_for(config.seconds, 3, || {
        reps.push(repetition(&scenario)?);
        Ok(())
    })?;
    let peak = peak_rss_mb();

    let reference = layers::journal_run(&scenario, &Recorder::disabled())?;
    for rep in &reps {
        check(rep, reference.digest)?;
    }

    let setup: Vec<f64> = reps.iter().map(|r| r.engine_new_s).collect();
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let mut out = Outcome {
        attempted: reps.iter().map(|r| r.rounds).sum(),
        failed: reps.iter().filter(|r| r.digest.is_none()).count() as u64,
        digest: Some(reference.digest),
        ..Outcome::default()
    };
    let run_s = median(&runs);
    out.set("setup_s", median(&setup));
    out.set("run_s", run_s);
    out.set("peak_rss_mb", peak);
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.keep_raw("engine_new_s", &setup);
    out.keep_raw("run_s", &runs);
    Ok(out)
}

/// The traced run: untraced repetitions for the overhead baseline,
/// then the journalled run under an enabled recorder with bench spans.
fn traced(scenario: &Scenario) -> Result<Outcome, BenchError> {
    let mut plain = Vec::new();
    for _ in 0..3 {
        plain.push(repetition(scenario)?);
    }
    let recorder = Recorder::enabled();
    let run = layers::journal_run(scenario, &recorder)?;
    for rep in &plain {
        check(rep, run.digest)?;
    }

    let mut out = layers::zeroed("city_round");
    let step_round_s: f64 = run.step_s.iter().sum();
    layers::engine_layers(&mut out, &recorder.snapshot(), step_round_s, run.journal)?;
    out.set("sim.engine_new_ms", run.engine_new_s * 1e3);
    let plain_runs: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    out.set("bench.trace_overhead_frac", layers::overhead(step_round_s, median(&plain_runs)));
    out.attempted = plain.iter().map(|r| r.rounds).sum::<u64>() + run.step_s.len() as u64;
    out.failed = plain.iter().filter(|r| r.digest.is_none()).count() as u64;
    out.digest = Some(run.digest);
    out.keep_raw("plain_run_s", &plain_runs);
    out.keep_raw("traced_step_s", &run.step_s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digest_mismatch_is_incorrect_not_slow() {
        let rep = Repetition { engine_new_s: 0.01, run_s: 1.0, digest: Some(1), rounds: 3 };
        assert!(matches!(check(&rep, 2), Err(BenchError::Incorrect(_))));
        assert!(check(&rep, 1).is_ok());
    }
}
