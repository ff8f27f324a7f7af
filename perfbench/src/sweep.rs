//! `paper_sweep`: the paper's §VI sweep — users {40..140} × mechanisms
//! {on-demand, fixed, steered} × reps over `Scenario::paper_default()`
//! (20 tasks, φ = 20, DP capped at 14 candidates, 15 rounds), every job
//! through `runner::run_scenarios_parallel` on `nproc` threads.
//!
//! Correctness: each job is also run once with the decision journal on
//! (journal replay-verified against its result); every timed sweep must
//! reproduce those per-job digests exactly.

use std::time::Instant;

use paydemand_obs::Recorder;
use paydemand_sim::runner::{rep_seed, run_scenarios_parallel, run_scenarios_parallel_recorded};
use paydemand_sim::{MechanismKind, Scenario};

use crate::layers::{self, JournalRun, JournalStats};
use crate::stats::{median, peak_rss_mb, result_digest};
use crate::{nproc, repeat_for, BenchError, Outcome, RunConfig, Scale};

/// The §VI user counts.
pub const USERS: [usize; 6] = [40, 60, 80, 100, 120, 140];
/// The mechanisms the sweep compares.
pub const MECHANISMS: [MechanismKind; 3] =
    [MechanismKind::OnDemand, MechanismKind::Fixed, MechanismKind::Steered];
/// Repetitions per sweep point at full scale (360 jobs in all).
pub const FULL_REPS: usize = 20;
/// Scenario-list builds timed for `setup_s`.
const SETUP_BUILDS: usize = 201;

/// The sweep's job list; rep `r` of every point gets
/// `rep_seed(seed, r)`, so mechanisms compare on the same worlds.
#[must_use]
pub fn scenarios(seed: u64, reps: usize) -> Vec<Scenario> {
    let mut jobs = Vec::with_capacity(USERS.len() * MECHANISMS.len() * reps);
    for users in USERS {
        for mechanism in MECHANISMS {
            for rep in 0..reps {
                jobs.push(
                    Scenario::paper_default()
                        .with_users(users)
                        .with_mechanism(mechanism)
                        .with_seed(rep_seed(seed, rep)),
                );
            }
        }
    }
    jobs
}

/// One timed pass through the runner.
struct Sweep {
    wall_s: f64,
    /// Per-job digests, or `None` when the runner returned an error.
    digests: Option<Vec<u64>>,
}

fn timed_sweep(jobs: &[Scenario], threads: usize, recorder: Option<&Recorder>) -> Sweep {
    let started = Instant::now();
    let results = match recorder {
        Some(r) => run_scenarios_parallel_recorded(jobs, threads, r),
        None => run_scenarios_parallel(jobs, threads),
    };
    let wall_s = started.elapsed().as_secs_f64();
    match results {
        Ok(results) => Sweep { wall_s, digests: Some(results.iter().map(result_digest).collect()) },
        Err(e) => {
            eprintln!("perfbench: paper_sweep: runner error: {e}");
            Sweep { wall_s, digests: None }
        }
    }
}

/// Every job once with the journal on, on `threads` threads, in job
/// order.
fn journal_pass(
    jobs: &[Scenario],
    threads: usize,
    recorder: &Recorder,
) -> Result<Vec<JournalRun>, BenchError> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_thread: Vec<Result<Vec<(usize, JournalRun)>, BenchError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.clamp(1, jobs.len().max(1)))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { return Ok(done) };
                            done.push((i, layers::journal_run(job, recorder)?));
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("journal worker panicked")).collect()
        });
    let mut runs: Vec<(usize, JournalRun)> = Vec::with_capacity(jobs.len());
    for part in per_thread {
        runs.extend(part?);
    }
    runs.sort_by_key(|(i, _)| *i);
    Ok(runs.into_iter().map(|(_, run)| run).collect())
}

/// Checks a timed sweep's digests against the journal pass.
fn check(sweep: &Sweep, reference: &[JournalRun]) -> Result<(), BenchError> {
    let Some(digests) = &sweep.digests else { return Ok(()) };
    for (i, (got, want)) in digests.iter().zip(reference).enumerate() {
        if *got != want.digest {
            return Err(BenchError::Incorrect(format!(
                "job {i}: runner digest {got:#018x} differs from the journalled run's {:#018x}",
                want.digest
            )));
        }
    }
    Ok(())
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// As [`crate::run_workload`].
pub fn run(config: &RunConfig) -> Result<Outcome, BenchError> {
    let reps = match config.scale {
        Scale::Full => FULL_REPS,
        Scale::Mini => 1,
    };
    let threads = nproc();
    if config.trace {
        return traced(config, reps, threads);
    }

    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_BUILDS {
        let started = Instant::now();
        jobs = std::hint::black_box(scenarios(config.seed, reps));
        setup.push(started.elapsed().as_secs_f64());
    }

    let mut sweeps = Vec::new();
    repeat_for(config.seconds, 3, || {
        sweeps.push(timed_sweep(&jobs, threads, None));
        Ok(())
    })?;
    let peak = peak_rss_mb();

    let reference = journal_pass(&jobs, threads, &Recorder::disabled())?;
    for sweep in &sweeps {
        check(sweep, &reference)?;
    }

    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    let mut out = Outcome {
        attempted: (sweeps.len() * jobs.len()) as u64,
        failed: sweeps.iter().filter(|s| s.digests.is_none()).count() as u64 * jobs.len() as u64,
        digest: Some(crate::stats::fold(&reference.iter().map(|r| r.digest).collect::<Vec<_>>())),
        ..Outcome::default()
    };
    let run_s = median(&walls);
    out.set("setup_s", median(&setup));
    out.set("run_s", run_s);
    out.set("peak_rss_mb", peak);
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.keep_raw("setup_s", &setup);
    out.keep_raw("sweep_s", &walls);
    Ok(out)
}

/// The traced run: the journal pass under an enabled recorder and
/// bench spans (engine layers), then runner sweeps alternating plain
/// and recorded (runner layer, trace overhead).
fn traced(config: &RunConfig, reps: usize, threads: usize) -> Result<Outcome, BenchError> {
    let jobs = scenarios(config.seed, reps);
    let mut out = layers::zeroed("paper_sweep");

    let engine_recorder = Recorder::enabled();
    let reference = journal_pass(&jobs, threads, &engine_recorder)?;
    let mut journal = JournalStats::default();
    let mut step_round_s = 0.0;
    let mut engine_new_ms = Vec::with_capacity(reference.len());
    for run in &reference {
        journal.solves += run.journal.solves;
        journal.candidates += run.journal.candidates;
        step_round_s += run.step_s.iter().sum::<f64>();
        engine_new_ms.push(run.engine_new_s * 1e3);
    }
    layers::engine_layers(&mut out, &engine_recorder.snapshot(), step_round_s, journal)?;
    out.set("sim.engine_new_ms", median(&engine_new_ms));

    let runner_recorder = Recorder::enabled();
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    for _ in 0..3 {
        for (walls, recorder) in [(&mut plain, None), (&mut recorded, Some(&runner_recorder))] {
            let sweep = timed_sweep(&jobs, threads, recorder);
            check(&sweep, &reference)?;
            failed += u64::from(sweep.digests.is_none()) * jobs.len() as u64;
            walls.push(sweep.wall_s);
        }
    }
    let snap = runner_recorder.snapshot();
    let job_seconds = layers::family(&snap, "runner_job_seconds");
    let recorded_wall: f64 = recorded.iter().sum();
    out.set("sim.jobs", layers::counter(&snap, "runner_jobs_total") / recorded.len() as f64);
    out.set("sim.job_p50_ms", job_seconds.p50() as f64 * 1e-6);
    out.set("sim.job_max_ms", job_seconds.max as f64 * 1e-6);
    out.set(
        "sim.runner_busy_frac",
        layers::sum_s(&job_seconds) / (threads.min(jobs.len()) as f64 * recorded_wall),
    );
    out.set("bench.trace_overhead_frac", layers::overhead(median(&recorded), median(&plain)));
    out.attempted = 6 * jobs.len() as u64;
    out.failed = failed;
    out.keep_raw("plain_sweep_s", &plain);
    out.keep_raw("recorded_sweep_s", &recorded);
    out.keep_raw("engine_new_ms", &engine_new_ms);
    Ok(out)
}
