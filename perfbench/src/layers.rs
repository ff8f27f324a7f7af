//! Per-layer metrics: the families the program already exports through
//! an enabled `Recorder`, the decision journal, and the benchmark's own
//! spans around the public calls it makes.

use paydemand_obs::{HistogramSnapshot, Snapshot};
use paydemand_sim::trace::TraceEvent;

use crate::{BenchError, Outcome};

/// Engine phases whose `round_phase_seconds` sums, plus
/// `sim.unattributed_s`, close to the `step_round` total.
pub const PHASES: [(&str, &str); 5] = [
    ("demand", "core.demand_s"),
    ("pricing", "core.pricing_s"),
    ("selection", "core.selection_s"),
    ("settlement", "core.settlement_s"),
    ("movement", "core.movement_s"),
];

/// Starts a traced outcome with every per-layer metric of `workload`
/// at 0, so a layer the workload never calls reports 0 rather than
/// going missing.
#[must_use]
pub fn zeroed(workload: &str) -> Outcome {
    let mut out = Outcome::default();
    for (name, _) in crate::declared(workload, true) {
        out.set(name, 0.0);
    }
    out
}

/// Selection frames seen in decision journals.
#[derive(Debug, Default, Clone, Copy)]
pub struct JournalStats {
    /// `Selection` frames.
    pub solves: u64,
    /// Sum of their `candidates` fields.
    pub candidates: u64,
}

impl JournalStats {
    /// Counts the `Selection` frames of one decoded journal.
    pub fn absorb(&mut self, events: &[TraceEvent]) {
        for event in events {
            if let TraceEvent::Selection { candidates, .. } = event {
                self.solves += 1;
                self.candidates += u64::from(*candidates);
            }
        }
    }

    /// Mean candidates per solve, 0 with no solves.
    #[must_use]
    pub fn mean_candidates(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.candidates as f64 / self.solves as f64
        }
    }
}

/// A histogram family merged across its labels.
#[must_use]
pub fn family(snap: &Snapshot, name: &str) -> HistogramSnapshot {
    snap.histograms
        .iter()
        .filter(|(key, _)| key.name == name)
        .fold(HistogramSnapshot::empty(), |acc, (_, h)| acc.merge(h))
}

/// A labelled histogram, empty when absent.
#[must_use]
pub fn labelled(snap: &Snapshot, name: &str, key: &str, value: &str) -> HistogramSnapshot {
    snap.histogram_snapshot(name, Some((key, value)))
        .copied()
        .unwrap_or_else(HistogramSnapshot::empty)
}

/// A counter family's total across labels, 0 when absent.
#[must_use]
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter_total(name).unwrap_or(0) as f64
}

/// Nanosecond sum of a histogram, in seconds.
#[must_use]
pub fn sum_s(h: &HistogramSnapshot) -> f64 {
    h.sum as f64 * 1e-9
}

/// Fills the `sim` round, `core`, `geo` and `routing` metrics from an
/// engine-side snapshot, the bench-timed `step_round` total and the
/// journal, and checks layer closure: the five named phases can never
/// exceed the `step_round` time that contains them, and
/// `sim.unattributed_s` is the rest.
///
/// # Errors
///
/// [`BenchError::Incorrect`] when the phases sum past the total.
pub fn engine_layers(
    out: &mut Outcome,
    snap: &Snapshot,
    step_round_s: f64,
    journal: JournalStats,
) -> Result<(), BenchError> {
    let mut phases_s = 0.0;
    for (phase, metric) in PHASES {
        let s = sum_s(&labelled(snap, "round_phase_seconds", "phase", phase));
        phases_s += s;
        out.set(metric, s);
    }
    let unattributed = step_round_s - phases_s;
    // Phase clocks start and stop inside the call the bench times, so
    // only clock granularity can make this negative.
    if unattributed < -1e-3 {
        return Err(BenchError::Incorrect(format!(
            "named phases ({phases_s:.6} s) exceed the step_round total ({step_round_s:.6} s)"
        )));
    }
    out.set("sim.step_round_s", step_round_s);
    out.set("sim.unattributed_s", unattributed);
    out.set("sim.rounds", counter(snap, "engine_rounds_total"));

    let hits = counter(snap, "demand_cache_hits_total");
    let lookups = hits
        + counter(snap, "demand_cache_misses_total")
        + counter(snap, "demand_cache_dirty_total");
    out.set("core.demand_cache_hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
    let solves = family(snap, "selector_solve_seconds");
    out.set("core.solves", counter(snap, "selector_solves_total"));
    out.set("core.solve_p50_us", solves.p50() as f64 * 1e-3);
    out.set("core.solve_p99_us", solves.p99() as f64 * 1e-3);
    out.set("core.candidates_per_solve", journal.mean_candidates());

    out.set("geo.neighbor_rebuilds", counter(snap, "neighbor_rebuilds_total"));
    out.set("geo.neighbor_delta_updates", counter(snap, "neighbor_delta_updates_total"));
    out.set("geo.cell_sweeps", counter(snap, "cell_sweep_full_sweeps_total"));

    out.set("routing.states_expanded", counter(snap, "selector_states_expanded_total"));
    out.set("routing.nodes_pruned", counter(snap, "selector_nodes_pruned_total"));
    out.set("routing.iterations", counter(snap, "selector_iterations_total"));
    Ok(())
}

/// `traced / untraced − 1` for two run-time figures.
#[must_use]
pub fn overhead(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s > 0.0 {
        traced_s / untraced_s - 1.0
    } else {
        0.0
    }
}

/// One engine run with the decision journal on, timed by the bench
/// around `Engine::new` and every `step_round`, its journal checked by
/// `replay::verify`.
#[derive(Debug, Clone)]
pub struct JournalRun {
    /// The run's result digest (see [`crate::stats::result_digest`]).
    pub digest: u64,
    /// Selection frames of the journal.
    pub journal: JournalStats,
    /// Seconds inside `Engine::new`.
    pub engine_new_s: f64,
    /// Seconds inside each `step_round` call, in order.
    pub step_s: Vec<f64>,
}

/// Runs `scenario` to the end with the journal on and replay-verifies
/// the journal against the result.
///
/// # Errors
///
/// [`BenchError::Incorrect`] when the journal fails replay;
/// [`BenchError::Harness`] when the engine refuses the scenario.
pub fn journal_run(
    scenario: &paydemand_sim::Scenario,
    recorder: &paydemand_obs::Recorder,
) -> Result<JournalRun, BenchError> {
    use std::time::Instant;

    let started = Instant::now();
    let mut engine =
        paydemand_sim::Engine::new(scenario, recorder).map_err(crate::harness("Engine::new"))?;
    let engine_new_s = started.elapsed().as_secs_f64();
    engine.enable_trace();
    let mut step_s = Vec::new();
    while !engine.is_finished() {
        let t = Instant::now();
        engine.step_round().map_err(crate::harness("Engine::step_round"))?;
        step_s.push(t.elapsed().as_secs_f64());
    }
    let bytes = engine
        .take_trace()
        .ok_or_else(|| BenchError::Harness("the engine returned no journal".into()))?;
    let result = engine.finish().map_err(crate::harness("Engine::finish"))?;
    let events = paydemand_sim::trace::decode(&bytes)
        .map_err(|e| BenchError::Incorrect(format!("journal does not decode: {e}")))?;
    paydemand_sim::replay::verify_events(&events, &result).map_err(|e| {
        BenchError::Incorrect(format!("journal of seed {:#x} fails replay: {e}", scenario.seed))
    })?;
    let mut journal = JournalStats::default();
    journal.absorb(&events);
    Ok(JournalRun { digest: crate::stats::result_digest(&result), journal, engine_new_s, step_s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paydemand_obs::Recorder;

    #[test]
    fn closure_rejects_phases_beyond_the_step_total() {
        let recorder = Recorder::enabled();
        recorder.histogram_with("round_phase_seconds", "phase", "selection").record(2_000_000_000);
        let snap = recorder.snapshot();
        let mut out = zeroed("city_round");
        let too_short = engine_layers(&mut out, &snap, 1.0, JournalStats::default());
        assert!(matches!(too_short, Err(BenchError::Incorrect(_))));
        engine_layers(&mut out, &snap, 2.5, JournalStats::default()).expect("closes");
        assert!((out.metrics["sim.unattributed_s"].0 - 0.5).abs() < 1e-9);
        assert!((out.metrics["core.selection_s"].0 - 2.0).abs() < 1e-9);
    }
}
