//! The repository benchmark: three workloads, end to end and per layer.
//!
//! * `paper_sweep` — the paper's §VI sweep through
//!   `runner::run_scenarios_parallel`.
//! * `city_round` — one 100k-user × 1k-task `Engine` stepped to the end.
//! * `serve_mixed` — an in-process `Daemon` under open-loop ingest,
//!   timed ticks and timed price reads.
//!
//! Every run checks its outputs before it reports a number (see each
//! workload module). An untraced run reports the end-to-end metrics in
//! [`END_TO_END`]; a traced run reports the per-layer metrics in
//! [`PER_LAYER`]; `serve_mixed` adds [`SERVE_END_TO_END`] and
//! [`SERVE_LAYER`]. `README.md` beside this crate documents the lists.

pub mod city;
pub mod layers;
pub mod serve;
pub mod stamp;
pub mod stats;
pub mod sweep;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A metric's `(name, unit)`.
pub type Metric = (&'static str, &'static str);

/// Every workload the harness runs.
pub const WORKLOADS: [&str; 3] = ["paper_sweep", "city_round", "serve_mixed"];

/// The workloads `BENCHMARK.json` lists, in its order. `serve_mixed`
/// runs by name but is not listed: its latencies swing with the shared
/// host's disk and scheduler far beyond any bound a regression gate
/// could hold (see `README.md`).
pub const BENCHMARKED: [&str; 2] = ["paper_sweep", "city_round"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [Metric; 4] =
    [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio")];

/// End-to-end metrics only `serve_mixed` reports, after [`END_TO_END`].
pub const SERVE_END_TO_END: [Metric; 8] = [
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("ack_p99_ms_2x", "ms"),
    ("sat_eps", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [Metric; 25] = [
    ("sim.engine_new_ms", "ms"),
    ("sim.step_round_s", "s"),
    ("sim.rounds", "count"),
    ("sim.unattributed_s", "s"),
    ("sim.jobs", "count"),
    ("sim.job_p50_ms", "ms"),
    ("sim.job_max_ms", "ms"),
    ("sim.runner_busy_frac", "ratio"),
    ("core.demand_s", "s"),
    ("core.pricing_s", "s"),
    ("core.demand_cache_hit_ratio", "ratio"),
    ("core.selection_s", "s"),
    ("core.solves", "count"),
    ("core.solve_p50_us", "us"),
    ("core.solve_p99_us", "us"),
    ("core.candidates_per_solve", "count"),
    ("core.settlement_s", "s"),
    ("core.movement_s", "s"),
    ("geo.neighbor_rebuilds", "count"),
    ("geo.neighbor_delta_updates", "count"),
    ("geo.cell_sweeps", "count"),
    ("routing.states_expanded", "count"),
    ("routing.nodes_pruned", "count"),
    ("routing.iterations", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Per-layer metrics only `serve_mixed` reports, after [`PER_LAYER`].
pub const SERVE_LAYER: [Metric; 18] = [
    ("serve.parse_p50_us", "us"),
    ("serve.parse_p99_us", "us"),
    ("serve.enqueue_p50_us", "us"),
    ("serve.enqueue_p99_us", "us"),
    ("serve.fsync_p50_us", "us"),
    ("serve.fsync_p99_us", "us"),
    ("serve.ack_p50_us", "us"),
    ("serve.ack_p99_us", "us"),
    ("serve.events_per_fsync", "count"),
    ("serve.wal_bytes_per_event", "B"),
    ("serve.tick_call_p50_ms", "ms"),
    ("serve.tick_step_round_p50_ms", "ms"),
    ("serve.lineage_bytes_per_event", "B"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.queue_depth_max", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.gen_late_p99_ms_2x", "ms"),
];

/// The metrics `workload` reports in the given mode, in print order.
#[must_use]
pub fn declared(workload: &str, trace: bool) -> Vec<Metric> {
    let (common, serve): (&[Metric], &[Metric]) =
        if trace { (&PER_LAYER, &SERVE_LAYER) } else { (&END_TO_END, &SERVE_END_TO_END) };
    let mut metrics = common.to_vec();
    if workload == "serve_mixed" {
        metrics.extend_from_slice(serve);
    }
    metrics
}

/// Workload size: the full benchmark, or the miniatures the crate's
/// own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// `city_round` at 2k × 50, `paper_sweep` at 1 rep, `serve_mixed`
    /// with ~1 s legs.
    Mini,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds (a floor: a run always takes the samples its
    /// percentiles need).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Full benchmark or miniature.
    pub scale: Scale,
    /// Scratch directory for daemon state (inside the checkout).
    pub work_dir: PathBuf,
}

/// Why a run produced no numbers.
#[derive(Debug)]
pub enum BenchError {
    /// An output failed its correctness check.
    Incorrect(String),
    /// The harness itself could not run (I/O, engine refused the
    /// scenario, ...).
    Harness(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Incorrect(m) => write!(f, "incorrect output: {m}"),
            BenchError::Harness(m) => write!(f, "harness error: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Maps any displayable error into a harness error with context.
pub fn harness<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError::Harness(format!("{what}: {e}"))
}

/// What a run measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted (jobs, rounds, or requests + reads + ticks).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Reported metrics by name: value and unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Raw per-sample values behind the medians, by series name.
    pub raw: BTreeMap<String, Vec<f64>>,
    /// Result digest every timed repetition matched (sim workloads).
    pub digest: Option<u64>,
}

impl Outcome {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name no metric list declares (a harness bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = [&END_TO_END[..], &SERVE_END_TO_END, &PER_LAYER, &SERVE_LAYER]
            .concat()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Keeps a raw sample series beside the medians.
    pub fn keep_raw(&mut self, series: &str, values: &[f64]) {
        self.raw.insert(series.to_owned(), values.to_vec());
    }

    /// Checks the run measured every metric [`declared`] for it, each
    /// finite and (end to end) never 0.
    ///
    /// # Errors
    ///
    /// Names the first missing or out-of-range metric.
    pub fn check_complete(&self, workload: &str, trace: bool) -> Result<(), BenchError> {
        for (name, _) in declared(workload, trace) {
            match self.metrics.get(name) {
                None => return Err(BenchError::Harness(format!("metric {name} was not measured"))),
                Some((v, _)) if !v.is_finite() => {
                    return Err(BenchError::Harness(format!("metric {name} is not finite: {v}")));
                }
                Some((v, _)) if !trace && *v <= 0.0 => {
                    return Err(BenchError::Harness(format!("metric {name} is not positive: {v}")));
                }
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            return Err(BenchError::Harness("no operation was attempted".into()));
        }
        Ok(())
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// the metrics [`declared`] for the workload and mode.
    #[must_use]
    pub fn result_line(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, _)) in declared(workload, trace).into_iter().enumerate() {
            let (value, unit) = self.metrics[name];
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(value));
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as JSON, all digits kept.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// [`BenchError::Incorrect`] when an output fails its check;
/// [`BenchError::Harness`] when the run could not complete.
pub fn run_workload(workload: &str, config: &RunConfig) -> Result<Outcome, BenchError> {
    let outcome = match workload {
        "paper_sweep" => sweep::run(config),
        "city_round" => city::run(config),
        "serve_mixed" => serve::run(config),
        other => return Err(BenchError::Harness(format!("unknown workload `{other}`"))),
    }?;
    outcome.check_complete(workload, config.trace)?;
    Ok(outcome)
}

/// Repeats `body` until `seconds` have passed and it has run at least
/// `min` times.
///
/// # Errors
///
/// The first error `body` returns.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut body: impl FnMut() -> Result<(), BenchError>,
) -> Result<(), BenchError> {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed().as_secs_f64() < seconds {
        body()?;
        n += 1;
    }
    Ok(())
}

/// Worker threads for parallel phases: the host's available cores.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
