//! `serve_mixed`: an in-process `Daemon` with shipped defaults (fsync
//! on, lineage on, a checkpoint every tick) except `queue_capacity`,
//! sized as `loadgen` sizes it so fixed-rate legs never shed, over
//! `loadgen`'s 200-user × 30-task scenario.
//!
//! Two generator threads drive it. The *ingest* thread sends open-loop
//! `POST /events` batches of 100 events, one request at a time, in
//! cycles of three legs: 6 s at the 20k events/s reference rate, 5 s at
//! 40k events/s, then 1000 batches sent back to back. The *control*
//! thread samples `GET /status`, calls `Daemon::tick()` every 100 ms and
//! sends `GET /prices` every 10 ms; ticks and reads are timed from their
//! due times, as are the fixed-rate acks. Each cycle yields every
//! figure from enough samples on its own; the run reports the median
//! over cycles.
//!
//! Correctness, after a graceful shutdown: `lineage::verify` must come
//! back clean, and an offline engine re-executes every round from the
//! events the bench itself sent, regenerating each round's lineage
//! frames — every acked event must be present exactly once, carrying
//! its 202's request id, with frames bit-identical to the on-disk
//! index.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use paydemand_obs::{parse_json, Recorder, Snapshot};
use paydemand_serve::lineage::{self, LineageFrame};
use paydemand_serve::wal::SequencedEvent;
use paydemand_serve::{http, Daemon, DaemonConfig};
use paydemand_sim::{Engine, ExternalEvent, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, JournalStats};
use crate::stats::{beyond, mean, median, peak_rss_mb, quantile};
use crate::{harness, BenchError, Outcome, RunConfig, Scale};

/// Events per `POST /events` batch.
pub const BATCH: usize = 100;
/// The reference ingest rate, events/s.
pub const REFERENCE_EPS: f64 = 20_000.0;
/// The control thread's tick cadence.
pub const TICK_EVERY: Duration = Duration::from_millis(100);
/// The control thread's `GET /prices` cadence.
pub const READ_EVERY: Duration = Duration::from_millis(10);
/// Ingest queue capacity: 65 536 events, as `loadgen` sizes it, far
/// above the ~4k events a 40k events/s leg queues between ticks.
pub const QUEUE_CAPACITY: usize = 65_536;
/// The reference leg of a full-scale cycle: 1200 requests, so its p99
/// rests on 12.
const REFERENCE_S: f64 = 6.0;
/// The 40k events/s leg: 2000 requests. With the reference leg it
/// spans 110 ticks and 1100 reads, so their p90 and p99 rest on 11.
const DOUBLE_S: f64 = 5.0;
/// Back-to-back batches of the saturation leg.
const SATURATION_BATCHES: usize = 1000;
/// Wall time budgeted per full-scale cycle.
pub const CYCLE_S: f64 = 12.0;
/// Throwaway daemons started (and shut down) to time `setup_s`.
const SETUP_PROBES: usize = 20;
const TIMEOUT: Duration = Duration::from_secs(10);

/// `loadgen`'s workload: a run the legs cannot finish, with users and
/// tasks for events to reference and a budget that keeps Eq. 9's base
/// reward positive at 30 tasks.
#[must_use]
pub fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::paper_default()
        .with_users(200)
        .with_tasks(30)
        .with_max_rounds(10_000)
        .with_seed(seed);
    s.reward_budget = 10_000.0;
    s
}

/// One pre-built request body and the events it carries.
#[derive(Debug, Clone)]
struct Batch {
    events: Vec<ExternalEvent>,
    body: String,
}

/// An ingest leg: a fixed rate (events/s) or back to back.
#[derive(Debug)]
struct Leg {
    name: &'static str,
    cycle: usize,
    eps: Option<f64>,
    batches: Vec<Batch>,
}

fn batch(rng: &mut StdRng, events: usize, users: u32, tasks: u32, side: f64) -> Batch {
    let events: Vec<ExternalEvent> = (0..events)
        .map(|_| {
            if rng.gen_bool(0.7) {
                ExternalEvent::Move {
                    user: rng.gen_range(0..users),
                    x: rng.gen_range(0.0..=side),
                    y: rng.gen_range(0.0..=side),
                }
            } else {
                ExternalEvent::Upload {
                    user: rng.gen_range(0..users),
                    task: rng.gen_range(0..tasks),
                    value: rng.gen_range(0.0..100.0),
                }
            }
        })
        .collect();
    let items: Vec<String> = events
        .iter()
        .map(|e| match *e {
            ExternalEvent::Move { user, x, y } => {
                format!("{{\"type\": \"move\", \"user\": {user}, \"x\": {x:?}, \"y\": {y:?}}}")
            }
            ExternalEvent::Upload { user, task, value } => format!(
                "{{\"type\": \"upload\", \"user\": {user}, \"task\": {task}, \"value\": {value:?}}}"
            ),
        })
        .collect();
    Batch { body: format!("{{\"events\": [{}]}}", items.join(", ")), events }
}

/// The legs of `cycles` cycles (reference, double, saturation each),
/// every body generated up front from `seed`.
fn legs(seed: u64, scale: Scale, cycles: usize, side: f64) -> (Batch, Vec<Leg>) {
    let (reference_s, double_s, saturation_batches) = match scale {
        Scale::Full => (REFERENCE_S, DOUBLE_S, SATURATION_BATCHES),
        Scale::Mini => (1.0, 1.0, 100),
    };
    let scenario = scenario(seed);
    let (users, tasks) = (scenario.users as u32, scenario.tasks as u32);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_4E_D0_0D);
    let probe = batch(&mut rng, 1, users, tasks, side);
    let requests = |eps: f64, seconds: f64| (seconds * eps / BATCH as f64) as usize;
    let mut legs = Vec::with_capacity(3 * cycles);
    for cycle in 0..cycles {
        for (name, eps, count) in [
            ("reference", Some(REFERENCE_EPS), requests(REFERENCE_EPS, reference_s)),
            ("double", Some(2.0 * REFERENCE_EPS), requests(2.0 * REFERENCE_EPS, double_s)),
            ("saturation", None, saturation_batches),
        ] {
            let batches = (0..count).map(|_| batch(&mut rng, BATCH, users, tasks, side)).collect();
            legs.push(Leg { name, cycle, eps, batches });
        }
    }
    (probe, legs)
}

/// A 202's identifiers.
#[derive(Debug, Clone, Copy)]
struct Ack {
    request_id: u64,
    first_event_id: u64,
}

fn post(addr: SocketAddr, body: &str) -> Option<Ack> {
    let response = http::request(addr, "POST", "/events", body.as_bytes(), TIMEOUT).ok()?;
    if response.status != 202 {
        return None;
    }
    let doc = parse_json(&response.body).ok()?;
    Some(Ack {
        request_id: doc.get("request_id")?.as_u64()?,
        first_event_id: doc.get("first_event_id")?.as_u64()?,
    })
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// What one leg measured.
#[derive(Debug, Default)]
struct LegResult {
    /// Ack latency from each request's due time, ms.
    latency_ms: Vec<f64>,
    /// How late each request left the generator, ms.
    late_ms: Vec<f64>,
    failed: u64,
    accepted_events: u64,
    /// Offsets from the schedule start, s.
    started_s: f64,
    ended_s: f64,
    backlog_grew: bool,
}

/// What the control thread measured.
#[derive(Debug, Default)]
struct Control {
    /// `(due offset s, completion from due ms)` per tick.
    tick_ms: Vec<(f64, f64)>,
    /// Bench-timed `Daemon::tick` call, ms.
    tick_call_ms: Vec<f64>,
    /// `(due offset s, response from due ms)` per read.
    read_ms: Vec<(f64, f64)>,
    /// `(offset s, queue_depth)` from `GET /status` at every tick.
    depth: Vec<(f64, f64)>,
    failed: u64,
    attempted: u64,
    /// WAL bytes and ingested events appended between ticks (traced).
    wal_appended: f64,
    events_appended: f64,
}

/// One daemon's whole schedule.
struct Schedule {
    setup_s: f64,
    legs: Vec<LegResult>,
    control: Control,
    /// `(ack, batch)` for every 202, the probe included.
    acks: Vec<(Ack, Batch)>,
    posts_attempted: u64,
    state_dir: PathBuf,
    snapshot: Snapshot,
    peak_rss_mb: f64,
}

fn daemon_config(seed: u64, state_dir: &Path) -> DaemonConfig {
    let mut config = DaemonConfig::new(scenario(seed), state_dir.to_path_buf());
    config.queue_capacity = QUEUE_CAPACITY;
    config
}

fn fresh_dir(dir: &Path) -> Result<(), BenchError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(harness("creating the daemon state directory"))
}

/// `Daemon::start` up to the first 202, on a throwaway daemon.
fn probe_setup(seed: u64, dir: &Path, probe: &Batch) -> Result<f64, BenchError> {
    fresh_dir(dir)?;
    let started = Instant::now();
    let daemon = Daemon::start(daemon_config(seed, dir), &Recorder::disabled())
        .map_err(harness("Daemon::start"))?;
    let acked = post(daemon.local_addr(), &probe.body);
    let setup_s = started.elapsed().as_secs_f64();
    daemon.shutdown().map_err(harness("Daemon::shutdown"))?;
    let _ = std::fs::remove_dir_all(dir);
    acked
        .map(|_| setup_s)
        .ok_or_else(|| BenchError::Harness("the setup probe was not acked".into()))
}

/// A fixed-rate leg's backlog grew if, between its first and last
/// thirds, the generator fell a further tick interval behind or the
/// daemon's queue grew by more than one tick's worth of arrivals.
fn backlog_grew(leg: &LegResult, eps: f64, depth: &[(f64, f64)]) -> bool {
    let thirds = |v: &[f64]| -> (f64, f64) {
        let n = v.len() / 3;
        if n == 0 {
            return (0.0, 0.0);
        }
        (mean(&v[..n]), mean(&v[v.len() - n..]))
    };
    let (late_first, late_last) = thirds(&leg.late_ms);
    let in_leg: Vec<f64> = depth
        .iter()
        .filter(|(t, _)| *t >= leg.started_s && *t <= leg.ended_s)
        .map(|&(_, d)| d)
        .collect();
    let (depth_first, depth_last) = thirds(&in_leg);
    late_last - late_first > TICK_EVERY.as_secs_f64() * 1e3
        || depth_last - depth_first > eps * TICK_EVERY.as_secs_f64()
}

fn ingest(
    addr: SocketAddr,
    legs: &[Leg],
    t0: Instant,
    acks: &Mutex<Vec<(Ack, Batch)>>,
) -> Vec<LegResult> {
    let mut results = Vec::with_capacity(legs.len());
    for leg in legs {
        let start = Instant::now();
        let mut result =
            LegResult { started_s: (start - t0).as_secs_f64(), ..LegResult::default() };
        for (i, batch) in leg.batches.iter().enumerate() {
            let due = match leg.eps {
                Some(eps) => start + Duration::from_secs_f64(i as f64 * BATCH as f64 / eps),
                None => Instant::now(),
            };
            sleep_until(due);
            let sent = Instant::now();
            let acked = post(addr, &batch.body);
            let done = Instant::now();
            result.late_ms.push((sent - due).as_secs_f64() * 1e3);
            match acked {
                Some(ack) => {
                    result.latency_ms.push((done - due).as_secs_f64() * 1e3);
                    result.accepted_events += batch.events.len() as u64;
                    acks.lock().expect("ack list").push((ack, batch.clone()));
                }
                None => result.failed += 1,
            }
        }
        result.ended_s = t0.elapsed().as_secs_f64();
        results.push(result);
    }
    results
}

fn control(daemon: &Daemon, recorder: &Recorder, t0: Instant, done: &AtomicBool) -> Control {
    let addr = daemon.local_addr();
    let wal = recorder.gauge("wal_bytes");
    let events = recorder.counter("ingest_events_total");
    let mut c = Control::default();
    let (mut last_wal, mut last_events) = (wal.get() as f64, events.get() as f64);
    let mut next_tick = t0 + TICK_EVERY;
    let mut next_read = t0 + READ_EVERY;
    while !done.load(Ordering::SeqCst) {
        if next_tick <= next_read {
            sleep_until(next_tick);
            c.attempted += 2;
            match http::request(addr, "GET", "/status", b"", TIMEOUT) {
                Ok(r) if r.status == 200 => {
                    let depth =
                        parse_json(&r.body).ok().and_then(|d| d.get("queue_depth")?.as_f64());
                    c.depth.push((t0.elapsed().as_secs_f64(), depth.unwrap_or(0.0)));
                }
                _ => c.failed += 1,
            }
            c.wal_appended += wal.get() as f64 - last_wal;
            c.events_appended += events.get() as f64 - last_events;
            let call = Instant::now();
            if let Err(e) = daemon.tick() {
                eprintln!("perfbench: serve_mixed: tick failed: {e}");
                c.failed += 1;
            }
            let end = Instant::now();
            (last_wal, last_events) = (wal.get() as f64, events.get() as f64);
            c.tick_ms.push(((next_tick - t0).as_secs_f64(), (end - next_tick).as_secs_f64() * 1e3));
            c.tick_call_ms.push((end - call).as_secs_f64() * 1e3);
            next_tick += TICK_EVERY;
        } else {
            sleep_until(next_read);
            c.attempted += 1;
            match http::request(addr, "GET", "/prices", b"", TIMEOUT) {
                Ok(r) if r.status == 200 => c.read_ms.push((
                    (next_read - t0).as_secs_f64(),
                    next_read.elapsed().as_secs_f64() * 1e3,
                )),
                _ => c.failed += 1,
            }
            next_read += READ_EVERY;
        }
    }
    c
}

/// Starts a daemon in `dir`, runs every leg beside the control thread,
/// shuts it down gracefully.
fn schedule(
    seed: u64,
    dir: &Path,
    probe: &Batch,
    legs: &[Leg],
    recorder: &Recorder,
) -> Result<Schedule, BenchError> {
    fresh_dir(dir)?;
    let started = Instant::now();
    let daemon =
        Daemon::start(daemon_config(seed, dir), recorder).map_err(harness("Daemon::start"))?;
    let addr = daemon.local_addr();
    let first = post(addr, &probe.body)
        .ok_or_else(|| BenchError::Harness("the first batch was not acked".into()))?;
    let setup_s = started.elapsed().as_secs_f64();

    let acks = Mutex::new(vec![(first, probe.clone())]);
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (leg_results, control) = std::thread::scope(|scope| {
        let ingest_thread = scope.spawn(|| {
            let results = ingest(addr, legs, t0, &acks);
            done.store(true, Ordering::SeqCst);
            results
        });
        let control = control(&daemon, recorder, t0, &done);
        (ingest_thread.join().expect("ingest thread panicked"), control)
    });
    let snapshot = recorder.snapshot();
    daemon.shutdown().map_err(harness("Daemon::shutdown"))?;
    let mut legs_out = leg_results;
    for (result, leg) in legs_out.iter_mut().zip(legs) {
        if let Some(eps) = leg.eps {
            result.backlog_grew = backlog_grew(result, eps, &control.depth);
            if result.backlog_grew {
                eprintln!(
                    "perfbench: serve_mixed: the backlog of {} leg {} grew; its requests count as failed",
                    leg.name, leg.cycle
                );
            }
        }
    }
    Ok(Schedule {
        setup_s,
        legs: legs_out,
        control,
        acks: acks.into_inner().expect("ack list"),
        posts_attempted: 1 + legs.iter().map(|l| l.batches.len() as u64).sum::<u64>(),
        state_dir: dir.to_path_buf(),
        snapshot,
        peak_rss_mb: peak_rss_mb(),
    })
}

impl Schedule {
    fn failed(&self) -> u64 {
        let legs: u64 = self
            .legs
            .iter()
            .map(|l| if l.backlog_grew { (l.latency_ms.len() as u64) + l.failed } else { l.failed })
            .sum();
        legs + self.control.failed
    }

    fn attempted(&self) -> u64 {
        self.posts_attempted + self.control.attempted
    }
}

/// Proves every acked event is in the lineage index exactly once and
/// bit-identical to an offline re-execution; returns the re-executed
/// journals' selection statistics.
fn verify(seed: u64, schedule: &Schedule) -> Result<JournalStats, BenchError> {
    let scenario = scenario(seed);
    let report =
        lineage::verify(&scenario, &schedule.state_dir).map_err(harness("lineage::verify"))?;
    if !report.is_clean() || !report.never_applied.is_empty() {
        return Err(BenchError::Incorrect(format!(
            "lineage verify: {} missing, {} mismatched, {} never applied",
            report.missing.len(),
            report.mismatched.len(),
            report.never_applied.len()
        )));
    }
    let (frames, torn, _) =
        lineage::read_frames(&schedule.state_dir.join(paydemand_serve::daemon::LINEAGE_FILE))
            .map_err(harness("reading the lineage index"))?;
    if torn > 0 {
        return Err(BenchError::Incorrect(format!("lineage index has a {torn}-byte torn tail")));
    }

    // event id → (request id, event, seen)
    let mut sent: std::collections::HashMap<u64, (u64, ExternalEvent, bool)> =
        std::collections::HashMap::new();
    for (ack, batch) in &schedule.acks {
        for (i, event) in batch.events.iter().enumerate() {
            sent.insert(ack.first_event_id + i as u64, (ack.request_id, *event, false));
        }
    }

    let mut engine =
        Engine::new(&scenario, &Recorder::disabled()).map_err(harness("Engine::new"))?;
    let mut stats = JournalStats::default();
    let mut round_frames: Vec<LineageFrame> = Vec::new();
    let mut next_round = 1u32;
    for frame in frames {
        let closes = matches!(frame, LineageFrame::Round(_));
        round_frames.push(frame);
        if !closes {
            continue;
        }
        let on_disk = std::mem::take(&mut round_frames);
        let round = on_disk.last().map_or(0, LineageFrame::round);
        if round != next_round {
            return Err(BenchError::Incorrect(format!(
                "lineage jumps from round {} to {round}",
                next_round - 1
            )));
        }
        next_round += 1;
        let mut batch = Vec::with_capacity(on_disk.len() - 1);
        for frame in &on_disk[..on_disk.len() - 1] {
            let LineageFrame::Applied(f) = frame else {
                return Err(BenchError::Incorrect(format!("round {round} has two summary frames")));
            };
            let Some((request, event, seen)) = sent.get_mut(&f.event_id) else {
                return Err(BenchError::Incorrect(format!(
                    "lineage names event {} that was never acked",
                    f.event_id
                )));
            };
            if *seen || *request != f.request_id || f.round != round {
                return Err(BenchError::Incorrect(format!(
                    "event {}: request {} round {} in lineage, acked in request {request}{}",
                    f.event_id,
                    f.request_id,
                    f.round,
                    if *seen { ", and listed twice" } else { "" }
                )));
            }
            *seen = true;
            batch.push((
                f.wal_offset,
                SequencedEvent { id: f.event_id, request: f.request_id, event: *event },
            ));
        }
        engine.enable_trace();
        let dropped: Vec<bool> =
            batch.iter().map(|(_, seq)| engine.enqueue_event(seq.event).is_err()).collect();
        engine.step_round().map_err(harness("Engine::step_round"))?;
        let journal = paydemand_sim::trace::decode(&engine.take_trace().unwrap_or_default())
            .map_err(|e| {
                BenchError::Incorrect(format!("round {round}: journal does not decode: {e}"))
            })?;
        stats.absorb(&journal);
        let dispositions = lineage::join_outcomes(&dropped, engine.last_event_outcomes());
        let regenerated =
            lineage::frames_for_round(round, &batch, &dispositions, engine.total_paid(), &journal);
        if let Some((want, got)) = regenerated.iter().zip(&on_disk).find(|(a, b)| a != b) {
            return Err(BenchError::Incorrect(format!(
                "round {round}: on-disk frame {got:?} differs from re-execution {want:?}"
            )));
        }
        if regenerated.len() != on_disk.len() {
            return Err(BenchError::Incorrect(format!("round {round}: frame counts differ")));
        }
    }
    if !round_frames.is_empty() {
        return Err(BenchError::Incorrect("lineage ends inside a round".into()));
    }
    if let Some((id, _)) = sent.iter().find(|(_, (_, _, seen))| !seen) {
        return Err(BenchError::Incorrect(format!("acked event {id} is missing from lineage")));
    }
    Ok(stats)
}

/// The values of `(offset, value)` samples due in `[from, to)`.
fn window(samples: &[(f64, f64)], from: f64, to: f64) -> Vec<f64> {
    samples.iter().filter(|(t, _)| *t >= from && *t < to).map(|&(_, v)| v).collect()
}

/// Fails the run when a percentile rests on ten samples or fewer.
fn enough(name: &str, values: &[f64], q: f64) -> Result<(), BenchError> {
    let tail = beyond(values, q);
    if tail > 10 {
        Ok(())
    } else {
        Err(BenchError::Harness(format!(
            "{name}: only {tail} of {} samples lie beyond p{}",
            values.len(),
            q * 100.0
        )))
    }
}

/// One cycle's end-to-end figures.
#[derive(Debug, Default)]
struct CycleFigures {
    ack_p50_ms: f64,
    ack_p99_ms: f64,
    ack_p99_ms_2x: f64,
    sat_wall_s: f64,
    sat_eps: f64,
    tick_p50_ms: f64,
    tick_p90_ms: f64,
    read_p50_ms: f64,
    read_p99_ms: f64,
}

/// Figures of cycle `c`. Ticks and reads count over the cycle's
/// fixed-rate legs, whose length the schedule fixes, so the saturation
/// leg's varying length never changes the mix behind the percentiles.
fn cycle_figures(schedule: &Schedule, c: usize, check: bool) -> Result<CycleFigures, BenchError> {
    let (reference, double, saturation) =
        (&schedule.legs[3 * c], &schedule.legs[3 * c + 1], &schedule.legs[3 * c + 2]);
    let ticks = window(&schedule.control.tick_ms, reference.started_s, double.ended_s);
    let reads = window(&schedule.control.read_ms, reference.started_s, double.ended_s);
    if check {
        enough("ack_p99_ms", &reference.latency_ms, 0.99)?;
        enough("ack_p99_ms_2x", &double.latency_ms, 0.99)?;
        enough("tick_p90_ms", &ticks, 0.90)?;
        enough("read_p99_ms", &reads, 0.99)?;
    }
    let sat_wall_s = saturation.ended_s - saturation.started_s;
    Ok(CycleFigures {
        ack_p50_ms: quantile(&reference.latency_ms, 0.5),
        ack_p99_ms: quantile(&reference.latency_ms, 0.99),
        ack_p99_ms_2x: quantile(&double.latency_ms, 0.99),
        sat_wall_s,
        sat_eps: saturation.accepted_events as f64 / sat_wall_s,
        tick_p50_ms: quantile(&ticks, 0.5),
        tick_p90_ms: quantile(&ticks, 0.9),
        read_p50_ms: quantile(&reads, 0.5),
        read_p99_ms: quantile(&reads, 0.99),
    })
}

/// Runs the workload; see the module docs.
///
/// # Errors
///
/// As [`crate::run_workload`].
pub fn run(config: &RunConfig) -> Result<Outcome, BenchError> {
    let side = Engine::new(&scenario(config.seed), &Recorder::disabled())
        .map_err(harness("Engine::new"))?
        .area()
        .max()
        .x;
    // A traced run measures one cycle twice (plain, then traced).
    let cycles = match (config.scale, config.trace) {
        (Scale::Full, false) => ((config.seconds / CYCLE_S).floor() as usize).max(1),
        _ => 1,
    };
    let (probe, legs) = legs(config.seed, config.scale, cycles, side);
    let root = config.work_dir.join(format!("serve-{}", std::process::id()));
    let result = run_in(config, &root, &probe, &legs);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(
    config: &RunConfig,
    root: &Path,
    probe: &Batch,
    legs: &[Leg],
) -> Result<Outcome, BenchError> {
    let mut setup = Vec::with_capacity(SETUP_PROBES + 1);
    if !config.trace {
        for k in 0..SETUP_PROBES {
            setup.push(probe_setup(config.seed, &root.join(format!("probe-{k}")), probe)?);
        }
    }
    let plain = schedule(config.seed, &root.join("plain"), probe, legs, &Recorder::disabled())?;
    setup.push(plain.setup_s);
    verify(config.seed, &plain)?;
    if config.trace {
        return traced(config, root, probe, legs, &plain);
    }

    let cycles = (0..plain.legs.len() / 3)
        .map(|c| cycle_figures(&plain, c, config.scale == Scale::Full))
        .collect::<Result<Vec<_>, _>>()?;
    // Each figure is the median over cycles, so one disturbed cycle on a
    // shared host cannot move it.
    let over_cycles =
        |f: fn(&CycleFigures) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let mut out =
        Outcome { attempted: plain.attempted(), failed: plain.failed(), ..Outcome::default() };
    out.set("setup_s", median(&setup));
    out.set("run_s", over_cycles(|c| c.sat_wall_s));
    out.set("peak_rss_mb", plain.peak_rss_mb);
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("ack_p50_ms", over_cycles(|c| c.ack_p50_ms));
    out.set("ack_p99_ms", over_cycles(|c| c.ack_p99_ms));
    out.set("ack_p99_ms_2x", over_cycles(|c| c.ack_p99_ms_2x));
    out.set("sat_eps", over_cycles(|c| c.sat_eps));
    out.set("tick_p50_ms", over_cycles(|c| c.tick_p50_ms));
    out.set("tick_p90_ms", over_cycles(|c| c.tick_p90_ms));
    out.set("read_p50_ms", over_cycles(|c| c.read_p50_ms));
    out.set("read_p99_ms", over_cycles(|c| c.read_p99_ms));
    out.keep_raw("setup_s", &setup);
    for (name, f) in [
        ("cycle_ack_p50_ms", (|c| c.ack_p50_ms) as fn(&CycleFigures) -> f64),
        ("cycle_ack_p99_ms", |c| c.ack_p99_ms),
        ("cycle_ack_p99_ms_2x", |c| c.ack_p99_ms_2x),
        ("cycle_sat_eps", |c| c.sat_eps),
        ("cycle_tick_p90_ms", |c| c.tick_p90_ms),
        ("cycle_read_p99_ms", |c| c.read_p99_ms),
    ] {
        out.keep_raw(name, &cycles.iter().map(f).collect::<Vec<_>>());
    }
    for (leg, result) in legs.iter().zip(&plain.legs) {
        out.keep_raw(&format!("{}{}_ack_ms", leg.name, leg.cycle), &result.latency_ms);
        out.keep_raw(&format!("{}{}_late_ms", leg.name, leg.cycle), &result.late_ms);
    }
    out.keep_raw("tick_ms", &plain.control.tick_ms.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    out.keep_raw("read_ms", &plain.control.read_ms.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    out.keep_raw("queue_depth", &plain.control.depth.iter().map(|&(_, d)| d).collect::<Vec<_>>());
    Ok(out)
}

/// The traced run: the same schedule again on a fresh daemon with an
/// enabled recorder; layers come from its metric families, the bench's
/// own timings and the re-executed journals.
fn traced(
    config: &RunConfig,
    root: &Path,
    probe: &Batch,
    legs: &[Leg],
    plain: &Schedule,
) -> Result<Outcome, BenchError> {
    let recorder = Recorder::enabled();
    let run = schedule(config.seed, &root.join("traced"), probe, legs, &recorder)?;
    let journal = verify(config.seed, &run)?;
    let snap = &run.snapshot;
    let mut out = layers::zeroed("serve_mixed");
    let step_round_s = layers::sum_s(&layers::family(snap, "engine_round_seconds"));
    layers::engine_layers(&mut out, snap, step_round_s, journal)?;

    let stage = |name| layers::labelled(snap, "ingest_stage_seconds", "stage", name);
    for name in ["parse", "enqueue", "fsync", "ack"] {
        let h = stage(name);
        out.set(&format!("serve.{name}_p50_us"), h.p50() as f64 * 1e-3);
        out.set(&format!("serve.{name}_p99_us"), h.p99() as f64 * 1e-3);
    }
    let events = layers::counter(snap, "ingest_events_total");
    let fsyncs = stage("fsync").count as f64;
    out.set("serve.events_per_fsync", if fsyncs > 0.0 { events / fsyncs } else { 0.0 });
    let c = &run.control;
    out.set(
        "serve.wal_bytes_per_event",
        if c.events_appended > 0.0 { c.wal_appended / c.events_appended } else { 0.0 },
    );
    out.set("serve.tick_call_p50_ms", median(&c.tick_call_ms));
    out.set(
        "serve.tick_step_round_p50_ms",
        layers::family(snap, "engine_round_seconds").p50() as f64 * 1e-6,
    );
    let applied = layers::counter(snap, "lineage_applied_total");
    out.set(
        "serve.lineage_bytes_per_event",
        if applied > 0.0 { layers::counter(snap, "lineage_bytes_total") / applied } else { 0.0 },
    );
    out.set("serve.shed", layers::counter(snap, "shed_total"));
    out.set("serve.rejected", layers::counter(snap, "ingest_rejected_total"));
    out.set("serve.queue_depth_max", c.depth.iter().map(|&(_, d)| d).fold(0.0, f64::max));
    out.set("bench.gen_late_p99_ms", quantile(&run.legs[0].late_ms, 0.99));
    out.set("bench.gen_late_p99_ms_2x", quantile(&run.legs[1].late_ms, 0.99));
    let wall = |s: &Schedule| s.legs[2].ended_s - s.legs[2].started_s;
    out.set("bench.trace_overhead_frac", layers::overhead(wall(&run), wall(plain)));
    out.attempted = plain.attempted() + run.attempted();
    out.failed = plain.failed() + run.failed();
    out.keep_raw("tick_call_ms", &c.tick_call_ms);
    Ok(out)
}
