//! Seeded load generation against a running daemon, honest and hostile.
//!
//! [`run_load`] replays a client plan derived deterministically from a
//! seed: honest clients batch-POST valid movement/upload events (their
//! latencies become the p50/p99/p999 figures), while adversarial
//! clients rotate through a fixed repertoire of attacks — slow-loris
//! trickle, mid-request disconnects, garbage bytes, oversized bodies,
//! invalid JSON and pipelined junk. The daemon must shed, reject or
//! time these out without a single worker panic; the bench gate
//! asserts `worker_restarts_total == 0` afterwards.
//!
//! The honest workload is self-configuring: the generator reads
//! `GET /status` for the workload's user/task counts and sensing area,
//! so the same plan runs against any scenario.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use paydemand_obs::{http, parse_json, JsonValue, Recorder};
use rand::{Rng, RngCore, SeedableRng};

use crate::ServeError;

/// One adversarial move (honest clients are driven separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// Writes a few head bytes, then stalls past the head deadline.
    SlowLoris,
    /// Announces a body, sends half of it, disconnects.
    Disconnect,
    /// Raw garbage bytes where a request line should be.
    Garbage,
    /// Declares a Content-Length over the body cap.
    Oversized,
    /// Well-formed HTTP, body that is not JSON.
    BadJson,
    /// Two requests back-to-back in one write (server truncates the
    /// pipelined excess; the first must still be answered).
    Pipelined,
}

const ADVERSARIAL_ARMS: [Arm; 6] =
    [Arm::SlowLoris, Arm::Disconnect, Arm::Garbage, Arm::Oversized, Arm::BadJson, Arm::Pipelined];

/// The seeded client plan [`run_load`] executes.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Seed every client's event stream and attack schedule derive from.
    pub seed: u64,
    /// Honest clients POSTing valid event batches concurrently.
    pub honest_clients: usize,
    /// Adversarial clients cycling through the attack repertoire.
    pub adversarial_clients: usize,
    /// Requests each honest client sends.
    pub requests_per_client: usize,
    /// Events per honest batch.
    pub batch_size: usize,
    /// Attacks each adversarial client performs.
    pub attacks_per_client: usize,
    /// Client-side timeout per request.
    pub request_timeout: Duration,
}

impl LoadPlan {
    /// The gate's default plan: 4 honest clients × 50 batches of 200
    /// events (40 000 events) alongside 3 adversarial clients running
    /// 6 attacks each.
    #[must_use]
    pub fn gate_default(seed: u64) -> Self {
        LoadPlan {
            seed,
            honest_clients: 4,
            adversarial_clients: 3,
            requests_per_client: 50,
            batch_size: 200,
            attacks_per_client: 6,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// What a load run measured; serialise with [`LoadReport::to_json`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The plan's seed, for reproduction.
    pub seed: u64,
    /// Honest requests sent.
    pub requests_total: u64,
    /// Honest requests answered 202.
    pub requests_accepted: u64,
    /// Honest requests shed with 429.
    pub requests_shed: u64,
    /// Honest requests failing any other way (4xx/5xx/transport).
    pub requests_failed: u64,
    /// Attacks performed.
    pub adversarial_requests: u64,
    /// Attacks that hung past their deadline (must be 0).
    pub adversarial_hangs: u64,
    /// Events accepted by the daemon (sum over 202 batches).
    pub events_accepted: u64,
    /// Wall-clock for the honest phase, seconds.
    pub wall_seconds: f64,
    /// Accepted events per wall-clock second.
    pub events_per_sec: f64,
    /// Shed rate over honest requests (0..=1).
    pub shed_rate: f64,
    /// Honest request latency percentiles, microseconds.
    pub latency_us_p50: u64,
    /// 99th percentile, microseconds.
    pub latency_us_p99: u64,
    /// 99.9th percentile, microseconds.
    pub latency_us_p999: u64,
    /// `worker_restarts_total` read from the daemon afterwards.
    pub worker_restarts: u64,
    /// Daemon state label after the run (must be a live state).
    pub daemon_state: String,
    /// `--resume` recovery time, milliseconds, when the harness
    /// measured one (the kill‑9 leg fills this in).
    pub recovery_ms: Option<f64>,
    /// Server-side per-stage ingest latencies, when the harness runs
    /// the daemon in-process and can read its recorder.
    pub server_stages: Option<ServerStages>,
    /// A sampling profile recorded during the honest leg (99 Hz by
    /// default): the hottest stacks plus the sampler's self-reported
    /// overhead. `None` when the harness did not profile.
    pub profile: Option<LoadProfile>,
}

/// Summary of the profile captured while the honest load ran: the
/// top-5 hottest folded stacks and the sampler's own accounting, as
/// emitted into `BENCH_serve.json` and validated by `gate --serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Sampling rate the capture ran at.
    pub hz: u32,
    /// Stack samples collected during the leg.
    pub samples: u64,
    /// Sampler ticks missed (behind schedule or table contended).
    pub dropped: u64,
    /// Wall time the sampler spent inside sampling work.
    pub overhead_seconds: f64,
    /// The hottest folded stacks with their sample counts, hottest
    /// first, at most five.
    pub top_stacks: Vec<(String, u64)>,
}

impl LoadProfile {
    /// Summarises a finished capture.
    #[must_use]
    pub fn from_profile(profile: &paydemand_obs::Profile) -> LoadProfile {
        LoadProfile {
            hz: profile.hz,
            samples: profile.samples_total,
            dropped: profile.dropped_samples,
            overhead_seconds: profile.overhead_seconds,
            top_stacks: profile
                .top_stacks(5)
                .into_iter()
                .map(|stack| (stack.folded_name(), stack.samples))
                .collect(),
        }
    }
}

/// Server-side `ingest_stage_seconds` percentiles (microseconds),
/// scraped from the daemon's recorder after the honest phase. The
/// client-side percentiles above include socket round-trips; these
/// isolate where the server itself spends the ack budget — in
/// particular, whether the fsync dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStages {
    /// JSON decode stage p50, microseconds.
    pub parse_us_p50: u64,
    /// JSON decode stage p99, microseconds.
    pub parse_us_p99: u64,
    /// WAL append + fsync stage p50, microseconds.
    pub fsync_us_p50: u64,
    /// WAL append + fsync stage p99, microseconds.
    pub fsync_us_p99: u64,
    /// Whole-accept (entry → ack) p50, microseconds.
    pub ack_us_p50: u64,
    /// Whole-accept (entry → ack) p99, microseconds.
    pub ack_us_p99: u64,
}

impl ServerStages {
    /// Reads the daemon's `ingest_stage_seconds` histograms out of the
    /// recorder it was started with (nanosecond observations → µs).
    #[must_use]
    pub fn from_recorder(recorder: &Recorder) -> Self {
        let stage = |name: &str| {
            let snap = recorder.histogram_with("ingest_stage_seconds", "stage", name).snapshot();
            (snap.p50() / 1_000, snap.p99() / 1_000)
        };
        let (parse_us_p50, parse_us_p99) = stage("parse");
        let (fsync_us_p50, fsync_us_p99) = stage("fsync");
        let (ack_us_p50, ack_us_p99) = stage("ack");
        ServerStages {
            parse_us_p50,
            parse_us_p99,
            fsync_us_p50,
            fsync_us_p99,
            ack_us_p50,
            ack_us_p99,
        }
    }
}

impl LoadReport {
    /// Renders the `BENCH_serve.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"seed\": {},\n  \"requests_total\": {},\n  \
             \"requests_accepted\": {},\n  \"requests_shed\": {},\n  \"requests_failed\": {},\n  \
             \"adversarial_requests\": {},\n  \"adversarial_hangs\": {},\n  \
             \"events_accepted\": {},\n  \"wall_seconds\": {:.6},\n  \"events_per_sec\": {:.1},\n  \
             \"shed_rate\": {:.6},\n  \"latency_us\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}},\n  \
             \"worker_restarts\": {},\n  \"daemon_state\": \"{}\",\n  \"recovery_ms\": {},\n  \
             \"profile\": {},\n  \"server_stage_us\": {}\n}}\n",
            self.seed,
            self.requests_total,
            self.requests_accepted,
            self.requests_shed,
            self.requests_failed,
            self.adversarial_requests,
            self.adversarial_hangs,
            self.events_accepted,
            self.wall_seconds,
            self.events_per_sec,
            self.shed_rate,
            self.latency_us_p50,
            self.latency_us_p99,
            self.latency_us_p999,
            self.worker_restarts,
            self.daemon_state,
            self.recovery_ms.map_or("null".to_owned(), |ms| format!("{ms:.1}")),
            self.profile.as_ref().map_or("null".to_owned(), |p| {
                let stacks: Vec<String> = p
                    .top_stacks
                    .iter()
                    .map(|(stack, samples)| {
                        format!("{{\"stack\": \"{stack}\", \"samples\": {samples}}}")
                    })
                    .collect();
                format!(
                    "{{\"hz\": {}, \"samples\": {}, \"dropped\": {}, \
                     \"overhead_seconds\": {:.6}, \"top_stacks\": [{}]}}",
                    p.hz,
                    p.samples,
                    p.dropped,
                    p.overhead_seconds,
                    stacks.join(", "),
                )
            }),
            self.server_stages.map_or("null".to_owned(), |s| format!(
                "{{\"parse\": {{\"p50\": {}, \"p99\": {}}}, \
                 \"fsync\": {{\"p50\": {}, \"p99\": {}}}, \
                 \"ack\": {{\"p50\": {}, \"p99\": {}}}}}",
                s.parse_us_p50, s.parse_us_p99, s.fsync_us_p50, s.fsync_us_p99, s.ack_us_p50,
                s.ack_us_p99,
            )),
        )
    }
}

/// The workload facts the honest clients need.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Workload {
    users: u32,
    tasks: u32,
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

struct Tally {
    requests: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    events: AtomicU64,
    attacks: AtomicU64,
    hangs: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
}

/// Runs `plan` against the daemon at `addr` and reports what happened.
///
/// # Errors
///
/// [`ServeError::Io`] when the daemon is unreachable or `/status` is
/// unparseable — individual request failures are *counted*, not
/// errors.
pub fn run_load(addr: SocketAddr, plan: &LoadPlan) -> Result<LoadReport, ServeError> {
    let workload = fetch_status(addr, plan.request_timeout)?.workload;
    let tally = Arc::new(Tally {
        requests: AtomicU64::new(0),
        accepted: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        events: AtomicU64::new(0),
        attacks: AtomicU64::new(0),
        hangs: AtomicU64::new(0),
        latencies_us: Mutex::new(Vec::new()),
    });

    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..plan.honest_clients {
        let tally = Arc::clone(&tally);
        let plan = plan.clone();
        handles.push(std::thread::spawn(move || {
            honest_client(addr, &plan, client, workload, &tally);
        }));
    }
    for client in 0..plan.adversarial_clients {
        let tally = Arc::clone(&tally);
        let plan = plan.clone();
        handles.push(std::thread::spawn(move || {
            adversarial_client(addr, &plan, client, &tally);
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);

    let mut latencies = tally.latencies_us.lock().unwrap_or_else(PoisonError::into_inner).clone();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };

    let (worker_restarts, daemon_state) = match fetch_status(addr, plan.request_timeout) {
        Ok(status) => (status.worker_restarts, status.state),
        Err(_) => (u64::MAX, "unreachable".to_owned()),
    };
    let requests_total = tally.requests.load(Ordering::SeqCst);
    let requests_shed = tally.shed.load(Ordering::SeqCst);
    let events_accepted = tally.events.load(Ordering::SeqCst);
    Ok(LoadReport {
        seed: plan.seed,
        requests_total,
        requests_accepted: tally.accepted.load(Ordering::SeqCst),
        requests_shed,
        requests_failed: tally.failed.load(Ordering::SeqCst),
        adversarial_requests: tally.attacks.load(Ordering::SeqCst),
        adversarial_hangs: tally.hangs.load(Ordering::SeqCst),
        events_accepted,
        wall_seconds,
        events_per_sec: events_accepted as f64 / wall_seconds,
        shed_rate: if requests_total == 0 {
            0.0
        } else {
            requests_shed as f64 / requests_total as f64
        },
        latency_us_p50: pct(0.50),
        latency_us_p99: pct(0.99),
        latency_us_p999: pct(0.999),
        worker_restarts,
        daemon_state,
        recovery_ms: None,
        server_stages: None,
        profile: None,
    })
}

fn client_rng(seed: u64, client: usize, adversarial: bool) -> rand::rngs::StdRng {
    // Distinct streams per client; the golden-ratio stride decorrelates
    // neighbouring seeds.
    let stream = (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::rngs::StdRng::seed_from_u64(seed ^ stream ^ u64::from(adversarial) << 63)
}

fn honest_client(
    addr: SocketAddr,
    plan: &LoadPlan,
    client: usize,
    workload: Workload,
    tally: &Tally,
) {
    let mut rng = client_rng(plan.seed, client, false);
    let mut local_latencies = Vec::with_capacity(plan.requests_per_client);
    for _ in 0..plan.requests_per_client {
        let body = event_batch(&mut rng, plan.batch_size, workload);
        tally.requests.fetch_add(1, Ordering::SeqCst);
        let begin = Instant::now();
        match http::request(addr, "POST", "/events", body.as_bytes(), plan.request_timeout) {
            Ok(response) if response.status == 202 => {
                local_latencies.push(begin.elapsed().as_micros() as u64);
                tally.accepted.fetch_add(1, Ordering::SeqCst);
                tally.events.fetch_add(plan.batch_size as u64, Ordering::SeqCst);
            }
            Ok(response) if response.status == 429 || response.status == 503 => {
                tally.shed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(_) | Err(_) => {
                tally.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    tally
        .latencies_us
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extend_from_slice(&local_latencies);
}

fn event_batch(rng: &mut rand::rngs::StdRng, batch_size: usize, w: Workload) -> String {
    let mut body = String::with_capacity(32 + batch_size * 64);
    body.push_str("{\"events\": [");
    for i in 0..batch_size {
        if i > 0 {
            body.push_str(", ");
        }
        if rng.gen_bool(0.7) {
            let user = rng.gen_range(0..w.users);
            let x = rng.gen_range(w.min_x..=w.max_x);
            let y = rng.gen_range(w.min_y..=w.max_y);
            body.push_str(&format!(
                "{{\"type\": \"move\", \"user\": {user}, \"x\": {x}, \"y\": {y}}}"
            ));
        } else {
            let user = rng.gen_range(0..w.users);
            let task = rng.gen_range(0..w.tasks);
            let value = rng.gen_range(0.0..100.0);
            body.push_str(&format!(
                "{{\"type\": \"upload\", \"user\": {user}, \"task\": {task}, \"value\": {value}}}"
            ));
        }
    }
    body.push_str("]}");
    body
}

fn adversarial_client(addr: SocketAddr, plan: &LoadPlan, client: usize, tally: &Tally) {
    let mut rng = client_rng(plan.seed, client, true);
    for attack in 0..plan.attacks_per_client {
        // Every arm in every client's schedule, order shuffled by seed.
        let arm = ADVERSARIAL_ARMS
            [(attack + rng.next_u32() as usize % ADVERSARIAL_ARMS.len()) % ADVERSARIAL_ARMS.len()];
        tally.attacks.fetch_add(1, Ordering::SeqCst);
        let begin = Instant::now();
        run_attack(addr, arm, &mut rng, plan.request_timeout);
        // An attack that outlives its own socket timeout by a wide
        // margin means the server is holding the line open — the
        // hang the deadlines exist to prevent.
        if begin.elapsed() > plan.request_timeout + Duration::from_secs(5) {
            tally.hangs.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn run_attack(addr: SocketAddr, arm: Arm, rng: &mut rand::rngs::StdRng, timeout: Duration) {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut sink = Vec::new();
    match arm {
        Arm::SlowLoris => {
            // Trickle a byte at a time; the server's total-head
            // deadline must cut this off, not wait per-read.
            for chunk in ["POST ", "/even", "ts HT"] {
                if stream.write_all(chunk.as_bytes()).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(400));
            }
            let _ = stream.read_to_end(&mut sink);
        }
        Arm::Disconnect => {
            let _ =
                stream.write_all(b"POST /events HTTP/1.1\r\ncontent-length: 1000\r\n\r\n{\"events");
            // Drop mid-body.
        }
        Arm::Garbage => {
            let mut junk = vec![0u8; 512];
            rng.fill_bytes(&mut junk);
            let _ = stream.write_all(&junk);
            let _ = stream.write_all(b"\r\n\r\n");
            let _ = stream.read_to_end(&mut sink);
        }
        Arm::Oversized => {
            let _ = stream.write_all(b"POST /events HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n");
            let _ = stream.write_all(&vec![b'x'; 4096]);
            let _ = stream.read_to_end(&mut sink);
        }
        Arm::BadJson => {
            let body = b"{\"events\": [{\"type\": ";
            let head = format!("POST /events HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(body);
            let _ = stream.read_to_end(&mut sink);
        }
        Arm::Pipelined => {
            let _ = stream.write_all(
                b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\nGET /garbage-pipelined \
                  HTTP/1.1\r\n\r\ntrailing nonsense",
            );
            let _ = stream.read_to_end(&mut sink);
        }
    }
}

/// The daemon-side facts the generator reads from `GET /status`.
#[derive(Debug, Clone, PartialEq)]
struct Status {
    workload: Workload,
    worker_restarts: u64,
    state: String,
}

impl Status {
    /// Reads the daemon's `/status` document.
    fn parse(body: &str) -> Result<Status, String> {
        let doc = parse_json(body).map_err(|e| e.to_string())?;
        let number = |path: &[&str]| -> Result<f64, String> {
            path.iter()
                .try_fold(&doc, |value, key| value.get(key))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("lacks numeric field {:?}", path.join(".")))
        };
        Ok(Status {
            workload: Workload {
                users: number(&["users"])? as u32,
                tasks: number(&["tasks"])? as u32,
                min_x: number(&["area", "min_x"])?,
                min_y: number(&["area", "min_y"])?,
                max_x: number(&["area", "max_x"])?,
                max_y: number(&["area", "max_y"])?,
            },
            worker_restarts: number(&["worker_restarts_total"])? as u64,
            state: doc
                .get("state")
                .and_then(JsonValue::as_str)
                .ok_or("lacks string field \"state\"")?
                .to_owned(),
        })
    }
}

fn fetch_status(addr: SocketAddr, timeout: Duration) -> Result<Status, ServeError> {
    let response = http::request(addr, "GET", "/status", b"", timeout)
        .map_err(|e| ServeError::Io(format!("GET /status: {e}")))?;
    if response.status != 200 {
        return Err(ServeError::Io(format!("GET /status returned {}", response.status)));
    }
    Status::parse(&response.body).map_err(|e| ServeError::Io(format!("GET /status body {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_valid_json_shape() {
        let report = LoadReport {
            seed: 7,
            requests_total: 10,
            requests_accepted: 9,
            requests_shed: 1,
            requests_failed: 0,
            adversarial_requests: 6,
            adversarial_hangs: 0,
            events_accepted: 1800,
            wall_seconds: 0.5,
            events_per_sec: 3600.0,
            shed_rate: 0.1,
            latency_us_p50: 120,
            latency_us_p99: 900,
            latency_us_p999: 1500,
            worker_restarts: 0,
            daemon_state: "serving".to_owned(),
            recovery_ms: Some(12.5),
            server_stages: Some(ServerStages {
                parse_us_p50: 10,
                parse_us_p99: 40,
                fsync_us_p50: 80,
                fsync_us_p99: 400,
                ack_us_p50: 110,
                ack_us_p99: 700,
            }),
            profile: Some(LoadProfile {
                hz: 99,
                samples: 180,
                dropped: 0,
                overhead_seconds: 0.000412,
                top_stacks: vec![("ingest;fsync".to_owned(), 120), ("ingest;parse".to_owned(), 40)],
            }),
        };
        let json = report.to_json();
        let parsed = paydemand_obs::parse_json(&json).expect("self-emitted JSON parses");
        assert_eq!(parsed.get("bench").and_then(|v| v.as_str()), Some("serve"));
        assert_eq!(parsed.get("events_accepted").and_then(|v| v.as_f64()), Some(1800.0));
        let lat = parsed.get("latency_us").expect("latency object");
        assert_eq!(lat.get("p999").and_then(|v| v.as_f64()), Some(1500.0));
        let stages = parsed.get("server_stage_us").expect("server stage object");
        let fsync = stages.get("fsync").expect("fsync stage");
        assert_eq!(fsync.get("p99").and_then(|v| v.as_f64()), Some(400.0));
        let profile = parsed.get("profile").expect("profile object");
        assert_eq!(profile.get("hz").and_then(|v| v.as_u64()), Some(99));
        let top = profile.get("top_stacks").and_then(|v| v.as_array()).expect("top stacks");
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].get("stack").and_then(|v| v.as_str()), Some("ingest;fsync"));
        assert_eq!(top[0].get("samples").and_then(|v| v.as_u64()), Some(120));
    }

    #[test]
    fn status_reader_reads_the_daemon_document() {
        // Shaped like the daemon's real `GET /status` body.
        let body = "{\"state\": \"serving\", \"next_round\": 3, \"rounds_run\": 2, \
                    \"finished\": false, \"users\": 40, \"tasks\": 12, \
                    \"area\": {\"min_x\": 0, \"min_y\": -5.5, \"max_x\": 3000, \"max_y\": 2000.25}, \
                    \"total_paid\": 118.5, \"spend_cap\": null, \
                    \"queue_depth\": 0, \"queue_capacity\": 4096, \
                    \"ingested_events_total\": 9, \"shed_total\": 0, \"worker_restarts_total\": 2, \
                    \"replayed_events\": 0, \"ticks_total\": 2, \"pending_retries\": 0, \
                    \"wal_bytes\": 512, \"last_checkpoint_tick\": 2, \
                    \"events_since_checkpoint\": 0, \"uptime_seconds\": 1.250}\n";
        let status = Status::parse(body).expect("status document parses");
        assert_eq!(
            status,
            Status {
                workload: Workload {
                    users: 40,
                    tasks: 12,
                    min_x: 0.0,
                    min_y: -5.5,
                    max_x: 3000.0,
                    max_y: 2000.25,
                },
                worker_restarts: 2,
                state: "serving".to_owned(),
            }
        );
        // A missing field is an error naming it, not a silent zero.
        let err = Status::parse("{\"state\": \"serving\", \"users\": 40}").unwrap_err();
        assert!(err.contains("tasks"), "{err}");
        assert!(Status::parse("not json").is_err());
    }

    #[test]
    fn client_streams_are_distinct_and_reproducible() {
        let mut a1 = client_rng(42, 0, false);
        let mut a2 = client_rng(42, 0, false);
        let mut b = client_rng(42, 1, false);
        let mut adv = client_rng(42, 0, true);
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(client_rng(42, 0, false).next_u64(), b.next_u64());
        assert_ne!(client_rng(42, 0, false).next_u64(), adv.next_u64());
    }
}
