//! Pins a run in which tasks fill up part-way through the user order.
//!
//! Each user sees the `received` counts left by the users before it, so
//! the candidate list a user solves over shrinks as tasks reach φ. The
//! values below were recorded with an engine that rescanned every
//! published task for every user; they hold only while candidate
//! filtering, selection, settlement and checkpoint encoding stay
//! bit-identical to it.

use paydemand::obs::Recorder;
use paydemand::sim::trace::{self, TraceEvent};
use paydemand::sim::{
    Engine, ExternalEvent, FaultKind, FaultPlan, Scenario, SelectorKind, SimulationResult,
};

/// 2k users over 50 tasks at φ = 20, with short time budgets so tasks
/// keep completing mid-round through round 4. Scenario churn, offline
/// users, dropped and delayed uploads all draw from their RNG streams
/// while the candidate lists shrink.
fn scenario() -> Scenario {
    let plan = FaultPlan::new(0xC0FFEE)
        .with(FaultKind::Dropout { rate: 0.1 })
        .with(FaultKind::DroppedUploads { rate: 0.1 })
        .with(FaultKind::StragglerUploads { rate: 0.15, max_retries: 3, backoff_rounds: 1 });
    let mut s = Scenario::paper_default()
        .with_users(2000)
        .with_tasks(50)
        .with_max_rounds(4)
        .with_selector(SelectorKind::Greedy)
        .with_seed(0x0B1D);
    s.reward_budget = 2500.0;
    s.time_budget_range = (60.0, 150.0);
    s.dropout_rate = 0.2;
    s.faults = Some(plan);
    s
}

/// FNV-1a 64.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// External uploads for the next round boundary: a spread of users and
/// tasks, some of which find their task already full or already
/// contributed to.
fn enqueue_uploads(engine: &mut Engine) {
    let round = engine.next_round();
    for k in 0..40u32 {
        let user = (k * 97 + round * 13) % 2000;
        let task = (k * 7 + round) % 50;
        engine
            .enqueue_event(ExternalEvent::Upload { user, task, value: f64::from(k) })
            .expect("valid upload");
    }
}

/// Steps `engine` to the end, feeding the inbox before every round and
/// checkpointing after round 2.
fn run_out(engine: &mut Engine) -> Option<Vec<u8>> {
    let mut checkpoint = None;
    while !engine.is_finished() {
        enqueue_uploads(engine);
        engine.step_round().expect("round runs");
        if engine.rounds_run() == 2 {
            checkpoint = Some(engine.checkpoint().expect("checkpoint"));
        }
    }
    checkpoint
}

fn new_measurements_hash(result: &SimulationResult) -> u64 {
    fnv(result.rounds.iter().flat_map(|r| r.new_measurements.iter().flat_map(|c| c.to_le_bytes())))
}

#[test]
fn tasks_completing_mid_round_keep_results_bit_identical() {
    let s = scenario();
    let mut engine = Engine::new(&s, &Recorder::disabled()).expect("valid scenario");
    engine.enable_trace();
    let checkpoint = run_out(&mut engine).expect("round 2 ran");
    let journal = trace::decode(&engine.take_trace().expect("trace enabled")).expect("decodes");
    let candidates: Vec<u32> = journal
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Selection { candidates, .. } => Some(*candidates),
            _ => None,
        })
        .collect();
    let result = engine.finish().expect("finishes");

    assert_eq!(result.total_paid.to_bits(), 0x4091_5200_0000_0000);
    let mut received = vec![20u32; 50];
    received[29] = 17;
    received[47] = 19;
    assert_eq!(result.received, received);
    let per_round: Vec<u32> =
        result.rounds.iter().map(|r| r.new_measurements.iter().sum()).collect();
    assert_eq!(per_round, [622, 307, 58, 9]);
    assert_eq!(new_measurements_hash(&result), 0xf228_bde5_4cb8_5abf);
    assert_eq!(candidates.len(), 5791);
    assert_eq!(candidates[0], 50);
    assert_eq!(candidates[candidates.len() - 1], 2);
    assert_eq!(fnv(candidates.iter().flat_map(|c| c.to_le_bytes())), 0x042f_6ea5_5401_82f1);
    assert_eq!(fnv(checkpoint.iter().copied()), 0x8fb3_ca19_027d_ee4c);

    // The round-2 checkpoint resumes into the same finish.
    let mut resumed = Engine::resume(&s, &checkpoint, &Recorder::disabled()).expect("resumes");
    run_out(&mut resumed);
    assert_eq!(resumed.finish().expect("finishes"), result);
}
