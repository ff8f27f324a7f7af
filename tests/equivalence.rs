//! Reference battery for the production Eq. 5 counting and pricing path.
//!
//! Neighbour counting (the cell sweep) and on-demand pricing are pure
//! functions of the simulation state: however they are implemented,
//! the same scenario must produce the same simulation, bit for bit.
//! The engine-level tests pin each run's total paid (as `f64` bits)
//! and per-task measurement counts to the outcome of a reference run
//! that counted neighbours with the `O(n·m)` pairwise scan and priced
//! every task from scratch, with faults off and on. The primitive test
//! checks the sweep against `naive_counts` directly.

use paydemand::core::neighbors::{naive_counts, CellSweepCounter};
use paydemand::geo::Rect;
use paydemand::sim::{
    engine, FaultKind, FaultPlan, MechanismKind, Scenario, SelectorKind, SimulationResult,
};
use rand::{Rng, SeedableRng};

fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_users(24)
        .with_tasks(8)
        .with_max_rounds(6)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(seed)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::new(0xFA_17)
        .with(FaultKind::Dropout { rate: 0.2 })
        .with(FaultKind::GpsNoise { sigma: 40.0 })
        .with(FaultKind::StragglerUploads { rate: 0.2, max_retries: 2, backoff_rounds: 1 })
        .with(FaultKind::BudgetShock { round: 3, factor: 0.5 })
}

/// A reference outcome: `total_paid` bits and per-task measurements.
type Pinned = (u64, [u32; 8]);

fn assert_pinned(run: &SimulationResult, (paid_bits, received): Pinned, tag: &str) {
    assert_eq!(
        run.total_paid.to_bits(),
        paid_bits,
        "{tag}: total paid {} diverged from the reference {}",
        run.total_paid,
        f64::from_bits(paid_bits)
    );
    assert_eq!(run.received, received, "{tag}: per-task measurements diverged");
}

#[test]
fn pricing_matches_the_uncached_reference() {
    // On-demand pricing and the hybrid blend over it, against runs that
    // recomputed every task's demand from scratch each round.
    let pinned: [(u64, MechanismKind, Pinned); 6] = [
        (1, MechanismKind::OnDemand, (0x4086_5600_0000_0000, [20, 20, 18, 12, 20, 19, 20, 18])),
        (
            1,
            MechanismKind::Hybrid { alpha: 0.5 },
            (0x4089_0400_0000_0000, [20, 20, 17, 11, 20, 19, 20, 17]),
        ),
        (
            0xD5EED,
            MechanismKind::OnDemand,
            (0x4087_0a00_0000_0000, [20, 20, 20, 13, 20, 20, 20, 20]),
        ),
        (
            0xD5EED,
            MechanismKind::Hybrid { alpha: 0.5 },
            (0x408a_7400_0000_0000, [20, 20, 20, 13, 20, 20, 20, 20]),
        ),
        (42, MechanismKind::OnDemand, (0x4084_f600_0000_0000, [7, 18, 18, 18, 20, 20, 20, 18])),
        (
            42,
            MechanismKind::Hybrid { alpha: 0.5 },
            (0x4088_0e00_0000_0000, [7, 18, 18, 18, 20, 20, 20, 18]),
        ),
    ];
    for (seed, mechanism, expected) in pinned {
        let run = engine::run(&scenario(seed).with_mechanism(mechanism)).unwrap();
        assert_pinned(&run, expected, &format!("seed {seed} {mechanism:?}"));
    }
}

#[test]
fn indexing_modes_are_observationally_equivalent() {
    // The production cell sweep against the naive-scan reference runs.
    let pinned: [(u64, Pinned); 3] = [
        (2, (0x4082_a800_0000_0000, [14, 14, 18, 18, 12, 18, 12, 18])),
        (0xD5EED, (0x4087_0a00_0000_0000, [20, 20, 20, 13, 20, 20, 20, 20])),
        (99, (0x4085_6000_0000_0000, [20, 20, 20, 10, 20, 20, 10, 20])),
    ];
    for (seed, expected) in pinned {
        let run = engine::run(&scenario(seed)).unwrap();
        assert_pinned(&run, expected, &format!("seed {seed}"));
    }
}

#[test]
fn every_mode_combination_agrees_with_the_reference() {
    // Mechanism × fault-plan combinations at one seed; faults perturb
    // movement (GPS noise feeds the counted positions), uploads and the
    // budget, and the counting/pricing path must stay invisible.
    let on_demand = MechanismKind::OnDemand;
    let hybrid = MechanismKind::Hybrid { alpha: 0.5 };
    let pinned: [(MechanismKind, bool, Pinned); 4] = [
        (on_demand, false, (0x4085_6c00_0000_0000, [20, 16, 14, 19, 20, 20, 15, 20])),
        (on_demand, true, (0x4083_c400_0000_0000, [19, 15, 14, 14, 16, 20, 14, 20])),
        (hybrid, false, (0x4087_6a00_0000_0000, [17, 15, 15, 18, 18, 19, 15, 19])),
        (hybrid, true, (0x4085_0a00_0000_0000, [15, 15, 13, 15, 15, 19, 14, 19])),
    ];
    for (mechanism, faulted, expected) in pinned {
        let mut s = scenario(7).with_mechanism(mechanism);
        if faulted {
            s = s.with_faults(fault_plan());
        }
        let run = engine::run(&s).unwrap();
        assert_pinned(&run, expected, &format!("{mechanism:?} faults {faulted}"));
    }
}

#[test]
fn grid_counts_match_naive_scan_under_movement() {
    // Exercise the delta path directly: a counter fed a churning
    // population must agree with the O(n·m) scan every round.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0117);
    let area = Rect::square(1000.0).expect("valid area");
    let radius = 120.0;
    let tasks: Vec<_> = (0..40).map(|_| area.sample_uniform(&mut rng)).collect();
    let mut users: Vec<_> = (0..300).map(|_| area.sample_uniform(&mut rng)).collect();
    let mut counter = CellSweepCounter::new(area, radius, tasks.clone());

    for round in 0..10 {
        let swept = counter.counts(users.as_slice()).expect("users in area").to_vec();
        let naive = naive_counts(&tasks, &users, radius);
        assert_eq!(swept, naive, "round {round}: cell counts diverged from naive scan");
        // Move a third of the users.
        for _ in 0..100 {
            let who = rng.gen_range(0..users.len());
            users[who] = area.sample_uniform(&mut rng);
        }
    }
}
