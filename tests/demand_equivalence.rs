//! Differential battery for the Eq. 5 cell sweep.
//!
//! The cell-centric sweep and the naive pairwise scan are two
//! implementations of the same function: per-task neighbour counts
//! under the strict `distance < R` predicate. This battery locks their
//! equality — not approximately, but bitwise, since counts are integers
//! and every reward downstream is a pure function of them:
//!
//! * 250 seeded primitive instances (random geometry and churn) where
//!   every round's counts from the sweep, fed both position layouts,
//!   are compared against `naive_counts_in`;
//! * adversarial geometry woven through the instance stream: users
//!   exactly at distance `R`, positions on cell boundaries, the whole
//!   population crowded into one grid cell, empty worlds, and a radius
//!   larger than the arena;
//! * full engine runs pinned to the outcome of reference runs that
//!   counted neighbours with the naive scan, with faults on and off.

use paydemand::core::neighbors::{naive_counts_in, CellSweepCounter};
use paydemand::geo::{CellSweeper, Point, PositionStore, Rect};
use paydemand::sim::{
    engine, FaultKind, FaultPlan, MechanismKind, Scenario, SelectorKind, SimulationResult,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded instances in the primitive battery. Each instance runs
/// several churn rounds, and every round checks the sweep against the
/// naive scan, so the effective number of differential checks is
/// several times this.
const INSTANCES: u64 = 250;

/// One instance's world: geometry plus the initial population.
struct Instance {
    area: Rect,
    radius: f64,
    tasks: Vec<Point>,
    users: Vec<Point>,
    /// Users rewritten per churn round (fraction of the population).
    churn: usize,
    /// Human-readable shape tag for assertion messages.
    shape: &'static str,
}

fn sample(area: Rect, rng: &mut StdRng, n: usize) -> Vec<Point> {
    (0..n).map(|_| area.sample_uniform(rng)).collect()
}

/// Builds the `k`-th instance. Most are uniformly random; every few
/// instances one of the adversarial shapes is produced instead, so the
/// battery keeps hammering the geometry edge cases under churn too.
fn build_instance(k: u64, scale: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(0xE95_D1FF ^ (k.wrapping_mul(0x9E37_79B9)));
    let side = [250.0, 1000.0, 3000.0][(k % 3) as usize];
    let area = Rect::square(side).unwrap();
    let n_max = 60 * scale;

    if k % 13 == 5 {
        // Empty world: no users at all.
        return Instance {
            area,
            radius: side / 5.0,
            tasks: {
                let m = 1 + rng.gen_range(0..10usize);
                sample(area, &mut rng, m)
            },
            users: Vec::new(),
            churn: 0,
            shape: "empty-world",
        };
    }
    if k % 13 == 7 {
        // R larger than the arena: every in-area user neighbours every
        // task; the candidate ranges clamp to the whole grid.
        return Instance {
            area,
            radius: side * rng.gen_range(1.1..4.0),
            tasks: {
                let m = 1 + rng.gen_range(0..8usize);
                sample(area, &mut rng, m)
            },
            users: {
                let n = rng.gen_range(1..n_max);
                sample(area, &mut rng, n)
            },
            churn: 5,
            shape: "radius-exceeds-arena",
        };
    }
    if k % 13 == 9 {
        // Whole population inside a single grid cell.
        let radius = side / 4.0;
        let users: Vec<Point> = (0..rng.gen_range(4..n_max))
            .map(|_| Point::new(rng.gen_range(0.0..radius * 0.9), rng.gen_range(0.0..radius * 0.9)))
            .collect();
        return Instance {
            area,
            radius,
            tasks: {
                let m = 1 + rng.gen_range(0..12usize);
                sample(area, &mut rng, m)
            },
            users,
            churn: 3,
            shape: "one-cell-crowd",
        };
    }
    if k % 13 == 11 {
        // Boundary lattice: tasks on cell corners, users on cell
        // boundaries and exactly at distance R from the first task —
        // the strict predicate must exclude them.
        let radius = side / 5.0;
        let mut tasks = Vec::new();
        for i in 0..4u32 {
            for j in 0..3u32 {
                tasks.push(Point::new(f64::from(i) * radius, f64::from(j) * radius));
            }
        }
        let anchor = tasks[0];
        let mut users = Vec::new();
        for i in 0..3u32 {
            for j in 0..4u32 {
                users.push(Point::new(f64::from(i) * radius, f64::from(j) * radius));
            }
        }
        users.push(Point::new(anchor.x + radius, anchor.y)); // exactly R
        users.push(Point::new(anchor.x, anchor.y + radius)); // exactly R
        users.push(Point::new(anchor.x + radius - 1e-9, anchor.y)); // just inside
        users.push(anchor); // coincident
        return Instance { area, radius, tasks, users, churn: 4, shape: "boundary-lattice" };
    }

    // The common case: uniform random world with churn.
    let n = rng.gen_range(0..=n_max);
    Instance {
        area,
        radius: side * rng.gen_range(0.02..0.4),
        tasks: {
            let m = 1 + rng.gen_range(0..24usize);
            sample(area, &mut rng, m)
        },
        users: sample(area, &mut rng, n),
        churn: (n / 4).max(1),
        shape: "uniform",
    }
}

/// The sweeps under test for one instance, primed once and stepped
/// through the same churn sequence.
struct Sweeps {
    /// Fed an array-of-structs slice.
    sweeper: CellSweeper,
    /// The platform's wrapper, fed the struct-of-arrays store the
    /// engine actually passes.
    counter: CellSweepCounter,
}

impl Sweeps {
    fn new(inst: &Instance) -> Sweeps {
        Sweeps {
            sweeper: CellSweeper::new(inst.area, inst.radius, inst.tasks.clone()),
            counter: CellSweepCounter::new(inst.area, inst.radius, inst.tasks.clone()),
        }
    }

    /// Asserts both sweeps agree with the naive reference on the
    /// current positions.
    fn check(&mut self, inst: &Instance, round: usize) {
        let tag = format!("shape {} round {round}", inst.shape);
        let expected = naive_counts_in(&inst.tasks, inst.users.as_slice(), inst.radius);
        let swept = self.sweeper.counts(inst.users.as_slice()).unwrap().to_vec();
        assert_eq!(swept, expected, "cell sweep vs naive: {tag}");
        let store = PositionStore::from_points(&inst.users);
        let counter = self.counter.counts(&store).unwrap().to_vec();
        assert_eq!(counter, expected, "cell counter (SoA) vs naive: {tag}");
    }
}

#[test]
fn battery_cell_sweep_equals_naive() {
    // Debug builds (tier-1 `cargo test`) keep the full instance count
    // but smaller populations; release builds widen the worlds.
    let scale = if cfg!(debug_assertions) { 1 } else { 4 };
    let mut shapes_seen = std::collections::BTreeSet::new();
    for k in 0..INSTANCES {
        let mut inst = build_instance(k, scale);
        shapes_seen.insert(inst.shape);
        let mut sweeps = Sweeps::new(&inst);
        let mut rng = StdRng::seed_from_u64(0xC4_0213 ^ k);
        sweeps.check(&inst, 0);
        let rounds = if inst.users.is_empty() { 1 } else { 3 };
        for round in 1..=rounds {
            for _ in 0..inst.churn.min(inst.users.len()) {
                let who = rng.gen_range(0..inst.users.len());
                inst.users[who] = inst.area.sample_uniform(&mut rng);
            }
            sweeps.check(&inst, round);
        }
    }
    // The stream really does contain every adversarial shape.
    for shape in
        ["uniform", "empty-world", "radius-exceeds-arena", "one-cell-crowd", "boundary-lattice"]
    {
        assert!(shapes_seen.contains(shape), "battery never produced {shape}");
    }
}

#[test]
fn population_churn_matches_across_backends() {
    // Users joining and leaving between rounds (population resizes)
    // force full sweeps; the counts must still match naive at every
    // step, for both position layouts.
    let area = Rect::square(1200.0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x90_90_90);
    let tasks = sample(area, &mut rng, 18);
    let mut sweeper = CellSweeper::new(area, 150.0, tasks.clone());
    let mut counter = CellSweepCounter::new(area, 150.0, tasks.clone());
    for (round, n) in [40usize, 55, 0, 25, 25, 120, 1].into_iter().enumerate() {
        let users = sample(area, &mut rng, n);
        let expected = naive_counts_in(&tasks, users.as_slice(), 150.0);
        assert_eq!(sweeper.counts(users.as_slice()).unwrap(), &expected[..], "round {round}");
        let store = PositionStore::from_points(&users);
        assert_eq!(counter.counts(&store).unwrap(), &expected[..], "round {round}");
    }
}

fn engine_scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_users(30)
        .with_tasks(10)
        .with_max_rounds(6)
        .with_selector(SelectorKind::Greedy)
        .with_mechanism(MechanismKind::OnDemand)
        .with_seed(seed)
}

/// A reference outcome: `total_paid` bits and per-task measurements.
type Pinned = (u64, [u32; 10]);

fn assert_pinned(run: &SimulationResult, (paid_bits, received): Pinned, tag: &str) {
    assert_eq!(
        run.total_paid.to_bits(),
        paid_bits,
        "{tag}: total paid {} diverged from the naive reference {}",
        run.total_paid,
        f64::from_bits(paid_bits)
    );
    assert_eq!(run.received, received, "{tag}: per-task measurements diverged");
}

#[test]
fn engine_cell_sweep_is_observationally_equivalent() {
    let pinned: [(u64, Pinned); 3] = [
        (3, (0x4085_c400_0000_0000, [20, 20, 20, 20, 20, 20, 20, 20, 17, 20])),
        (0xD5EED, (0x4086_b000_0000_0000, [20; 10])),
        (0xBEE, (0x4084_a000_0000_0000, [17, 17, 20, 20, 20, 20, 17, 20, 17, 20])),
    ];
    for (seed, expected) in pinned {
        let run = engine::run(&engine_scenario(seed)).unwrap();
        assert_pinned(&run, expected, &format!("seed {seed}"));
    }
}

#[test]
fn engine_cell_sweep_is_equivalent_under_faults() {
    // Faults perturb movement, uploads and pricing; the counting
    // backend must remain invisible through all of it. GPS noise is the
    // interesting arm: the platform then counts *observed* positions,
    // which flow through the same Positions abstraction.
    let plan = FaultPlan::new(0xFA_17)
        .with(FaultKind::Dropout { rate: 0.2 })
        .with(FaultKind::GpsNoise { sigma: 40.0 })
        .with(FaultKind::StragglerUploads { rate: 0.2, max_retries: 2, backoff_rounds: 1 })
        .with(FaultKind::BudgetShock { round: 3, factor: 0.5 });
    let pinned: [(u64, Pinned); 2] = [
        (11, (0x4083_4000_0000_0000, [14, 18, 18, 17, 18, 17, 17, 18, 17, 17])),
        (0xD5EED, (0x4084_d800_0000_0000, [20, 19, 20, 14, 20, 20, 20, 20, 20, 16])),
    ];
    for (seed, expected) in pinned {
        let run = engine::run(&engine_scenario(seed).with_faults(plan.clone())).unwrap();
        assert_pinned(&run, expected, &format!("seed {seed} under faults"));
    }
}

#[test]
fn large_population_sweep_matches_naive() {
    // One sized instance with heavy churn: the full sweep and the
    // batched delta rounds both against the naive scan.
    let (n, moves) = if cfg!(debug_assertions) { (2_000, 600) } else { (40_000, 12_000) };
    let area = Rect::square(3000.0).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1A96E);
    let tasks = sample(area, &mut rng, 50);
    let mut users = sample(area, &mut rng, n);
    let mut sweeper = CellSweeper::new(area, 200.0, tasks.clone());
    for round in 0..3 {
        let got = sweeper.counts(users.as_slice()).unwrap().to_vec();
        assert_eq!(got, naive_counts_in(&tasks, users.as_slice(), 200.0), "round {round}");
        for _ in 0..moves {
            let who = rng.gen_range(0..users.len());
            users[who] = area.sample_uniform(&mut rng);
        }
    }
}
