//! The paper's Fig. 4, live: the shortest-path matrix `dp[ℓ][j]` of the
//! bitmask task-selection DP, printed for a 6-task instance.
//!
//! Each row is a selection bitmask ℓ (which tasks the user would
//! perform); each column j the task the route ends at; each entry the
//! shortest start-anchored path length realising that (set, ending)
//! pair. `inf` marks endings not in the set — exactly the ∞ entries the
//! paper shows.
//!
//! ```sh
//! cargo run --release --example dp_matrix
//! ```

use paydemand::geo::{Point, Rect};
use paydemand::routing::{subset_dp, CostMatrix};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let area = Rect::square(100.0)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2018);
    let tasks: Vec<Point> = (0..6).map(|_| area.sample_uniform(&mut rng)).collect();
    let start = area.sample_uniform(&mut rng);
    let costs = CostMatrix::from_points(start, &tasks);

    let dp = subset_dp::solve(&costs, f64::INFINITY)?;

    println!("dp[l][j] — shortest path visiting set l, ending at task j (metres)");
    print!("{:>8}", "mask");
    for j in 0..6 {
        print!("{:>9}", format!("t{j}"));
    }
    println!("{:>10}", "dp[l]");
    for mask in 0u32..(1 << 6) {
        print!("{:>8}", format!("{mask:06b}"));
        for j in 0..6 {
            match dp.shortest_ending_at(mask, j) {
                Some(d) => print!("{d:>9.2}"),
                None => print!("{:>9}", "inf"),
            }
        }
        match dp.shortest(mask) {
            Some(d) => println!("{d:>10.2}"),
            None => println!("{:>10}", "inf"),
        }
    }

    // The paper's step 3-4: score each row and pick the best plan under
    // a budget.
    let rewards = [1.0, 1.5, 0.8, 2.0, 1.2, 0.9];
    let budget = 180.0;
    let mut best = (0u32, 0.0f64);
    for mask in dp.feasible_masks() {
        let distance = dp.shortest(mask).expect("feasible");
        if distance > budget {
            continue;
        }
        let reward: f64 = (0..6).filter(|&j| mask & (1 << j) != 0).map(|j| rewards[j]).sum();
        let profit = reward - 0.02 * distance;
        // Equal profits go to the lowest mask, as in `solve_exact`.
        if profit > best.1 || (profit == best.1 && mask < best.0) {
            best = (mask, profit);
        }
    }
    println!();
    println!(
        "budget {budget} m, rewards {rewards:?}: best plan mask {:06b}, profit {:.2} $, order {:?}",
        best.0,
        best.1,
        dp.reconstruct(best.0).expect("feasible mask"),
    );
    Ok(())
}
