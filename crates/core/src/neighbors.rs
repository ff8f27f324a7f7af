//! Neighbour counting for Eq. 5.
//!
//! The platform needs, at every round boundary, the number of users
//! within radius `R` of every task. [`CellSweepCounter`] is the one
//! production path: a [`CellSweeper`] (a full cell-centric sweep on
//! the first round or a population change, batched dirty-cell deltas
//! afterwards) plus the platform's observability accounting.
//! [`naive_counts`] is the `O(n·m)` pairwise scan kept as the
//! reference that tests and benches compare the sweep against.

use paydemand_geo::{CellSweeper, GeoError, Point, Positions, Rect};
use paydemand_obs::{Counter, Recorder};

/// The `O(n·m)` pairwise reference: for each task, scan every user.
/// The oracle of the differential tests and the scaling bench.
#[must_use]
pub fn naive_counts(tasks: &[Point], users: &[Point], radius: f64) -> Vec<usize> {
    naive_counts_in(tasks, users, radius)
}

/// [`naive_counts`] over any position layout (AoS slice or SoA store).
#[must_use]
pub fn naive_counts_in<P: Positions + ?Sized>(
    tasks: &[Point],
    users: &P,
    radius: f64,
) -> Vec<usize> {
    let r2 = radius * radius;
    tasks
        .iter()
        .map(|&t| (0..users.len()).filter(|&i| users.at(i).distance_squared(t) < r2).count())
        .collect()
}

/// [`CellSweeper`] plus the platform's observability accounting: full
/// sweeps, delta rounds and batched move updates, reported as
/// `cell_sweep_*` counters.
#[derive(Debug, Clone)]
pub struct CellSweepCounter {
    sweeper: CellSweeper,
    /// Rounds served by batched delta updates.
    obs_delta_rounds: Counter,
    /// Moved users folded in via batched dirty-cell updates.
    obs_batched_moves: Counter,
    /// Full sweeps (first round, population changes).
    obs_full_sweeps: Counter,
}

impl CellSweepCounter {
    /// Creates a counter for fixed `task_locations` inside `area`.
    #[must_use]
    pub fn new(area: Rect, radius: f64, task_locations: Vec<Point>) -> Self {
        CellSweepCounter {
            sweeper: CellSweeper::new(area, radius, task_locations),
            obs_delta_rounds: Counter::disabled(),
            obs_batched_moves: Counter::disabled(),
            obs_full_sweeps: Counter::disabled(),
        }
    }

    /// Wires the sweep accounting to a recorder:
    /// `cell_sweep_full_sweeps_total`, `cell_sweep_delta_rounds_total`
    /// and `cell_sweep_batched_moves_total`. A disabled recorder keeps
    /// the counters inert.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.obs_delta_rounds = recorder.counter("cell_sweep_delta_rounds_total");
        self.obs_batched_moves = recorder.counter("cell_sweep_batched_moves_total");
        self.obs_full_sweeps = recorder.counter("cell_sweep_full_sweeps_total");
    }

    /// Per-task neighbour counts for `users`; see
    /// [`CellSweeper::counts`].
    ///
    /// # Errors
    ///
    /// [`GeoError::OutOfBounds`] for the first user location outside
    /// the area; the counter state is unchanged on error.
    pub fn counts<P: Positions + ?Sized>(&mut self, users: &P) -> Result<&[usize], GeoError> {
        self.sweeper.counts(users)?;
        if self.sweeper.last_was_full_sweep() {
            self.obs_full_sweeps.inc();
        } else {
            self.obs_delta_rounds.inc();
            self.obs_batched_moves.add(self.sweeper.moved_last_round() as u64);
        }
        Ok(self.sweeper.counts_ref())
    }

    /// How many users moved at the last [`counts`](Self::counts) call.
    #[must_use]
    pub fn moved_last_round(&self) -> usize {
        self.sweeper.moved_last_round()
    }

    /// Approximate heap footprint in bytes; see
    /// [`CellSweeper::approx_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.sweeper.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample(area: Rect, rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Point> {
        (0..n).map(|_| area.sample_uniform(rng)).collect()
    }

    #[test]
    fn recorder_counts_sweeps_deltas_and_moves() {
        let area = Rect::square(1000.0).unwrap();
        let mut r = rand::rngs::StdRng::seed_from_u64(0xBEE5);
        let tasks = sample(area, &mut r, 6);
        let mut users = sample(area, &mut r, 40);
        let mut counter = CellSweepCounter::new(area, 200.0, tasks);
        let recorder = Recorder::enabled();
        counter.set_recorder(&recorder);
        counter.counts(users.as_slice()).unwrap(); // full sweep
        users[3] = area.sample_uniform(&mut r);
        users[17] = area.sample_uniform(&mut r);
        counter.counts(users.as_slice()).unwrap(); // delta round, 2 moves
        let bigger = sample(area, &mut r, 41);
        counter.counts(bigger.as_slice()).unwrap(); // population change → full sweep
        let snap = recorder.snapshot();
        assert_eq!(snap.counter_value("cell_sweep_full_sweeps_total", None), Some(2));
        assert_eq!(snap.counter_value("cell_sweep_delta_rounds_total", None), Some(1));
        assert_eq!(snap.counter_value("cell_sweep_batched_moves_total", None), Some(2));
    }
}
