//! Allocation-free, fixed-bucket fairness telemetry.
//!
//! The fairness experiments need per-attempt statistics from inside
//! free-running attempt loops, so everything here is fixed-size: no
//! allocation on the hot path and no growth on a soak.
//!
//! * [`ProcTelemetry`] — one process's fairness view: attempts, wins, a
//!   try-count histogram (attempts needed per successful acquisition), an
//!   acquisition-latency histogram (own steps from the first try of an
//!   acquisition to its success), and the max stretch (the most tries any
//!   one acquisition needed, winning attempt included, finished or not).
//! * [`jain_index`] — Jain's fairness index `(Σx)² / (n·Σx²)`, the
//!   standard scalar for "how evenly is success distributed"; it is `1`
//!   for perfect equality and `1/n` when one process takes everything.

use wfl_core::AttemptMetrics;
use wfl_obs::FixedHistogram;
use wfl_runtime::stats::Bernoulli;

/// One process's fairness telemetry (see module docs). Recording is
/// allocation-free; fold per-epoch instances into a cumulative one with
/// [`ProcTelemetry::merge`].
#[derive(Debug, Clone, Default)]
pub struct ProcTelemetry {
    /// Attempts made.
    pub attempts: u64,
    /// Attempts that won.
    pub wins: u64,
    /// Tries needed per successful acquisition (1 = first try).
    pub tries: FixedHistogram,
    /// Own steps per successful acquisition, summed over its tries.
    pub latency: FixedHistogram,
    /// Most tries any single acquisition has needed — the winning attempt
    /// included, so an always-winning process reports 1 — counting a
    /// streak still unfinished at the end of recording.
    pub max_stretch: u64,
    /// Attempts abandoned mid-flight (armed deadline expired / stop flag)
    /// instead of losing to a competitor. Aborts count as ordinary losses
    /// everywhere else in the telemetry (the streak keeps running).
    pub aborts: u64,
    /// Abandoned attempts a competitor's helping completed anyway — these
    /// also count as wins and close the streak.
    pub rescues: u64,
    /// Losing streak in progress.
    cur_tries: u64,
    /// Steps accumulated by the acquisition in progress.
    cur_steps: u64,
}

impl ProcTelemetry {
    /// Empty telemetry.
    pub fn new() -> ProcTelemetry {
        ProcTelemetry::default()
    }

    /// Records one attempt. A win (a rescue included) closes the current
    /// streak into the try-count and latency histograms; `aborted`
    /// attempts also tally on their own, so an adversary report can split
    /// "starved by competitors" from "gave up on its own SLO".
    pub fn record(&mut self, out: &AttemptMetrics) {
        self.attempts += 1;
        self.cur_tries += 1;
        self.cur_steps = self.cur_steps.saturating_add(out.steps);
        self.max_stretch = self.max_stretch.max(self.cur_tries);
        self.aborts += out.aborted.is_some() as u64;
        self.rescues += out.rescued as u64;
        if out.won {
            self.wins += 1;
            self.tries.record(self.cur_tries);
            self.latency.record(self.cur_steps);
            self.cur_tries = 0;
            self.cur_steps = 0;
        }
    }

    /// Folds `other` (e.g. one epoch's telemetry) into `self`. Unfinished
    /// streaks contribute to `max_stretch` but not to the histograms, and
    /// do not continue across the fold (an epoch boundary genuinely ends
    /// the acquisition attempt — the arena it was attempting on is gone).
    pub fn merge(&mut self, other: &ProcTelemetry) {
        self.attempts += other.attempts;
        self.wins += other.wins;
        self.tries.merge(&other.tries);
        self.latency.merge(&other.latency);
        self.max_stretch = self.max_stretch.max(other.max_stretch);
        self.aborts += other.aborts;
        self.rescues += other.rescues;
    }

    /// The success-rate estimator over all recorded attempts.
    pub fn success(&self) -> Bernoulli {
        Bernoulli { successes: self.wins, trials: self.attempts }
    }

    /// Point success rate (0 if no attempts).
    pub fn rate(&self) -> f64 {
        self.success().rate()
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative allocations:
/// `1` for perfect equality, `1/n` when a single `x` takes everything;
/// always in `[1/n, 1]` for non-degenerate inputs. Degenerate inputs
/// (empty, or all zero — nobody got anything, which is vacuously even)
/// return `1`.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_tracks_streaks() {
        let mut t = ProcTelemetry::new();
        t.record(&AttemptMetrics::decided(false, 10));
        t.record(&AttemptMetrics::decided(false, 10));
        t.record(&AttemptMetrics::decided(true, 10)); // acquisition: 3 tries, 30 steps
        t.record(&AttemptMetrics::decided(true, 5)); // acquisition: 1 try, 5 steps
        t.record(&AttemptMetrics::decided(false, 2)); // unfinished streak
        assert_eq!(t.attempts, 5);
        assert_eq!(t.wins, 2);
        assert_eq!(t.max_stretch, 3);
        assert_eq!(t.tries.count(), 2);
        assert_eq!(t.tries.sum(), 4);
        assert_eq!(t.latency.sum(), 35);
        assert!((t.rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn telemetry_merge_folds_epochs() {
        let mut a = ProcTelemetry::new();
        a.record(&AttemptMetrics::decided(true, 7));
        a.record(&AttemptMetrics::decided(false, 7)); // unfinished: stretch 1
        let mut b = ProcTelemetry::new();
        for _ in 0..4 {
            b.record(&AttemptMetrics::decided(false, 3));
        }
        b.record(&AttemptMetrics::decided(true, 3)); // stretch 5
        a.merge(&b);
        assert_eq!(a.attempts, 7);
        assert_eq!(a.wins, 2);
        assert_eq!(a.max_stretch, 5);
        assert_eq!(a.tries.count(), 2, "unfinished streaks never enter the histogram");
    }

    #[test]
    fn jain_bounds_and_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        let mixed = jain_index(&[0.5, 0.25, 0.125, 0.125]);
        assert!(mixed > 0.25 && mixed < 1.0);
    }
}
