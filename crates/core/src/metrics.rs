//! Per-attempt and per-operation metrics reported by the lock algorithm.
//!
//! False-sharing audit (DESIGN.md §1.3): these structs are **returned by
//! value** from each attempt and consumed on the calling process's stack —
//! they are never stored in cross-process arrays — so they need no cache
//! alignment. The shared aggregation points that *do* see concurrent
//! writes are the harness `Outcomes` heap region (line-strided per
//! process) and the real driver's result slots (`CachePadded`); `GiveUp`
//! tallies are folded single-threaded after the run.

use crate::abort::{AbortReason, GiveUp};

/// Outcome and cost of one tryLock attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptMetrics {
    /// Whether the attempt acquired all its locks (and its thunk ran).
    pub won: bool,
    /// Own steps consumed by the attempt, start to finish.
    pub steps: u64,
    /// Descriptors helped during the pre-insert helping phase.
    pub helped: u64,
    /// True if the attempt's real work exceeded a delay target (`T0` before
    /// the reveal step, or `T0 + T1` at the end): a thunk took more steps
    /// than its configuration allows, or more than `κ` attempts met on a
    /// lock. Fairness guarantees are then void.
    pub delay_overrun: bool,
    /// Set when the attempt was abandoned mid-flight at a helping-safe
    /// poll point (deadline expiry or a mid-attempt stop). An aborted
    /// attempt reports `won: false` unless it was [`rescued`].
    ///
    /// [`rescued`]: AttemptMetrics::rescued
    pub aborted: Option<AbortReason>,
    /// The abort raced a competitor's helping and lost: the abandoned
    /// descriptor had already been decided *won* (and its thunk completed)
    /// by the time the owner tried to eliminate it. The attempt then counts
    /// as a win (`won: true`). The rate of rescues among abandoned attempts
    /// is the "abandoned-attempt helping rate" of experiment E16.
    pub rescued: bool,
    /// The win was granted by a combining lock holder (`CombineMode`,
    /// E17): a winner holding a superset of this attempt's locks claimed
    /// the descriptor (`active → combined`) and executed its thunk inside
    /// the holder's batch. Always a non-aborted win — an abort racing a
    /// combining grant reports [`rescued`] instead, so `combined` and
    /// `rescued` are disjoint by construction.
    ///
    /// [`rescued`]: AttemptMetrics::rescued
    pub combined: bool,
    /// For a combining winner: how many pending competitor thunks it
    /// executed in its batch before releasing (0 when combining is off or
    /// nothing compatible was pending).
    pub combined_peers: u64,
}

/// Outcome and cost of a retry-until-success lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryMetrics {
    /// Attempts used (≥ 1 unless the loop gave up before the first one);
    /// when `gave_up` is `None`, the final attempt succeeded.
    pub attempts: u64,
    /// Total own steps consumed by the call (attempts plus inter-attempt
    /// backoff pauses).
    pub steps: u64,
    /// `None` on success; otherwise why the bounded retry loop stopped
    /// without acquiring the locks (the thunk has then never run, unless
    /// the final attempt was rescued — rescues count as success).
    pub gave_up: Option<GiveUp>,
}

impl RetryMetrics {
    /// Whether the acquisition succeeded (the thunk ran exactly once).
    pub fn won(&self) -> bool {
        self.gave_up.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_plain_data() {
        let a = AttemptMetrics {
            won: true,
            steps: 10,
            helped: 2,
            delay_overrun: false,
            aborted: None,
            rescued: false,
            combined: false,
            combined_peers: 0,
        };
        let b = a;
        assert_eq!(a, b);
        let r = RetryMetrics { attempts: 3, steps: 50, gave_up: None };
        assert_eq!(r.attempts, 3);
        assert!(r.won());
        let g = RetryMetrics { attempts: 3, steps: 50, gave_up: Some(GiveUp::Deadline) };
        assert!(!g.won());
    }
}
