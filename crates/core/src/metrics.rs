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
use wfl_obs::AttemptOutcomeBits;

/// Outcome and cost of one tryLock attempt: the one per-attempt record
/// every algorithm returns (the paper's lock and every baseline, through
/// `LockAlgo::attempt`). Its flags pack into the shared
/// [`AttemptOutcomeBits`] layout ([`AttemptMetrics::bits`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptMetrics {
    /// Whether the attempt acquired all its locks (and its thunk ran).
    pub won: bool,
    /// Own steps consumed by the attempt, start to finish.
    pub steps: u64,
    /// Descriptors helped during the pre-insert helping phase.
    pub helped: u64,
    /// True if the attempt's real work exceeded a delay target (`T0` before
    /// the reveal step, or the end: `T0 + T1`, plus `combine_slack` after a
    /// combining claim): a thunk took more steps than its configuration
    /// allows, or more than `κ` attempts met on a lock. Fairness guarantees
    /// are then void.
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
    /// The win was granted by a combining lock holder
    /// ([`LockConfig::combine`], E17): a winner holding a superset of this
    /// attempt's locks claimed the descriptor (`active → combined`) and
    /// executed its thunk inside the holder's batch — or, for a delegation
    /// baseline, a combiner applied the request. Always a non-aborted win:
    /// an abort racing a combining grant reports [`rescued`] instead, so
    /// `combined` and `rescued` are disjoint by construction.
    ///
    /// [`rescued`]: AttemptMetrics::rescued
    /// [`LockConfig::combine`]: crate::LockConfig::combine
    pub combined: bool,
    /// For a combining winner: how many pending competitor thunks it
    /// executed in its batch before releasing (0 when combining is off or
    /// nothing compatible was pending).
    pub combined_peers: u64,
}

impl AttemptMetrics {
    /// An attempt that ran to a decision: it won or lost its competition,
    /// with no abort involved.
    pub fn decided(won: bool, steps: u64) -> AttemptMetrics {
        AttemptMetrics { won, steps, ..AttemptMetrics::default() }
    }

    /// An attempt abandoned mid-flight for `reason`. It is `rescued` (a
    /// win) when a helper or combiner had already completed it.
    pub fn abandoned(reason: AbortReason, rescued: bool, steps: u64) -> AttemptMetrics {
        AttemptMetrics { aborted: Some(reason), rescued, ..AttemptMetrics::decided(rescued, steps) }
    }

    /// The flags and peer count in the shared layout. `steps`, `helped`
    /// and the abort reason are not part of it.
    pub fn bits(&self) -> AttemptOutcomeBits {
        type B = AttemptOutcomeBits;
        AttemptOutcomeBits(
            (self.won as u64 * B::WON)
                | (self.aborted.is_some() as u64 * B::ABORTED)
                | (self.rescued as u64 * B::RESCUED)
                | (self.combined as u64 * B::COMBINED)
                | (self.delay_overrun as u64 * B::OVERRUN)
                | (self.combined_peers << B::PEERS_SHIFT),
        )
    }

    /// Unpacks [`AttemptMetrics::bits`] beside the attempt's `steps`. The
    /// layout carries no abort reason, so an abort is put down to
    /// `reason`; `helped` reads 0.
    pub fn from_bits(bits: AttemptOutcomeBits, steps: u64, reason: AbortReason) -> AttemptMetrics {
        AttemptMetrics {
            won: bits.won(),
            steps,
            helped: 0,
            delay_overrun: bits.overrun(),
            aborted: bits.aborted().then_some(reason),
            rescued: bits.rescued(),
            combined: bits.combined(),
            combined_peers: bits.peers(),
        }
    }
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
        let a = AttemptMetrics { helped: 2, ..AttemptMetrics::decided(true, 10) };
        let b = a;
        assert_eq!(a, b);
        let r = RetryMetrics { attempts: 3, steps: 50, gave_up: None };
        assert_eq!(r.attempts, 3);
        assert!(r.won());
        let g = RetryMetrics { attempts: 3, steps: 50, gave_up: Some(GiveUp::Deadline) };
        assert!(!g.won());
    }

    #[test]
    fn bits_round_trip_every_outcome() {
        let stop = AbortReason::Stop;
        let outcomes = [
            AttemptMetrics::decided(false, 7),
            AttemptMetrics::decided(true, 7),
            AttemptMetrics::abandoned(stop, false, 7),
            AttemptMetrics::abandoned(stop, true, 7),
            AttemptMetrics { combined: true, ..AttemptMetrics::decided(true, 7) },
            AttemptMetrics { combined_peers: 3, delay_overrun: true, ..AttemptMetrics::decided(true, 7) },
        ];
        for m in outcomes {
            assert!(m.bits().consistent(), "{m:?}");
            assert_eq!(AttemptMetrics::from_bits(m.bits(), m.steps, stop), m);
        }
    }
}
