//! Linearizability and set-regularity checking for recorded histories.
//!
//! The paper's correctness claims rest on two consistency conditions:
//!
//! * the **active set** (Algorithm 1) is *linearizable* — checked here with
//!   a Wing–Gong style exhaustive search ([`check_linearizable`]);
//! * the **multi active set** (Algorithm 2) is *set regular* (a weakening
//!   of linearizability analogous to Lamport's regular registers) —
//!   checked with an interval-based sound violation detector
//!   ([`regular::check_set_regularity`]).
//!
//! A third, end-to-end audit covers the lock layer itself: real-mode runs
//! record **per-lock holder sequences** (each winning critical section
//! appends a unique token to its lock's holder log), and
//! [`holders::check_holder_exclusivity`] verifies the sequences are
//! distinct, exactly cover the recorded wins, and never contradict
//! real-time precedence.
//!
//! Histories come from `wfl-runtime`'s deterministic simulator via
//! [`wfl_runtime::History`]; timestamps are exact global step numbers, so
//! the real-time precedence relation used by the checker is exact.
//! (Real-threads histories recorded under
//! `wfl_runtime::real::RealConfig::precise` carry globally ordered
//! timestamps too, which is what the holder audit consumes.)

#![forbid(unsafe_code)]

pub mod holders;
pub mod regular;
pub mod specs;

use std::collections::HashSet;
use std::hash::Hash;
use wfl_runtime::{Event, History};

/// A sequential specification for the Wing–Gong checker.
pub trait Spec {
    /// Abstract sequential state.
    type State: Clone + Eq + Hash;

    /// The initial abstract state.
    fn initial(&self) -> Self::State;

    /// Applies `ev` to `state`. Returns the successor state if the event's
    /// recorded result is legal from `state`, or `None` if it is not.
    fn apply(&self, state: &Self::State, ev: &Event) -> Option<Self::State>;
}

/// Outcome of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinResult {
    /// A legal linearization exists (one witness order is returned, as
    /// indices into `history.events`).
    Linearizable(Vec<usize>),
    /// No legal linearization exists.
    Violation,
}

impl LinResult {
    /// Whether the history is linearizable.
    pub fn is_ok(&self) -> bool {
        matches!(self, LinResult::Linearizable(_))
    }
}

/// Checks that `history` is linearizable with respect to `spec`.
///
/// This is an exponential-time search (with memoization on
/// `(linearized-set, state)` pairs), suitable for the small histories
/// produced by targeted simulator tests — up to roughly 30–40 events with
/// realistic overlap.
///
/// # Panics
/// Panics if the history has more than 63 events (the search uses a 64-bit
/// mask); split larger histories before checking.
pub fn check_linearizable<S: Spec>(history: &History, spec: &S) -> LinResult {
    let n = history.len();
    assert!(n <= 63, "history too large for the checker ({n} events)");
    if n == 0 {
        return LinResult::Linearizable(vec![]);
    }

    // preds[i] = bitmask of events that must linearize before event i
    // (they responded before i was invoked).
    let mut preds = vec![0u64; n];
    for (i, pred) in preds.iter_mut().enumerate() {
        for j in 0..n {
            if i != j && history.precedes(j, i) {
                *pred |= 1 << j;
            }
        }
    }

    let full: u64 = (1u64 << n) - 1;
    let mut memo: HashSet<(u64, S::State)> = HashSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);

    #[allow(clippy::too_many_arguments)]
    fn dfs<S: Spec>(
        history: &History,
        spec: &S,
        preds: &[u64],
        full: u64,
        done: u64,
        state: &S::State,
        memo: &mut HashSet<(u64, S::State)>,
        order: &mut Vec<usize>,
    ) -> bool {
        if done == full {
            return true;
        }
        if !memo.insert((done, state.clone())) {
            return false; // already explored this frontier
        }
        for i in 0..history.len() {
            let bit = 1u64 << i;
            if done & bit != 0 {
                continue; // already linearized
            }
            if preds[i] & !done != 0 {
                continue; // a real-time predecessor is not yet linearized
            }
            if let Some(next) = spec.apply(state, &history.events[i]) {
                order.push(i);
                if dfs(history, spec, preds, full, done | bit, &next, memo, order) {
                    return true;
                }
                order.pop();
            }
        }
        false
    }

    let init = spec.initial();
    if dfs(history, spec, &preds, full, 0, &init, &mut memo, &mut order) {
        LinResult::Linearizable(order)
    } else {
        LinResult::Violation
    }
}

/// Convenience: checks linearizability and panics with diagnostics on
/// violation (for use in tests).
///
/// # Panics
/// Panics if the history is not linearizable.
pub fn assert_linearizable<S: Spec>(history: &History, spec: &S) {
    if let LinResult::Violation = check_linearizable(history, spec) {
        panic!("history is not linearizable: {:#?}", history.events);
    }
}

#[cfg(test)]
mod tests {
    use super::specs::{RegisterSpec, REG_CAS, REG_READ, REG_WRITE};
    use super::*;

    fn ev(pid: usize, op: u32, a: u64, b: u64, result: u64, invoke: u64, response: u64) -> Event {
        Event { pid, op, a, b, result, result_set: vec![], invoke, response }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h = History::default();
        assert!(check_linearizable(&h, &RegisterSpec::new(0)).is_ok());
    }

    #[test]
    fn sequential_register_history_ok() {
        let h = History::from_parts(vec![vec![
            ev(0, REG_WRITE, 5, 0, 0, 0, 1),
            ev(0, REG_READ, 0, 0, 5, 2, 3),
        ]]);
        assert!(check_linearizable(&h, &RegisterSpec::new(0)).is_ok());
    }

    #[test]
    fn stale_read_after_write_is_violation() {
        // write(5) completes strictly before read, but read returns 0.
        let h = History::from_parts(vec![
            vec![ev(0, REG_WRITE, 5, 0, 0, 0, 1)],
            vec![ev(1, REG_READ, 0, 0, 0, 2, 3)],
        ]);
        assert_eq!(check_linearizable(&h, &RegisterSpec::new(0)), LinResult::Violation);
    }

    #[test]
    fn overlapping_read_may_return_either_value() {
        // read overlaps write(5): returning 0 or 5 are both fine.
        for result in [0u64, 5] {
            let h = History::from_parts(vec![
                vec![ev(0, REG_WRITE, 5, 0, 0, 0, 10)],
                vec![ev(1, REG_READ, 0, 0, result, 2, 3)],
            ]);
            assert!(
                check_linearizable(&h, &RegisterSpec::new(0)).is_ok(),
                "result {result} should be legal"
            );
        }
    }

    #[test]
    fn read_of_never_written_value_is_violation() {
        let h = History::from_parts(vec![
            vec![ev(0, REG_WRITE, 5, 0, 0, 0, 10)],
            vec![ev(1, REG_READ, 0, 0, 7, 2, 3)],
        ]);
        assert_eq!(check_linearizable(&h, &RegisterSpec::new(0)), LinResult::Violation);
    }

    #[test]
    fn two_successful_cas_from_same_value_is_violation() {
        // Both CAS(0 -> x) succeed: impossible.
        let h = History::from_parts(vec![
            vec![ev(0, REG_CAS, 0, 1, 1, 0, 10)],
            vec![ev(1, REG_CAS, 0, 2, 1, 0, 10)],
        ]);
        assert_eq!(check_linearizable(&h, &RegisterSpec::new(0)), LinResult::Violation);
    }

    #[test]
    fn cas_success_and_failure_interleave_ok() {
        let h = History::from_parts(vec![
            vec![ev(0, REG_CAS, 0, 1, 1, 0, 10)],
            vec![ev(1, REG_CAS, 0, 2, 0, 0, 10)], // fails: sees 1
        ]);
        assert!(check_linearizable(&h, &RegisterSpec::new(0)).is_ok());
    }

    #[test]
    fn witness_order_respects_real_time() {
        let h = History::from_parts(vec![
            vec![ev(0, REG_WRITE, 1, 0, 0, 0, 1), ev(0, REG_WRITE, 2, 0, 0, 4, 5)],
            vec![ev(1, REG_READ, 0, 0, 1, 2, 3)],
        ]);
        match check_linearizable(&h, &RegisterSpec::new(0)) {
            LinResult::Linearizable(order) => {
                // write(1) must come first, read(=1) second, write(2) last.
                let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
                assert!(pos(0) < pos(1), "write(1) before read in {order:?}");
                assert!(pos(1) < pos(2), "read before write(2) in {order:?}");
            }
            LinResult::Violation => panic!("expected linearizable"),
        }
    }
}
