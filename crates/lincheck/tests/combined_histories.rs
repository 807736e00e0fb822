//! Property tests for the **combining fast path**: histories in which some
//! wins were granted by a combining holder (wfl's `LockConfig::combine`
//! claim, or a delegation combiner applying a published request) must pass
//! the holder-exclusivity audit, and the corruptions a combining bug would
//! produce must trip it.
//!
//! The fates extend `abort_histories.rs` with the fifth outcome
//! `lock_and_run_until` can now report:
//!
//! * **combined** — the attempt revealed, and a holder of a superset of
//!   its locks claimed the descriptor (CAS ACTIVE→COMBINED) and executed
//!   its critical section before releasing. Observationally a win: the
//!   thunk ran exactly once (the combiner appended the token) and the
//!   owner returned success after observing the claim.
//!
//! Like a rescue, a combined win is *executed by someone else* — and the
//! checkers must not care who. What the properties pin down:
//!
//! * clean mixed histories with combined wins are accepted (exactly-once
//!   execution: each combined attempt holds exactly once, in an order
//!   consistent with real time);
//! * the double-apply a combiner/owner race would cause — the owner's
//!   decide path re-running a critical section its combiner already ran,
//!   i.e. the `COMBINED`/`RESCUED` outcome-bit disjointness broken into two
//!   executors — appends the token twice and is rejected;
//! * a claim that "wins" an attempt the competition had already
//!   eliminated (eliminate-beats-claim done wrong) leaks a losing
//!   attempt's token into the log and is rejected;
//! * a combiner batch whose commits contradict real time is rejected.

use proptest::prelude::*;
use wfl_lincheck::holders::{check_holder_exclusivity, HOLD_OP};
use wfl_runtime::{Event, History};

/// Deterministic xorshift stream (the vendored proptest shim only draws
/// scalar strategies; structured inputs are derived from a sampled seed).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Fate {
    Won,
    Lost,
    Aborted,
    Rescued,
    /// Claimed and executed by a combining holder.
    Combined,
}

struct Attempt {
    lock: u64,
    token: u64,
    fate: Fate,
    invoke: u64,
    response: u64,
}

/// A generated execution: the recorded history, the per-lock holder logs
/// (tokens in commit order, exactly as the critical sections appended
/// them), and the attempt table the negative controls mutate from.
struct Execution {
    history: History,
    logs: Vec<(u64, Vec<u64>)>,
    attempts: Vec<Attempt>,
}

/// Builds a mixed-fate execution including combined wins. Attempts are laid
/// out on `nprocs` sequential lanes over a shared clock that advances
/// slower than the attempt intervals, so attempts on different lanes
/// overlap freely. Every winning fate (won, rescued, combined) commits —
/// the critical section appends its token — at a point strictly inside the
/// attempt's interval: a combiner claims only descriptors that revealed
/// before its settle pass, and the owner returns only after observing the
/// claim, so the combined execution is always bracketed by the owner's
/// invoke/response exactly like a rescue.
fn build(seed: u64, nprocs: usize, nlocks: u64, nattempts: usize) -> Execution {
    let mut rng = Rng::new(seed);
    let mut lanes: Vec<Vec<Event>> = vec![Vec::new(); nprocs];
    let mut last_resp = vec![0u64; nprocs];
    let mut base = 1u64;
    let mut attempts = Vec::with_capacity(nattempts);
    // (lock, commit, token) for every critical section that ran.
    let mut commits: Vec<(u64, u64, u64)> = Vec::new();

    for i in 0..nattempts {
        let pid = i % nprocs;
        let lock = rng.below(nlocks);
        let fate = match rng.below(10) {
            0..=2 => Fate::Won,
            3..=4 => Fate::Lost,
            5 => Fate::Aborted,
            6 => Fate::Rescued,
            _ => Fate::Combined,
        };
        let token = 0x100 + i as u64; // unique and nonzero
        base += rng.below(7);
        let invoke = base.max(last_resp[pid] + 1);
        let commit = invoke + 1 + rng.below(9);
        // Rescued and combined owners return only after observing the
        // helper's (or claimant's) win, so response never precedes the
        // commit point for any fate.
        let response = commit + rng.below(9);
        last_resp[pid] = response;
        let won = matches!(fate, Fate::Won | Fate::Rescued | Fate::Combined);
        lanes[pid].push(Event {
            pid,
            op: HOLD_OP,
            a: lock,
            b: token,
            result: won as u64,
            result_set: vec![],
            invoke,
            response,
        });
        if won {
            commits.push((lock, commit, token));
        }
        attempts.push(Attempt { lock, token, fate, invoke, response });
    }

    commits.sort_by_key(|&(lock, commit, _)| (lock, commit));
    let logs = (0..nlocks)
        .map(|l| {
            let toks =
                commits.iter().filter(|&&(lock, _, _)| lock == l).map(|&(_, _, t)| t).collect();
            (l, toks)
        })
        .collect();

    Execution { history: History::from_parts(lanes), logs, attempts }
}

fn log_of(ex: &mut Execution, lock: u64) -> &mut Vec<u64> {
    &mut ex.logs.iter_mut().find(|(l, _)| *l == lock).expect("every lock is audited").1
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Clean histories with combined wins pass the holder audit: each
    /// combined attempt's critical section ran exactly once (one token in
    /// the log), lost and aborted attempts leave no trace, and commit
    /// order never contradicts real time. The checker cannot — and must
    /// not — distinguish a combined win from an ordinary or rescued one.
    #[test]
    fn combined_histories_are_holder_exclusive(
        seed in 0u64..1_000_000,
        nprocs in 1usize..6,
        nlocks in 1u64..5,
        nattempts in 0usize..120,
    ) {
        let ex = build(seed, nprocs, nlocks, nattempts);
        let v = check_holder_exclusivity(&ex.history, &ex.logs);
        prop_assert!(v.is_empty(), "clean combined history flagged: {v:?}");
        // The generator really does exercise the combining path alongside
        // the abort path it extends.
        if nattempts >= 64 {
            for fate in [Fate::Won, Fate::Combined, Fate::Rescued] {
                prop_assert!(
                    ex.attempts.iter().any(|a| a.fate == fate),
                    "generator produced no {fate:?} attempt in {nattempts}"
                );
            }
        }
    }

    /// Corruption control — the exactly-once property: a combiner/owner
    /// race in which both execute the claimed critical section (the owner
    /// decided itself WON while the claimant also ran the frame; the bug
    /// the one-claim-per-settle-round protocol exists to prevent) appends
    /// the token twice. This is also what breaking the `COMBINED` /
    /// `RESCUED` outcome-bit disjointness looks like on the log: two
    /// distinct grant paths each executing the same attempt.
    #[test]
    fn combiner_owner_double_apply_is_detected(seed in 0u64..1_000_000) {
        let mut ex = build(seed, 4, 3, 80);
        let Some(c) = ex.attempts.iter().find(|a| a.fate == Fate::Combined)
        else { return; };
        let (lock, token) = (c.lock, c.token);
        log_of(&mut ex, lock).push(token);
        let v = check_holder_exclusivity(&ex.history, &ex.logs);
        prop_assert!(
            v.iter().any(|x| x.lock == lock && x.reason.contains("twice")),
            "double-applied combined token {token:#x} not flagged: {v:?}"
        );
    }

    /// Corruption control — eliminate-beats-claim: an attempt the
    /// competition eliminated (reported lost to its owner) whose critical
    /// section a combiner nevertheless ran. A correct claimant's CAS
    /// ACTIVE→COMBINED fails once the eliminate landed; running the frame
    /// anyway leaks a losing attempt's token into the log.
    #[test]
    fn claim_of_eliminated_attempt_is_detected(seed in 0u64..1_000_000) {
        let mut ex = build(seed, 4, 3, 80);
        let Some(l) = ex.attempts.iter().find(|a| a.fate == Fate::Lost)
        else { return; };
        let (lock, token) = (l.lock, l.token);
        log_of(&mut ex, lock).push(token);
        let v = check_holder_exclusivity(&ex.history, &ex.logs);
        prop_assert!(
            v.iter().any(|x| x.lock == lock && x.reason.contains("losing attempt")),
            "eliminated-then-claimed token {token:#x} not flagged: {v:?}"
        );
        prop_assert!(v.iter().any(|x| x.reason.contains("disagrees")), "{v:?}");
    }

    /// Corruption control — a lost update inside a batch: a combined win
    /// whose log entry vanished (the claimant crashed mid-frame and the
    /// owner, observing COMBINED, returned success anyway).
    #[test]
    fn combined_lost_update_is_detected(seed in 0u64..1_000_000) {
        let mut ex = build(seed, 4, 3, 80);
        let Some((lock, tok)) = ex
            .attempts
            .iter()
            .find(|a| a.fate == Fate::Combined)
            .map(|a| (a.lock, a.token))
        else { return; };
        log_of(&mut ex, lock).retain(|&t| t != tok);
        let v = check_holder_exclusivity(&ex.history, &ex.logs);
        prop_assert!(
            v.iter().any(|x| x.lock == lock && x.reason.contains("disagrees")),
            "dropped combined win {tok:#x} not flagged: {v:?}"
        );
    }

    /// Corruption control — batch order vs real time: a combiner executes
    /// its claims while holding, so their commits still fall inside each
    /// owner's attempt interval; a log placing a combined win *before* a
    /// win that responded before the combined attempt was even invoked
    /// contradicts real time and must be flagged.
    #[test]
    fn combined_real_time_inversion_is_detected(seed in 0u64..1_000_000) {
        let mut ex = build(seed, 4, 2, 80);
        // A pair of wins on one lock, at least one combined, where the
        // earlier responded strictly before the later was invoked.
        let mut pair = None;
        'outer: for a in &ex.attempts {
            if !matches!(a.fate, Fate::Won | Fate::Rescued | Fate::Combined) {
                continue;
            }
            for b in &ex.attempts {
                if matches!(b.fate, Fate::Won | Fate::Rescued | Fate::Combined)
                    && (a.fate == Fate::Combined || b.fate == Fate::Combined)
                    && a.lock == b.lock
                    && a.response < b.invoke
                {
                    pair = Some((a.lock, a.token, b.token));
                    break 'outer;
                }
            }
        }
        let Some((lock, ta, tb)) = pair else { return; };
        let log = log_of(&mut ex, lock);
        let ia = log.iter().position(|&t| t == ta).expect("win A holds");
        let ib = log.iter().position(|&t| t == tb).expect("win B holds");
        log.swap(ia, ib);
        let v = check_holder_exclusivity(&ex.history, &ex.logs);
        prop_assert!(
            v.iter().any(|x| x.lock == lock && x.reason.contains("holds later")),
            "swapped combined wins {ta:#x}/{tb:#x} not flagged: {v:?}"
        );
    }
}
