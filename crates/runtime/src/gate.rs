//! Per-process step gates for the deterministic simulator driver.
//!
//! A [`Gate`] serializes one process's shared-memory steps against the
//! scheduler: the worker thread blocks in [`Gate::request`] until the
//! scheduler grants it a step, performs exactly one shared-memory operation,
//! and then calls [`Gate::complete`]. The scheduler's [`Gate::grant`] blocks
//! until the granted operation has fully completed, so at most one
//! shared-memory operation is ever in flight — exactly the paper's
//! interleaving model, and the source of the simulator's determinism.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Worker is running local code (or has not started).
    Idle,
    /// Worker is blocked waiting for grants: this many consecutive steps,
    /// the last of which wakes it (1 for a shared-memory step; more for a
    /// run of local steps, see [`Gate::request_run`]).
    Requesting(u64),
    /// Scheduler granted a step; worker may wake and run its operation.
    Granted,
    /// Worker finished its body and will never request again.
    Done,
    /// Simulator abort path: the worker must unwind at its next request.
    Poisoned,
}

/// Panic payload used to unwind deliberately-poisoned workers. The
/// simulator catches it and reports the process as poisoned; any other
/// panic payload is reported as a genuine bug.
pub(crate) struct PoisonToken;

/// Outcome of [`Gate::grant`], as observed by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantOutcome {
    /// The worker executed one shared-memory step.
    Stepped,
    /// The worker had already finished; the schedule slot was wasted
    /// (this models the oblivious scheduler granting time to an absent
    /// process).
    WasDone,
}

/// A step gate between the simulator scheduler and one worker thread.
pub struct Gate {
    state: Mutex<State>,
    cv: Condvar,
    /// Global logical time of the step currently being granted; written by
    /// the scheduler before waking the worker, read by the worker during its
    /// step (used to timestamp history events).
    now: AtomicU64,
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate").field("state", &*self.state.lock()).finish()
    }
}

impl Default for Gate {
    fn default() -> Self {
        Gate::new()
    }
}

impl Gate {
    /// Creates a gate in the idle state.
    pub fn new() -> Gate {
        Gate { state: Mutex::new(State::Idle), cv: Condvar::new(), now: AtomicU64::new(0) }
    }

    /// Worker side: block until the scheduler grants a step. On return the
    /// worker must perform exactly one shared-memory operation and then call
    /// [`Gate::complete`].
    pub fn request(&self) {
        self.request_run(1);
    }

    /// Worker side: block until the scheduler has granted `n ≥ 1` steps to
    /// this process, then return as after [`Gate::request`] (the caller
    /// calls [`Gate::complete`]). For a run of local steps with no
    /// shared-memory effect: the schedule consumes exactly the same grants
    /// as `n` separate requests, but the worker wakes only for the last.
    pub fn request_run(&self, n: u64) {
        debug_assert!(n >= 1, "a run is at least one step");
        let mut st = self.state.lock();
        if *st == State::Poisoned {
            drop(st);
            std::panic::panic_any(PoisonToken);
        }
        debug_assert_eq!(*st, State::Idle, "request while not idle");
        *st = State::Requesting(n);
        self.cv.notify_all();
        while *st != State::Granted {
            if *st == State::Poisoned {
                drop(st);
                std::panic::panic_any(PoisonToken);
            }
            self.cv.wait(&mut st);
        }
        // Keep Granted while the op runs; `complete` moves back to Idle.
    }

    /// Worker side: signal that the granted operation has completed.
    pub fn complete(&self) {
        let mut st = self.state.lock();
        debug_assert_eq!(*st, State::Granted, "complete without grant");
        *st = State::Idle;
        self.cv.notify_all();
    }

    /// Worker side: mark the worker as finished forever.
    pub fn finish(&self) {
        let mut st = self.state.lock();
        *st = State::Done;
        self.cv.notify_all();
    }

    /// Scheduler side: grant one step at logical time `t` and wait until the
    /// worker has executed it. If the worker has finished, returns
    /// [`GrantOutcome::WasDone`] without blocking on it.
    pub fn grant(&self, t: u64) -> GrantOutcome {
        self.now.store(t, Ordering::SeqCst);
        let mut st = self.state.lock();
        // Wait for the worker to arrive at the gate (it may be running local
        // code, which is finite by assumption).
        loop {
            match *st {
                // Not the run's last step: consumed without waking the
                // worker, which has nothing to execute for it.
                State::Requesting(n) if n > 1 => {
                    *st = State::Requesting(n - 1);
                    return GrantOutcome::Stepped;
                }
                State::Requesting(_) => break,
                State::Done | State::Poisoned => return GrantOutcome::WasDone,
                State::Idle | State::Granted => self.cv.wait(&mut st),
            }
        }
        *st = State::Granted;
        self.cv.notify_all();
        // Wait for the step to complete (worker sets Idle, or finishes and
        // sets Done, or immediately requests the next step).
        loop {
            match *st {
                State::Idle | State::Requesting(_) | State::Done | State::Poisoned => {
                    return GrantOutcome::Stepped
                }
                State::Granted => self.cv.wait(&mut st),
            }
        }
    }

    /// Simulator abort path: forces the worker to unwind with a
    /// [`PoisonToken`] at its next (or current) request.
    pub(crate) fn poison_flag(&self) {
        let mut st = self.state.lock();
        if *st != State::Done {
            *st = State::Poisoned;
        }
        self.cv.notify_all();
    }

    /// The logical time the scheduler attached to the current grant.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Whether the worker has finished (scheduler side).
    pub fn is_done(&self) -> bool {
        *self.state.lock() == State::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grant_serializes_steps() {
        let gate = Arc::new(Gate::new());
        let shared = Arc::new(AtomicU64::new(0));
        let (g, s) = (gate.clone(), shared.clone());
        let worker = std::thread::spawn(move || {
            for i in 0..10 {
                g.request();
                s.store(i + 1, Ordering::SeqCst);
                g.complete();
            }
            g.finish();
        });
        for i in 0..10 {
            assert_eq!(gate.grant(i), GrantOutcome::Stepped);
            // Because grant blocks until the op completes, the store is
            // always visible here.
            assert_eq!(shared.load(Ordering::SeqCst), i + 1);
        }
        assert_eq!(gate.grant(11), GrantOutcome::WasDone);
        worker.join().unwrap();
    }

    #[test]
    fn a_run_consumes_one_grant_per_step_and_wakes_once() {
        let gate = Arc::new(Gate::new());
        let g = gate.clone();
        let worker = std::thread::spawn(move || {
            g.request_run(5);
            let seen = g.now();
            g.complete();
            g.finish();
            seen
        });
        for t in 0..5 {
            assert_eq!(gate.grant(t), GrantOutcome::Stepped);
        }
        assert_eq!(gate.grant(5), GrantOutcome::WasDone);
        assert_eq!(worker.join().unwrap(), 4, "the worker wakes at the run's last grant");
    }

    #[test]
    fn grant_to_finished_worker_is_wasted() {
        let gate = Arc::new(Gate::new());
        let g = gate.clone();
        let worker = std::thread::spawn(move || g.finish());
        worker.join().unwrap();
        assert_eq!(gate.grant(0), GrantOutcome::WasDone);
        assert!(gate.is_done());
    }

    #[test]
    fn now_is_visible_during_step() {
        let gate = Arc::new(Gate::new());
        let seen = Arc::new(AtomicU64::new(u64::MAX));
        let (g, s) = (gate.clone(), seen.clone());
        let worker = std::thread::spawn(move || {
            g.request();
            s.store(g.now(), Ordering::SeqCst);
            g.complete();
            g.finish();
        });
        gate.grant(42);
        assert_eq!(seen.load(Ordering::SeqCst), 42);
        worker.join().unwrap();
    }
}
