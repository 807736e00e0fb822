//! Per-attempt aborts: deadlines, abort reasons, and retry backoff.
//!
//! The paper's wait-free guarantee bounds *expected* steps; a caller with a
//! latency SLO needs a hard exit. A [`Deadline`] is an absolute bound on the
//! process's **own step count** (the same clock the paper's delays are
//! measured in), threaded into an attempt through
//! [`crate::Scratch::deadline`]. The tryLock attempt polls it at
//! *helping-safe* points only — places where abandoning the attempt leaves
//! the descriptor in a state competitors can still help to completion — so
//! an abort never blocks anyone else (DESIGN.md §2.6).
//!
//! All deadline checks are uncounted reads of the process's own step
//! counter: an attempt that never aborts takes exactly the same counted
//! step sequence as one run without a deadline, so simulator determinism
//! and the step-complexity experiments are unaffected.

use wfl_runtime::Ctx;

/// An absolute own-step deadline for a lock acquisition.
///
/// `Deadline(s)` expires once the process has taken `s` own steps in total.
/// Own steps are the paper's cost model (and advance identically under the
/// simulator and real threads), so a deadline is deterministic in sim and
/// proportional to wall time under free-running threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(pub u64);

impl Deadline {
    /// The infinite deadline: never expires, and disables the per-attempt
    /// abort polls entirely (attempts behave exactly as without this
    /// feature — in particular a mid-attempt stop flag does not abort).
    pub const NEVER: Deadline = Deadline(u64::MAX);

    /// A deadline at an absolute own-step count.
    pub fn at_steps(steps: u64) -> Deadline {
        Deadline(steps)
    }

    /// A deadline `budget` own steps from `ctx`'s current step count.
    pub fn after(ctx: &Ctx<'_>, budget: u64) -> Deadline {
        Deadline(ctx.steps().saturating_add(budget))
    }

    /// Whether this deadline is the infinite [`Deadline::NEVER`].
    pub fn is_never(&self) -> bool {
        self.0 == u64::MAX
    }

    /// Whether the deadline has passed (uncounted).
    pub fn expired(&self, ctx: &Ctx<'_>) -> bool {
        ctx.steps() >= self.0
    }

    /// Own steps left before expiry (0 if already expired; uncounted).
    pub fn remaining(&self, ctx: &Ctx<'_>) -> u64 {
        self.0.saturating_sub(ctx.steps())
    }
}

impl Default for Deadline {
    fn default() -> Deadline {
        Deadline::NEVER
    }
}

/// Why an in-flight tryLock attempt was abandoned mid-flight.
///
/// An aborted attempt has *lost* (its thunk will never run) **unless** a
/// competitor's helping raced the abort and completed it first — the
/// attempt then reports `won` with [`crate::AttemptMetrics::rescued`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The attempt's [`Deadline`] expired.
    Deadline,
    /// The driver's cooperative stop flag was raised mid-attempt. Only
    /// polled when a finite deadline is armed; without one, attempts run
    /// to completion as before and the stop flag is honored between
    /// attempts by the retry loops.
    Stop,
}

impl AbortReason {
    /// Stable index (the flight recorder's `Abort` event argument).
    pub fn index(self) -> usize {
        match self {
            AbortReason::Deadline => 0,
            AbortReason::Stop => 1,
        }
    }

    /// The baselines' bail-out poll (uncounted): the stop flag, then
    /// `deadline`. Unlike the tryLock's helping-safe poll it honours the
    /// stop flag with no deadline armed, so a spinning baseline drains.
    pub fn poll(ctx: &Ctx<'_>, deadline: Deadline) -> Option<AbortReason> {
        if ctx.stop_requested() {
            Some(AbortReason::Stop)
        } else if deadline.expired(ctx) {
            Some(AbortReason::Deadline)
        } else {
            None
        }
    }
}

/// Why a bounded retry loop ([`crate::lock_and_run_until`]) gave up
/// without acquiring the locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUp {
    /// The driver's cooperative stop flag was raised.
    Stop,
    /// The per-process tag space is exhausted; the epoch boundary rewinds
    /// it.
    Tags,
    /// The heap signalled allocation pressure ([`Ctx::heap_low`]); the
    /// epoch boundary rewinds the lanes and clears it.
    HeapLow,
    /// The caller's [`Deadline`] expired (possibly mid-attempt).
    Deadline,
    /// The attempt budget (`max_attempts`) was used up.
    Attempts,
}

impl GiveUp {
    /// Stable index for per-reason counters (see the harness report).
    pub const COUNT: usize = 5;

    /// Index of this reason in `0..GiveUp::COUNT`.
    pub fn index(self) -> usize {
        match self {
            GiveUp::Stop => 0,
            GiveUp::Tags => 1,
            GiveUp::HeapLow => 2,
            GiveUp::Deadline => 3,
            GiveUp::Attempts => 4,
        }
    }

    /// Short stable label (JSON field names in the benchmarks).
    pub fn label(self) -> &'static str {
        match self {
            GiveUp::Stop => "stop",
            GiveUp::Tags => "tags",
            GiveUp::HeapLow => "heap_low",
            GiveUp::Deadline => "deadline",
            GiveUp::Attempts => "attempts",
        }
    }

    /// All reasons, in [`GiveUp::index`] order.
    pub fn all() -> [GiveUp; GiveUp::COUNT] {
        [GiveUp::Stop, GiveUp::Tags, GiveUp::HeapLow, GiveUp::Deadline, GiveUp::Attempts]
    }

    fn from_abort(r: AbortReason) -> GiveUp {
        match r {
            AbortReason::Deadline => GiveUp::Deadline,
            AbortReason::Stop => GiveUp::Stop,
        }
    }
}

impl From<AbortReason> for GiveUp {
    fn from(r: AbortReason) -> GiveUp {
        GiveUp::from_abort(r)
    }
}

/// Bounded exponential backoff between retry attempts: the pause before
/// retry `k` (counting the first retry as `k = 1`) is
/// `min(start << (k - 1), cap)` own local steps. Backing off in own steps
/// keeps the retry loop deterministic in sim; under real threads own steps
/// are proportional to wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Pause before the first retry, in own steps (0 disables backoff).
    pub start: u64,
    /// Upper bound on any single pause, in own steps.
    pub cap: u64,
}

impl Backoff {
    /// No backoff: retries are immediate (the behavior of
    /// [`crate::lock_and_run`]).
    pub const NONE: Backoff = Backoff { start: 0, cap: 0 };

    /// An exponential policy from `start` doubling up to `cap` own steps.
    pub fn exponential(start: u64, cap: u64) -> Backoff {
        Backoff { start, cap: cap.max(start) }
    }

    /// The pause (in own steps) after `failed_attempts` failed attempts;
    /// 0 means no pause.
    pub fn pause_after(&self, failed_attempts: u64) -> u64 {
        if self.start == 0 || failed_attempts == 0 {
            return 0;
        }
        let shift = (failed_attempts - 1).min(63) as u32;
        if shift >= self.start.leading_zeros() {
            self.cap
        } else {
            (self.start << shift).min(self.cap)
        }
    }
}

/// The per-attempt abort poll used by `try_locks` / `try_locks_unknown` at
/// helping-safe points. Returns `None` when no finite deadline is armed —
/// the fast path is a single comparison, and attempts without deadlines
/// behave exactly as before this layer existed.
#[inline]
pub(crate) fn poll_abort(ctx: &Ctx<'_>, deadline: Deadline) -> Option<AbortReason> {
    if deadline.is_never() {
        return None;
    }
    if deadline.expired(ctx) {
        return Some(AbortReason::Deadline);
    }
    if ctx.stop_requested() {
        return Some(AbortReason::Stop);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff::exponential(8, 50);
        assert_eq!(b.pause_after(0), 0);
        assert_eq!(b.pause_after(1), 8);
        assert_eq!(b.pause_after(2), 16);
        assert_eq!(b.pause_after(3), 32);
        assert_eq!(b.pause_after(4), 50, "capped");
        assert_eq!(b.pause_after(400), 50, "huge attempt counts saturate at the cap");
        assert_eq!(Backoff::NONE.pause_after(7), 0);
    }

    #[test]
    fn give_up_indices_are_a_bijection() {
        let all = GiveUp::all();
        assert_eq!(all.len(), GiveUp::COUNT);
        for (i, g) in all.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        assert_eq!(GiveUp::from(AbortReason::Deadline), GiveUp::Deadline);
        assert_eq!(GiveUp::from(AbortReason::Stop), GiveUp::Stop);
    }

    #[test]
    fn never_deadline_is_default_and_infinite() {
        assert_eq!(Deadline::default(), Deadline::NEVER);
        assert!(Deadline::NEVER.is_never());
        assert!(!Deadline::at_steps(10).is_never());
    }
}
