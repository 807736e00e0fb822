//! The common interface the experiment harness uses to drive any of the
//! lock algorithms (the paper's and the baselines).

use wfl_core::{
    try_locks, try_locks_unknown, LockConfig, LockSpace, Scratch, TryLockRequest, UnknownConfig,
};
use wfl_idem::{Registry, TagSource};
use wfl_runtime::Ctx;

/// Outcome of one attempt under any algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptOutcome {
    /// Whether the critical section ran.
    pub won: bool,
    /// Own steps consumed by the attempt.
    pub steps: u64,
    /// The attempt was abandoned mid-flight (armed [`wfl_core::Deadline`]
    /// expired, or the stop flag was seen while a deadline was armed)
    /// rather than losing to a competitor.
    pub aborted: bool,
    /// The attempt was abandoned, but a competitor's helping completed it
    /// anyway (`won` is also true). `rescued / aborted` is E16's
    /// abandoned-attempt helping rate.
    pub rescued: bool,
    /// The win was executed by a combining peer (wfl's `CombineMode`
    /// batch, or a delegation combiner for fc/ccsynch): `won` is true and
    /// the critical section ran on another process's timeline. Disjoint
    /// from `rescued` by construction (E17).
    pub combined: bool,
    /// For a combining winner: pending peer thunks it executed in its
    /// batch before releasing (the E17 combine-batch histogram source).
    pub combined_peers: u64,
    /// The attempt's real work overran a delay target (wfl with delays
    /// only; see [`wfl_core::AttemptMetrics::delay_overrun`]).
    pub delay_overrun: bool,
}

impl AttemptOutcome {
    /// An outcome that ran to a decision (no abort machinery involved).
    pub fn decided(won: bool, steps: u64) -> AttemptOutcome {
        AttemptOutcome {
            won,
            steps,
            aborted: false,
            rescued: false,
            combined: false,
            combined_peers: 0,
            delay_overrun: false,
        }
    }
}

/// A multi-lock algorithm driven by the shared harness.
///
/// Implementations hold references to their setup-time state (lock words or
/// active sets, the thunk registry, configuration); `attempt` must be safe
/// to call from many processes concurrently.
pub trait LockAlgo: Sync {
    /// A short name for tables ("wfl", "tsp", "blocking", "naive").
    fn name(&self) -> &'static str;

    /// Executes one tryLock attempt: acquire `req.locks`, run `req.thunk`,
    /// release. `won == false` means the critical section did not run (for
    /// algorithms that cannot fail, `won` is always true).
    ///
    /// `tags` and `scratch` are the calling process's private attempt
    /// state; reusing one [`Scratch`] across attempts keeps the hot path
    /// allocation-free.
    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptOutcome;

    /// Whether a crashed process can block others forever (used by the
    /// harness to pick crash-tolerant expectations in E8).
    fn blocks_under_crash(&self) -> bool {
        false
    }
}

/// The paper's known-bounds algorithm (§6) behind the harness interface.
pub struct WflKnown<'a> {
    /// The lock space (active sets sized `κ`).
    pub space: &'a LockSpace,
    /// The thunk registry.
    pub registry: &'a Registry,
    /// Bounds and delay constants.
    pub cfg: LockConfig,
}

impl LockAlgo for WflKnown<'_> {
    fn name(&self) -> &'static str {
        "wfl"
    }

    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptOutcome {
        let m = try_locks(ctx, self.space, self.registry, &self.cfg, tags, scratch, *req);
        AttemptOutcome {
            won: m.won,
            steps: m.steps,
            aborted: m.aborted.is_some(),
            rescued: m.rescued,
            combined: m.combined,
            combined_peers: m.combined_peers,
            delay_overrun: m.delay_overrun,
        }
    }
}

/// The paper's unknown-bounds algorithm (§6.2) behind the harness
/// interface.
pub struct WflUnknown<'a> {
    /// The lock space (active sets sized `P`).
    pub space: &'a LockSpace,
    /// The thunk registry.
    pub registry: &'a Registry,
    /// Ablation switches.
    pub cfg: UnknownConfig,
}

impl LockAlgo for WflUnknown<'_> {
    fn name(&self) -> &'static str {
        "wfl-unknown"
    }

    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptOutcome {
        let m = try_locks_unknown(ctx, self.space, self.registry, &self.cfg, tags, scratch, *req);
        AttemptOutcome {
            won: m.won,
            steps: m.steps,
            aborted: m.aborted.is_some(),
            rescued: m.rescued,
            combined: false,
            combined_peers: 0,
            delay_overrun: false,
        }
    }
}
