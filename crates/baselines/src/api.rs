//! The common interface the experiment harness uses to drive any of the
//! lock algorithms (the paper's and the baselines).

use wfl_core::{
    try_locks, try_locks_unknown, AttemptMetrics, LockConfig, LockSpace, Scratch, TryLockRequest,
};
use wfl_idem::{Registry, TagSource};
use wfl_runtime::Ctx;

/// A multi-lock algorithm driven by the shared harness.
///
/// Implementations hold references to their setup-time state (lock words or
/// active sets, the thunk registry, configuration); `attempt` must be safe
/// to call from many processes concurrently.
pub trait LockAlgo: Sync {
    /// Executes one tryLock attempt: acquire `req.locks`, run `req.thunk`,
    /// release. `won == false` means the critical section did not run (for
    /// algorithms that cannot fail, `won` is always true). A baseline
    /// leaves `helped` at 0 and never reports a delay overrun.
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
    ) -> AttemptMetrics;

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
    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptMetrics {
        try_locks(ctx, self.space, self.registry, &self.cfg, tags, scratch, *req)
    }
}

/// The paper's unknown-bounds algorithm (§6.2) behind the harness
/// interface.
pub struct WflUnknown<'a> {
    /// The lock space (active sets sized `P`).
    pub space: &'a LockSpace,
    /// The thunk registry.
    pub registry: &'a Registry,
}

impl LockAlgo for WflUnknown<'_> {
    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptMetrics {
        try_locks_unknown(ctx, self.space, self.registry, tags, scratch, *req)
    }
}
