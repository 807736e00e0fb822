//! # wait-free-locks
//!
//! A reproduction of **"Fast and Fair Randomized Wait-Free Locks"** by
//! Naama Ben-David and Guy Blelloch (PODC 2022, arXiv:2108.04520): a
//! `tryLock` over sets of fine-grained locks that is **wait-free** (every
//! attempt finishes in `O(κ²L²T)` of the caller's own steps, even if every
//! other process is stalled) and **fair** (every attempt succeeds with
//! probability ≥ `1/(κL)` against an oblivious scheduler adversary and an
//! adaptive player adversary).
//!
//! The facade re-exports the workspace crates:
//!
//! * [`runtime`] — the asynchronous shared-memory substrate: a word heap,
//!   step-counted process contexts, a real-threads driver and a
//!   deterministic simulator with oblivious adversarial schedules and an
//!   adaptive player-adversary hook.
//! * [`idem`] — the idempotence construction for critical sections
//!   (Theorem 4.2): any number of helpers may run a thunk concurrently
//!   with the combined effect of exactly one run.
//! * [`activeset`] — the linearizable active set (Algorithm 1) and the
//!   set-regular multi active set (Algorithm 2).
//! * [`core`] — the lock algorithm itself (Algorithm 3): known-bounds and
//!   unknown-bounds (§6.2) variants and the retry-until-success wrapper.
//! * [`baselines`] — Turek–Shasha–Prakash-style lock-free locks, blocking
//!   two-phase locking, and a no-helping tryLock, behind one trait.
//! * [`delegation`] — combining lock baselines (flat combining, CCSynch)
//!   behind the same trait: the delegation execution model head-to-head
//!   against wfl and its combining fast path (E17).
//! * [`workloads`] — dining philosophers, bank transfers, a sorted linked
//!   list, graph updates, and the experiment harness.
//! * [`lincheck`] — linearizability, set-regularity and holder-
//!   exclusivity checkers used by the test suite.
//! * [`fairness`] — the adaptive player adversary on both backends and
//!   its fairness telemetry (E15); an alias of `workloads::adversary`.
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use wait_free_locks::{
//!     Heap, SimBuilder, SeededRandom, Ctx,
//!     Registry, TagSource, Thunk, IdemRun, cell,
//!     LockConfig, LockSpace, LockId, Scratch, TryLockRequest, lock_and_run,
//! };
//!
//! // A critical section: transfer-like read-modify-write.
//! struct Incr;
//! impl Thunk for Incr {
//!     fn run(&self, run: &mut IdemRun<'_, '_>) {
//!         let c = wait_free_locks::Addr::from_word(run.arg(0));
//!         let v = run.read(c);
//!         run.write(c, v + 1);
//!     }
//!     fn max_ops(&self) -> usize { 2 }
//! }
//!
//! let mut registry = Registry::new();
//! let incr = registry.register(Incr);
//! let heap = Heap::new(1 << 20);
//! let space = LockSpace::create_root(&heap, 1, 2);
//! let counter = heap.alloc_root(1);
//! let cfg = LockConfig::new(2, 1, 2);
//!
//! let (space, registry) = (&space, &registry);
//! let report = SimBuilder::new(&heap, 2)
//!     .schedule(SeededRandom::new(2, 7))
//!     .max_steps(10_000_000)
//!     .spawn_all(|pid| move |ctx: &Ctx| {
//!         let mut tags = TagSource::new(pid);
//!         let mut scratch = Scratch::new();
//!         let req = TryLockRequest { locks: &[LockId(0)], thunk: incr, args: &[counter.to_word()] };
//!         lock_and_run(ctx, space, registry, &cfg, &mut tags, &mut scratch, req);
//!     })
//!     .run();
//! report.assert_clean();
//! assert_eq!(cell::value(heap.peek(counter)), 2);
//! ```

#![forbid(unsafe_code)]

pub use wfl_activeset as activeset;
pub use wfl_baselines as baselines;
pub use wfl_core as core;
pub use wfl_delegation as delegation;
pub use wfl_idem as idem;
pub use wfl_lincheck as lincheck;
pub use wfl_obs as obs;
pub use wfl_runtime as runtime;
pub use wfl_workloads as workloads;
pub use wfl_workloads::adversary as fairness;

// Common entry points at the top level.
pub use wfl_core::{
    lock_and_run, try_locks, try_locks_unknown, AttemptMetrics, LockConfig, LockId, LockSpace,
    RetryMetrics, Scratch, SpaceLayout, TryLockRequest,
};
pub use wfl_idem::{cell, Frame, IdemRun, Registry, TagSource, Thunk, ThunkId};
pub use wfl_runtime::epoch::{EpochState, EpochSync};
pub use wfl_runtime::schedule::{Bursty, RoundRobin, SeededRandom, StallWindow, Stalls, Weighted};
pub use wfl_runtime::sim::SimBuilder;
pub use wfl_runtime::{
    available_parallelism, clamp_threads, run_threads, run_threads_epochs, run_threads_with, Addr,
    CachePadded, ClockMode, Ctx, Heap, HeapExhausted, HeapMark, OrderTier, Placement,
    RealConfig, LINE_WORDS,
};
