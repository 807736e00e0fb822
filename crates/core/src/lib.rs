//! The fast and fair randomized wait-free lock algorithm of Ben-David &
//! Blelloch, *"Fast and Fair Randomized Wait-Free Locks"*, PODC 2022
//! (arXiv:2108.04520).
//!
//! A [`trylock::try_locks`] attempt specifies a set of locks and a
//! critical-section thunk. Against an **oblivious scheduler adversary**
//! and an **adaptive player adversary**:
//!
//! * every attempt finishes within `O(κ²L²T)` of the caller's own steps
//!   (Theorem 6.1) — wait-free, even if every other process has crashed;
//! * every attempt succeeds (acquires all locks, runs the thunk) with
//!   probability at least `1/C_p ≥ 1/(κL)` (Theorem 6.9), independently
//!   across attempts — fair;
//! * retrying until success gives a wait-free lock with expected
//!   `O(κ³L³T)` steps ([`retry::lock_and_run`]);
//! * an [`unknown::try_locks_unknown`] variant needs no knowledge of the
//!   bounds, at a `log(κLT)` factor in the success probability
//!   (Theorem 6.10).
//!
//! Here `κ` bounds the point contention on any lock, `L` the locks per
//! attempt, and `T` the shared operations per critical section.
//!
//! # Example: two increments under one lock
//!
//! ```
//! use wfl_runtime::{Heap, sim::SimBuilder, schedule::SeededRandom, Ctx};
//! use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk};
//! use wfl_core::{LockConfig, LockSpace, LockId, Scratch, TryLockRequest, lock_and_run};
//!
//! struct Incr;
//! impl Thunk for Incr {
//!     fn run(&self, run: &mut IdemRun<'_, '_>) {
//!         let c = wfl_runtime::Addr::from_word(run.arg(0));
//!         let v = run.read(c);
//!         run.write(c, v + 1);
//!     }
//!     fn max_ops(&self) -> usize { 2 }
//! }
//!
//! let mut registry = Registry::new();
//! let incr = registry.register(Incr);
//! let heap = Heap::new(1 << 20);
//! let space = LockSpace::create_root(&heap, 1, 2); // one lock, κ = 2
//! let counter = heap.alloc_root(1);
//! let cfg = LockConfig::new(2, 1, 2);
//!
//! let (space, registry) = (&space, &registry);
//! let report = SimBuilder::new(&heap, 2)
//!     .schedule(SeededRandom::new(2, 42))
//!     .max_steps(1_000_000)
//!     .spawn_all(|pid| move |ctx: &Ctx| {
//!         let mut tags = TagSource::new(pid);
//!         let mut scratch = Scratch::new();
//!         let req = TryLockRequest { locks: &[LockId(0)], thunk: incr, args: &[counter.to_word()] };
//!         lock_and_run(ctx, space, registry, &cfg, &mut tags, &mut scratch, req);
//!     })
//!     .run();
//! report.assert_clean();
//! assert_eq!(cell::value(heap.peek(counter)), 2); // both critical sections ran exactly once
//! ```

#![forbid(unsafe_code)]

pub mod abort;
pub mod config;
pub mod descriptor;
pub mod metrics;
pub mod retry;
pub mod scratch;
pub mod space;
pub mod trylock;
pub mod unknown;

pub use abort::{AbortReason, Backoff, Deadline, GiveUp};
pub use config::{DelayBudget, LockConfig};
pub use descriptor::{is_won, Desc, LockId, ST_ACTIVE, ST_COMBINED, ST_LOST, ST_WON};
pub use metrics::{AttemptMetrics, RetryMetrics};
pub use retry::{lock_and_run, lock_and_run_limited, lock_and_run_until};
pub use scratch::Scratch;
pub use space::{LockSpace, SpaceLayout};
pub use trylock::{try_locks, TryLockRequest};
pub use unknown::try_locks_unknown;
