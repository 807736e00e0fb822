//! Idempotent execution of thunks (critical sections), after §4.1 and
//! Theorem 4.2 of Ben-David & Blelloch (PODC 2022).
//!
//! Wait-free locks require *helping*: when a tryLock attempt wins but its
//! owner is delayed, other processes run its critical section on its
//! behalf. Several processes may therefore run the same code concurrently,
//! and correctness demands **idempotence** (Definition 4.1): no matter how
//! many interleaved runs execute, the combined effect equals exactly one
//! run, completing at the end of the first finished run.
//!
//! # The construction
//!
//! Every thunk instance gets a [`frame::Frame`] in the shared heap holding
//! a per-operation **log** (one word per shared operation). A run executes
//! the thunk's operations in program order; for each operation it first
//! consults the log — if a result is recorded, it adopts it and skips the
//! effect; otherwise it races (by CAS on the log slot) to be the one whose
//! result is recorded:
//!
//! * **Reads** record the value read; the recorded read is the
//!   linearization point. Races with arbitrary concurrent writers are
//!   allowed. The recording CAS replies with the winner's record, so a
//!   read takes at most [`READ_MAX_STEPS`] steps.
//! * **Writes and CAS** target *tagged cells* ([`cell`]): each cell word
//!   packs a 32-bit value with a 30-bit tag unique to this (attempt,
//!   operation), so cell states never repeat and there is no ABA. They use
//!   a two-phase *witness* protocol: helpers agree via the log on a single
//!   witnessed cell word (the agreement CAS replies with the agreed word),
//!   then each applies with one full-word CAS from exactly that witness.
//!   At most one apply can succeed, and a failed one proves another
//!   succeeded: only this operation's apply can move the cell off its
//!   witness. So every helper may retire the slot after its own apply CAS,
//!   with no confirming re-read, in at most [`OP_MAX_STEPS`] steps. This is
//!   linearizable provided the target cells are mutated only by this
//!   thunk's helpers during its interval (no unrelated racy plain writes)
//!   — the restriction, relative to the paper's full-version construction,
//!   is documented in `DESIGN.md` §1.4. All uses in this repository
//!   satisfy it.
//! * **One-shot transitions** (e.g. a descriptor status moving
//!   `active → won`) need no log at all: monotonic CAS transitions are
//!   idempotent under arbitrary races.
//!
//! Every operation adds O(1) shared accesses, giving the constant-factor
//! overhead of Theorem 4.2 (measured in experiment E9).
//!
//! # Example
//!
//! ```
//! use wfl_runtime::{Heap, sim::SimBuilder, schedule::SeededRandom, Ctx};
//! use wfl_idem::{Frame, Registry, Thunk, IdemRun, cell};
//!
//! // A thunk that increments a tagged cell (read + write = 2 ops).
//! struct Incr;
//! impl Thunk for Incr {
//!     fn run(&self, run: &mut IdemRun<'_, '_>) {
//!         let target = wfl_runtime::Addr::from_word(run.arg(0));
//!         let v = run.read(target);
//!         run.write(target, v + 1);
//!     }
//!     fn max_ops(&self) -> usize { 2 }
//! }
//!
//! let mut registry = Registry::new();
//! let incr = registry.register(Incr);
//! let heap = Heap::new(1 << 12);
//! let target = heap.alloc_root(1);
//! let frame = Frame::create_root(&heap, &registry, incr, 0x100, &[target.to_word()]);
//!
//! // Four processes all help run the SAME thunk instance concurrently.
//! let report = SimBuilder::new(&heap, 4)
//!     .schedule(SeededRandom::new(4, 7))
//!     .spawn_all(|_pid| {
//!         let registry = &registry;
//!         move |ctx: &Ctx| { frame.help(ctx, registry); }
//!     })
//!     .run();
//! report.assert_clean();
//! // Despite four interleaved runs, the increment happened exactly once.
//! assert_eq!(cell::value(heap.peek(target)), 1);
//! ```

#![forbid(unsafe_code)]

pub mod cell;
pub mod frame;
pub mod registry;
pub mod run;
pub mod tag;

pub use frame::{Frame, HELP_FIXED_STEPS};
pub use registry::{body_steps, Registry, Thunk, ThunkId};
pub use run::{IdemRun, OP_MAX_STEPS, READ_MAX_STEPS};
pub use tag::TagSource;
