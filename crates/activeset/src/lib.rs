//! Active set objects (§5 of Ben-David & Blelloch, PODC 2022).
//!
//! Each lock in the lock algorithm is represented by an **active set**
//! object (Algorithm 1): a linearizable set supporting `insert`, `remove`
//! and `getSet`, adaptive to the set size — `insert`/`remove` take `O(k)`
//! steps for `k` concurrent members, and publishing a snapshot pointer
//! makes `getSet` cheap.
//!
//! The system of locks is a **multi active set** (Algorithm 2): an item is
//! inserted into several sets at once, with a per-item *flag* (in the lock
//! algorithm, the descriptor's priority word) turning membership visible
//! atomically-enough: the multi active set is not linearizable but **set
//! regular** (Theorem 5.1), which §6.1 shows suffices for the fairness
//! argument.
//!
//! # Example
//!
//! ```
//! use wfl_runtime::{Heap, sim::SimBuilder, Ctx};
//! use wfl_activeset::ActiveSet;
//!
//! let heap = Heap::new(1 << 12);
//! let set = ActiveSet::create_root(&heap, 4);
//! let report = SimBuilder::new(&heap, 2)
//!     .spawn(move |ctx: &Ctx| {
//!         let slot = set.insert(ctx, 77);
//!         let mut out = Vec::new();
//!         set.get_set(ctx, &mut out);
//!         assert!(out.contains(&77));
//!         set.remove(ctx, slot);
//!     })
//!     .spawn(move |ctx: &Ctx| {
//!         let slot = set.insert(ctx, 88);
//!         set.remove(ctx, slot);
//!     })
//!     .run();
//! report.assert_clean();
//! ```

#![forbid(unsafe_code)]

pub mod active_set;
pub mod multi;
pub mod shard;

pub use active_set::{get_set_steps, insert_max_steps, remove_max_steps, ActiveSet};
pub use multi::{get_members, get_members_by, multi_insert, multi_insert_into, multi_remove, Flag};
pub use shard::{create_sharded_roots, ShardMap};
