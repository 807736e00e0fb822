//! Asynchronous shared-memory substrate for the wait-free lock algorithms.
//!
//! This crate provides the machine model of Ben-David & Blelloch (PODC 2022):
//! a set of asynchronous processes operating on shared memory with `Read`,
//! `Write` and `CAS`, whose steps are interleaved by an **oblivious
//! adversarial scheduler**, and whose per-process *own-step* counts drive the
//! fixed delays of the lock algorithm.
//!
//! Two execution drivers run the same algorithm code:
//!
//! * [`real::run_threads`] — one free-running OS thread per process, native
//!   atomics. Used for throughput benchmarks.
//! * [`sim::Sim`] — a deterministic simulator. Each process is an OS thread
//!   gated so that shared-memory steps occur one at a time, in exactly the
//!   order dictated by a [`Schedule`] fixed before the execution begins
//!   (the oblivious adversary). Given the same seeds, executions are
//!   bit-for-bit reproducible. An optional [`sim::Controller`] models the
//!   *adaptive player adversary*: it observes the quiesced heap between steps
//!   and feeds commands to processes through mailboxes.
//!
//! All shared state lives in a [`Heap`]: a fixed arena of `u64` words with a
//! wait-free **sharded** bump allocator — per-process lanes over
//! cache-line-aligned slabs, so the hot path is an uncontended bump and the
//! shared slab cursor is touched once per slab (see `heap.rs` and DESIGN.md
//! §1.1.2). Algorithm code accesses it through a per-process
//! [`Ctx`], which counts every operation (shared and local) so that the
//! paper's delay mechanism ("stall until `T0` own steps") is exact.
//!
//! # Example
//!
//! ```
//! use wfl_runtime::{Heap, sim::SimBuilder, schedule::RoundRobin};
//!
//! let heap = Heap::new(1 << 12);
//! let counter = heap.alloc_root(1);
//! let report = SimBuilder::new(&heap, 4)
//!     .schedule(RoundRobin::new(4))
//!     .max_steps(10_000)
//!     .spawn_all(|_pid| {
//!         move |ctx: &wfl_runtime::Ctx| {
//!             // Each process increments the counter 100 times with CAS.
//!             for _ in 0..100 {
//!                 loop {
//!                     let v = ctx.read(counter);
//!                     if ctx.cas_bool(counter, v, v + 1) {
//!                         break;
//!                     }
//!                 }
//!             }
//!         }
//!     })
//!     .run();
//! assert!(report.completed);
//! assert_eq!(heap.peek(counter), 400);
//! ```

#![deny(unsafe_code)]

pub mod ctx;
pub mod epoch;
pub mod gate;
pub mod heap;
pub mod history;
pub mod real;
pub mod rng;
pub mod schedule;
pub mod sim;
pub mod stats;

pub use ctx::{ClockMode, Ctx, OrderTier};
pub use epoch::{run_epoch_worker, Arrival, EpochState, EpochSync};
pub use heap::{
    Addr, CachePadded, Heap, HeapExhausted, HeapMark, Placement, LINE_WORDS, NULL,
};
pub use history::{Event, History};
pub use real::{
    available_parallelism, clamp_threads, run_threads, run_threads_epochs, run_threads_with,
    RealConfig,
};
pub use schedule::Schedule;
