//! Baseline multi-lock algorithms that the paper compares against in prose
//! (§3, Related Work), implemented over the same substrate for head-to-head
//! experiments (E8):
//!
//! * [`tsp::TspLock`] — lock-free locks in the style of Turek, Shasha &
//!   Prakash / Barnes: ordered (two-phase) acquisition with *recursive
//!   helping*; crashes are tolerated (helpers finish the holder's critical
//!   section) but per-attempt steps are unbounded — lock-free, not
//!   wait-free, and no fairness bound.
//! * [`blocking::BlockingTpl`] — classic blocking two-phase locking with
//!   ordered spinlocks. Fast when nothing goes wrong; a single crashed
//!   holder blocks everyone forever (the simulator reports the spinners as
//!   poisoned).
//! * [`naive::NaiveTryLock`] — a tryLock with no helping: CAS each lock in
//!   order, releasing everything on first conflict. Bounded steps, but a
//!   crashed winner leaves its locks stuck forever and contention collapses
//!   throughput (no fairness bound either).
//!
//! All three implement [`api::LockAlgo`], as does the paper's algorithm via
//! [`api::WflKnown`], so harnesses and benches can swap algorithms freely.

#![forbid(unsafe_code)]

pub mod api;
pub mod blocking;
pub mod naive;
pub mod tsp;

pub use api::{LockAlgo, WflKnown, WflUnknown};
pub use blocking::{BlockingMode, BlockingTpl};
pub use naive::NaiveTryLock;
pub use tsp::TspLock;
