//! Workloads for the wait-free-locks experiments — the applications the
//! paper's introduction motivates, built on the public lock API:
//!
//! * [`philosophers`] — Dijkstra's dining philosophers, the paper's running
//!   example (`κ = L = 2`; Theorem 1.1 specializes to success probability
//!   ≥ 1/4 in O(1) steps, experiment E4).
//! * [`bank`] — multi-lock money transfers with a conservation invariant
//!   (an end-to-end mutual-exclusion detector).
//! * [`list`] — a sorted linked list updated with fine-grained two-lock
//!   critical sections and optimistic traversal, after the concurrent data
//!   structures cited in §1.
//! * [`graph`] — GraphLab-style local vertex updates: lock a vertex and its
//!   neighbors, recompute from neighbor values (§1's graph processing use
//!   case).
//! * [`player`] — player-adversary strategies (adaptive start times) for
//!   the fairness experiments E7/E11/E15, shared by both backends via the
//!   probe-cell protocol and `flood_decision`.
//! * [`harness`] — the algorithm-agnostic, backend-agnostic runner every
//!   experiment drives these workloads through; it re-exports the
//!   algorithm registry, the outcome book, the epoch driver and each
//!   workload's `run_*` entry point.

#![forbid(unsafe_code)]

mod algo;
pub mod bank;
mod conflict;
mod driver;
pub mod graph;
pub mod harness;
pub mod list;
mod outcomes;
pub mod philosophers;
pub mod player;
