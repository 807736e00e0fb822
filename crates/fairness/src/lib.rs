//! `wfl_fairness` — fairness telemetry and the adaptive player adversary
//! on real hardware.
//!
//! The paper's headline guarantee (Theorem 6.9) is about an **adaptive
//! adversary**: however the player times competitor attempts — even with
//! full knowledge of the history — a victim's per-attempt success
//! probability cannot be pushed below `1/C_p`. The simulator has exercised
//! that claim since E7; this crate measures it where it is hardest, on
//! free-running threads, and packages the measurement machinery:
//!
//! * [`telemetry`] — allocation-free per-process fairness views (try-count
//!   and latency histograms in `wfl_obs::FixedHistogram`, success counts,
//!   max stretch, tail percentiles) and Jain's fairness index, all folded
//!   per-epoch by `merge` like the harness's report.
//! * [`adversary`] — [`adversary::run_adversary`]: one entry point driving
//!   the victim-vs-competitors game under any
//!   [`wfl_workloads::harness::AlgoKind`] on either
//!   [`wfl_workloads::harness::ExecMode`] backend. The sim arm is the E7
//!   construction (deterministic, parity-testable); the real arm runs
//!   competitor threads that *observe* the victim's published attempt
//!   state through its probe cell ([`wfl_core::Scratch::probe`]) and
//!   flood precisely inside its pre-reveal window, built on the epoch
//!   lifecycle so adversarial soaks run for their full wall budget.
//!
//! Recorded real runs also produce per-lock **holder sequences** and a
//! `HOLD_OP` attempt history for `wfl_lincheck::holders` — every
//! adversary run doubles as a mutual-exclusion audit.
//!
//! Experiment E15 (`e15_fairness`) sweeps victim success and fairness
//! cells across algorithms × threads × adversary strength and gates CI on
//! the paper bound.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod telemetry;

pub use adversary::{holder_token, run_adversary, AdversarySpec, FairnessReport};
pub use telemetry::{jain_index, ProcTelemetry};
pub use wfl_workloads::player::{flood_decision, AdvStrength, PROBE_OPAQUE};
