//! Always-compiled, allocation-free observability for the wait-free-locks
//! workspace: a per-process flight recorder, its Perfetto exporter, and
//! the shared log-linear histogram.
//!
//! This crate sits below every other `wfl_*` crate (it depends only on
//! `std`), so the lock algorithms, the delegation baselines, and both
//! execution backends can emit events without dependency cycles. Three
//! layers:
//!
//! * [`rec`] — the global flight recorder: fixed-capacity binary
//!   [`Event`] rings, one cache-padded single-writer ring per process
//!   plus a control ring for driver machinery (fault injectors, epoch
//!   leaders). Recording costs one relaxed atomic load when disabled and
//!   plain single-writer stores when enabled; nothing allocates on the
//!   hot path.
//! * exporter — [`perfetto`] renders a drained [`TraceSnapshot`] as
//!   Chrome `trace_event` JSON (openable in ui.perfetto.dev) and
//!   validates emitted traces.
//! * [`FixedHistogram`] — the workspace's one percentile engine: a
//!   fixed-size log-linear histogram (exact below 64, at most 1/32 high
//!   above) shared by the harness reports and the fairness subsystem.
//!
//! Determinism contract: events carry the emitting process's logical
//! clock and own-step counter, both of which are uncounted reads — so a
//! simulated run records an identical event sequence for an identical
//! seed, and enabling the recorder never perturbs the schedule or the
//! step accounting of the run it observes.

#![forbid(unsafe_code)]

mod event;
mod hist;
mod json;
pub mod perfetto;
pub mod rec;
mod ring;

pub use event::{AttemptOutcomeBits, Event, EventKind};
pub use hist::{FixedHistogram, BUCKETS};
pub use json::{escape, JsonValue};
pub use rec::{TraceSnapshot, CTRL_PID, MAX_PIDS};
pub use ring::EventRing;
