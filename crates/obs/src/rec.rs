//! The global flight recorder: one [`EventRing`] per process plus a
//! control ring, behind a process-wide enable flag.
//!
//! Hooks in algorithm code call [`record`] unconditionally; when the
//! recorder is disabled (the default, and the state during every tier-1
//! test and untraced benchmark cell) the call is one relaxed atomic load
//! and a branch. When enabled, the call is a handful of plain
//! single-writer stores into the caller's own ring — no locks, no
//! allocation, no shared cache lines beyond the flag.
//!
//! The recorder is global because the emit
//! sites live deep inside `wfl_core::trylock`, which deliberately has no
//! side channel for observers. Single-writer safety holds because ring
//! index = pid, and a pid runs on exactly one thread in both backends;
//! the control ring ([`CTRL_PID`]) is written by driver machinery that
//! is itself serialized (the real-mode injector thread, the simulator's
//! gate, an epoch leader at a barrier).
//!
//! Drain ([`snapshot`], [`TraceSnapshot::postmortem`]) is specified at
//! quiescence only: after the run's threads joined, or at an epoch
//! barrier.

use crate::event::{Event, EventKind};
use crate::ring::EventRing;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Highest process count the recorder can attribute events to. Events
/// from pids at or above this are dropped (no harness run approaches it;
/// the cap keeps the ring block a fixed allocation).
pub const MAX_PIDS: usize = 64;

/// The control track's ring index: fault injectors and epoch leaders
/// write driver-level events here (pid-attributed rings stay
/// single-writer).
pub const CTRL_PID: usize = MAX_PIDS;

/// Default per-ring capacity (events). 2048 events x 4 words x 65 rings
/// is ~4 MiB, allocated once on first enable.
pub const DEFAULT_CAPACITY: usize = 2048;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RINGS: OnceLock<Vec<EventRing>> = OnceLock::new();

fn rings() -> &'static Vec<EventRing> {
    RINGS.get_or_init(|| (0..=MAX_PIDS).map(|_| EventRing::new(DEFAULT_CAPACITY)).collect())
}

/// Starts recording (clears all rings first). The ring block is
/// allocated on the first call and reused forever after; capacity is
/// fixed at [`DEFAULT_CAPACITY`].
///
/// Call at quiescence only (before spawning the run's processes).
pub fn enable() {
    let rs = rings();
    for r in rs {
        r.clear();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording. Rings keep their contents for [`snapshot`] /
/// [`TraceSnapshot::postmortem`]. Call at quiescence (after the run's
/// threads joined).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the recorder is currently capturing.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one event on `pid`'s ring. The disabled path is one relaxed
/// load and a branch; `pid >= MAX_PIDS` events are dropped.
#[inline]
pub fn record(pid: usize, kind: EventKind, now: u64, steps: u64, arg: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record_enabled(pid, kind, now, steps, arg);
}

/// The enabled half, outlined so the disabled fast path stays a
/// load-test-return at every emit site.
#[inline(never)]
fn record_enabled(pid: usize, kind: EventKind, now: u64, steps: u64, arg: u64) {
    let rs = rings();
    if pid <= MAX_PIDS {
        rs[pid].push(Event { kind, now, steps, arg });
    }
}

/// Records a driver-level event on the control ring (see [`CTRL_PID`]).
#[inline]
pub fn record_ctrl(kind: EventKind, now: u64, arg: u64) {
    record(CTRL_PID, kind, now, 0, arg);
}

/// A quiescent drain of every nonempty ring, oldest-to-newest per ring.
/// `PartialEq` so determinism tests can compare whole traces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// `(ring index, retained events)`, ascending; [`CTRL_PID`] last if
    /// present.
    pub per_pid: Vec<(usize, Vec<Event>)>,
    /// `(ring index, events lost to wraparound)`, for rings that
    /// overflowed.
    pub dropped: Vec<(usize, u64)>,
}

impl TraceSnapshot {
    /// Retained events across all rings.
    pub fn total_events(&self) -> usize {
        self.per_pid.iter().map(|(_, evs)| evs.len()).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.per_pid.is_empty()
    }

    /// The events of one ring (empty slice view if absent).
    pub fn events_of(&self, pid: usize) -> &[Event] {
        self.per_pid
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, evs)| evs.as_slice())
            .unwrap_or(&[])
    }

    /// Renders the last `n` events of every ring as an indented text
    /// block — the harness prints this when a safety check fails under
    /// recording.
    pub fn postmortem(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pid, evs) in &self.per_pid {
            let track = if *pid == CTRL_PID { "ctrl".to_string() } else { format!("pid {pid}") };
            let skipped = evs.len().saturating_sub(n);
            let _ = writeln!(out, "  [{track}] last {} of {} events:", evs.len() - skipped, evs.len());
            for e in &evs[skipped..] {
                let _ = writeln!(
                    out,
                    "    now {:>8}  steps {:>8}  {:<14} arg {:#x}",
                    e.now,
                    e.steps,
                    e.kind.label(),
                    e.arg
                );
            }
        }
        out
    }
}

/// Drains the recorder into a [`TraceSnapshot`]. Quiescent callers only;
/// does not clear the rings (the next [`enable`] does).
pub fn snapshot() -> TraceSnapshot {
    let mut snap = TraceSnapshot::default();
    if RINGS.get().is_none() {
        return snap; // never enabled: nothing to drain, don't allocate
    }
    for (pid, ring) in rings().iter().enumerate() {
        if ring.is_empty() {
            continue;
        }
        snap.per_pid.push((pid, ring.events()));
        if ring.dropped() > 0 {
            snap.dropped.push((pid, ring.dropped()));
        }
    }
    snap
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The recorder is process-global; tests that enable it must hold
    /// this to keep `cargo test`'s parallel runner from interleaving
    /// captures.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_enable_roundtrips() {
        let _g = test_lock::hold();
        disable();
        record(0, EventKind::AttemptStart, 1, 1, 0);
        enable();
        let before = snapshot();
        assert!(before.is_empty(), "enable clears prior contents");
        record(0, EventKind::AttemptStart, 5, 10, 2);
        record(3, EventKind::AttemptEnd, 6, 11, 1);
        record_ctrl(EventKind::FaultStart, 7, 3);
        record(MAX_PIDS + 1, EventKind::Abort, 8, 12, 0); // out of range: dropped
        disable();
        record(0, EventKind::Abort, 9, 13, 0); // disabled again: dropped
        let snap = snapshot();
        assert_eq!(snap.total_events(), 3);
        assert_eq!(snap.events_of(0).len(), 1);
        assert_eq!(snap.events_of(0)[0].kind, EventKind::AttemptStart);
        assert_eq!(snap.events_of(3)[0].arg, 1);
        assert_eq!(snap.events_of(CTRL_PID)[0].kind, EventKind::FaultStart);
        assert!(snap.dropped.is_empty());
        let pm = snap.postmortem(8);
        assert!(pm.contains("pid 0") && pm.contains("ctrl") && pm.contains("attempt_start"));
    }

    #[test]
    fn snapshot_reports_wraparound_drops() {
        let _g = test_lock::hold();
        enable();
        for i in 0..(DEFAULT_CAPACITY as u64 + 10) {
            record(1, EventKind::GiveUp, i, i, 0);
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.events_of(1).len(), DEFAULT_CAPACITY);
        assert_eq!(snap.dropped, vec![(1, 10)]);
        // The retained window is the newest events.
        assert_eq!(snap.events_of(1).last().unwrap().now, DEFAULT_CAPACITY as u64 + 9);
    }
}
