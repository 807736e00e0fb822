//! Integration tests of the flight recorder (`wfl_obs`) through the
//! harness: sim traces are deterministic (same seed ⇒ bit-identical
//! event sequence, faulted cells included), turning the recorder on
//! never perturbs the run it observes, and the disabled path stays
//! cheap enough to leave compiled into every build.
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex (other integration-test binaries are separate processes).

use std::sync::Mutex;
use wait_free_locks::obs::{perfetto, rec, EventKind};
use wait_free_locks::workloads::harness::{
    run_random_conflict, AlgoKind, ExecMode, HarnessReport, SchedKind, SimSpec,
};

static RECORDER: Mutex<()> = Mutex::new(());

fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The e16 fault shape at 3 procs: each 85050-slot window freezes a
/// victim for its first 56700 global slots.
const FAULTS: SchedKind = SchedKind::RandomFaults { period: 85_050, quantum: 56_700 };
/// A deadline below wfl's mandatory pre-decision stall at κ = 3 (`T0`,
/// ~2,630 own steps with this padded critical section), so every armed
/// attempt aborts at the first post-stall poll point — a dense
/// abort/give-up event mix.
const TIGHT: u64 = 675;

fn spec(nprocs: usize, rounds: usize) -> SimSpec {
    let mut spec = SimSpec::new(nprocs, rounds, nprocs, 1);
    spec.seed = 1312;
    spec.think_max = 0;
    spec.cs_work = 400;
    spec.heap_words = 1 << 23;
    spec
}

/// A faulted, deadline-armed sim cell — the densest event mix we have
/// (attempt phases, aborts, give-ups, rescues, fault windows).
fn run_faulted(record: bool) -> HarnessReport {
    let mut mode = ExecMode::sim(FAULTS, 2_000_000_000).with_deadline_steps(TIGHT);
    if record {
        mode = mode.with_recorder();
    }
    let r = run_random_conflict(&spec(3, 50), AlgoKind::wfl(3), &mode);
    assert!(r.safety_ok);
    r
}

#[test]
fn sim_trace_is_deterministic() {
    let _g = recorder_lock();
    for sched in [SchedKind::Random, FAULTS] {
        let run = || {
            let mode = ExecMode::sim(sched, 2_000_000_000)
                .with_deadline_steps(TIGHT)
                .with_recorder();
            let r = run_random_conflict(&spec(3, 40), AlgoKind::wfl(3), &mode);
            assert!(r.safety_ok);
            r.trace.expect("recorded run carries a trace")
        };
        let a = run();
        let b = run();
        assert!(a.total_events() > 0, "{sched:?}: empty trace");
        assert_eq!(a, b, "{sched:?}: same seed must replay to an identical trace");
    }
}

#[test]
fn recording_does_not_perturb_the_run() {
    let _g = recorder_lock();
    let plain = run_faulted(false);
    let recorded = run_faulted(true);
    assert!(plain.trace.is_none());
    let trace = recorded.trace.as_ref().expect("recorded run carries a trace");
    assert!(trace.total_events() > 0);
    // Outcome books and step accounting are bit-identical: every recorder
    // argument is an uncounted read, so the schedule cannot shift.
    assert_eq!(plain.attempts, recorded.attempts);
    assert_eq!(plain.wins, recorded.wins);
    assert_eq!(plain.aborts, recorded.aborts);
    assert_eq!(plain.rescues, recorded.rescues);
    assert_eq!(plain.give_up, recorded.give_up);
    assert_eq!(plain.per_pid, recorded.per_pid);
    assert_eq!(plain.steps.samples(), recorded.steps.samples());
}

#[test]
fn faulted_trace_reaches_the_exporter() {
    let _g = recorder_lock();
    let r = run_faulted(true);
    let trace = r.trace.as_ref().unwrap();
    // The event mix a faulted deadline-armed cell must show.
    let kinds: Vec<EventKind> = trace
        .per_pid
        .iter()
        .flat_map(|(_, events)| events.iter().map(|e| e.kind))
        .collect();
    assert!(kinds.contains(&EventKind::AttemptStart));
    assert!(kinds.contains(&EventKind::AttemptEnd));
    assert!(kinds.contains(&EventKind::Abort), "deadline-armed cell must abort");
    assert!(kinds.contains(&EventKind::FaultStart), "faulted cell must open fault windows");
    // And the export round-trips through the validator.
    let doc = perfetto::export(trace, &[("test", "observability".to_string())]);
    let stats = perfetto::validate(&doc).expect("exported trace validates");
    assert!(stats.attempts > 0);
    assert!(stats.aborts > 0);
    assert!(stats.fault_windows > 0);
}

#[test]
fn disabled_path_stays_cheap() {
    let _g = recorder_lock();
    assert!(!rec::is_enabled());
    // `snapshot()` does not clear the rings, so earlier tests in this
    // binary may have left events behind: compare before and after, not
    // against empty (drop counts included, in case a ring is full).
    let before = rec::snapshot();
    // 20M disabled-path calls: one relaxed load + branch each. The bound
    // is ~50x the expected cost — loose enough for any shared CI machine,
    // tight enough to catch the disabled path growing real work (an
    // allocation, a lock, a syscall) by accident.
    let start = std::time::Instant::now();
    for i in 0..20_000_000u64 {
        rec::record(2, EventKind::AttemptStart, i, i, 1);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "20M disabled-path records took {elapsed:?}"
    );
    // Nothing was written.
    let after = rec::snapshot();
    assert_eq!(
        (after.total_events(), after.dropped),
        (before.total_events(), before.dropped)
    );
}
