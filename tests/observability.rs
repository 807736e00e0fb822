//! Integration tests of the flight recorder (`wfl_obs`) through the
//! harness: sim traces are deterministic (same seed ⇒ bit-identical
//! event sequence, faulted cells included), turning the recorder on
//! never perturbs the run it observes, and the disabled path stays
//! cheap enough to leave compiled into every build.
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex (other integration-test binaries are separate processes).

use std::sync::Mutex;
use wait_free_locks::core::LockConfig;
use wait_free_locks::idem::body_steps;
use wait_free_locks::obs::{perfetto, rec, AttemptOutcomeBits, EventKind};
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
    assert_eq!(plain.combined_wins, recorded.combined_wins);
    assert_eq!(plain.delay_overruns, recorded.delay_overruns);
    assert_eq!(plain.heap_high_water_lanes, recorded.heap_high_water_lanes);
    // Whole-histogram equality: every bucket, the count, the exact sum
    // and the exact max.
    assert_eq!(plain.steps, recorded.steps);
    assert_eq!(plain.abort_steps, recorded.abort_steps);
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

/// Every observer reads an attempt through the one shared outcome layout,
/// so a recorded run's `AttemptEnd` words fold to exactly its outcome
/// book. The cell is a faulted combining race on one hot lock: κ = 2
/// against 8 processes, so helping overruns `T0`, and a deadline just past
/// the reveal aborts exactly the overrunning attempts. Won, aborted,
/// rescued and combined outcomes all occur (wfl rescues are rare: seeds
/// 78 and 79 are the only ones below 80 that show one).
#[test]
fn attempt_end_words_fold_to_the_outcome_book() {
    let _g = recorder_lock();
    let kappa = 2;
    let mut spec = SimSpec::new(8, 30, 1, 1);
    spec.seed = 78;
    spec.think_max = 0;
    spec.cs_work = 0;
    let t0 = LockConfig::new(kappa, 1, 2).with_cs_steps(body_steps(2)).t0();
    let faults = SchedKind::RandomFaults { period: 2_000, quantum: 1_333 };
    let mode =
        ExecMode::sim(faults, 2_000_000_000).with_deadline_steps(t0 + 10).with_recorder();
    let combine = AlgoKind::Wfl { kappa, delays: true, helping: true, combine: true };
    let r = run_random_conflict(&spec, combine, &mode);
    assert!(r.safety_ok);
    let trace = r.trace.as_ref().expect("recorded run carries a trace");
    assert!(trace.dropped.is_empty(), "a ring dropped events: {:?}", trace.dropped);
    let mut folded = HarnessReport::default();
    let mut ends = 0;
    for e in trace.per_pid.iter().flat_map(|(_, events)| events) {
        if e.kind != EventKind::AttemptEnd {
            continue;
        }
        let b = AttemptOutcomeBits(e.arg);
        assert!(b.consistent(), "inconsistent outcome {}", b.describe());
        ends += 1;
        folded.wins += b.won() as u64;
        folded.aborts += b.aborted() as u64;
        folded.rescues += b.rescued() as u64;
        folded.combined_wins += b.combined() as u64;
        folded.delay_overruns += b.overrun() as u64;
        if b.peers() > 0 {
            folded.combine_batch.record(b.peers());
        }
    }
    assert_eq!(ends, r.attempts, "one AttemptEnd per recorded attempt");
    let totals = |r: &HarnessReport| {
        (r.wins, r.aborts, r.rescues, r.combined_wins, r.combine_batch.sum(), r.delay_overruns)
    };
    assert_eq!(totals(&folded), totals(&r));
    assert!(
        r.wins > 0 && r.aborts > 0 && r.rescues > 0 && r.combined_wins > 0,
        "the cell must show every outcome flag: {:?}",
        totals(&r)
    );
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
