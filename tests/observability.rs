//! Integration tests of the flight recorder (`wfl_obs`) through the
//! harness: sim traces are deterministic (same seed ⇒ bit-identical
//! event sequence, faulted cells included), turning the recorder on
//! never perturbs the run it observes, and the disabled path stays
//! cheap enough to leave compiled into every build.
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex (other integration-test binaries are separate processes).

use std::sync::Mutex;
use wait_free_locks::core::{
    try_locks, Deadline, LockConfig, LockId, LockSpace, Scratch, TryLockRequest,
};
use wait_free_locks::idem::{body_steps, IdemRun, Registry, TagSource, Thunk};
use wait_free_locks::obs::{perfetto, rec, AttemptOutcomeBits, EventKind, TraceSnapshot};
use wait_free_locks::runtime::schedule::FromSeq;
use wait_free_locks::runtime::{Addr, Ctx, Heap};
use wait_free_locks::SimBuilder;
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

/// Folds outcome words into outcome-book totals, checking each word's
/// consistency.
fn fold(words: impl IntoIterator<Item = AttemptOutcomeBits>) -> HarnessReport {
    let mut folded = HarnessReport::default();
    for b in words {
        assert!(b.consistent(), "inconsistent outcome {}", b.describe());
        folded.attempts += 1;
        folded.wins += b.won() as u64;
        folded.aborts += b.aborted() as u64;
        folded.rescues += b.rescued() as u64;
        folded.combined_wins += b.combined() as u64;
        folded.delay_overruns += b.overrun() as u64;
        if b.peers() > 0 {
            folded.combine_batch.record(b.peers());
        }
    }
    folded
}

/// Folds a recorded run's `AttemptEnd` words.
fn fold_attempt_ends(trace: &TraceSnapshot) -> HarnessReport {
    assert!(trace.dropped.is_empty(), "a ring dropped events: {:?}", trace.dropped);
    let ends = trace.per_pid.iter().flat_map(|(_, events)| events);
    fold(ends.filter(|e| e.kind == EventKind::AttemptEnd).map(|e| AttemptOutcomeBits(e.arg)))
}

/// The outcome totals `AttemptEnd` words fold to.
fn totals(r: &HarnessReport) -> (u64, u64, u64, u64, u64, u64) {
    (r.wins, r.aborts, r.rescues, r.combined_wins, r.combine_batch.sum(), r.delay_overruns)
}

/// Writes `arg(1)` to the cell at `arg(0)`.
struct Write;
impl Thunk for Write {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = Addr::from_word(run.arg(0));
        let v = run.arg(1) as u32;
        run.write(c, v);
    }
    fn max_ops(&self) -> usize {
        1
    }
}

/// A constructed rescue: an owner and a helper race on one lock (κ = 2,
/// L = 1, delays on). The owner's deadline is its reveal, so its
/// post-reveal poll aborts. The schedule stops the owner right after its
/// reveal write; the helper's helping phase then finds it revealed and
/// alone, runs it, and decides it WON. The owner's abort eliminate fails,
/// so it reports a rescue; the helper goes on to win its own attempt.
/// Returns the recorded trace and the book of both attempts.
fn run_constructed_rescue() -> (TraceSnapshot, HarnessReport) {
    let cfg = LockConfig::new(2, 1, 1);
    let mut registry = Registry::new();
    let write = registry.register(Write);
    let heap = Heap::new(1 << 16);
    let space = LockSpace::create_root(&heap, 1, 2);
    let out = heap.alloc_root(1);
    let book = Mutex::new(Vec::new());
    // Up to the reveal write: the stall to `T0`, the priority draw and
    // the write. The helper then runs until its own reveal stall ends.
    let t0 = cfg.t0();
    let mut schedule = vec![0; t0 as usize + 2];
    schedule.extend(vec![1; t0 as usize]);
    schedule.extend([0, 1].repeat(cfg.step_bound() as usize));
    rec::enable();
    let report = SimBuilder::new(&heap, 2)
        .schedule(FromSeq::new(schedule, false))
        .spawn_all(|pid| {
            let (space, registry, book) = (&space, &registry, &book);
            move |ctx: &Ctx| {
                let mut scratch = Scratch::new();
                if pid == 0 {
                    scratch.deadline = Deadline::at_steps(t0);
                }
                let args = [out.to_word(), 1 + pid as u64];
                let req = TryLockRequest { locks: &[LockId(0)], thunk: write, args: &args };
                let mut tags = TagSource::new(pid);
                let m = try_locks(ctx, space, registry, &cfg, &mut tags, &mut scratch, req);
                book.lock().unwrap().push(m.bits());
            }
        })
        .run();
    rec::disable();
    report.assert_clean();
    assert!(report.completed);
    (rec::snapshot(), fold(book.into_inner().unwrap()))
}

/// Every observer reads an attempt through the one shared outcome layout,
/// so a recorded run's `AttemptEnd` words fold to exactly its outcome
/// book. The seeded cell is a faulted combining race on one hot lock:
/// κ = 2 against 8 processes, so helping overruns `T0`, and a deadline
/// just past the reveal aborts exactly the overrunning attempts. Won,
/// aborted and combined outcomes occur there; a rescue needs a helper to
/// decide an attempt between its reveal and its abort, which random
/// schedules rarely do, so the constructed cell forces one. Between them
/// the two cells show every outcome flag.
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
    let folded = fold_attempt_ends(trace);
    assert_eq!(folded.attempts, r.attempts, "one AttemptEnd per recorded attempt");
    assert_eq!(totals(&folded), totals(&r));

    let (trace, book) = run_constructed_rescue();
    let folded = fold_attempt_ends(&trace);
    assert_eq!(folded.attempts, 2, "one AttemptEnd per constructed attempt");
    assert_eq!(totals(&folded), totals(&book));
    assert_eq!((book.wins, book.aborts, book.rescues), (2, 1, 1), "{:?}", totals(&book));

    let (wins, aborts, rescues, combined, ..) = totals(&r);
    let all = (wins + book.wins, aborts + book.aborts, rescues + book.rescues, combined);
    assert!(
        all.0 > 0 && all.1 > 0 && all.2 > 0 && all.3 > 0,
        "the cells must show every outcome flag: {:?} and {:?}",
        totals(&r),
        totals(&book)
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
