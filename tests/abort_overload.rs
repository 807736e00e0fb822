//! Schedule-sweep stress over the abort/help race: deadline-armed attempts
//! under adversarial schedules — including the E16 fault windows that
//! freeze a victim mid-critical-section — must keep every safety and
//! conservation invariant of the outcome book, for every interleaving the
//! sweep reaches.
//!
//! This is the integration-level counterpart of the in-module harness
//! tests: those pin one schedule family; this sweeps schedule x window
//! shape x deadline so the abort poll points race against helping from
//! many alignments (aborter's `ACTIVE -> LOST` CAS vs a helper's decide,
//! freezes landing before, inside, and after the reveal stall).

use wait_free_locks::core::GiveUp;
use wait_free_locks::workloads::harness::{
    run_random_conflict, AlgoKind, ExecMode, HarnessReport, SchedKind, SimSpec,
};

/// One lock of three per attempt with a padded critical section, zero
/// think time: the E16 shape, scaled down to test size.
fn spec(seed: u64) -> SimSpec {
    let mut spec = SimSpec::new(3, 20, 3, 1);
    spec.seed = seed;
    spec.think_max = 0;
    spec.cs_work = 120;
    spec.heap_words = 1 << 22;
    spec
}

/// The invariants every cell must satisfy, whatever the interleaving.
fn audit(r: &HarnessReport, deadline: u64, label: &str) {
    assert!(r.safety_ok, "{label}: safety audit failed");
    assert_eq!(r.attempts, 60, "{label}: every round must be recorded");
    assert!(r.rescues <= r.aborts, "{label}: rescues exceed aborts");
    assert!(r.rescues <= r.wins, "{label}: rescued attempts count as wins");
    assert!(
        r.wins + (r.aborts - r.rescues) <= r.attempts,
        "{label}: non-rescued aborts and wins must be disjoint attempts"
    );
    assert_eq!(
        r.abort_steps.len() as u64,
        r.aborts,
        "{label}: abort latency book must cover the aborts exactly"
    );
    // Nothing stops or starves a sim cell, so every abort is a deadline
    // abort, and the reason book says so exactly.
    assert_eq!(
        r.give_up[GiveUp::Deadline.index()],
        r.aborts,
        "{label}: abort reasons must classify exactly once"
    );
    if r.aborts > 0 {
        // The poll points bound overstay: an abort surfaces within the
        // budget plus one reveal stall (the T0 stall has no poll inside,
        // so a sub-stall budget saturates at the first post-stall poll).
        let worst = r.abort_steps.max();
        assert!(
            worst <= deadline + 2_500,
            "{label}: abort overstayed its budget (worst {worst}, budget {deadline})"
        );
    }
}

#[test]
fn abort_help_race_survives_schedule_sweep() {
    // Fault windows sized against the sweep's own deadlines: the small
    // window freezes the victim for about one attempt, the large one for
    // many — catching descriptors before, during, and after the reveal.
    let scheds = [
        SchedKind::Random,
        SchedKind::Bursty(64),
        SchedKind::RandomFaults { period: 6_000, quantum: 3_000 },
        SchedKind::RandomFaults { period: 40_000, quantum: 30_000 },
    ];
    // Below the kappa=3 reveal stall (T0 = 948 own steps), between stall
    // and a comfortable attempt, and loose enough that only freezes bite.
    let deadlines = [500u64, 1_500, 6_000];
    let algos = [
        AlgoKind::wfl(3),
        AlgoKind::WflUnknown,
    ];
    for (si, sched) in scheds.into_iter().enumerate() {
        for deadline in deadlines {
            for algo in algos {
                let label = format!("{}/sched{}/d{}", algo.label(), si, deadline);
                let spec = spec(7 + si as u64);
                let mode =
                    ExecMode::sim(sched, 2_000_000_000).with_deadline_steps(deadline);
                let r = run_random_conflict(&spec, algo, &mode);
                audit(&r, deadline, &label);
                if deadline == 500 && matches!(algo, AlgoKind::Wfl { .. }) {
                    // A budget below the mandatory stall can never be met:
                    // the known-bound attempt must abort every round.
                    assert_eq!(r.aborts, r.attempts, "{label}: sub-stall budget must abort");
                }
            }
        }
    }
}

#[test]
fn faulted_deadline_cells_replay_identically() {
    let sched = SchedKind::RandomFaults { period: 40_000, quantum: 30_000 };
    let algo = AlgoKind::wfl(3);
    let run = || {
        let mode = ExecMode::sim(sched, 2_000_000_000).with_deadline_steps(1_500);
        run_random_conflict(&spec(11), algo, &mode)
    };
    let (a, b) = (run(), run());
    assert_eq!(
        (a.attempts, a.wins, a.aborts, a.rescues, a.give_up),
        (b.attempts, b.wins, b.aborts, b.rescues, b.give_up),
        "outcome book must be schedule-deterministic under faults"
    );
    assert_eq!(a.steps.max(), b.steps.max());
    assert_eq!(a.abort_steps.len(), b.abort_steps.len());
}
