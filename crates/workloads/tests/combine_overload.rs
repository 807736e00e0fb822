//! Schedule-swept abort/combine race audit: the combining fast path
//! crossed with armed deadlines, across every simulator schedule family.
//!
//! The risky interleavings live at the intersection of three mechanisms:
//! a winner's settle pass eliminating ACTIVE peers, a peer's own abort
//! path bailing out post-reveal, and the deadline machinery classifying
//! the result. Each cell runs a contended conflict workload and audits
//! the recorded-outcome accounting identities that tie the four fates
//! together, plus replay determinism: every sim cell must replay exactly
//! for the same (algorithm, seed).

use wfl_core::LockConfig;
use wfl_idem::body_steps;
use wfl_workloads::harness::{
    run_random_conflict, AlgoKind, ExecMode, HarnessReport, SchedKind, SimSpec,
};

/// One contended cell: single hot lock, long critical sections, zero
/// think time — every attempt contends, so settle passes find claimable
/// peers and armed deadlines actually fire.
fn run_cell(
    algo: AlgoKind,
    sched: SchedKind,
    deadline: Option<u64>,
    seed: u64,
) -> HarnessReport {
    run_cell_cs(algo, sched, deadline, seed, 200)
}

fn run_cell_cs(
    algo: AlgoKind,
    sched: SchedKind,
    deadline: Option<u64>,
    seed: u64,
    cs_work: u64,
) -> HarnessReport {
    let mut spec = SimSpec::new(4, 20, 1, 1);
    spec.seed = seed;
    spec.think_max = 0;
    spec.cs_work = cs_work;
    let mut mode = ExecMode::sim(sched, 2_000_000_000);
    if let Some(d) = deadline {
        mode = mode.with_deadline_steps(d);
    }
    run_random_conflict(&spec, algo, &mode)
}

/// The accounting identities every cell must satisfy, whatever the
/// schedule did: rescues and combined grants are subsets of wins, and —
/// because the `RESCUED` and `COMBINED` outcome bits are disjoint by
/// contract — the two subsets cannot overlap, so their sum is still
/// bounded by wins.
fn audit(label: &str, r: &HarnessReport, attempts: u64) {
    assert!(r.safety_ok, "{label}: safety audit failed");
    assert_eq!(r.attempts, attempts, "{label}: sim cells complete every round");
    assert!(r.rescues <= r.aborts, "{label}: rescue without an abort");
    assert!(r.rescues <= r.wins, "{label}: rescues are wins");
    assert!(r.combined_wins <= r.wins, "{label}: combined grants are wins");
    assert!(
        r.rescues + r.combined_wins <= r.wins,
        "{label}: RESCUED/COMBINED disjointness violated in aggregate \
         (rescues {} + combined {} > wins {})",
        r.rescues,
        r.combined_wins,
        r.wins
    );
    // A win is a win and an unrescued abort is a loss; nothing else wins.
    assert!(
        r.wins + (r.aborts - r.rescues) <= r.attempts,
        "{label}: fates overcount attempts"
    );
    assert_eq!(
        r.combine_batch.is_empty(),
        r.combined_wins == 0,
        "{label}: batch histogram disagrees with combined-win count"
    );
}

/// The comparable fingerprint of a sim run (everything a replay must
/// reproduce bit-identically).
#[derive(PartialEq, Debug)]
struct Fingerprint {
    fates: [u64; 5],
    steps_max: u64,
    steps_mean_bits: u64,
    per_pid: Vec<(u64, u64)>,
}

fn fingerprint(r: &HarnessReport) -> Fingerprint {
    Fingerprint {
        fates: [r.attempts, r.wins, r.aborts, r.rescues, r.combined_wins],
        steps_max: r.steps.max(),
        steps_mean_bits: r.steps.mean().to_bits(),
        per_pid: r.per_pid.clone(),
    }
}

#[test]
fn combine_under_deadlines_is_audited_across_schedules() {
    let schedules = [
        SchedKind::RoundRobin,
        SchedKind::Random,
        SchedKind::Bursty(7),
        SchedKind::WeightedRamp,
        SchedKind::RandomFaults { period: 9_000, quantum: 6_000 },
    ];
    // wfl's per-attempt cost is tightly bounded (that is wait-freedom), so
    // a deadline is bimodal: above the helping-chain cost nothing aborts,
    // below the attempt floor everything does. Both regimes must satisfy
    // the audit — the tight arm drives every attempt down the post-reveal
    // abandon path while competitors' settle passes race the eliminations.
    let deadlines = [None, Some(1_000u64)];
    let algos = [
        AlgoKind::wfl(4),
        AlgoKind::Wfl { kappa: 4, delays: true, helping: true, combine: true },
    ];

    let mut combined_total = 0u64;
    let mut abort_total = 0u64;
    for sched in schedules {
        for deadline in deadlines {
            for algo in algos {
                for seed in [3u64, 11] {
                    let label = format!("{algo:?}/{sched:?}/deadline {deadline:?}/seed {seed}");
                    let r = run_cell(algo, sched, deadline, seed);
                    audit(&label, &r, 80);
                    // Replay determinism: the exact same cell again.
                    let replay = run_cell(algo, sched, deadline, seed);
                    assert_eq!(
                        fingerprint(&replay),
                        fingerprint(&r),
                        "{label}: replay diverged"
                    );
                    if matches!(algo, AlgoKind::Wfl { combine: false, .. }) {
                        assert_eq!(r.combined_wins, 0, "{label}: plain wfl recorded a combined win");
                    }
                    combined_total += r.combined_wins;
                    abort_total += r.aborts;
                }
            }
        }
    }
    // The sweep genuinely exercised both mechanisms it crosses.
    assert!(combined_total > 0, "no cell ever combined — sweep shape is dead");
    assert!(abort_total > 0, "no cell ever aborted — deadline arm is dead");
}

/// The simulator honors `LockConfig::combine` exactly as real threads do:
/// under the plain `Random` family `WflCombine` combines, passes the
/// audit, and replays bit-identically for the same seed.
#[test]
fn wfl_combine_combines_under_plain_random_and_replays() {
    let combine = AlgoKind::Wfl { kappa: 4, delays: true, helping: true, combine: true };
    let r = run_cell(combine, SchedKind::Random, None, 7);
    audit("wfl+combine/Random", &r, 80);
    assert!(r.combined_wins > 0, "combining never fired under plain Random");
    let replay = run_cell(combine, SchedKind::Random, None, 7);
    assert_eq!(fingerprint(&replay), fingerprint(&r), "same-seed replay diverged");
}

/// Abort/combine race: under `RandomFaults` with a tight
/// deadline, both mechanisms fire in the same run and the audit still
/// holds — aborted attempts may be rescued by helpers, never granted by
/// combiners (a claim lands only on an ACTIVE descriptor the owner has
/// not yet abandoned; the abandon path's own elimination beats it or the
/// grant is a rescue, keeping the fates disjoint).
#[test]
fn faulted_combining_with_deadlines_keeps_fates_disjoint() {
    let sched = SchedKind::RandomFaults { period: 9_000, quantum: 6_000 };
    // Long critical sections make the helped-frame cost dominate. With
    // exact delays every attempt reaches its post-reveal abort poll at the
    // same own step, just after T0, unless its helping overran T0. So a
    // deadline before that step aborts every attempt, and one past it
    // aborts only the overrunning ones. Aborts and combining coexist in
    // one run only when κ understates the 4-way contention. κ = 2 is the
    // smallest that works: T0 budgets helping one revealed competitor, so
    // an attempt that must help more overruns it, and a deadline ten steps
    // past the reveal aborts exactly those attempts. κ = 1 fails because
    // its T1 budgets no member beside the winner: a settle pass must then
    // fit before T0 + T1 in the unused worst case of the winner's own
    // thunk, which is smaller than a pass with 5-step idempotent ops
    // (DESIGN §1.4). κ = 2's T1 budgets a second member, and when that
    // member is absent or already settled its share pays for the pass;
    // the claim spends `combine_slack` (DESIGN §1.7).
    let kappa = 2;
    let cs_work = 2_000;
    let t0 = LockConfig::new(kappa, 1, 2).with_cs_steps(body_steps(2) + cs_work).t0();
    let mut combined_total = 0u64;
    let mut abort_total = 0u64;
    for seed in 1u64..=4 {
        let combine = AlgoKind::Wfl { kappa, delays: true, helping: true, combine: true };
        let r = run_cell_cs(combine, sched, Some(t0 + 10), seed, cs_work);
        audit(&format!("faulted-combining seed {seed}"), &r, 80);
        combined_total += r.combined_wins;
        abort_total += r.aborts;
    }
    assert!(combined_total > 0, "combining never fired under RandomFaults");
    assert!(abort_total > 0, "no attempt ever blew its deadline");
}
