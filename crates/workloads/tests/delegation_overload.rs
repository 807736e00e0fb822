//! Combiner-freeze fault injection for the delegation baselines: the
//! graceful-degradation story extended to the fc/ccsynch family.
//!
//! A delegation lock routes every critical section through one combiner,
//! so a frozen combiner is a single point of failure: pending requests
//! blow their deadline budgets spinning on it. wfl's combining fast path
//! takes the batching without that structural cost — a frozen combining
//! winner's batch members are ordinary decided descriptors, helpable by
//! anyone — so freezes cost it nothing it wasn't already paying.
//!
//! The sim arm is the load-bearing one: the schedule-level freeze
//! (`RandomFaults`) is deterministic, so the goodput
//! ratios and abort tails below are exact, replayable numbers, not
//! thresholds against noise. The real-threads arm drives the wall-clock
//! injector (`FaultSpec`) end-to-end on the same roster; on an arbitrary
//! CI box its *timing* is noise, so it asserts the safety audit and
//! completion, not ratios.

use std::time::Duration;
use wfl_workloads::harness::{
    run_random_conflict, AlgoKind, Backend, ExecMode, HarnessReport, SchedKind, SimSpec,
};
use wfl_runtime::real::{FaultSpec, RealConfig};

const SEED: u64 = 4242;
/// Own-step SLO an unobstructed attempt meets comfortably (the e16
/// sizing for 3 processes).
const SLO: u64 = 12_600;
/// Freeze window (the e16 sizing): one victim loses the first `QUANTUM`
/// of every `PERIOD` scheduled slots — several SLOs long, so a contender
/// pinned behind the victim blows its budget before the thaw.
const QUANTUM: u64 = 56_700;
const PERIOD: u64 = 85_050;

fn run_cell(algo: AlgoKind, faulted: bool, rounds: usize) -> HarnessReport {
    let threads = 3usize;
    let mut spec = SimSpec::new(threads, rounds, threads, 1);
    spec.seed = SEED;
    spec.think_max = 0;
    spec.cs_work = 400;
    let sched = if faulted {
        SchedKind::RandomFaults { period: PERIOD, quantum: QUANTUM }
    } else {
        SchedKind::Random
    };
    let mode = ExecMode::sim(sched, 2_000_000_000).with_deadline_steps(SLO);
    let r = run_random_conflict(&spec, algo, &mode);
    assert!(r.safety_ok, "{}/faults {faulted}: safety audit failed", algo.label());
    r
}

/// Wins per own-step across all attempts — the sim goodput metric.
fn goodput(r: &HarnessReport) -> f64 {
    let steps_total = r.steps.sum() as f64;
    assert!(steps_total > 0.0);
    r.wins as f64 / steps_total
}

/// The headline claim, deterministic arm: freezes cost fc and ccsynch
/// their wait-freedom — pending requests pinned behind the frozen
/// combiner blow the SLO (aborts appear with p99 at or past the budget),
/// and fc's goodput also degrades below wfl+combine's faulted/fault-free
/// ratio (ccsynch's queue absorbs the freeze in aggregate; its loss is
/// the SLO tail) — while wfl+combine blows zero deadlines and keeps
/// >= 0.8x of its fault-free goodput.
#[test]
fn combiner_freeze_collapses_delegation_but_not_wfl_combine() {
    let rounds = 150;
    let combine = AlgoKind::Wfl { kappa: 3, delays: true, helping: true, combine: true };
    let fault_free = run_cell(combine, false, rounds);
    let faulted = run_cell(combine, true, rounds);
    assert_eq!(faulted.aborts, 0, "wfl+combine blew a deadline under freezes");
    assert!(fault_free.combined_wins > 0, "combining never fired fault-free");
    assert!(faulted.combined_wins > 0, "combining never fired under freezes");
    let combine_ratio = goodput(&faulted) / goodput(&fault_free);
    assert!(
        combine_ratio >= 0.8,
        "wfl+combine kept only {combine_ratio:.3}x of its fault-free goodput"
    );

    for algo in [AlgoKind::FlatCombining, AlgoKind::CcSynch] {
        let rounds = 2 * rounds; // delegation rounds are ~2x cheaper (e16)
        let fault_free = run_cell(algo, false, rounds);
        let faulted = run_cell(algo, true, rounds);
        assert_eq!(fault_free.aborts, 0, "{}: fault-free cell aborted", algo.label());
        let ratio = goodput(&faulted) / goodput(&fault_free);
        assert!(
            faulted.aborts > 0,
            "{}: no request blew its SLO behind the frozen combiner",
            algo.label()
        );
        assert!(
            faulted.abort_steps.percentile(0.99) >= SLO,
            "{}: abort p99 {} under the SLO {SLO}",
            algo.label(),
            faulted.abort_steps.percentile(0.99)
        );
        assert!(
            algo != AlgoKind::FlatCombining || ratio < 0.9 * combine_ratio,
            "{}: faulted/fault-free ratio {ratio:.3} not below 0.9x wfl+combine's \
             {combine_ratio:.3} — no combiner-freeze cost",
            algo.label()
        );
    }
}

/// Plain wfl under the same freezes, for contrast: helping keeps the
/// audit clean and no deadline blows even without the combine bit.
#[test]
fn plain_wfl_survives_freezes_without_aborts() {
    let algo = AlgoKind::wfl(3);
    let r = run_cell(algo, true, 150);
    assert_eq!(r.aborts, 0, "wfl blew a deadline under freezes");
    assert_eq!(r.combined_wins, 0, "plain wfl cannot combine");
}

/// The wall-clock injector end-to-end (`FaultSpec`): every algorithm in
/// the delegation showdown roster survives real suspensions with the
/// safety audit clean and every round completed. Timing is asserted
/// nowhere — on a saturated CI box the quanta stretch arbitrarily.
#[test]
fn real_fault_injector_keeps_roster_safe() {
    let threads = 2usize;
    for algo in [
        AlgoKind::Wfl { kappa: 2, delays: true, helping: true, combine: true },
        AlgoKind::FlatCombining,
        AlgoKind::CcSynch,
    ] {
        let mut spec = SimSpec::new(threads, 40, threads, 1);
        spec.seed = SEED;
        spec.think_max = 0;
        spec.cs_work = 400;
        spec.heap_words = 1 << 22;
        let cfg = RealConfig::fast().with_faults(FaultSpec {
            period: Duration::from_millis(4),
            quantum: Duration::from_millis(2),
            seed: SEED,
        });
        let mode = ExecMode::new(Backend::Real { run_for: None, cfg });
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok, "{}: safety audit failed under the injector", algo.label());
        assert_eq!(r.attempts, 80, "{}: untimed real runs complete every round", algo.label());
        assert!(r.combined_wins <= r.wins, "{}", algo.label());
    }
}
