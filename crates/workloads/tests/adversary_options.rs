//! The adversary honours the `ExecMode` options every harness workload
//! honours: the flight recorder on both arms, and the per-round deadline
//! on the real arm (the sim arm's commanded player loop cannot arm one,
//! so it refuses the option instead of dropping it).
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex (other integration-test binaries are separate processes).

use std::sync::{Mutex, MutexGuard};
use wfl_core::LockConfig;
use wfl_obs::EventKind;
use wfl_workloads::adversary::{run_adversary, AdvStrength, AdversarySpec};
use wfl_workloads::harness::{AlgoKind, ExecMode, SchedKind};

static RECORDER: Mutex<()> = Mutex::new(());

fn recorder_lock() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two epochs of 8 victim rounds against blind-cadence competitors (few
/// enough events that no recorder ring wraps).
fn spec() -> AdversarySpec {
    let mut spec = AdversarySpec::new(3, 16);
    spec.strength = AdvStrength::Calm;
    spec.victim_period = 50;
    spec.seed = 3;
    spec
}

#[test]
fn real_adversary_trace_has_one_epoch_barrier_per_boundary() {
    let _g = recorder_lock();
    let mode = ExecMode::real().with_epoch_rounds(8).with_recorder();
    let r = run_adversary(&spec(), AlgoKind::wfl(3), &mode);
    assert!(r.run.safety_ok);
    assert_eq!(r.run.epochs, 2, "16 rounds at 8/epoch");
    let trace = r.run.trace.as_ref().expect("a recorded run returns its trace");
    assert!(trace.dropped.is_empty(), "a ring wrapped: {:?}", trace.dropped);
    let barriers = trace
        .per_pid
        .iter()
        .flat_map(|(_, events)| events.iter())
        .filter(|e| e.kind == EventKind::EpochBarrier)
        .count();
    assert_eq!(barriers as u64, r.run.epochs, "one EpochBarrier per boundary");
}

#[test]
fn real_adversary_deadline_below_t0_aborts() {
    let _g = recorder_lock();
    // The adversary's wfl config: one lock, a three-op critical section.
    let budget = LockConfig::new(3, 1, 3).t0() / 2;
    let mode = ExecMode::real().with_epoch_rounds(8).with_deadline_steps(budget);
    let r = run_adversary(&spec(), AlgoKind::wfl(3), &mode);
    assert!(r.run.safety_ok);
    assert!(r.run.aborts > 0, "no attempt aborted under a deadline of {budget} < T0");
    let telemetry_aborts: u64 = r.per_proc.iter().map(|t| t.aborts).sum();
    assert_eq!(telemetry_aborts, r.run.aborts, "telemetry and outcome book disagree");
}

#[test]
fn sim_adversary_recording_returns_a_trace_and_does_not_perturb() {
    let _g = recorder_lock();
    let run = |mode: &ExecMode| {
        let mut spec = AdversarySpec::new(3, 20);
        spec.heap_words = 1 << 24;
        run_adversary(&spec, AlgoKind::wfl(3), mode)
    };
    let mode = ExecMode::sim(SchedKind::RoundRobin, 100_000_000);
    let (plain, recorded) = (run(&mode), run(&mode.with_recorder()));
    assert!(plain.run.trace.is_none());
    let trace = recorded.run.trace.as_ref().expect("a recorded run returns its trace");
    assert!(trace.total_events() > 0);
    assert_eq!(plain.run.per_pid, recorded.run.per_pid);
    assert_eq!(plain.run.steps, recorded.run.steps);
}

#[test]
#[should_panic(expected = "cannot arm a deadline")]
fn sim_adversary_refuses_a_deadline() {
    let mode = ExecMode::sim(SchedKind::RoundRobin, 1_000_000).with_deadline_steps(100);
    run_adversary(&AdversarySpec::new(2, 4), AlgoKind::wfl(2), &mode);
}
