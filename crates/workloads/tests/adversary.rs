//! Integration tests of the adversary subsystem: real-threads runs across
//! every strength, the epoch-lifecycle soak, sim-vs-real parity of the
//! ported player construction, and the holder-exclusivity audit.

use std::time::Duration;
use wfl_core::{LockConfig, LockId, Scratch};
use wfl_workloads::adversary::{run_adversary, AdvStrength, AdversarySpec, FairnessReport};
use wfl_idem::{IdemRun, Registry, TagSource, Thunk};
use wfl_lincheck::holders::{assert_holder_exclusive, check_holder_exclusivity};
use wfl_runtime::real::RealConfig;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Addr, Ctx, Heap};
use wfl_workloads::harness::{AlgoHandle, AlgoKind, Backend, ExecMode, SchedKind};
use wfl_workloads::player::{player_result, run_player_loop, TargetedStarter};

/// Every strength must drive a clean, safety-checked real-threads run in
/// which the victim completes exactly its planned attempts.
#[test]
fn real_adversary_all_strengths_safe_and_complete() {
    for strength in AdvStrength::all() {
        for algo in [AlgoKind::wfl(3), AlgoKind::WflUnknown, AlgoKind::Naive, AlgoKind::Tsp] {
            let mut spec = AdversarySpec::new(3, 40);
            spec.strength = strength;
            spec.victim_period = 50;
            spec.seed = 11;
            let r = run_adversary(&spec, algo, &ExecMode::real());
            assert!(r.run.safety_ok, "{strength:?}/{algo:?}: counter != recorded wins");
            let v = r.victim_success();
            assert_eq!(v.trials, 40, "{strength:?}/{algo:?}: victim must complete its rounds");
            assert_eq!(r.run.epochs, 1);
            assert!(r.run.wall.is_some());
            assert_eq!(r.per_proc.len(), 3);
            // Telemetry self-consistency: tries histogram counts one entry
            // per successful acquisition, for every process, and the
            // telemetry is folded from the same outcome book as the run.
            for (pid, t) in r.per_proc.iter().enumerate() {
                assert_eq!(t.tries.count(), t.wins, "{strength:?}/{algo:?}/pid{pid}");
                assert_eq!(t.latency.count(), t.wins, "{strength:?}/{algo:?}/pid{pid}");
                assert!(t.wins <= t.attempts, "{strength:?}/{algo:?}/pid{pid}");
                assert_eq!((t.wins, t.attempts), r.run.per_pid[pid], "{strength:?}/{algo:?}/pid{pid}");
            }
            if matches!(algo, AlgoKind::Wfl { .. }) {
                assert_eq!(r.run.delay_overruns, 0, "{strength:?}: wfl overran its delay budget");
            }
        }
    }
}

/// The tentpole soak shape: a timed run with an epoch length keeps opening
/// fresh heap lifetimes until the wall budget is spent — adversarial runs
/// unbounded by the tag space — with every epoch's safety check green.
#[test]
fn timed_adversarial_soak_crosses_epochs_for_full_budget() {
    let mut spec = AdversarySpec::new(3, 32);
    spec.strength = AdvStrength::Flood;
    spec.victim_period = 20;
    spec.seed = 5;
    let budget = Duration::from_millis(80);
    let mode = ExecMode::real_timed(budget).with_epoch_rounds(32);
    let r = run_adversary(&spec, AlgoKind::wfl(3), &mode);
    assert!(r.run.safety_ok, "soak safety failed");
    assert!(r.run.epochs >= 3, "only {} epochs crossed in {budget:?}", r.run.epochs);
    assert!(
        r.victim_success().trials > 32,
        "victim attempts {} never exceeded one epoch — epochs not batching",
        r.victim_success().trials
    );
    assert!(r.run.wall.expect("real runs report wall") >= budget, "soak stopped early");
}

/// The paper bound, deterministically: in the simulator the targeted
/// adversary pushes real contention onto the victim, and the measured
/// success rate must stay at or above `1/C_p = 1/nprocs` (κ = nprocs,
/// L = 1). Repeat runs must reproduce the identical numbers.
#[test]
fn sim_victim_holds_theorem_bound_deterministically() {
    let run = || {
        let mut spec = AdversarySpec::new(3, 60);
        spec.strength = AdvStrength::Targeted;
        spec.heap_words = 1 << 25;
        run_adversary(&spec, AlgoKind::wfl(3), &ExecMode::sim(SchedKind::RoundRobin, 300_000_000))
    };
    let r = run();
    assert!(r.run.safety_ok);
    let v = r.victim_success();
    assert_eq!(v.trials, 60);
    assert!(
        v.rate() >= 1.0 / 3.0,
        "victim rate {:.3} below the 1/C_p bound under the adaptive adversary",
        v.rate()
    );
    let r2 = run();
    assert_eq!(v.successes, r2.victim_success().successes, "sim runs must be deterministic");
    assert_eq!(r.run.attempts, r2.run.attempts);
}

/// The exact critical section `run_adversary` registers, duplicated so the
/// parity test can rebuild the sim arm by hand (any drift in the ported
/// construction shows up as a numeric mismatch).
struct HolderTouchClone;
impl Thunk for HolderTouchClone {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let counter = Addr::from_word(run.arg(0));
        let seq = run.read(counter);
        run.write(counter, seq + 1);
        if (seq as u64) < run.arg(2) {
            run.write(Addr::from_word(run.arg(1)).off(seq), run.arg(3) as u32);
        }
    }
    fn max_ops(&self) -> usize {
        3
    }
}

/// Parity: the ported sim arm reproduces a hand-rolled E7 construction —
/// same heap layout, same controller, same player loops — number for
/// number (E7's victim-success figures are the reference the port must
/// preserve).
#[test]
fn ported_sim_arm_reproduces_e7_numbers() {
    let nprocs = 3usize;
    let rounds = 50usize;
    let seed = 1u64;
    let period = 600u64;
    let strength = AdvStrength::Targeted;

    // --- the subsystem under test ---
    let mut spec = AdversarySpec::new(nprocs, rounds);
    spec.strength = strength;
    spec.victim_period = period;
    spec.seed = seed;
    spec.heap_words = 1 << 25;
    let ported = run_adversary(&spec, AlgoKind::wfl(nprocs), &ExecMode::sim(SchedKind::RoundRobin, 300_000_000));
    assert!(ported.run.safety_ok);

    // --- the E7 construction, by hand ---
    let mut registry = Registry::new();
    let touch = registry.register(HolderTouchClone);
    let heap = Heap::new(1 << 25);
    let handle = AlgoHandle::create(&heap, &registry, AlgoKind::wfl(nprocs), 1, nprocs, 1, 3);
    let counter = heap.alloc_root(1);
    let results = heap.alloc_root(nprocs * rounds);
    let steps_log = heap.alloc_root(nprocs * rounds);
    let probe = heap.alloc_root(1);
    let adversary = TargetedStarter {
        victim: 0,
        competitors: (1..nprocs).collect(),
        locks: vec![LockId(0)],
        args: vec![counter.to_word(), 0, 0, 0],
        victim_period: period,
        victim_desc_cell: probe,
        strength,
        issued: 0,
    };
    let handle_ref = &handle;
    let report = SimBuilder::new(&heap, nprocs)
        .seed(seed)
        .schedule_box(SchedKind::RoundRobin.build(nprocs, seed))
        .controller(adversary)
        .max_steps(300_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                if pid == 0 {
                    scratch.probe = Some(probe);
                }
                let base = (pid * rounds) as u32;
                handle_ref.with(|a| {
                    run_player_loop(
                        ctx,
                        a,
                        &mut tags,
                        &mut scratch,
                        touch,
                        results.off(base),
                        Some(steps_log.off(base)),
                        rounds as u64,
                    )
                });
            }
        })
        .run();
    report.assert_clean();

    for pid in 0..nprocs {
        let (mut attempts, mut wins) = (0u64, 0u64);
        for slot in 0..rounds {
            let Some(out) = player_result(&heap, results, pid * rounds + slot) else { break };
            attempts += 1;
            wins += out.won() as u64;
        }
        let t = &ported.per_proc[pid];
        assert_eq!(
            (t.attempts, t.wins),
            (attempts, wins),
            "pid {pid}: ported sim arm diverged from the hand-rolled E7 run"
        );
    }
}

/// Recorded real runs produce per-lock holder sequences that pass the
/// lincheck holder-exclusivity audit — and the audit genuinely has teeth:
/// corrupting the recorded sequence trips it.
#[test]
fn real_mode_holder_sequences_pass_the_lincheck_audit() {
    let mut spec = AdversarySpec::new(3, 16);
    spec.nlocks = 2; // rotate the contested lock so the audit covers both
    spec.strength = AdvStrength::Flood;
    spec.victim_period = 30;
    spec.seed = 9;
    spec.record = true;
    // Precise clock: the audit's real-time precedence needs globally
    // ordered event timestamps.
    let mode = ExecMode::new(Backend::Real { run_for: None, cfg: RealConfig::precise() })
        .with_epoch_rounds(8);
    let r = run_adversary(&spec, AlgoKind::wfl(3), &mode);
    assert!(r.run.safety_ok);
    assert_eq!(r.run.epochs, 2, "16 rounds at 8/epoch");
    assert_eq!(r.holder_logs.len(), 2, "one holder log per recorded epoch");
    let locks: Vec<u64> = {
        let mut l: Vec<u64> = r.holder_logs.iter().map(|(l, _)| *l).collect();
        l.sort_unstable();
        l
    };
    assert_eq!(locks, vec![0, 1], "the contested lock rotates across epochs");
    assert!(!r.run.history.is_empty(), "recorded epochs must produce attempt events");
    let total_log: usize = r.holder_logs.iter().map(|(_, t)| t.len()).sum();
    assert_eq!(total_log as u64, r.run.wins, "every win appends exactly one holder");
    assert_holder_exclusive(&r.run.history, &r.holder_logs);

    // Teeth: reverse one busy log — real-time precedence must now
    // contradict the sequence.
    let mut corrupted = r.holder_logs.clone();
    let busy = corrupted.iter_mut().max_by_key(|(_, t)| t.len()).unwrap();
    assert!(busy.1.len() >= 2, "need at least two holders to corrupt");
    busy.1.reverse();
    assert!(
        !check_holder_exclusivity(&r.run.history, &corrupted).is_empty(),
        "a reversed holder sequence must violate the audit"
    );
}

/// Recording demands globally ordered timestamps: a leased-clock config
/// would let the audit flag correct runs, so the driver refuses it.
#[test]
#[should_panic(expected = "RealConfig::precise")]
fn recorded_runs_reject_the_leased_clock() {
    let mut spec = AdversarySpec::new(2, 4);
    spec.record = true;
    run_adversary(&spec, AlgoKind::wfl(2), &ExecMode::real()); // real() = fast() = leased
}

/// The probe machinery must not perturb the paper algorithm's fixed
/// attempt length: with delays on, probed and unprobed attempts take the
/// same `T0 + T1` steps (the probe writes land inside the stall windows).
#[test]
fn probing_keeps_wfl_attempt_length_fixed() {
    let run = |probed: bool| -> FairnessReport {
        let mut spec = AdversarySpec::new(2, 10);
        // Calm never reads the probe; this isolates the probe's cost.
        spec.strength = if probed { AdvStrength::Targeted } else { AdvStrength::Calm };
        spec.heap_words = 1 << 24;
        run_adversary(&spec, AlgoKind::wfl(2), &ExecMode::sim(SchedKind::RoundRobin, 100_000_000))
    };
    // Latency histograms record per-acquisition step totals, retries
    // included. With delays every attempt takes the same fixed number of
    // own steps, so each acquisition's latency is its try count times one
    // attempt length, and that length must not depend on whether the
    // adversary watches. (How often the victim retries may differ.)
    let attempt_len = |r: &FairnessReport| -> u64 {
        let v = r.victim();
        assert!(!v.latency.is_empty());
        let len = v.latency.sum() / v.tries.sum();
        assert_eq!(v.latency.sum(), len * v.tries.sum(), "attempt lengths differ within a run");
        assert_eq!(v.latency.max() % len, 0, "an acquisition is not a whole number of attempts");
        assert!(v.latency.max() / len <= v.tries.max());
        len
    };
    let (a, b) = (run(true), run(false));
    assert_eq!(attempt_len(&a), attempt_len(&b), "probe writes leaked outside the delay windows");
}

/// The sim arm reads each attempt's delay-overrun flag back from its
/// result word and its own steps from `run_commanded`'s step log: a κ
/// below the real contention overruns; the paper's κ = nprocs does not,
/// and then every attempt takes exactly the one fixed length
/// `LockConfig::step_bound()` documents (`T0 + T1` plus the final status
/// read).
#[test]
fn sim_arm_counts_delay_overruns() {
    let run = |kappa: usize| {
        let mut spec = AdversarySpec::new(4, 40);
        spec.heap_words = 1 << 25;
        let algo = AlgoKind::Wfl { kappa, delays: true, helping: true, combine: false };
        run_adversary(&spec, algo, &ExecMode::sim(SchedKind::RoundRobin, 300_000_000))
    };
    let (under, paper) = (run(1), run(4));
    assert!(under.run.safety_ok && paper.run.safety_ok);
    assert!(under.run.delay_overruns > 0, "kappa = 1 against 4 processes must overrun");
    assert_eq!(paper.run.delay_overruns, 0);
    let mut registry = Registry::new();
    registry.register(HolderTouchClone);
    let len = LockConfig::new(4, 1, 3).with_cs_steps(registry.max_steps()).step_bound() + 1;
    let steps = &paper.run.steps;
    assert_eq!(steps.count(), paper.run.attempts);
    assert_eq!(steps.sum(), paper.run.attempts * len, "an attempt left the fixed length {len}");
    assert_eq!(steps.max(), len);
}
