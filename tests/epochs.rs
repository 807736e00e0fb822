//! Integration tests of the epoch lifecycle: quiescent heap resets + tag
//! rewinds + root re-creation, across both execution backends.
//!
//! Three angles:
//!
//! 1. A **proptest** that places the epoch boundary at an adversarially
//!    chosen round split (× random schedules and seeds) and asserts every
//!    workload's safety check survives the crossing with nothing lost or
//!    double-counted.
//! 2. A real-threads **contention stress** that forces several epoch
//!    boundaries under `RealConfig::fast()`.
//! 3. The **lincheck smoke slice** (ROADMAP open item #3): a real-mode
//!    Precise-clock history of the bank workload's first epoch, fed
//!    through `wfl_lincheck::regular` against a synthetic final `getSet`
//!    built from the heap-recorded outcomes. A transfer that the history
//!    claims won but the heap recording lost (or vice versa) shows up as a
//!    set-regularity violation.

use proptest::prelude::*;
use std::time::Duration;
use wait_free_locks::lincheck::regular::{check_set_regularity, MS_GETSET, MS_INSERT};
use wait_free_locks::runtime::Event;
use wait_free_locks::workloads::harness::{
    bank_history_token, run_bank, run_bank_recorded, run_graph, run_list,
    run_philosophers, run_random_conflict, AlgoKind, Backend, ExecMode, SchedKind, SimSpec,
    BANK_HIST_LOSS, BANK_HIST_WIN,
};
use wait_free_locks::RealConfig;

fn sched_for(kind: u8) -> SchedKind {
    match kind % 3 {
        0 => SchedKind::Random,
        1 => SchedKind::Bursty(17),
        _ => SchedKind::WeightedRamp,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Sim-mode epoch boundaries at adversarial positions: for any round
    /// split, schedule family, and seed, every workload's safety check
    /// holds across the reset and the attempt totals are exact (nothing
    /// lost or double-counted at the boundary).
    #[test]
    fn epoch_boundary_at_adversarial_split_preserves_safety(
        epoch_rounds in 1usize..8,
        seed in 0u64..10_000,
        sched_kind in 0u8..3,
        nprocs in 2usize..4,
    ) {
        let total = 8usize;
        let algo = AlgoKind::Wfl { kappa: nprocs, delays: false, helping: true, combine: false };
        let mode = ExecMode::sim(sched_for(sched_kind), 200_000_000)
            .with_epoch_rounds(epoch_rounds);
        let expect_epochs = total.div_ceil(epoch_rounds.min(total)) as u64;

        let mut spec = SimSpec::new(nprocs, total, 4, 2);
        spec.seed = seed;
        spec.heap_words = 1 << 22;
        let r = run_random_conflict(&spec, algo, &mode);
        prop_assert!(r.safety_ok, "conflict: split {epoch_rounds} broke safety");
        prop_assert_eq!(r.attempts, (nprocs * total) as u64);
        prop_assert_eq!(r.epochs, expect_epochs);

        let r = run_philosophers(nprocs.max(2), total, seed, algo, 1 << 22, &mode);
        prop_assert!(r.safety_ok, "philosophers: split {epoch_rounds} broke safety");
        prop_assert_eq!(r.attempts, (nprocs.max(2) * total) as u64);

        let r = run_bank(nprocs, 4, total, 100, seed, algo, 1 << 22, &mode);
        prop_assert!(r.safety_ok, "bank: split {epoch_rounds} broke conservation");
        prop_assert_eq!(r.attempts, (nprocs * total) as u64);

        let r = run_list(nprocs, total, seed, algo, 1 << 22, &mode);
        prop_assert!(r.safety_ok, "list: split {epoch_rounds} broke the snapshot");
        prop_assert_eq!(r.attempts, (nprocs * total) as u64);

        let r = run_graph(nprocs, 5, total, seed, algo, 1 << 22, &mode);
        prop_assert!(r.safety_ok, "graph: split {epoch_rounds} broke update counters");
        prop_assert_eq!(r.attempts, (nprocs * total) as u64);
    }
}

/// Real-threads stress: a timed run under `RealConfig::fast()` whose small
/// epoch batches force many boundaries under genuine hardware contention,
/// and an untimed run whose exact totals prove no outcome is lost or
/// double-counted across the resets.
#[test]
fn real_threads_epoch_stress_under_contention() {
    // Timed leg: >= 3 boundaries, full wall budget, aggregated safety.
    let mut spec = SimSpec::new(4, 50, 2, 2); // 2 locks, L=2: everyone collides
    spec.seed = 97;
    spec.think_max = 0;
    spec.heap_words = 1 << 22;
    let budget = Duration::from_millis(150);
    let mode = ExecMode::real_timed(budget).with_epoch_rounds(50);
    for algo in [AlgoKind::WflUnknown, AlgoKind::Naive] {
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok, "{algo:?}: safety violated across epoch resets");
        assert!(r.epochs >= 3, "{algo:?}: only {} epochs in {budget:?}", r.epochs);
        assert!(
            r.attempts > 200,
            "{algo:?}: {} attempts — epochs did not extend past one tag batch",
            r.attempts
        );
        assert_eq!(
            r.per_pid.iter().map(|p| p.1).sum::<u64>(),
            r.attempts,
            "{algo:?}: per-pid attempt totals disagree with the aggregate"
        );
        assert_eq!(r.steps.count(), r.attempts, "{algo:?}: one steps sample per attempt");
        let wall = r.wall.expect("real runs report wall");
        assert!(wall >= budget, "{algo:?}: stopped early at {wall:?}");
    }

    // Untimed leg: fixed total split into epochs — totals must be *exact*.
    let mode = ExecMode::real().with_epoch_rounds(7); // 50 = 7x7 + 1 partial
    let r = run_random_conflict(&spec, AlgoKind::WflUnknown, &mode);
    assert!(r.safety_ok);
    assert_eq!(r.attempts, 200, "outcome lost or double-counted across resets");
    assert_eq!(r.epochs, 8);
}

/// The lincheck smoke slice: real-mode Precise-clock bank history (first
/// epoch) through the set-regularity checker.
#[test]
fn bank_real_history_first_epoch_is_set_regular() {
    // Globally ordered event timestamps.
    let mode = ExecMode::new(Backend::Real { run_for: None, cfg: RealConfig::precise() })
        .with_epoch_rounds(8);
    let (r, win_tokens) =
        run_bank_recorded(3, 4, 16, 100, 61, AlgoKind::Wfl {
            kappa: 3,
            delays: false,
            helping: true,
            combine: false,
        }, 1 << 22, &mode);
    assert!(r.safety_ok, "bank conservation failed");
    assert_eq!(r.epochs, 2, "two epochs: history must cover only the first");
    assert_eq!(r.attempts, 48);

    // Sanity: the opcode bridge to the checker holds, and the event stream
    // covers exactly the first epoch's 3x8 attempts.
    assert_eq!(BANK_HIST_WIN, MS_INSERT, "harness opcode must match the checker's");
    let wins: Vec<&Event> = r.history.events.iter().filter(|e| e.op == BANK_HIST_WIN).collect();
    let losses = r.history.events.iter().filter(|e| e.op == BANK_HIST_LOSS).count();
    assert_eq!(wins.len() + losses, 24, "history covers exactly the first epoch");
    assert_eq!(wins.len(), win_tokens.len(), "history wins != heap-recorded wins");
    assert!(!wins.is_empty(), "some transfer must have won");

    // Synthesize the final getSet from the *heap-recorded* outcomes and
    // check set regularity: every history-claimed win must be present,
    // nothing else may be.
    let mut set = win_tokens.clone();
    set.sort_unstable();
    let t_end = r.history.events.iter().map(|e| e.response).max().unwrap_or(0);
    let mut history = r.history.clone();
    history.events.push(Event {
        pid: 0,
        op: MS_GETSET,
        a: 0,
        b: 0,
        result: 0,
        result_set: set,
        invoke: t_end + 1,
        response: t_end + 2,
    });
    let violations = check_set_regularity(&history);
    assert!(violations.is_empty(), "history/outcome divergence: {violations:#?}");

    // Negative control: drop one real win from the getSet — the checker
    // must notice the lost member (proves the smoke test has teeth).
    let mut broken = r.history.clone();
    let mut short_set: Vec<u64> = win_tokens.clone();
    short_set.sort_unstable();
    short_set.pop();
    broken.events.push(Event {
        pid: 0,
        op: MS_GETSET,
        a: 0,
        b: 0,
        result: 0,
        result_set: short_set,
        invoke: t_end + 1,
        response: t_end + 2,
    });
    assert!(
        !check_set_regularity(&broken).is_empty(),
        "checker failed to flag a deliberately dropped win"
    );

    // And a phantom token never attempted must also be flagged.
    let mut phantom = r.history.clone();
    let mut phantom_set = win_tokens;
    phantom_set.push(bank_history_token(999, 999));
    phantom_set.sort_unstable();
    phantom.events.push(Event {
        pid: 0,
        op: MS_GETSET,
        a: 0,
        b: 0,
        result: 0,
        result_set: phantom_set,
        invoke: t_end + 1,
        response: t_end + 2,
    });
    assert!(
        !check_set_regularity(&phantom).is_empty(),
        "checker failed to flag a phantom win"
    );
}
