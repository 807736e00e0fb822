//! An algorithm-agnostic, backend-agnostic experiment harness with a
//! first-class **epoch lifecycle**.
//!
//! Every workload in this module runs under **either execution
//! backend** behind [`ExecMode::backend`]:
//!
//! * [`Backend::Sim`] — the deterministic simulator (any schedule family,
//!   bounded scheduled steps), for adversarial and replayable runs;
//! * [`Backend::Real`] — one free-running OS thread per process via
//!   [`wfl_runtime::real`], optionally timed, for throughput and
//!   hardware-race stress.
//!
//! # Epochs
//!
//! The tagged-write idempotence scheme is sound *per heap lifetime*, and
//! each process's attempt serials are finite (`wfl_idem::tag`), so a run
//! that should outlast one tag space proceeds in **epochs**: batches of
//! rounds separated by quiescent resets. [`ExecMode::with_epoch_rounds`]
//! sets the batch length; at every boundary the recorded outcomes are
//! aggregated and safety-checked, the arena is rewound to the pre-root
//! watermark, the per-process tag counters are rewound, and the workload's
//! roots (data structure, outcome slots, the algorithm's lock records) are
//! re-created from scratch via each workload's `re_root` hook. Timed real
//! runs with an epoch length keep opening fresh epochs until the deadline —
//! they run for their full `run_for`, no longer bounded by the tag space —
//! while untimed (and simulator) runs split their fixed round total into
//! deterministic epochs, so epoch-crossing bugs are schedulable and
//! replayable. Without an explicit epoch length every run is a single
//! epoch, exactly the historical behavior.
//!
//! In real mode the epoch boundary is a barrier rendezvous
//! ([`wfl_runtime::epoch::EpochSync`]): workers park, one leader
//! aggregates, checks, resets and re-roots, and everyone resumes. In sim
//! mode epochs are consecutive simulator runs with the reset performed
//! between them on the host thread — same lifecycle, fully deterministic.
//!
//! # Safety checking
//!
//! The drivers record one outcome word per `(process, round)` attempt into
//! the shared heap and derive the post-epoch **safety check from the
//! recorded outcomes** — each lock counter (or meal counter, update
//! counter, list snapshot, bank total) must match exactly what the recorded
//! wins imply. Checks run at *every* epoch boundary and aggregate across
//! epochs ([`HarnessReport::safety_ok`] is the conjunction), so nothing is
//! lost or double-counted across a reset. Every experiment built on this
//! harness is therefore also a mutual-exclusion test — on the simulator
//! *and* on real hardware — which keeps the benchmark numbers honest.
//!
//! # Layout
//!
//! This module is the one import path. Underneath, the registry
//! ([`AlgoKind`], [`AlgoHandle`]), the outcome book ([`HarnessReport`])
//! and the epoch driver ([`ExecMode`]) each have a file, and each
//! workload's `run_*` sits next to its data structure.

pub use crate::algo::{AlgoHandle, AlgoKind};
pub use crate::bank::{bank_history_token, run_bank, run_bank_recorded, BANK_HIST_LOSS, BANK_HIST_WIN};
pub use crate::conflict::{pick_locks, run_random_conflict, LockPicker, SimSpec, TouchAll};
pub use crate::driver::{Backend, ExecMode, SchedKind};
pub use crate::graph::run_graph;
pub use crate::list::run_list;
pub use crate::outcomes::HarnessReport;
pub use crate::philosophers::run_philosophers;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wfl_core::{GiveUp, LockId, SpaceLayout};
    use wfl_runtime::Event;

    /// The default simulator mode of the unit tests.
    fn sim() -> ExecMode {
        ExecMode::sim(SchedKind::Random, 400_000_000)
    }

    #[test]
    fn pick_locks_is_deterministic_distinct_sorted() {
        let a = pick_locks(5, 2, 7, 10, 3);
        let b = pick_locks(5, 2, 7, 10, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, a, "locks must be sorted and distinct");
    }

    #[test]
    fn lock_picker_matches_one_shot_and_is_history_independent() {
        // The reusable picker must give the same set regardless of what it
        // drew before (the aggregation pass recomputes with a fresh one).
        let mut picker = LockPicker::new(12);
        let mut out = Vec::new();
        picker.pick_into(9, 1, 4, 5, &mut out);
        let first = out.clone();
        for (pid, round) in [(0usize, 0usize), (3, 17), (2, 2)] {
            picker.pick_into(9, pid, round, 5, &mut out);
            assert_eq!(out, pick_locks(9, pid, round, 12, 5));
        }
        picker.pick_into(9, 1, 4, 5, &mut out);
        assert_eq!(out, first, "picker state leaked between draws");
    }

    #[test]
    fn lock_picker_draws_full_pool() {
        let mut picker = LockPicker::new(6);
        let mut out = Vec::new();
        picker.pick_into(3, 0, 0, 6, &mut out);
        assert_eq!(out, (0..6).map(LockId).collect::<Vec<_>>());
    }

    #[test]
    fn harness_runs_wfl_and_checks_safety() {
        let mut spec = SimSpec::new(3, 4, 3, 2);
        spec.seed = 11;
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
        let r = run_random_conflict(&spec, algo, &sim());
        assert!(r.safety_ok, "harness safety check failed");
        assert_eq!(r.attempts, 12);
        assert!(r.wins >= 1);
        assert_eq!(r.per_pid.len(), 3);
        assert!(r.wall.is_none(), "sim runs have no wall clock");
        assert_eq!(r.epochs, 1, "no epoch batching requested");
        assert!(r.heap_high_water > 0);
    }

    #[test]
    fn harness_runs_all_baselines() {
        for algo in [AlgoKind::Tsp, AlgoKind::Blocking, AlgoKind::Naive, AlgoKind::WflUnknown] {
            let mut spec = SimSpec::new(3, 3, 3, 2);
            spec.seed = 21;
            let r = run_random_conflict(&spec, algo, &sim());
            assert!(r.safety_ok, "{algo:?}: safety check failed");
            assert_eq!(r.attempts, 9, "{algo:?}");
            if matches!(algo, AlgoKind::Tsp | AlgoKind::Blocking) {
                assert_eq!(r.wins, 9, "{algo:?}: blocking-style algorithms always succeed");
            }
        }
    }

    #[test]
    fn blocking_cohort_always_wins_and_is_labeled() {
        assert_eq!(AlgoKind::BlockingCohort.label(), "blocking-cohort");
        let mut spec = SimSpec::new(3, 3, 3, 2);
        spec.seed = 21;
        let r = run_random_conflict(&spec, AlgoKind::BlockingCohort, &sim());
        assert!(r.safety_ok, "cohort safety check failed");
        assert_eq!(r.attempts, 9);
        assert_eq!(r.wins, 9, "blocking-style algorithms always succeed");
    }

    #[test]
    fn extended_roster_labels_round_trip() {
        // Every wfl configuration plus every other kind: each label must
        // name exactly one configuration and parse back to it.
        let mut kinds = Vec::new();
        for helping in [true, false] {
            for combine in [false, true] {
                for delays in [true, false] {
                    kinds.push(AlgoKind::Wfl { kappa: 4, delays, helping, combine });
                }
            }
        }
        kinds.extend(AlgoKind::all_extended(4).into_iter().filter(|k| !matches!(k, AlgoKind::Wfl { .. })));
        for (i, kind) in kinds.iter().enumerate() {
            for other in &kinds[..i] {
                assert_ne!(kind.label(), other.label(), "{kind:?} and {other:?} share a label");
            }
            assert_eq!(
                AlgoKind::from_label(kind.label(), 4),
                Some(*kind),
                "{kind:?}: label does not round-trip"
            );
        }
        assert_eq!(kinds.len(), 15);
        assert_eq!(AlgoKind::from_label("nope", 4), None);
        assert_eq!(AlgoKind::wfl(4).label(), "wfl");
        assert_eq!(AlgoKind::FlatCombining.label(), "fc");
        assert_eq!(AlgoKind::CcSynch.label(), "ccsynch");
        assert_eq!(AlgoKind::all_extended(4)[1].label(), "wfl+combine");
    }

    #[test]
    fn delegation_baselines_pass_harness_safety_checks() {
        for algo in [AlgoKind::FlatCombining, AlgoKind::CcSynch] {
            let mut spec = SimSpec::new(3, 4, 3, 2);
            spec.seed = 41;
            let r = run_random_conflict(&spec, algo, &sim());
            assert!(r.safety_ok, "{algo:?}: safety check failed");
            assert_eq!(r.attempts, 12, "{algo:?}");
            assert_eq!(r.wins, 12, "{algo:?}: the combiner applies every request");
            assert!(
                r.combined_wins > 0,
                "{algo:?}: some request must have been applied by another's combiner"
            );
        }
    }

    #[test]
    fn wfl_combine_fires_under_opted_in_schedules() {
        // Single shared lock, no think time: every attempt contends, so
        // over enough rounds some winner must find a claimable ACTIVE peer
        // under the plain Random family (sim honors the combine bit).
        let mut spec = SimSpec::new(4, 40, 1, 1);
        spec.seed = 5;
        spec.think_max = 0;
        let combine = AlgoKind::Wfl { kappa: 4, delays: true, helping: true, combine: true };
        let r = run_random_conflict(&spec, combine, &sim());
        assert!(r.safety_ok, "combining broke the counter invariant");
        assert_eq!(r.attempts, 160);
        assert!(r.combined_wins > 0, "combining never fired under Random");
        assert!(!r.combine_batch.is_empty(), "no batch sizes recorded");
        assert!(r.combined_wins <= r.wins);
        // Each combined win was granted by exactly one batch sample peer.
        assert!(
            r.combine_batch.count() <= r.combined_wins.max(r.wins),
            "more batches than winners"
        );
    }

    #[test]
    fn sim_replay_is_identical_across_layouts() {
        // The E13 A/B contract at the harness level: the schedule is
        // oblivious and layout is pure address arithmetic, so the same
        // seed must produce the same outcome stream under every layout.
        let run = |layout: SpaceLayout, algo: AlgoKind| {
            let mut spec = SimSpec::new(4, 6, 8, 2);
            spec.seed = 33;
            spec.layout = layout;
            let r = run_random_conflict(&spec, algo, &sim());
            assert!(r.safety_ok);
            (r.attempts, r.wins, r.aborts, r.steps.max(), r.steps.mean().to_bits(), r.per_pid.clone())
        };
        for algo in [
            AlgoKind::wfl(4),
            AlgoKind::Naive,
            AlgoKind::BlockingCohort,
        ] {
            let layouts = [
                SpaceLayout::packed_unified(),
                SpaceLayout::default(),
                SpaceLayout { placement: wfl_runtime::Placement::Padded, shards: 1 },
                SpaceLayout { placement: wfl_runtime::Placement::Packed, shards: 0 },
            ];
            let first = run(layouts[0], algo);
            for layout in &layouts[1..] {
                assert_eq!(run(*layout, algo), first, "{algo:?} diverged under {layout:?}");
            }
        }
    }

    #[test]
    fn philosophers_harness_reports_consistent_meals() {
        let algo = AlgoKind::Wfl { kappa: 2, delays: false, helping: true, combine: false };
        let r = run_philosophers(4, 5, 3, algo, 1 << 22, &ExecMode::sim(SchedKind::Random, 600_000_000));
        assert!(r.safety_ok);
        assert_eq!(r.attempts, 20);
    }

    // ----- unified-backend coverage: the same drivers on real threads -----

    /// Every algorithm must pass the random-conflict safety check on free
    /// -running threads with the contention-free hot path — this is the
    /// acceptance gate for the unified harness, and (for `WflUnknown` and
    /// `Naive`) the only real-hardware race coverage those paths get.
    #[test]
    fn real_threads_random_conflict_all_algos_safe() {
        for algo in AlgoKind::all(4) {
            let mut spec = SimSpec::new(4, 60, 4, 2);
            spec.seed = 9;
            spec.heap_words = 1 << 22;
            let r = run_random_conflict(&spec, algo, &ExecMode::real());
            assert!(r.safety_ok, "{algo:?}: real-threads safety check failed");
            assert_eq!(r.attempts, 240, "{algo:?}: untimed real runs complete every round");
            assert!(r.wall.is_some());
            assert_eq!(r.epochs, 1);
        }
    }

    /// The E17 roster on free-running threads: the combining fast path and
    /// both delegation baselines must pass the same recorded-outcome
    /// safety check as everything else.
    #[test]
    fn real_threads_extended_algos_safe() {
        for algo in [
            AlgoKind::Wfl { kappa: 4, delays: true, helping: true, combine: true },
            AlgoKind::FlatCombining,
            AlgoKind::CcSynch,
        ] {
            let mut spec = SimSpec::new(4, 60, 4, 2);
            spec.seed = 9;
            spec.heap_words = 1 << 22;
            let r = run_random_conflict(&spec, algo, &ExecMode::real());
            assert!(r.safety_ok, "{algo:?}: real-threads safety check failed");
            assert_eq!(r.attempts, 240, "{algo:?}");
            assert!(r.combined_wins <= r.wins, "{algo:?}");
        }
    }

    /// Heavier real-threads stress for the two paths that previously had no
    /// real-hardware lost-update coverage at all.
    #[test]
    fn real_threads_stress_wfl_unknown_and_naive() {
        for algo in [AlgoKind::WflUnknown, AlgoKind::Naive] {
            let mut spec = SimSpec::new(8, 400, 2, 2);
            spec.seed = 31;
            spec.think_max = 0;
            spec.heap_words = 1 << 24;
            let r = run_random_conflict(&spec, algo, &ExecMode::real());
            assert!(r.safety_ok, "{algo:?}: lost update under real-threads stress");
            assert_eq!(r.attempts, 3200, "{algo:?}");
            assert!(r.wins >= 1, "{algo:?}: some attempt must succeed");
        }
    }

    #[test]
    fn timed_real_run_records_variable_attempts_and_stays_safe() {
        // A timed run without epoch batching stops early via the
        // cooperative flag; the safety check must hold for whatever subset
        // of rounds completed, and the wall stays near the actual finish.
        let mut spec = SimSpec::new(2, 3000, 3, 2);
        spec.seed = 17;
        spec.think_max = 4;
        spec.heap_words = 1 << 24;
        let mode = ExecMode::real_timed(Duration::from_millis(20));
        let r = run_random_conflict(&spec, AlgoKind::Naive, &mode);
        assert!(r.safety_ok, "timed real run failed the safety check");
        assert!(r.attempts > 0, "no attempts completed in the window");
        assert!(r.attempts <= 6000);
        assert!(r.wall.is_some());
        assert_eq!(r.epochs, 1);
    }

    #[test]
    fn philosophers_run_on_real_threads() {
        for algo in [
            AlgoKind::Wfl { kappa: 2, delays: false, helping: true, combine: false },
            AlgoKind::Blocking,
        ] {
            let r = run_philosophers(4, 50, 7, algo, 1 << 22, &ExecMode::real());
            assert!(r.safety_ok, "{algo:?}: meal counters diverged on real threads");
            assert_eq!(r.attempts, 200, "{algo:?}");
        }
    }

    #[test]
    fn bank_conserves_money_on_both_backends() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real()] {
            for algo in [
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false },
                AlgoKind::Tsp,
            ] {
                let r = run_bank(3, 4, 12, 100, 23, algo, 1 << 22, &mode);
                assert!(r.safety_ok, "{}/{algo:?}: money not conserved", mode.label());
                assert_eq!(r.attempts, 36, "{}/{algo:?}", mode.label());
            }
        }
    }

    #[test]
    fn list_snapshot_matches_recorded_wins_on_both_backends() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real()] {
            for algo in [
                AlgoKind::Wfl { kappa: 4, delays: false, helping: true, combine: false },
                AlgoKind::Naive,
            ] {
                let r = run_list(3, 4, 41, algo, 1 << 22, &mode);
                assert!(r.safety_ok, "{}/{algo:?}: snapshot != recorded wins", mode.label());
                assert_eq!(r.attempts, 12, "{}/{algo:?}", mode.label());
            }
        }
    }

    #[test]
    fn graph_update_counters_match_recorded_wins_on_both_backends() {
        for mode in [ExecMode::sim(SchedKind::Random, 100_000_000), ExecMode::real()] {
            for algo in [
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false },
                AlgoKind::WflUnknown,
            ] {
                let r = run_graph(3, 6, 10, 13, algo, 1 << 22, &mode);
                assert!(r.safety_ok, "{}/{algo:?}: update counters diverged", mode.label());
                assert_eq!(r.attempts, 30, "{}/{algo:?}", mode.label());
            }
        }
    }

    // ----- the epoch lifecycle -----

    /// Untimed runs split into epochs must complete *exactly* the same
    /// round total as a single-epoch run — nothing lost or double-counted
    /// across the resets — and pass every epoch's safety check.
    #[test]
    fn sim_epochs_complete_exact_rounds_across_resets() {
        for epoch_rounds in [1usize, 3, 4, 10, 25] {
            let mut spec = SimSpec::new(3, 10, 4, 2);
            spec.seed = 77;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::sim(SchedKind::Random, 100_000_000).with_epoch_rounds(epoch_rounds);
            let r = run_random_conflict(
                &spec,
                AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false },
                &mode,
            );
            assert!(r.safety_ok, "epoch_rounds {epoch_rounds}: safety failed");
            assert_eq!(r.attempts, 30, "epoch_rounds {epoch_rounds}: outcome lost or duplicated");
            assert_eq!(
                r.epochs,
                (10usize.div_ceil(epoch_rounds.min(10))) as u64,
                "epoch_rounds {epoch_rounds}"
            );
            assert_eq!(r.per_pid.iter().map(|p| p.1).sum::<u64>(), 30);
            assert_eq!(r.per_pid.iter().map(|p| p.0).sum::<u64>(), r.wins);
            assert_eq!(r.steps.count(), r.attempts, "one step sample per attempt");
        }
    }

    /// A zero-round run executes zero rounds on both backends (regression:
    /// the epoch driver briefly clamped every epoch to >= 1 round).
    #[test]
    fn zero_round_runs_attempt_nothing() {
        for mode in [ExecMode::sim(SchedKind::Random, 1_000_000), ExecMode::real()] {
            let r = run_bank(3, 4, 0, 100, 1, AlgoKind::Tsp, 1 << 20, &mode);
            assert_eq!(r.attempts, 0, "{}: zero rounds must mean zero attempts", mode.label());
            assert!(r.safety_ok, "{}", mode.label());
        }
    }

    /// The epoch lifecycle is deterministic in sim mode: same seed, same
    /// split — identical aggregate results.
    #[test]
    fn sim_epochs_are_deterministic() {
        let run = || {
            let mut spec = SimSpec::new(3, 9, 3, 2);
            spec.seed = 5;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::sim(SchedKind::Random, 100_000_000).with_epoch_rounds(4);
            run_random_conflict(&spec, AlgoKind::WflUnknown, &mode)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.wins, b.wins);
        assert_eq!(a.per_pid, b.per_pid);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.heap_high_water, b.heap_high_water);
    }

    /// Real-threads untimed epochs: the barrier protocol must neither lose
    /// nor duplicate outcomes, for every algorithm family.
    #[test]
    fn real_epochs_complete_exact_rounds_across_resets() {
        for algo in AlgoKind::all(4) {
            let mut spec = SimSpec::new(4, 40, 4, 2);
            spec.seed = 3;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::real().with_epoch_rounds(9); // 40 = 4 full epochs + partial
            let r = run_random_conflict(&spec, algo, &mode);
            assert!(r.safety_ok, "{algo:?}: epoch-crossing safety failed");
            assert_eq!(r.attempts, 160, "{algo:?}: outcome lost or duplicated across resets");
            assert_eq!(r.epochs, 5, "{algo:?}");
        }
    }

    /// The tentpole acceptance shape: a timed real run with a small epoch
    /// length must cross several epoch boundaries under the contention-free
    /// hot path, keep every epoch's safety check green, and use the full
    /// wall budget instead of stopping at the tag space.
    #[test]
    fn timed_real_soak_crosses_epochs_under_fast_config() {
        let mut spec = SimSpec::new(4, 30, 4, 2);
        spec.seed = 41;
        spec.think_max = 2;
        spec.heap_words = 1 << 22;
        let budget = Duration::from_millis(120);
        let mode = ExecMode::real_timed(budget).with_epoch_rounds(30);
        let r = run_random_conflict(&spec, AlgoKind::Naive, &mode);
        assert!(r.safety_ok, "soak safety failed");
        assert!(r.epochs >= 3, "only {} epochs crossed in {budget:?}", r.epochs);
        assert!(
            r.attempts > 4 * 30,
            "attempts {} never exceeded one epoch's cap — epochs not batching",
            r.attempts
        );
        let wall = r.wall.expect("real runs report wall");
        assert!(wall >= budget, "soak stopped early at {wall:?}");
        assert_eq!(r.per_pid.iter().map(|p| p.1).sum::<u64>(), r.attempts);
        assert!(r.heap_high_water <= spec.heap_words);
    }

    /// Regression (allocation lanes): a heap far too small for one epoch's
    /// worth of attempts must NOT abort the process. Allocation pressure
    /// latches `heap_low` (after the in-flight attempt completes from the
    /// reserve), the batch ends early, the quiescent boundary rewinds
    /// every lane, and the run keeps crossing epochs for its full wall
    /// budget — with every epoch's safety check still exact.
    #[test]
    fn tiny_heap_triggers_epoch_resets_instead_of_panicking() {
        let mut spec = SimSpec::new(3, 512, 4, 2);
        spec.seed = 19;
        spec.think_max = 0;
        // ~16K words: epoch roots fit, but 3x512 wfl attempts (frames,
        // descriptors, cons cells) cannot — each epoch hits the lanes' end.
        spec.heap_words = 1 << 14;
        let budget = Duration::from_millis(60);
        let mode = ExecMode::real_timed(budget).with_epoch_rounds(512);
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok, "recorded outcomes diverged across pressure-driven resets");
        assert!(r.attempts > 0, "no attempt ever completed");
        assert!(
            r.epochs >= 2,
            "exhaustion must end batches at epoch boundaries (got {} epochs)",
            r.epochs
        );
        assert!(r.wall.expect("real run") >= budget, "run gave up before the deadline");
        assert!(r.heap_high_water <= spec.heap_words);
    }

    /// The same pressure shape in the deterministic simulator: batches end
    /// early on `heap_low`, the host-side reset rewinds the lanes, and the
    /// fixed epoch plan still completes without a panic.
    #[test]
    fn tiny_heap_sim_epochs_survive_allocation_pressure() {
        let mut spec = SimSpec::new(3, 400, 4, 2);
        spec.seed = 23;
        spec.think_max = 0;
        // An unpressured 100-round epoch peaks near 7,850 words; 6,000
        // cuts every batch short.
        spec.heap_words = 6_000;
        let mode = ExecMode::sim(SchedKind::Random, 400_000_000).with_epoch_rounds(100);
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok);
        assert_eq!(r.epochs, 4, "the fixed epoch plan still runs to its end");
        assert!(r.attempts > 0);
        assert!(
            r.give_up[GiveUp::HeapLow.index()] > 0,
            "the tiny heap must cut batches short on allocation pressure: {r:?}"
        );
        // Pressure means not every planned round ran — but nothing was
        // double-counted either.
        assert!(r.attempts < 3 * 400);
    }

    // ----- per-attempt deadlines and fault injection (E16 plumbing) -----

    /// Armed deadlines across a budget sweep: tight budgets abort attempts
    /// (and every abort is classified under exactly one give-up reason),
    /// generous budgets still win — and the mutual-exclusion safety check
    /// holds at every point, aborted attempts included.
    #[test]
    fn deadline_armed_runs_abort_cleanly_and_stay_safe() {
        let mut saw_abort = false;
        let mut saw_win = false;
        for budget in [40u64, 400, 40_000] {
            let mut spec = SimSpec::new(3, 12, 3, 2);
            spec.seed = 29;
            let mode =
                ExecMode::sim(SchedKind::Random, 100_000_000).with_deadline_steps(budget);
            let algo = AlgoKind::wfl(3);
            let r = run_random_conflict(&spec, algo, &mode);
            assert!(r.safety_ok, "budget {budget}: aborted attempts corrupted the counters");
            assert_eq!(r.attempts, 36, "budget {budget}: every round still records an outcome");
            let classified = r.give_up[GiveUp::Deadline.index()] + r.give_up[GiveUp::Stop.index()];
            assert_eq!(classified, r.aborts, "budget {budget}: aborts must classify exactly once");
            assert!(r.rescues <= r.aborts, "budget {budget}");
            saw_abort |= r.aborts > 0;
            saw_win |= r.wins > 0;
            // Determinism: the sim fault-free deadline run must replay.
            let r2 = run_random_conflict(&spec, algo, &mode);
            assert_eq!((r2.attempts, r2.wins, r2.aborts, r2.rescues), (r.attempts, r.wins, r.aborts, r.rescues));
        }
        assert!(saw_abort, "the tight budget never aborted an attempt");
        assert!(saw_win, "the generous budget never won an attempt");
    }

    /// The same knob on free-running threads: an untimed run completes
    /// every round (aborted rounds record a loss, not a hole) and stays
    /// safe.
    #[test]
    fn deadline_armed_real_threads_stay_safe() {
        for algo in [
            AlgoKind::wfl(3),
            AlgoKind::Blocking,
        ] {
            let mut spec = SimSpec::new(3, 40, 3, 2);
            spec.seed = 37;
            spec.heap_words = 1 << 22;
            let mode = ExecMode::real().with_deadline_steps(300);
            let r = run_random_conflict(&spec, algo, &mode);
            assert!(r.safety_ok, "{algo:?}: deadline aborts corrupted the counters");
            assert_eq!(r.attempts, 120, "{algo:?}");
            assert_eq!(
                r.give_up[GiveUp::Deadline.index()] + r.give_up[GiveUp::Stop.index()],
                r.aborts,
                "{algo:?}"
            );
        }
    }

    /// The sim fault model: periodic injected stalls freeze a rotating
    /// victim (sometimes a lock holder, mid-critical-section). The helping
    /// protocol must keep every algorithm's recorded outcomes consistent,
    /// and the runs must replay exactly.
    #[test]
    fn injected_faults_keep_every_algo_safe_and_deterministic() {
        let sched = SchedKind::RandomFaults { period: 48, quantum: 24 };
        for algo in AlgoKind::all(3) {
            let mut spec = SimSpec::new(3, 8, 3, 2);
            spec.seed = 43;
            let mode = ExecMode::sim(sched, 200_000_000);
            let r = run_random_conflict(&spec, algo, &mode);
            assert!(r.safety_ok, "{algo:?}: faults corrupted the counters");
            assert_eq!(r.attempts, 24, "{algo:?}");
            assert!(r.wins > 0, "{algo:?}: nothing won under finite stalls");
            let r2 = run_random_conflict(&spec, algo, &mode);
            assert_eq!((r2.wins, r2.aborts), (r.wins, r.aborts), "{algo:?}: fault run must replay");
        }
    }

    /// Regression (ISSUE 6 satellite): the `heap_low` latch must be cleared
    /// at the epoch boundary **even when the batch's final attempt
    /// aborted** — an abort must not leak the latch (or a stale armed
    /// deadline) into the next epoch, which would silently end every later
    /// batch at slot 0. Tiny heap + tight deadlines: batches end on
    /// allocation pressure, attempts abort mid-flight, and the fixed epoch
    /// plan still runs to its end with exact safety accounting.
    #[test]
    fn aborting_batches_do_not_leak_the_heap_low_latch_across_epochs() {
        let mut spec = SimSpec::new(3, 400, 4, 2);
        spec.seed = 47;
        spec.think_max = 0;
        // Aborted attempts cut helping (and its allocations) short, so the
        // heap must be tight to still hit pressure inside a 100-round
        // batch.
        spec.heap_words = 7_000;
        let mode = ExecMode::sim(SchedKind::Random, 400_000_000)
            .with_epoch_rounds(100)
            .with_deadline_steps(120);
        // Delays off keeps single attempts short (so allocation volume —
        // and with it the heap-pressure batch cuts — matches the
        // fault-free tiny-heap regression above), while contested rounds
        // still overrun the 120-step budget and abort.
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok);
        assert_eq!(r.epochs, 4, "the fixed epoch plan still runs to its end");
        assert!(r.attempts > 0);
        assert!(r.aborts > 0, "tight budgets under pressure must abort some attempts");
        assert!(
            r.give_up[GiveUp::HeapLow.index()] > 0,
            "the tiny heap must cut batches short on allocation pressure: {r:?}"
        );
        // A leaked latch would end epochs 2..4 at slot 0: three processes
        // over four epochs must record far more attempts than one epoch
        // could alone if the boundary reset works. (Each batch records at
        // least one attempt before pressure can latch, so a leak caps the
        // total near the first epoch's contribution.)
        assert!(
            r.attempts > r.per_pid.len() as u64 * 3,
            "later epochs recorded almost nothing — latch leaked across the boundary?"
        );
    }

    /// Per-lane high-water accounting: the vector must sum to the scalar,
    /// cover every worker lane plus the root lane, and attribute re-root
    /// allocations to the root lane.
    #[test]
    fn per_lane_high_water_sums_and_attributes_roots() {
        let mut spec = SimSpec::new(3, 10, 4, 2);
        spec.seed = 7;
        spec.heap_words = 1 << 22;
        let mode = ExecMode::real().with_epoch_rounds(4);
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok);
        let lanes = &r.heap_high_water_lanes;
        assert!(!lanes.is_empty());
        // Per-lane peaks may come from different epochs, so they bound the
        // single-boundary total from above.
        assert!(lanes.iter().sum::<usize>() >= r.heap_high_water, "lane peaks must cover the total");
        assert!(lanes.iter().all(|&w| w <= r.heap_high_water));
        let root = *lanes.last().unwrap();
        assert!(root > 0, "re-rooting (lock space, outcome slots) bills the root lane");
        for (pid, &w) in lanes[..3].iter().enumerate() {
            assert!(w > 0, "worker lane {pid} allocated attempt records");
        }
        for lane in &lanes[3..lanes.len() - 1] {
            assert_eq!(*lane, 0, "unused lanes must stay empty");
        }
    }

    /// Every workload's safety check must aggregate correctly across epoch
    /// boundaries on both backends.
    #[test]
    fn all_workloads_survive_epoch_boundaries() {
        let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
        for mode in [
            ExecMode::sim(SchedKind::Random, 100_000_000).with_epoch_rounds(3),
            ExecMode::real().with_epoch_rounds(3),
        ] {
            let label = mode.label();
            let r = run_philosophers(3, 8, 7, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/philosophers");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/philosophers");
            let r = run_bank(3, 4, 8, 100, 23, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/bank");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/bank");
            let r = run_list(3, 8, 41, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/list");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/list");
            let r = run_graph(3, 6, 8, 13, algo, 1 << 22, &mode);
            assert!(r.safety_ok, "{label}/graph");
            assert_eq!((r.attempts, r.epochs), (24, 3), "{label}/graph");
        }
    }

    /// The recorded bank history covers exactly the first epoch, win events
    /// match the heap-recorded win tokens one-to-one, and later epochs stay
    /// silent.
    #[test]
    fn bank_recorded_history_matches_first_epoch_outcomes() {
        let mode = ExecMode::real().with_epoch_rounds(5);
        let (r, tokens) =
            run_bank_recorded(3, 4, 15, 100, 29, AlgoKind::Tsp, 1 << 22, &mode);
        assert!(r.safety_ok);
        assert_eq!(r.epochs, 3);
        assert_eq!(r.attempts, 45);
        let wins: Vec<&Event> =
            r.history.events.iter().filter(|e| e.op == BANK_HIST_WIN).collect();
        let losses = r.history.events.iter().filter(|e| e.op == BANK_HIST_LOSS).count();
        assert_eq!(wins.len() + losses, 15, "history covers exactly the first epoch");
        assert_eq!(wins.len(), tokens.len(), "history wins == heap-recorded wins");
        let mut history_tokens: Vec<u64> = wins.iter().map(|e| e.a).collect();
        history_tokens.sort_unstable();
        let mut heap_tokens = tokens.clone();
        heap_tokens.sort_unstable();
        assert_eq!(history_tokens, heap_tokens, "token sets diverge");
        for e in &r.history.events {
            assert!(e.invoke < e.response, "event interval degenerate");
        }
    }
}
