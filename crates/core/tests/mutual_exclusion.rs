//! Mutual exclusion with idempotence (Definition 4.3), validated with the
//! classic lost-update test: critical sections perform non-atomic
//! read-then-write increments of counters **protected by the locks they
//! acquire** (one counter per lock; an attempt increments the counter of
//! every lock in its set). If two conflicting critical sections ever
//! overlapped, or one ran twice, or a failed attempt ran at all, some
//! lock's counter would diverge from the number of successful attempts
//! that covered it.

use wfl_core::{try_locks, try_locks_unknown, LockConfig, LockId, LockSpace, Scratch, TryLockRequest};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk};
use wfl_runtime::schedule::{Bursty, RoundRobin, SeededRandom, Weighted};
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Addr, Ctx, Heap};

/// Critical section: increment the counter of every acquired lock
/// (read + write per counter — a lost-update detector).
struct IncrAll {
    max_locks: usize,
}
impl Thunk for IncrAll {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let n = run.arg(0) as usize;
        for i in 0..n {
            let c = Addr::from_word(run.arg(1 + i));
            let v = run.read(c);
            run.write(c, v + 1);
        }
    }
    fn max_ops(&self) -> usize {
        2 * self.max_locks
    }
}

struct Outcome {
    /// counters[l] = final value of lock l's protected counter.
    counters: Vec<u32>,
    /// expected[l] = number of successful attempts whose lock set included l.
    expected: Vec<u64>,
    /// Total successful attempts.
    wins: u64,
    /// Total attempts.
    attempts_made: u64,
}

/// Runs `nprocs` processes, each making `attempts` tryLock attempts on the
/// lock set `pick_locks(pid, round)`; the critical section increments the
/// counter of each acquired lock.
#[allow(clippy::too_many_arguments)]
fn run_counter_workload(
    nprocs: usize,
    attempts: usize,
    nlocks: usize,
    kappa: usize,
    l_max: usize,
    seed: u64,
    schedule_kind: usize,
    unknown_variant: bool,
    pick_locks: impl Fn(usize, usize) -> Vec<LockId> + Send + Copy,
) -> Outcome {
    let mut registry = Registry::new();
    let incr = registry.register(IncrAll { max_locks: l_max });
    let heap = Heap::new(1 << 22);
    let capacity = if unknown_variant { nprocs } else { kappa };
    let space = LockSpace::create_root(&heap, nlocks, capacity);
    let counters = heap.alloc_root(nlocks);
    let outcomes = heap.alloc_root(nprocs * attempts);
    let cfg = LockConfig::new(kappa, l_max, 2 * l_max).without_delays();

    let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
    let n = nprocs;
    let mut builder = SimBuilder::new(&heap, nprocs).seed(seed).max_steps(200_000_000);
    builder = match schedule_kind {
        0 => builder.schedule(RoundRobin::new(n)),
        1 => builder.schedule(SeededRandom::new(n, seed)),
        2 => builder.schedule(Bursty::new(n, 40, seed)),
        _ => builder.schedule(Weighted::new(
            &(0..n as u64).map(|i| 1 + 7 * (i % 3)).collect::<Vec<_>>(),
            seed,
        )),
    };
    let report = builder
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for round in 0..attempts {
                    let locks = pick_locks(pid, round);
                    let mut args = vec![locks.len() as u64];
                    args.extend(locks.iter().map(|l| counters.off(l.0).to_word()));
                    let req = TryLockRequest { locks: &locks, thunk: incr, args: &args };
                    let m = if unknown_variant {
                        try_locks_unknown(ctx, space_ref, reg_ref, &mut tags, &mut scratch, req)
                    } else {
                        try_locks(ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req)
                    };
                    ctx.write(outcomes.off((pid * attempts + round) as u32), m.won as u64);
                }
            }
        })
        .run();
    report.assert_clean();
    assert!(report.completed, "workload did not finish within the step budget");

    let mut expected = vec![0u64; nlocks];
    let mut wins = 0u64;
    for pid in 0..nprocs {
        for round in 0..attempts {
            if heap.peek(outcomes.off((pid * attempts + round) as u32)) != 0 {
                wins += 1;
                for l in pick_locks(pid, round) {
                    expected[l.0 as usize] += 1;
                }
            }
        }
    }
    Outcome {
        counters: (0..nlocks).map(|l| cell::value(heap.peek(counters.off(l as u32)))).collect(),
        expected,
        wins,
        attempts_made: (nprocs * attempts) as u64,
    }
}

fn assert_exact(o: &Outcome, label: &str) {
    for (l, (&c, &e)) in o.counters.iter().zip(&o.expected).enumerate() {
        assert_eq!(c as u64, e, "{label}: lock {l} counter diverged (lost/phantom update)");
    }
}

#[test]
fn single_lock_two_processes_many_schedules() {
    for seed in 0..30 {
        let kind = (seed % 4) as usize;
        let o = run_counter_workload(2, 8, 1, 2, 1, seed, kind, false, |_pid, _round| {
            vec![LockId(0)]
        });
        assert_exact(&o, &format!("seed {seed} kind {kind}"));
        assert!(o.wins >= 1, "seed {seed}: someone must win sometimes");
    }
}

#[test]
fn single_lock_four_processes() {
    for seed in 0..12 {
        let o = run_counter_workload(4, 5, 1, 4, 1, 100 + seed, (seed % 4) as usize, false, |_p, _r| {
            vec![LockId(0)]
        });
        assert_exact(&o, &format!("seed {seed}"));
    }
}

#[test]
fn two_locks_per_attempt_dining_pairs() {
    // 4 processes, 4 locks in a ring: process i takes locks {i, i+1 mod 4}
    // (the dining philosophers conflict graph, κ = 2, L = 2).
    for seed in 0..12 {
        let o = run_counter_workload(
            4,
            4,
            4,
            2,
            2,
            200 + seed,
            (seed % 4) as usize,
            false,
            |pid, _round| vec![LockId(pid as u32), LockId(((pid + 1) % 4) as u32)],
        );
        assert_exact(&o, &format!("seed {seed}"));
    }
}

#[test]
fn random_overlapping_lock_sets() {
    // 4 processes over 3 locks; lock sets vary by round; contention on a
    // lock can reach 4.
    for seed in 0..10 {
        let o = run_counter_workload(
            4,
            4,
            3,
            4,
            2,
            300 + seed,
            (seed % 4) as usize,
            false,
            |pid, round| {
                let a = ((pid + round) % 3) as u32;
                let b = ((pid + round + 1) % 3) as u32;
                vec![LockId(a), LockId(b)]
            },
        );
        assert_exact(&o, &format!("seed {seed}"));
    }
}

#[test]
fn unknown_bounds_variant_preserves_mutual_exclusion() {
    for seed in 0..15 {
        let o = run_counter_workload(
            3,
            5,
            2,
            3,
            2,
            400 + seed,
            (seed % 4) as usize,
            true,
            |pid, round| {
                if (pid + round) % 2 == 0 {
                    vec![LockId(0), LockId(1)]
                } else {
                    vec![LockId(1)]
                }
            },
        );
        assert_exact(&o, &format!("seed {seed} (§6.2 variant)"));
    }
}

#[test]
fn disjoint_lock_sets_proceed_independently_and_exactly() {
    // Processes 0,1 fight over lock 0; processes 2,3 over lock 1. The
    // pairs never conflict; each lock's counter must match its own wins.
    for seed in 0..10 {
        let o = run_counter_workload(4, 5, 2, 2, 1, 500 + seed, 1, false, |pid, _round| {
            vec![LockId((pid / 2) as u32)]
        });
        assert_exact(&o, &format!("seed {seed}"));
        assert!(o.wins > 0);
    }
}

#[test]
fn solo_process_always_wins() {
    let o = run_counter_workload(1, 10, 1, 1, 1, 1, 0, false, |_p, _r| vec![LockId(0)]);
    assert_eq!(o.wins, 10, "uncontended attempts must always succeed");
    assert_eq!(o.attempts_made, 10);
    assert_exact(&o, "solo");
}

#[test]
fn solo_process_always_wins_unknown_variant() {
    let o = run_counter_workload(1, 10, 1, 1, 1, 2, 0, true, |_p, _r| vec![LockId(0)]);
    assert_eq!(o.wins, 10);
    assert_exact(&o, "solo unknown");
}

/// Real-threads stress of the contention-free hot path: the full tryLock
/// path under `RealConfig::fast()` (leased clock + tiered orderings +
/// reused scratch) with the classic lost-update detector. Every simulator
/// test runs Precise+SeqCst, so this is the only coverage of the weakened
/// orderings actually racing on hardware; the counter-equals-wins check
/// catches a mutual-exclusion violation (two attempts both deciding WON
/// and running their non-atomic increments concurrently), which the
/// philosophers meal check cannot (neighbors touch different cells).
#[test]
fn real_threads_tiered_hot_path_preserves_mutual_exclusion() {
    use wfl_core::Scratch;
    use wfl_runtime::real::{run_threads_with, RealConfig};

    let nprocs = 8;
    let rounds = 300;
    let mut registry = Registry::new();
    let incr = registry.register(IncrAll { max_locks: 1 });
    let heap = Heap::new(1 << 24);
    let space = LockSpace::create_root(&heap, 1, nprocs);
    let counter = heap.alloc_root(1);
    let wins_out = heap.alloc_root(nprocs);
    let cfg = LockConfig::new(nprocs, 1, 2).without_delays();
    let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
    let report = run_threads_with(&heap, nprocs, 77, None, RealConfig::fast(), |pid| {
        move |ctx: &Ctx| {
            let mut tags = TagSource::new(pid);
            let mut scratch = Scratch::new();
            let mut wins = 0u64;
            let args = [1u64, counter.to_word()];
            for _ in 0..rounds {
                let req = TryLockRequest { locks: &[LockId(0)], thunk: incr, args: &args };
                let m = try_locks(ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req);
                wins += m.won as u64;
            }
            ctx.heap().poke(wins_out.off(pid as u32), wins);
        }
    });
    report.assert_clean();
    let wins: u64 = (0..nprocs).map(|i| heap.peek(wins_out.off(i as u32))).sum();
    assert!(wins > 0, "some attempt must succeed");
    assert_eq!(
        cell::value(heap.peek(counter)) as u64,
        wins,
        "lost or phantom update: tiered hot path broke mutual exclusion"
    );
}

/// With delays enabled, safety still holds and attempts take the fixed
/// length.
#[test]
fn delays_enabled_fixed_attempt_length() {
    struct Incr1;
    impl Thunk for Incr1 {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let c = Addr::from_word(run.arg(0));
            let v = run.read(c);
            run.write(c, v + 1);
        }
        fn max_ops(&self) -> usize {
            2
        }
    }
    let mut registry = Registry::new();
    let incr = registry.register(Incr1);
    let heap = Heap::new(1 << 22);
    let space = LockSpace::create_root(&heap, 1, 2);
    let counter = heap.alloc_root(1);
    let steps_out = heap.alloc_root(8);
    let cfg = LockConfig::new(2, 1, 2);
    let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
    let report = SimBuilder::new(&heap, 2)
        .schedule(SeededRandom::new(2, 9))
        .max_steps(50_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for round in 0..3 {
                    let req = TryLockRequest {
                        locks: &[LockId(0)],
                        thunk: incr,
                        args: &[counter.to_word()],
                    };
                    let m = try_locks(ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req);
                    assert!(!m.delay_overrun, "c0/c1 too small for this workload");
                    ctx.write(steps_out.off((pid * 3 + round) as u32), m.steps);
                }
            }
        })
        .run();
    report.assert_clean();
    let expected = cfg.step_bound();
    for i in 0..6 {
        let s = heap.peek(steps_out.off(i));
        // Attempt length = T0 + T1 + a small constant tail (final reads).
        assert!(
            s >= expected && s <= expected + 8,
            "attempt {i} took {s} steps; expected ~{expected} (fixed length)"
        );
    }
}
