//! Cross-crate integration tests through the facade: the full stack
//! (runtime simulator → idempotence → active sets → lock algorithm →
//! workloads) exercised end to end.

use wait_free_locks::baselines::{LockAlgo, WflKnown};
use wait_free_locks::workloads::bank::Bank;
use wait_free_locks::workloads::philosophers::Table;
use wait_free_locks::{
    cell, lock_and_run, Addr, Bursty, Ctx, Heap, IdemRun, LockConfig, LockId, LockSpace, Registry,
    Scratch, SeededRandom, SimBuilder, StallWindow, Stalls, TagSource, Thunk, TryLockRequest,
};

struct Incr;
impl Thunk for Incr {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = Addr::from_word(run.arg(0));
        let v = run.read(c);
        run.write(c, v + 1);
    }
    fn max_ops(&self) -> usize {
        2
    }
}

/// The facade's quickstart flow: retry-until-success increments under one
/// lock, exact counting.
#[test]
fn facade_lock_and_run_counts_exactly() {
    let mut registry = Registry::new();
    let incr = registry.register(Incr);
    let heap = Heap::new(1 << 22);
    let space = LockSpace::create_root(&heap, 1, 3);
    let counter = heap.alloc_root(1);
    let cfg = LockConfig::new(3, 1, 2);
    let (space, registry) = (&space, &registry);
    let report = SimBuilder::new(&heap, 3)
        .schedule(SeededRandom::new(3, 5))
        .max_steps(200_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for _ in 0..5 {
                    let req = TryLockRequest {
                        locks: &[LockId(0)],
                        thunk: incr,
                        args: &[counter.to_word()],
                    };
                    lock_and_run(ctx, space, registry, &cfg, &mut tags, &mut scratch, req);
                }
            }
        })
        .run();
    report.assert_clean();
    assert_eq!(cell::value(heap.peek(counter)), 15);
}

/// Crash a philosopher mid-run; its neighbors must keep making progress
/// (wait-freedom via helping), and all meal counters stay exact.
#[test]
fn crashed_philosopher_does_not_starve_neighbors() {
    for crash_time in [500u64, 2_000, 10_000] {
        let n = 4;
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 24);
        let table = Table::create_root(&heap, &mut registry, n);
        let space = LockSpace::create_root(&heap, n, 2);
        let algo = WflKnown {
            space: &space,
            registry: &registry,
            cfg: LockConfig::new(2, 2, 2),
        };
        let (table_ref, algo_ref) = (&table, &algo);
        let wins = heap.alloc_root(n);
        let report = SimBuilder::new(&heap, n)
            .schedule(Stalls::new(
                wait_free_locks::RoundRobin::new(n),
                vec![StallWindow::crash(0, crash_time)],
            ))
            .max_steps(100_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    let mut w = 0u64;
                    let rounds = if pid == 0 { 10_000 } else { 8 };
                    for _ in 0..rounds {
                        if ctx.stop_requested() {
                            break;
                        }
                        if table_ref.attempt_eat(ctx, algo_ref, &mut tags, &mut scratch, pid).won {
                            w += 1;
                        }
                        ctx.write(wins.off(pid as u32), w);
                    }
                }
            })
            .run();
        assert!(report.panics.is_empty(), "crash {crash_time}: {:?}", report.panics);
        // Meal counters never exceed recorded wins + 1 (the crashed
        // philosopher may have one in-flight win recorded by helpers but
        // not yet written to its wins cell).
        for i in 0..n {
            let meals = table.meals_eaten(&heap, i) as u64;
            let w = heap.peek(wins.off(i as u32));
            assert!(
                meals == w || (i == 0 && meals == w + 1),
                "crash {crash_time}: philosopher {i}: meals {meals} vs wins {w}"
            );
        }
        // Neighbors made progress.
        for i in 1..n {
            assert!(
                heap.peek(wins.off(i as u32)) > 0,
                "crash {crash_time}: philosopher {i} starved"
            );
        }
    }
}

/// Bank conservation under the bursty adversarial schedule, with delays.
#[test]
fn bank_conserves_money_with_delays_and_bursty_schedule() {
    let nprocs = 3;
    let accounts = 4;
    let mut registry = Registry::new();
    let heap = Heap::new(1 << 24);
    let bank = Bank::create_root(&heap, &mut registry, accounts, 500);
    let space = LockSpace::create_root(&heap, accounts, nprocs);
    let algo = WflKnown {
        space: &space,
        registry: &registry,
        cfg: LockConfig::new(nprocs, 2, 4),
    };
    let initial = bank.total(&heap);
    let (bank_ref, algo_ref) = (&bank, &algo);
    let report = SimBuilder::new(&heap, nprocs)
        .seed(13)
        .schedule(Bursty::new(nprocs, 50, 13))
        .max_steps(400_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for _ in 0..8 {
                    let a = ctx.rand_below(accounts as u64) as usize;
                    let mut b = ctx.rand_below(accounts as u64) as usize;
                    if a == b {
                        b = (b + 1) % accounts;
                    }
                    bank_ref.attempt_transfer(ctx, algo_ref, &mut tags, &mut scratch, a, b, 25);
                }
            }
        })
        .run();
    report.assert_clean();
    assert_eq!(bank.total(&heap), initial);
}

/// The unknown-bounds variant works through the facade too.
#[test]
fn unknown_bounds_end_to_end() {
    use wait_free_locks::try_locks_unknown;
    let mut registry = Registry::new();
    let incr = registry.register(Incr);
    let heap = Heap::new(1 << 22);
    let space = LockSpace::create_root(&heap, 2, 3);
    let counter = heap.alloc_root(1);
    let (space, registry) = (&space, &registry);
    let wins = heap.alloc_root(3);
    let report = SimBuilder::new(&heap, 3)
        .schedule(SeededRandom::new(3, 9))
        .max_steps(200_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                let mut w = 0u64;
                for _ in 0..6 {
                    let req = TryLockRequest {
                        locks: &[LockId(0), LockId(1)],
                        thunk: incr,
                        args: &[counter.to_word()],
                    };
                    if try_locks_unknown(ctx, space, registry, &mut tags, &mut scratch, req).won {
                        w += 1;
                    }
                }
                ctx.write(wins.off(pid as u32), w);
            }
        })
        .run();
    report.assert_clean();
    let total: u64 = (0..3).map(|i| heap.peek(wins.off(i))).sum();
    assert_eq!(cell::value(heap.peek(counter)) as u64, total);
    assert!(total >= 1);
}

/// Mixed algorithms coexisting on one heap (separate lock structures):
/// the paper's lock and a baseline each keep their own invariants.
#[test]
fn wfl_and_baseline_coexist_on_one_heap() {
    use wait_free_locks::baselines::TspLock;
    let mut registry = Registry::new();
    let incr = registry.register(Incr);
    let heap = Heap::new(1 << 24);
    let space = LockSpace::create_root(&heap, 1, 2);
    let tsp = TspLock::create_root(&heap, &registry, 1);
    let c_wfl = heap.alloc_root(1);
    let c_tsp = heap.alloc_root(1);
    let cfg = LockConfig::new(2, 1, 2).without_delays();
    let wfl = WflKnown { space: &space, registry: &registry, cfg };
    let (wfl_ref, tsp_ref) = (&wfl, &tsp);
    let report = SimBuilder::new(&heap, 4)
        .schedule(SeededRandom::new(4, 33))
        .max_steps(200_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for _ in 0..5 {
                    if pid < 2 {
                        let req = TryLockRequest {
                            locks: &[LockId(0)],
                            thunk: incr,
                            args: &[c_wfl.to_word()],
                        };
                        // Retry until success so the count is deterministic.
                        while !wfl_ref.attempt(ctx, &mut tags, &mut scratch, &req).won {}
                    } else {
                        let req = TryLockRequest {
                            locks: &[LockId(0)],
                            thunk: incr,
                            args: &[c_tsp.to_word()],
                        };
                        tsp_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                    }
                }
            }
        })
        .run();
    report.assert_clean();
    assert_eq!(cell::value(heap.peek(c_wfl)), 10);
    assert_eq!(cell::value(heap.peek(c_tsp)), 10);
}
