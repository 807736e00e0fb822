//! The delay budgets are sound: whatever the contention shape and the
//! schedule, no attempt's real work overruns `T0` before its reveal or
//! `T0 + T1` at its end, so every attempt takes exactly `T0 + T1` own steps
//! plus its final status read (Theorem 6.1 with the derived constants).
//! With combining, an attempt that claims a peer takes `combine_slack` more.

use wfl_core::{try_locks, LockConfig, LockId, LockSpace, Scratch, TryLockRequest};
use wfl_idem::{IdemRun, Registry, TagSource, Thunk};
use wfl_runtime::schedule::{Bursty, SeededRandom, Weighted};
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Addr, Ctx, Heap};

/// Increments the counter of every acquired lock; optionally spins `pad`
/// local steps first (a declared, longer critical section).
struct IncrAll {
    max_locks: usize,
    pad: u64,
}

impl Thunk for IncrAll {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        for _ in 0..self.pad {
            run.ctx().local_step();
        }
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
    fn max_steps(&self) -> u64 {
        wfl_idem::body_steps(self.max_ops()) + self.pad
    }
}

/// What one cell observed, over all attempts.
#[derive(Debug, Default)]
struct Cell {
    attempts: u64,
    overruns: u64,
    /// Attempts whose length differed from `T0 + T1 + 1`, plus
    /// `combine_slack` if they claimed a combining peer.
    off_length: u64,
    /// Attempts that claimed a combining peer.
    combining: u64,
    helped: u64,
    max_helped: u64,
}

/// `kappa` processes on `nlocks` locks, each attempt taking `l` random
/// distinct locks, under schedule family `sched`.
fn run_cell(
    kappa: usize,
    l: usize,
    nlocks: usize,
    pad: u64,
    combine: bool,
    sched: usize,
    seed: u64,
) -> Cell {
    const ROUNDS: usize = 6;
    let mut registry = Registry::new();
    let thunk = IncrAll { max_locks: l, pad };
    let mut cfg = LockConfig::new(kappa, l, 2 * l).with_cs_steps(thunk.max_steps());
    if combine {
        cfg = cfg.with_combining();
    }
    let incr = registry.register(thunk);
    let heap = Heap::new(1 << 22);
    let space = LockSpace::create_root(&heap, nlocks, kappa);
    let counters = heap.alloc_root(nlocks);
    // Per attempt: won, steps, overrun, helped, combined peers.
    let out = heap.alloc_root(kappa * ROUNDS * 5);
    let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
    let mut builder = SimBuilder::new(&heap, kappa)
        .seed(seed)
        .max_steps(400_000_000);
    builder = match sched {
        0 => builder.schedule(SeededRandom::new(kappa, seed)),
        1 => builder.schedule(Bursty::new(kappa, 40, seed)),
        _ => builder.schedule(Weighted::new(
            &(0..kappa as u64)
                .map(|i| 1 + 7 * (i % 3))
                .collect::<Vec<_>>(),
            seed,
        )),
    };
    let report = builder
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for round in 0..ROUNDS {
                    // A deterministic draw of `l` distinct locks.
                    let mut locks: Vec<LockId> = Vec::with_capacity(l);
                    while locks.len() < l {
                        let lock = LockId(ctx.rand_below(nlocks as u64) as u32);
                        if !locks.contains(&lock) {
                            locks.push(lock);
                        }
                    }
                    let mut args = vec![l as u64];
                    args.extend(locks.iter().map(|lk| counters.off(lk.0).to_word()));
                    let req = TryLockRequest {
                        locks: &locks,
                        thunk: incr,
                        args: &args,
                    };
                    let m = try_locks(
                        ctx,
                        space_ref,
                        reg_ref,
                        cfg_ref,
                        &mut tags,
                        &mut scratch,
                        req,
                    );
                    let at = out.off(((pid * ROUNDS + round) * 5) as u32);
                    let heap = ctx.heap();
                    heap.poke(at, m.won as u64);
                    heap.poke(at.off(1), m.steps);
                    heap.poke(at.off(2), m.delay_overrun as u64);
                    heap.poke(at.off(3), m.helped);
                    heap.poke(at.off(4), m.combined_peers);
                }
            }
        })
        .run();
    report.assert_clean();
    assert!(
        report.completed,
        "cell did not finish within the step budget"
    );
    let mut cell = Cell::default();
    let b = cfg.budget();
    for i in 0..kappa * ROUNDS {
        let at = out.off((i * 5) as u32);
        cell.attempts += 1;
        cell.overruns += heap.peek(at.off(2));
        let combined = heap.peek(at.off(4)) > 0;
        cell.combining += combined as u64;
        let len = b.t0() + b.t1() + combined as u64 * b.combine_slack + 1;
        cell.off_length += (heap.peek(at.off(1)) != len) as u64;
        let helped = heap.peek(at.off(3));
        cell.helped += helped;
        cell.max_helped = cell.max_helped.max(helped);
    }
    cell
}

#[test]
fn no_attempt_overruns_its_delays_under_any_schedule() {
    let mut helped = 0;
    let mut max_helped = 0;
    let mut combining = 0;
    for (kappa, l, nlocks) in [
        (2, 1, 1),
        (3, 1, 1),
        (4, 1, 1),
        (2, 2, 2),
        (3, 2, 3),
        (4, 3, 4),
    ] {
        for sched in 0..3 {
            for seed in [5u64, 17] {
                for (pad, combine) in [(0, false), (0, true), (150, false)] {
                    let label = format!("κ={kappa} L={l} locks={nlocks} sched={sched} seed={seed} pad={pad} combine={combine}");
                    let c = run_cell(kappa, l, nlocks, pad, combine, sched, seed);
                    assert_eq!(c.overruns, 0, "{label}: delay overrun");
                    assert_eq!(
                        c.off_length, 0,
                        "{label}: an attempt was not T0 + T1 + 1 steps (+ combine_slack after a claim)"
                    );
                    combining += c.combining;
                    helped += c.helped;
                    max_helped = max_helped.max(c.max_helped);
                }
            }
        }
    }
    // The sweep reached the helping phase's worst shapes: attempts that
    // ran several revealed competitors to completion before inserting.
    assert!(helped > 0, "no attempt ever helped");
    assert!(
        max_helped >= 2,
        "no attempt helped more than one competitor"
    );
    // Both attempt lengths of a combining cell were checked.
    assert!(combining > 0, "no attempt claimed a combining peer");
}

#[test]
fn contention_above_kappa_is_reported_as_an_overrun() {
    // Three processes on one lock. With κ = 3 the delays cover every
    // attempt; with κ = 1 they budget no helping at all, so an attempt that
    // finds a revealed competitor overruns T0 — and says so.
    assert_eq!(overruns_on_one_lock(3, LockConfig::new(3, 1, 2)), 0);
    assert!(overruns_on_one_lock(3, LockConfig::new(1, 1, 2)) > 0);
}

/// `procs` processes making 8 attempts each on one lock (active set sized
/// for all of them) under `cfg`; returns the attempts that overran.
fn overruns_on_one_lock(procs: usize, cfg: LockConfig) -> u64 {
    let mut registry = Registry::new();
    let incr = registry.register(IncrAll {
        max_locks: 1,
        pad: 0,
    });
    let heap = Heap::new(1 << 20);
    let space = LockSpace::create_root(&heap, 1, procs);
    let counter = heap.alloc_root(1);
    let overruns = heap.alloc_root(procs);
    let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
    let report = SimBuilder::new(&heap, procs)
        .schedule(SeededRandom::new(procs, 3))
        .max_steps(100_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                for _ in 0..8 {
                    let args = [1, counter.to_word()];
                    let req = TryLockRequest {
                        locks: &[LockId(0)],
                        thunk: incr,
                        args: &args,
                    };
                    let m = try_locks(
                        ctx,
                        space_ref,
                        reg_ref,
                        cfg_ref,
                        &mut tags,
                        &mut scratch,
                        req,
                    );
                    let at = overruns.off(pid as u32);
                    ctx.heap()
                        .poke(at, ctx.heap().peek(at) + m.delay_overrun as u64);
                }
            }
        })
        .run();
    report.assert_clean();
    (0..procs as u32).map(|p| heap.peek(overruns.off(p))).sum()
}
