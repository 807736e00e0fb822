//! The random-conflict workload: every process repeatedly locks `L`
//! locks drawn uniformly from a shared pool and increments a counter per
//! lock — the paper's generic contention model, and the workload behind
//! most of the experiment tables.

use crate::algo::{AlgoKind, AlgoSpec};
use crate::driver::{drive_epochs, EpochWorkload, ExecMode};
use crate::outcomes::{HarnessReport, Outcomes};
use wfl_baselines::{AttemptOutcome, LockAlgo};
use wfl_core::{LockId, Scratch, SpaceLayout, TryLockRequest};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_runtime::rng::Pcg;
use wfl_runtime::{Addr, Ctx, Heap};

/// Critical section used by the random-conflict workload: increment the
/// counter of every acquired lock (read+write per counter), optionally
/// preceded by `cs_work` padding steps of pure local computation.
pub struct TouchAll {
    /// Maximum locks per attempt (sizes the op log).
    pub max_locks: usize,
    /// Local padding steps executed while the locks are held, before the
    /// counter increments. Models a non-trivial critical section: a
    /// blocking holder occupies its locks for this long, while under wfl
    /// the padding is re-executed by whichever process drives the decided
    /// attempt (helpers pay the work, the op log stays idempotent).
    pub cs_work: u64,
}

impl Thunk for TouchAll {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        for _ in 0..self.cs_work {
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
        wfl_idem::body_steps(self.max_ops()) + self.cs_work
    }
}

/// Allocation-free deterministic lock-set draws: `L` distinct locks,
/// uniform without replacement, as a pure function of `(seed, pid, round)`.
///
/// The draw is a partial Fisher–Yates shuffle over a reusable pool; the
/// swaps are undone after each draw so the mapping is independent of call
/// history (the aggregation pass recomputes the same sets from a fresh
/// picker). In the driver hot loop this replaces a fresh `Vec` plus an
/// O(L²) `contains` scan per attempt.
pub struct LockPicker {
    pool: Vec<u32>,
    swaps: Vec<u32>,
}

impl LockPicker {
    /// A picker over locks `0..nlocks`.
    pub fn new(nlocks: usize) -> LockPicker {
        LockPicker { pool: (0..nlocks as u32).collect(), swaps: Vec::new() }
    }

    /// Writes the sorted lock set for `(seed, pid, round)` into `out`.
    pub fn pick_into(&mut self, seed: u64, pid: usize, round: usize, l: usize, out: &mut Vec<LockId>) {
        let n = self.pool.len();
        assert!(l <= n, "cannot draw {l} distinct locks from {n}");
        let mut rng = Pcg::new(seed ^ 0xD1CE, ((pid as u64) << 32) | round as u64);
        self.swaps.clear();
        for i in 0..l {
            let j = i + rng.below((n - i) as u64) as usize;
            self.pool.swap(i, j);
            self.swaps.push(j as u32);
        }
        out.clear();
        out.extend(self.pool[..l].iter().map(|&c| LockId(c)));
        // Undo the swaps (reverse order) so the pool is the identity again:
        // the mapping must depend only on (seed, pid, round).
        for i in (0..l).rev() {
            self.pool.swap(i, self.swaps[i] as usize);
        }
        out.sort_unstable();
    }
}

/// Deterministic lock-set choice for `(seed, pid, round)`: `L` distinct
/// locks, uniform without replacement, sorted. Convenience wrapper around
/// [`LockPicker`] for cold paths and tests.
pub fn pick_locks(seed: u64, pid: usize, round: usize, nlocks: usize, l: usize) -> Vec<LockId> {
    let mut picker = LockPicker::new(nlocks);
    let mut out = Vec::with_capacity(l);
    picker.pick_into(seed, pid, round, l, &mut out);
    out
}

/// Workload shape for [`run_random_conflict`].
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Number of processes.
    pub nprocs: usize,
    /// Attempts per process (in timed real runs: an upper bound, or with
    /// epochs the per-epoch batch size base).
    pub attempts_per_proc: usize,
    /// Number of locks in the system.
    pub nlocks: usize,
    /// Locks per attempt (`L`).
    pub locks_per_attempt: usize,
    /// Maximum random think time (local steps) between attempts.
    pub think_max: u64,
    /// Critical-section padding steps (see [`TouchAll::cs_work`]).
    /// Default 0: the historical read+write-only critical section.
    pub cs_work: u64,
    /// Workload + schedule seed.
    pub seed: u64,
    /// Heap size in words.
    pub heap_words: usize,
    /// Memory layout of the lock space and baseline lock words (default:
    /// padded + sharded; `SpaceLayout::packed_unified()` is the historical
    /// layout for the E13 A/B cells). Pure address arithmetic — sim replays
    /// are identical under every layout.
    pub layout: SpaceLayout,
}

impl SimSpec {
    /// A reasonable default spec; override fields as needed.
    pub fn new(nprocs: usize, attempts_per_proc: usize, nlocks: usize, locks_per_attempt: usize) -> SimSpec {
        SimSpec {
            nprocs,
            attempts_per_proc,
            nlocks,
            locks_per_attempt,
            think_max: 16,
            cs_work: 0,
            seed: 1,
            heap_words: 1 << 23,
            layout: SpaceLayout::default(),
        }
    }
}

/// The random-conflict workload behind the epoch hooks.
struct ConflictWl {
    spec: SimSpec,
    touch: ThunkId,
}

impl EpochWorkload for ConflictWl {
    type Roots = Addr; // counters base
    type Local = (LockPicker, Vec<LockId>, Vec<u64>);

    fn re_root(&self, heap: &Heap, _epoch: usize) -> Addr {
        heap.alloc_root(self.spec.nlocks)
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &Addr) -> Self::Local {
        (
            LockPicker::new(self.spec.nlocks),
            Vec::with_capacity(self.spec.locks_per_attempt),
            Vec::with_capacity(1 + self.spec.locks_per_attempt),
        )
    }

    fn round(
        &self,
        ctx: &Ctx<'_>,
        counters: &Addr,
        (picker, locks, args): &mut Self::Local,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        _slot: usize,
    ) -> AttemptOutcome {
        let s = &self.spec;
        picker.pick_into(s.seed, pid, round, s.locks_per_attempt, locks);
        args.clear();
        args.push(locks.len() as u64);
        args.extend(locks.iter().map(|l| counters.off(l.0).to_word()));
        let req = TryLockRequest { locks, thunk: self.touch, args };
        let out = algo.attempt(ctx, tags, scratch, &req);
        if s.think_max > 0 {
            let think = ctx.rand_below(s.think_max);
            for _ in 0..think {
                ctx.local_step();
            }
        }
        out
    }

    fn check(&self, heap: &Heap, counters: &Addr, rec: &Outcomes) -> (HarnessReport, bool) {
        let s = &self.spec;
        let mut expected = vec![0u64; s.nlocks];
        let mut picker = LockPicker::new(s.nlocks);
        let mut locks: Vec<LockId> = Vec::with_capacity(s.locks_per_attempt);
        let report = rec.aggregate(heap, |pid, round| {
            picker.pick_into(s.seed, pid, round, s.locks_per_attempt, &mut locks);
            for l in &locks {
                expected[l.0 as usize] += 1;
            }
        });
        let safe = (0..s.nlocks)
            .all(|l| cell::value(heap.peek(counters.off(l as u32))) as u64 == expected[l]);
        (report, safe)
    }
}

/// Runs the random-conflict workload under the given algorithm on either
/// backend and returns aggregated metrics. Safety check (every epoch):
/// each lock's counter must equal the number of *recorded* winning
/// attempts covering it (recomputed from the deterministic
/// `(seed, pid, round)` lock sets).
pub fn run_random_conflict(spec: &SimSpec, algo: AlgoKind, mode: &ExecMode) -> HarnessReport {
    assert!(spec.locks_per_attempt <= spec.nlocks);
    let mut registry = Registry::new();
    let touch = registry.register(TouchAll { max_locks: spec.locks_per_attempt, cs_work: spec.cs_work });
    let heap = Heap::new(spec.heap_words);
    let l = spec.locks_per_attempt;
    let aspec = AlgoSpec {
        layout: spec.layout,
        ..AlgoSpec::new(algo, spec.nlocks, spec.nprocs, l, 2 * l, &registry)
    };
    let wl = ConflictWl { spec: *spec, touch };
    drive_epochs(&heap, &registry, aspec, spec.nprocs, spec.seed, spec.attempts_per_proc, mode, &wl)
}
