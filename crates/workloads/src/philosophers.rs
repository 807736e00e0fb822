//! Dining philosophers — the paper's running example.
//!
//! `n` philosophers around a table, one chopstick (lock) between each
//! adjacent pair. Eating = a tryLock on both adjacent chopsticks whose
//! critical section increments the philosopher's meal counter (protected
//! by both chopsticks, since only neighbors can race on it). With the
//! paper's algorithm each eating attempt succeeds with probability at
//! least 1/4 (`κ = L = 2`) and takes O(1) steps, independent of `n` —
//! experiment E4.

use crate::algo::{AlgoKind, AlgoSpec};
use crate::driver::{drive_epochs, EpochWorkload, ExecMode};
use crate::outcomes::{HarnessReport, Outcomes};
use wfl_baselines::LockAlgo;
use wfl_core::{AttemptMetrics, LockId, Scratch, TryLockRequest};
use wfl_idem::{IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_runtime::{Addr, Ctx, Heap};

/// The eating critical section: one read-modify-write on the meal cell.
pub struct EatThunk;

impl Thunk for EatThunk {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let meals = Addr::from_word(run.arg(0));
        let v = run.read(meals);
        run.write(meals, v + 1);
    }
    fn max_ops(&self) -> usize {
        2
    }
}

/// Setup for a table of `n` philosophers: chopstick locks are ids
/// `0..n`, `meals` is one tagged cell per philosopher.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// Number of philosophers (= number of chopsticks).
    pub n: usize,
    /// Base address of the per-philosopher meal counters.
    pub meals: Addr,
    /// The registered eating thunk.
    pub eat: ThunkId,
}

impl Table {
    /// Registers the thunk and allocates the meal counters.
    pub fn create_root(heap: &Heap, registry: &mut Registry, n: usize) -> Table {
        Table::re_root(heap, n, registry.register(EatThunk))
    }

    /// (Re-)allocates the table's heap roots against a pre-registered eat
    /// thunk — the epoch-lifecycle hook: thunks register once per run,
    /// while heap roots are re-created after every quiescent reset.
    pub fn re_root(heap: &Heap, n: usize, eat: ThunkId) -> Table {
        assert!(n >= 2, "need at least two philosophers");
        Table { n, meals: heap.alloc_root(n), eat }
    }

    /// The two chopsticks philosopher `i` needs.
    pub fn chopsticks(&self, i: usize) -> [LockId; 2] {
        [LockId(i as u32), LockId(((i + 1) % self.n) as u32)]
    }

    /// One eating attempt by philosopher `i` under `algo`; returns whether
    /// the philosopher ate, and the step cost.
    pub fn attempt_eat<A: LockAlgo + ?Sized>(
        &self,
        ctx: &Ctx<'_>,
        algo: &A,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        i: usize,
    ) -> AttemptMetrics {
        let locks = self.chopsticks(i);
        let args = [self.meals.off(i as u32).to_word()];
        let req = TryLockRequest { locks: &locks, thunk: self.eat, args: &args };
        algo.attempt(ctx, tags, scratch, &req)
    }

    /// Meals philosopher `i` has eaten (uncounted inspection).
    pub fn meals_eaten(&self, heap: &Heap, i: usize) -> u32 {
        wfl_idem::cell::value(heap.peek(self.meals.off(i as u32)))
    }
}

/// The philosophers workload behind the epoch hooks.
struct PhilWl {
    n: usize,
    eat: ThunkId,
}

impl EpochWorkload for PhilWl {
    type Roots = Table;
    type Local = ();

    fn re_root(&self, heap: &Heap, _epoch: usize) -> Table {
        Table::re_root(heap, self.n, self.eat)
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &Table) {}

    fn round(
        &self,
        ctx: &Ctx<'_>,
        table: &Table,
        _local: &mut (),
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        _round: usize,
        _slot: usize,
    ) -> AttemptMetrics {
        let out = table.attempt_eat(ctx, algo, tags, scratch, pid);
        let think = ctx.rand_below(24);
        for _ in 0..think {
            ctx.local_step();
        }
        out
    }

    fn check(&self, heap: &Heap, table: &Table, rec: &Outcomes) -> (HarnessReport, bool) {
        let report = rec.aggregate(heap, |_pid, _round| {});
        let safe = (0..self.n).all(|i| table.meals_eaten(heap, i) as u64 == report.per_pid[i].0);
        (report, safe)
    }
}

/// Runs the dining-philosophers workload on either backend: `n`
/// philosophers, each making up to `attempts` eating attempts per epoch
/// with random think time. Safety check (every epoch): each philosopher's
/// meal counter must equal their recorded wins.
pub fn run_philosophers(
    n: usize,
    attempts: usize,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    let mut registry = Registry::new();
    let eat = registry.register(EatThunk);
    let heap = Heap::new(heap_words);
    let aspec = AlgoSpec { aset: 3, ..AlgoSpec::new(algo, n, n, 2, 2, &registry) };
    let wl = PhilWl { n, eat };
    drive_epochs(&heap, &registry, aspec, n, seed, attempts, mode, &wl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_baselines::WflKnown;
    use wfl_core::{LockConfig, LockSpace};
    use wfl_runtime::schedule::SeededRandom;
    use wfl_runtime::sim::SimBuilder;

    #[test]
    fn meals_match_successful_attempts() {
        for seed in 0..8 {
            let mut registry = Registry::new();
            let heap = Heap::new(1 << 22);
            let n = 4;
            let table = Table::create_root(&heap, &mut registry, n);
            let space = LockSpace::create_root(&heap, n, 2);
            let algo = WflKnown {
                space: &space,
                registry: &registry,
                cfg: LockConfig::new(2, 2, 2).without_delays(),
            };
            let wins = heap.alloc_root(n);
            let (algo_ref, table_ref) = (&algo, &table);
            let report = SimBuilder::new(&heap, n)
                .schedule(SeededRandom::new(n, seed))
                .max_steps(50_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = Scratch::new();
                        let mut w = 0u64;
                        for _ in 0..6 {
                            if table_ref.attempt_eat(ctx, algo_ref, &mut tags, &mut scratch, pid).won {
                                w += 1;
                            }
                            // Think for a random while.
                            let think = ctx.rand_below(32);
                            for _ in 0..think {
                                ctx.local_step();
                            }
                        }
                        ctx.write(wins.off(pid as u32), w);
                    }
                })
                .run();
            report.assert_clean();
            for i in 0..n {
                assert_eq!(
                    table.meals_eaten(&heap, i) as u64,
                    heap.peek(wins.off(i as u32)),
                    "seed {seed}: philosopher {i} meal count diverged"
                );
            }
        }
    }

    #[test]
    fn chopstick_layout_wraps_around() {
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 10);
        let table = Table::create_root(&heap, &mut registry, 5);
        assert_eq!(table.chopsticks(0), [LockId(0), LockId(1)]);
        assert_eq!(table.chopsticks(4), [LockId(4), LockId(0)]);
    }
}
