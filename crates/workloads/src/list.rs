//! A sorted linked list updated through fine-grained two-lock critical
//! sections — the concurrent-data-structure use case of §1 (hand-over-hand
//! locked lists in the style of Heller et al.'s lazy list).
//!
//! Nodes live in a fixed pool; node `i` is protected by lock id `i`. An
//! insert/delete optimistically traverses the list with plain reads
//! (no locks), then issues a tryLock on `{pred, curr}` whose critical
//! section *re-validates* the optimistic observation before splicing —
//! validation failure means the critical section does nothing and the
//! caller retraverses, exactly like validate-then-act lazy lists. The
//! thunk's control flow depends only on logged reads, so helpers replay it
//! deterministically.
//!
//! Layout per node: `next` (tagged cell holding the pool index + 1, 0 =
//! tail/nil) and `key` (immutable after allocation). Node 0 is the head
//! sentinel with key −∞.

use crate::algo::{AlgoKind, AlgoSpec};
use crate::driver::{drive_epochs, EpochWorkload, ExecMode};
use crate::outcomes::{HarnessReport, Outcomes};
use wfl_baselines::LockAlgo;
use wfl_core::{AttemptMetrics, LockId, Scratch, TryLockRequest};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_runtime::{Addr, Ctx, Heap};

/// Insert splice: validate `pred.next == curr && pred unmarked`, then
/// `new.next = curr; pred.next = new`. Returns (via the result cell)
/// 1 on success, 0 on validation failure.
pub struct InsertThunk;

impl Thunk for InsertThunk {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let pred_next = Addr::from_word(run.arg(0));
        let expect_curr = run.arg(1) as u32;
        let new_next = Addr::from_word(run.arg(2));
        let new_idx = run.arg(3) as u32;
        let result = Addr::from_word(run.arg(4));
        let observed = run.read(pred_next);
        if observed == expect_curr {
            run.write(new_next, expect_curr);
            run.write(pred_next, new_idx);
            run.write(result, 1);
        } else {
            run.write(result, 0);
        }
    }
    fn max_ops(&self) -> usize {
        4
    }
}

/// Delete splice: validate `pred.next == curr && curr.next == succ`, then
/// `pred.next = succ`. Result cell: 1 on success, 0 on validation failure.
pub struct DeleteThunk;

impl Thunk for DeleteThunk {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let pred_next = Addr::from_word(run.arg(0));
        let expect_curr = run.arg(1) as u32;
        let curr_next = Addr::from_word(run.arg(2));
        let expect_succ = run.arg(3) as u32;
        let result = Addr::from_word(run.arg(4));
        let o1 = run.read(pred_next);
        let o2 = run.read(curr_next);
        if o1 == expect_curr && o2 == expect_succ {
            run.write(pred_next, expect_succ);
            run.write(result, 1);
        } else {
            run.write(result, 0);
        }
    }
    fn max_ops(&self) -> usize {
        4
    }
}

/// A sorted singly-linked list over a fixed node pool.
#[derive(Debug, Clone, Copy)]
pub struct SortedList {
    nodes: Addr,
    pool: usize,
    insert: ThunkId,
    delete: ThunkId,
}

const NODE_WORDS: u32 = 2; // [next, key]

impl SortedList {
    /// Creates the node pool (node 0 = head sentinel). Locks: use a
    /// `LockSpace` with at least `pool` locks; node `i` ↔ lock `i`.
    pub fn create_root(heap: &Heap, registry: &mut Registry, pool: usize) -> SortedList {
        let insert = registry.register(InsertThunk);
        let delete = registry.register(DeleteThunk);
        SortedList::re_root(heap, pool, insert, delete)
    }

    /// (Re-)allocates the node pool against pre-registered splice thunks —
    /// the epoch-lifecycle hook (thunks register once per run, heap roots
    /// are re-created after every quiescent reset).
    pub fn re_root(heap: &Heap, pool: usize, insert: ThunkId, delete: ThunkId) -> SortedList {
        assert!(pool >= 2, "pool must hold the sentinel plus data nodes");
        let nodes = heap.alloc_root(pool * NODE_WORDS as usize);
        // Head sentinel: next = nil (0), key unused.
        SortedList { nodes, pool, insert, delete }
    }

    fn next_addr(&self, idx: u32) -> Addr {
        self.nodes.off(idx * NODE_WORDS)
    }

    fn key_addr(&self, idx: u32) -> Addr {
        self.nodes.off(idx * NODE_WORDS + 1)
    }

    /// Optimistic traversal: find `(pred, curr)` with `key(pred) < key ≤
    /// key(curr)` (curr = 0 encodes nil). Plain reads, no locks.
    fn search(&self, ctx: &Ctx<'_>, key: u32) -> (u32, u32) {
        let mut pred = 0u32; // head sentinel
        let mut curr = cell::value(ctx.read(self.next_addr(0)));
        while curr != 0 {
            let ckey = ctx.read(self.key_addr(curr)) as u32;
            if ckey >= key {
                break;
            }
            pred = curr;
            curr = cell::value(ctx.read(self.next_addr(curr)));
        }
        (pred, curr)
    }

    /// Whether `key` is present (optimistic read-only membership).
    pub fn contains(&self, ctx: &Ctx<'_>, key: u32) -> bool {
        let (_pred, curr) = self.search(ctx, key);
        curr != 0 && ctx.read(self.key_addr(curr)) as u32 == key
    }

    /// Inserts `key` using the free pool slot `node_idx` (caller-managed
    /// slot ownership; slots are never reused within a run). Retries
    /// traversal+tryLock until the splice validates, `max_attempts`
    /// attempts are spent, or the driver requests a cooperative stop.
    /// Returns `Some(true)` on insert, `Some(false)` if the key was
    /// already present, `None` if attempts ran out (or the stop flag cut
    /// the retry loop short); on `None` the key is guaranteed absent.
    #[allow(clippy::too_many_arguments)]
    pub fn insert<A: LockAlgo + ?Sized>(
        &self,
        ctx: &Ctx<'_>,
        algo: &A,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        result_cell: Addr,
        node_idx: u32,
        key: u32,
        max_attempts: u64,
    ) -> Option<bool> {
        assert!((node_idx as usize) < self.pool && node_idx != 0);
        // Publish the key (private slot; plain write).
        ctx.write(self.key_addr(node_idx), key as u64);
        for _ in 0..max_attempts {
            let (pred, curr) = self.search(ctx, key);
            if curr != 0 && ctx.read(self.key_addr(curr)) as u32 == key {
                return Some(false);
            }
            let locks = [LockId(pred), LockId(node_idx)];
            let args = [
                self.next_addr(pred).to_word(),
                curr as u64,
                self.next_addr(node_idx).to_word(),
                node_idx as u64,
                result_cell.to_word(),
            ];
            let req = TryLockRequest { locks: &locks, thunk: self.insert, args: &args };
            if algo.attempt(ctx, tags, scratch, &req).won && cell::value(ctx.read(result_cell)) == 1
            {
                return Some(true);
            }
            // Lost the tryLock or validation failed: retraverse and retry
            // (unless the driver is draining).
            if ctx.stop_requested() {
                return None;
            }
        }
        None
    }

    /// Deletes `key`. `Some(true)` on delete, `Some(false)` if absent,
    /// `None` if attempts ran out (or the stop flag cut the retry loop
    /// short).
    #[allow(clippy::too_many_arguments)]
    pub fn delete<A: LockAlgo + ?Sized>(
        &self,
        ctx: &Ctx<'_>,
        algo: &A,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        result_cell: Addr,
        key: u32,
        max_attempts: u64,
    ) -> Option<bool> {
        for _ in 0..max_attempts {
            let (pred, curr) = self.search(ctx, key);
            if curr == 0 || ctx.read(self.key_addr(curr)) as u32 != key {
                return Some(false);
            }
            let succ = cell::value(ctx.read(self.next_addr(curr)));
            let locks = [LockId(pred), LockId(curr)];
            let args = [
                self.next_addr(pred).to_word(),
                curr as u64,
                self.next_addr(curr).to_word(),
                succ as u64,
                result_cell.to_word(),
            ];
            let req = TryLockRequest { locks: &locks, thunk: self.delete, args: &args };
            if algo.attempt(ctx, tags, scratch, &req).won && cell::value(ctx.read(result_cell)) == 1
            {
                return Some(true);
            }
            if ctx.stop_requested() {
                return None;
            }
        }
        None
    }

    /// Reads the list contents at quiescence (uncounted inspection).
    pub fn snapshot(&self, heap: &Heap) -> Vec<u32> {
        let mut out = Vec::new();
        let mut curr = cell::value(heap.peek(self.next_addr(0)));
        while curr != 0 {
            out.push(heap.peek(self.key_addr(curr)) as u32);
            curr = cell::value(heap.peek(self.next_addr(curr)));
        }
        out
    }
}

/// Per-operation tryLock attempt budget for the list workload (each retry
/// draws one tag, so `keys_per_epoch * LIST_ATTEMPT_BUDGET` must stay
/// inside the per-process tag space of one epoch).
const LIST_ATTEMPT_BUDGET: u64 = 64;

/// The sorted-list workload behind the epoch hooks. Each epoch builds a
/// fresh list; pool slots and keys are keyed off the *in-epoch* slot, so
/// every epoch inserts the same key set into its own lifetime.
struct ListWl {
    nprocs: usize,
    keys_per_epoch: usize,
    insert_thunk: ThunkId,
    delete_thunk: ThunkId,
}

impl ListWl {
    /// Interleave keys across processes so splice points genuinely contend.
    fn key_of(&self, pid: usize, slot: usize) -> u32 {
        (1 + slot * self.nprocs + pid) as u32 * 10 + 3
    }

    fn node_of(&self, pid: usize, slot: usize) -> u32 {
        (1 + pid * self.keys_per_epoch + slot) as u32
    }
}

impl EpochWorkload for ListWl {
    type Roots = SortedList;
    type Local = Addr; // per-worker result cell

    fn re_root(&self, heap: &Heap, _epoch: usize) -> SortedList {
        let pool = 1 + self.nprocs * self.keys_per_epoch;
        // Thunks are registered by the runner; only the heap pool is
        // re-created per epoch.
        SortedList::re_root(heap, pool, self.insert_thunk, self.delete_thunk)
    }

    fn local(&self, ctx: &Ctx<'_>, _roots: &SortedList) -> Addr {
        ctx.alloc(1)
    }

    fn round(
        &self,
        ctx: &Ctx<'_>,
        list: &SortedList,
        result_cell: &mut Addr,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        _round: usize,
        slot: usize,
    ) -> AttemptMetrics {
        let start = ctx.steps();
        let r = list.insert(
            ctx,
            algo,
            tags,
            scratch,
            *result_cell,
            self.node_of(pid, slot),
            self.key_of(pid, slot),
            LIST_ATTEMPT_BUDGET,
        );
        AttemptMetrics::decided(r == Some(true), ctx.steps() - start)
    }

    fn check(&self, heap: &Heap, list: &SortedList, rec: &Outcomes) -> (HarnessReport, bool) {
        let mut expected: Vec<u32> = Vec::new();
        let epoch_len = rec.cap;
        let report = rec.aggregate(heap, |pid, round| {
            expected.push(self.key_of(pid, round % epoch_len.max(1)));
        });
        expected.sort_unstable();
        let safe = list.snapshot(heap) == expected;
        (report, safe)
    }
}

/// Runs the sorted-list workload on either backend: each process inserts
/// `keys_per_proc` globally-unique keys per epoch (dedicated pool slots, so
/// the only contention is on adjacent splice points). Safety check (every
/// epoch): the final list snapshot is exactly the sorted set of keys whose
/// inserts were recorded as wins.
pub fn run_list(
    nprocs: usize,
    keys_per_proc: usize,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    let keys_per_epoch = mode.epoch_len(keys_per_proc);
    // Unlike the one-tag-per-round workloads, each list round may draw up
    // to LIST_ATTEMPT_BUDGET tags (one per tryLock retry) — bound each
    // epoch against the per-process tag space up front.
    assert!(
        (keys_per_epoch as u64) * LIST_ATTEMPT_BUDGET
            <= wfl_idem::tag::MIN_PROCESS_CAPACITY as u64,
        "keys/epoch {keys_per_epoch} x retry budget {LIST_ATTEMPT_BUDGET} exceeds the tag space"
    );
    let mut registry = Registry::new();
    let insert = registry.register(InsertThunk);
    let delete = registry.register(DeleteThunk);
    let pool = 1 + nprocs * keys_per_epoch;
    let heap = Heap::new(heap_words);
    let aspec = AlgoSpec::new(algo, pool, nprocs, 2, 4, &registry);
    let wl = ListWl { nprocs, keys_per_epoch, insert_thunk: insert, delete_thunk: delete };
    drive_epochs(&heap, &registry, aspec, nprocs, seed, keys_per_proc, mode, &wl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_baselines::WflKnown;
    use wfl_core::{LockConfig, LockSpace};
    use wfl_runtime::schedule::SeededRandom;
    use wfl_runtime::sim::SimBuilder;

    #[test]
    fn sequential_insert_delete_contains() {
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 20);
        let list = SortedList::create_root(&heap, &mut registry, 16);
        let space = LockSpace::create_root(&heap, 16, 2);
        let algo = WflKnown {
            space: &space,
            registry: &registry,
            cfg: LockConfig::new(2, 2, 4).without_delays(),
        };
        let (l, a) = (&list, &algo);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let cell_out = ctx.alloc(1);
                assert_eq!(l.insert(ctx, a, &mut tags, &mut scratch, cell_out, 1, 30, 10), Some(true));
                assert_eq!(l.insert(ctx, a, &mut tags, &mut scratch, cell_out, 2, 10, 10), Some(true));
                assert_eq!(l.insert(ctx, a, &mut tags, &mut scratch, cell_out, 3, 20, 10), Some(true));
                assert_eq!(l.insert(ctx, a, &mut tags, &mut scratch, cell_out, 4, 20, 10), Some(false));
                assert!(l.contains(ctx, 20));
                assert!(!l.contains(ctx, 15));
                assert_eq!(l.delete(ctx, a, &mut tags, &mut scratch, cell_out, 20, 10), Some(true));
                assert_eq!(l.delete(ctx, a, &mut tags, &mut scratch, cell_out, 20, 10), Some(false));
                assert!(!l.contains(ctx, 20));
            })
            .run();
        report.assert_clean();
        assert_eq!(list.snapshot(&heap), vec![10, 30]);
    }

    #[test]
    fn concurrent_disjoint_key_inserts_all_land() {
        for seed in 0..8 {
            let mut registry = Registry::new();
            let heap = Heap::new(1 << 22);
            let nprocs = 3;
            let per = 3;
            let pool = 1 + nprocs * per;
            let list = SortedList::create_root(&heap, &mut registry, pool);
            let space = LockSpace::create_root(&heap, pool, nprocs + 1);
            let algo = WflKnown {
                space: &space,
                registry: &registry,
                cfg: LockConfig::new(nprocs + 1, 2, 4).without_delays(),
            };
            let (l, a) = (&list, &algo);
            let report = SimBuilder::new(&heap, nprocs)
                .schedule(SeededRandom::new(nprocs, seed))
                .max_steps(100_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = Scratch::new();
                        let cell_out = ctx.alloc(1);
                        for k in 0..per {
                            let node = 1 + (pid * per + k) as u32;
                            let key = (10 * (pid * per + k) + 5) as u32;
                            let r = l.insert(ctx, a, &mut tags, &mut scratch, cell_out, node, key, 10_000);
                            assert_eq!(r, Some(true), "seed {seed}: insert {key} failed");
                        }
                    }
                })
                .run();
            report.assert_clean();
            let snap = list.snapshot(&heap);
            let mut expected: Vec<u32> =
                (0..nprocs * per).map(|j| (10 * j + 5) as u32).collect();
            expected.sort_unstable();
            assert_eq!(snap, expected, "seed {seed}: list content or order wrong");
        }
    }

    #[test]
    fn concurrent_mixed_inserts_and_deletes_stay_sorted() {
        for seed in 0..6 {
            let mut registry = Registry::new();
            let heap = Heap::new(1 << 22);
            let nprocs = 3;
            let pool = 1 + 2 * nprocs;
            let list = SortedList::create_root(&heap, &mut registry, pool);
            let space = LockSpace::create_root(&heap, pool, nprocs + 1);
            let algo = WflKnown {
                space: &space,
                registry: &registry,
                cfg: LockConfig::new(nprocs + 1, 2, 4).without_delays(),
            };
            let (l, a) = (&list, &algo);
            let report = SimBuilder::new(&heap, nprocs)
                .schedule(SeededRandom::new(nprocs, 600 + seed))
                .max_steps(100_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = Scratch::new();
                        let cell_out = ctx.alloc(1);
                        let n1 = 1 + (2 * pid) as u32;
                        let n2 = 2 + (2 * pid) as u32;
                        let k1 = (pid as u32 + 1) * 7;
                        let k2 = (pid as u32 + 1) * 7 + 3;
                        assert_eq!(l.insert(ctx, a, &mut tags, &mut scratch, cell_out, n1, k1, 10_000), Some(true));
                        assert_eq!(l.insert(ctx, a, &mut tags, &mut scratch, cell_out, n2, k2, 10_000), Some(true));
                        assert_eq!(l.delete(ctx, a, &mut tags, &mut scratch, cell_out, k1, 10_000), Some(true));
                    }
                })
                .run();
            report.assert_clean();
            let snap = list.snapshot(&heap);
            let mut expected: Vec<u32> = (0..nprocs as u32).map(|p| (p + 1) * 7 + 3).collect();
            expected.sort_unstable();
            assert_eq!(snap, expected, "seed {seed}");
            let mut sorted = snap.clone();
            sorted.sort_unstable();
            assert_eq!(snap, sorted, "seed {seed}: list must stay sorted");
        }
    }
}
