//! Flat combining (Hendler, Incze, Shavit, Tzafrir, SPAA 2010).
//!
//! Each process owns one *publication record* (a cache line under the
//! padded placement): a state word and a thunk-frame word. To run a
//! critical section, a process publishes its frame (`EMPTY → PENDING`)
//! and then either (a) observes `DONE` — a combiner executed it — or
//! (b) wins the combiner lock itself, scans the whole publication array
//! for `PENDING` records, and applies them back to back.
//!
//! The claim CAS (`PENDING → TAKEN`) is what keeps execution
//! exactly-once: it arbitrates three-ways between the combiner applying
//! the record, a second combiner racing it, and the owner *retracting*
//! it (`PENDING → EMPTY`) on an abort. A retract that loses the race
//! means the thunk is already in a combiner's batch — the owner then
//! waits for `DONE` and reports a rescued win, never a double-run and
//! never a lost one (the same disjointness contract as wfl's abort
//! path).
//!
//! Blocking caveat: a combiner frozen mid-scan leaves every `TAKEN`/
//! `PENDING` owner spinning — flat combining trades wait-freedom for
//! throughput, which is exactly what E17's fault arms measure.

use crate::obs;
use wfl_baselines::LockAlgo;
use wfl_core::{AbortReason, AttemptMetrics, Scratch, TryLockRequest};
use wfl_idem::{Frame, Registry, TagSource};
use wfl_obs::EventKind;
use wfl_runtime::{Addr, Ctx, Heap, Placement, LINE_WORDS};

/// Record state: free for the owner to publish into.
const REC_EMPTY: u64 = 0;
/// Record state: a published request awaiting a combiner.
const REC_PENDING: u64 = 1;
/// Record state: claimed by a combiner (execution in flight).
const REC_TAKEN: u64 = 2;
/// Record state: executed; the owner reaps and resets to `EMPTY`.
const REC_DONE: u64 = 3;

const W_STATE: u32 = 0;
const W_FRAME: u32 = 1;
/// Words per publication record (packed placement).
const RECORD_WORDS: u32 = 2;

/// Bounded combining: passes over the publication array per lock
/// acquisition. More passes amortize the lock better under load; the
/// bound keeps a combiner's stint (and thus everyone's spin) finite.
const SCAN_PASSES: usize = 3;

/// Flat-combining lock over a publication array (one record per
/// process).
pub struct FcLock<'a> {
    registry: &'a Registry,
    /// The combiner lock word (0 free, else combiner pid+1).
    lock: Addr,
    /// Publication records, `nprocs × RECORD_WORDS` (or line-strided).
    records: Addr,
    nprocs: usize,
    stride: u32,
}

impl<'a> FcLock<'a> {
    /// Creates the combiner lock and publication array (harness setup).
    pub fn create_root(heap: &Heap, registry: &'a Registry, nprocs: usize) -> FcLock<'a> {
        Self::create_root_placed(heap, registry, nprocs, Placement::Packed)
    }

    /// Creates the structure under an explicit [`Placement`]: padded
    /// gives the combiner lock and every publication record its own 64B
    /// line, so a waiter's spin never false-shares with its neighbors.
    pub fn create_root_placed(
        heap: &Heap,
        registry: &'a Registry,
        nprocs: usize,
        placement: Placement,
    ) -> FcLock<'a> {
        assert!(nprocs > 0);
        let (lock, records, stride) = match placement {
            Placement::Packed => (heap.alloc_root(1), heap.alloc_root(nprocs * RECORD_WORDS as usize), RECORD_WORDS),
            Placement::Padded => (
                heap.alloc_root_aligned(LINE_WORDS),
                heap.alloc_root_aligned(nprocs * LINE_WORDS),
                LINE_WORDS as u32,
            ),
        };
        FcLock { registry, lock, records, nprocs, stride }
    }

    fn record(&self, pid: usize) -> Addr {
        debug_assert!(pid < self.nprocs);
        self.records.off(pid as u32 * self.stride)
    }

    /// The combiner's stint: scan the publication array up to
    /// [`SCAN_PASSES`] times, claiming and executing every `PENDING`
    /// record. Returns `(others_applied, self_applied)`.
    fn combine(&self, ctx: &Ctx<'_>, me: usize) -> (u64, bool) {
        obs(ctx, EventKind::CombinerEnter, 0);
        let mut others = 0u64;
        let mut self_applied = false;
        for _ in 0..SCAN_PASSES {
            let mut applied = 0u64;
            for p in 0..self.nprocs {
                let rec = self.record(p);
                if ctx.read_acq(rec.off(W_STATE)) == REC_PENDING
                    && ctx.cas_bool_sync(rec.off(W_STATE), REC_PENDING, REC_TAKEN)
                {
                    let frame = Frame(Addr::from_word(ctx.read_acq(rec.off(W_FRAME))));
                    obs(ctx, EventKind::CombinerApply, p as u64);
                    frame.run_raw(ctx, self.registry);
                    ctx.write_rel(rec.off(W_STATE), REC_DONE);
                    if p == me {
                        self_applied = true;
                    } else {
                        others += 1;
                    }
                    applied += 1;
                }
            }
            if applied == 0 {
                break;
            }
        }
        obs(ctx, EventKind::CombinerExit, others + self_applied as u64);
        (others, self_applied)
    }
}

impl LockAlgo for FcLock<'_> {
    fn blocks_under_crash(&self) -> bool {
        true
    }

    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptMetrics {
        let start = ctx.steps();
        let deadline = scratch.deadline;
        let me = ctx.pid();
        // Pre-publication bail: nothing shared has been touched.
        if let Some(r) = AbortReason::poll(ctx, deadline) {
            return AttemptMetrics::abandoned(r, false, ctx.steps() - start);
        }
        let my = self.record(me);
        let frame = Frame::create(ctx, self.registry, req.thunk, tags.next_base(), req.args);
        // Publish: frame first, then the PENDING flip (Release) — a
        // combiner that acquires PENDING sees the frame word.
        ctx.write_rel(my.off(W_FRAME), frame.0.to_word());
        ctx.write_rel(my.off(W_STATE), REC_PENDING);

        let mut others = 0u64;
        let mut self_applied = false;
        loop {
            match ctx.read_acq(my.off(W_STATE)) {
                REC_DONE => {
                    ctx.write_rel(my.off(W_STATE), REC_EMPTY);
                    return AttemptMetrics {
                        // Executed by another process's combining stint
                        // unless this process applied it itself.
                        combined: !self_applied,
                        combined_peers: others,
                        ..AttemptMetrics::decided(true, ctx.steps() - start)
                    };
                }
                REC_PENDING => {
                    // TTAS on the combiner lock.
                    if ctx.read_acq(self.lock) == 0
                        && ctx.cas_bool_sync(self.lock, 0, me as u64 + 1)
                    {
                        let (o, s) = self.combine(ctx, me);
                        others += o;
                        self_applied |= s;
                        ctx.write_rel(self.lock, 0);
                        // Own record is PENDING going in, so the stint
                        // always settles it; the next loop turn reaps.
                        continue;
                    }
                    if let Some(r) = AbortReason::poll(ctx, deadline) {
                        // Retract. Success: the request was never picked
                        // up — a clean aborted loss. Failure: a combiner
                        // already claimed it; wait out the (bounded)
                        // execution and report the rescue.
                        if ctx.cas_bool_sync(my.off(W_STATE), REC_PENDING, REC_EMPTY) {
                            return AttemptMetrics::abandoned(r, false, ctx.steps() - start);
                        }
                        while ctx.read_acq(my.off(W_STATE)) != REC_DONE {
                            ctx.local_step();
                        }
                        ctx.write_rel(my.off(W_STATE), REC_EMPTY);
                        return AttemptMetrics::abandoned(r, true, ctx.steps() - start);
                    }
                    ctx.local_step();
                }
                // TAKEN: a combiner is mid-execution; completion is a
                // bounded number of its steps away.
                _ => ctx.local_step(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_core::{Deadline, LockId};
    use wfl_idem::{cell, IdemRun, Thunk};
    use wfl_runtime::schedule::{RoundRobin, SeededRandom};
    use wfl_runtime::sim::SimBuilder;

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

    fn run_counter(seed: u64, placement: Placement) {
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let algo = FcLock::create_root_placed(&heap, &registry, 4, placement);
        let counter = heap.alloc_root(1);
        let combined_out = heap.alloc_root(4);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 4)
            .schedule(SeededRandom::new(4, seed))
            .max_steps(10_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    let mut combined = 0u64;
                    for _ in 0..5 {
                        let locks = [LockId(0)];
                        let req = TryLockRequest {
                            locks: &locks,
                            thunk: incr,
                            args: &[counter.to_word()],
                        };
                        let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                        assert!(out.won, "fc attempts always complete without faults");
                        assert!(out.aborted.is_none() && !out.rescued);
                        combined += out.combined as u64;
                    }
                    ctx.write(combined_out.off(pid as u32), combined);
                }
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 20, "seed {seed}: exactly-once");
    }

    #[test]
    fn counter_is_exact_under_random_schedules() {
        for seed in 0..10 {
            run_counter(seed, Placement::Packed);
            run_counter(seed, Placement::Padded);
        }
    }

    #[test]
    fn combining_actually_happens_under_contention() {
        // Round-robin interleaves publication and combining tightly
        // enough that some requests are executed by a peer's stint.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let algo = FcLock::create_root(&heap, &registry, 4);
        let counter = heap.alloc_root(1);
        let combined_total = heap.alloc_root(4);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 4)
            .schedule(RoundRobin::new(4))
            .max_steps(10_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    let mut combined = 0u64;
                    for _ in 0..20 {
                        let locks = [LockId(0)];
                        let req = TryLockRequest {
                            locks: &locks,
                            thunk: incr,
                            args: &[counter.to_word()],
                        };
                        let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                        assert!(out.won);
                        combined += out.combined as u64 + out.combined_peers;
                    }
                    ctx.write(combined_total.off(pid as u32), combined);
                }
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 80);
        let combined: u64 = (0..4).map(|i| heap.peek(combined_total.off(i))).sum();
        assert!(combined > 0, "tight interleaving must produce combined executions");
    }

    #[test]
    fn expired_deadline_aborts_cleanly_and_record_is_reusable() {
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let algo = FcLock::create_root(&heap, &registry, 1);
        let counter = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let locks = [LockId(0)];
                let req =
                    TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                ctx.stall_until_steps(100);
                scratch.deadline = Deadline::at_steps(50);
                let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                assert!(!out.won && out.aborted.is_some() && !out.rescued);
                // The record is clean: a fresh un-deadlined attempt wins.
                scratch.deadline = Deadline::NEVER;
                let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                assert!(out.won && !out.combined, "solo attempt self-combines");
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 1, "aborted attempt never ran");
    }
}
