//! The no-helping tryLock baseline: CAS each lock in ascending order;
//! on the first conflict, release everything acquired and fail.
//!
//! Per-attempt steps are bounded (like the paper's algorithm) but there is
//! no helping: a process that crashes between acquiring and releasing
//! leaves its locks claimed forever, after which every attempt touching
//! them fails — the motivating failure the paper's idempotent helping
//! removes. There is also no fairness bound: under contention, attempts
//! can fail at arbitrarily high rates (livelock).

use crate::api::{AttemptOutcome, LockAlgo};
use wfl_core::{Scratch, TryLockRequest};
use wfl_idem::{Frame, Registry, TagSource};
use wfl_runtime::{Addr, Ctx, Heap, Placement, LINE_WORDS};

/// No-helping tryLock over an array of CAS lock words.
pub struct NaiveTryLock<'a> {
    /// The thunk registry.
    pub registry: &'a Registry,
    locks: Addr,
    nlocks: usize,
    /// Words between consecutive lock words (1 packed, a line padded).
    stride: u32,
}

impl<'a> NaiveTryLock<'a> {
    /// Creates the lock words (harness setup). Packed layout, kept
    /// byte-compatible for address-pinned tests.
    pub fn create_root(heap: &Heap, registry: &'a Registry, nlocks: usize) -> NaiveTryLock<'a> {
        Self::create_root_placed(heap, registry, nlocks, Placement::Packed)
    }

    /// Creates the lock words under an explicit [`Placement`]: padded puts
    /// each CAS word on its own 64B line so failed probes of different
    /// locks never false-share.
    pub fn create_root_placed(
        heap: &Heap,
        registry: &'a Registry,
        nlocks: usize,
        placement: Placement,
    ) -> NaiveTryLock<'a> {
        assert!(nlocks > 0);
        let (locks, stride) = match placement {
            Placement::Packed => (heap.alloc_root(nlocks), 1),
            Placement::Padded => {
                (heap.alloc_root_aligned(nlocks * LINE_WORDS), LINE_WORDS as u32)
            }
        };
        NaiveTryLock { registry, locks, nlocks, stride }
    }

    fn lock_word(&self, id: u32) -> Addr {
        assert!((id as usize) < self.nlocks, "unknown lock id {id}");
        self.locks.off(id * self.stride)
    }
}

impl LockAlgo for NaiveTryLock<'_> {
    fn blocks_under_crash(&self) -> bool {
        // Attempts stay bounded, but locks become permanently unavailable:
        // progress (not steps) is what blocks.
        true
    }

    fn attempt(
        &self,
        ctx: &Ctx<'_>,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
    ) -> AttemptOutcome {
        let start = ctx.steps();
        let me = ctx.pid() as u64 + 1;
        let order = &mut scratch.order;
        order.clear();
        order.extend(req.locks.iter().map(|l| l.0));
        order.sort_unstable();
        for i in 0..order.len() {
            if !ctx.cas_bool_sync(self.lock_word(order[i]), 0, me) {
                // Conflict: back out everything acquired so far.
                for &rid in order[..i].iter().rev() {
                    ctx.write_rel(self.lock_word(rid), 0);
                }
                return AttemptOutcome::decided(false, ctx.steps() - start);
            }
        }
        let frame = Frame::create(ctx, self.registry, req.thunk, tags.next_base(), req.args);
        frame.run_raw(ctx, self.registry);
        for &id in scratch.order.iter().rev() {
            ctx.write_rel(self.lock_word(id), 0);
        }
        AttemptOutcome::decided(true, ctx.steps() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_core::LockId;
    use wfl_idem::{cell, IdemRun, Thunk};
    use wfl_runtime::schedule::SeededRandom;
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

    #[test]
    fn wins_are_counted_exactly_and_failures_leave_no_trace() {
        for seed in 0..10 {
            let mut registry = Registry::new();
            let incr = registry.register(Incr);
            let heap = Heap::new(1 << 20);
            let algo = NaiveTryLock::create_root(&heap, &registry, 3);
            let counter = heap.alloc_root(1);
            let wins = heap.alloc_root(4);
            let algo_ref = &algo;
            let report = SimBuilder::new(&heap, 4)
                .schedule(SeededRandom::new(4, seed))
                .max_steps(10_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = wfl_core::Scratch::new();
                        let mut w = 0u64;
                        for round in 0..6 {
                            let locks =
                                [LockId(((pid + round) % 3) as u32), LockId(((pid + round + 1) % 3) as u32)];
                            let req = TryLockRequest {
                                locks: &locks,
                                thunk: incr,
                                args: &[counter.to_word()],
                            };
                            if algo_ref.attempt(ctx, &mut tags, &mut scratch, &req).won {
                                w += 1;
                            }
                        }
                        ctx.write(wins.off(pid as u32), w);
                    }
                })
                .run();
            report.assert_clean();
            let total: u64 = (0..4).map(|i| heap.peek(wins.off(i))).sum();
            assert_eq!(cell::value(heap.peek(counter)) as u64, total, "seed {seed}");
        }
    }

    #[test]
    fn locks_are_free_after_any_outcome() {
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 16);
        let algo = NaiveTryLock::create_root(&heap, &registry, 2);
        let counter = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 2)
            .schedule(SeededRandom::new(2, 5))
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = wfl_core::Scratch::new();
                    for _ in 0..4 {
                        let locks = [LockId(0), LockId(1)];
                        let req =
                            TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                        algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                    }
                }
            })
            .run();
        report.assert_clean();
        // Both lock words must be free at quiescence (failed attempts
        // backed out, successful ones released).
        assert_eq!(heap.peek(Addr(1)), 0);
        assert_eq!(heap.peek(Addr(2)), 0);
    }
}
