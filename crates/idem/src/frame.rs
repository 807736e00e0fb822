//! Thunk frames: the per-instance shared state of an idempotent thunk.
//!
//! A frame packs, in consecutive heap words:
//!
//! ```text
//! word 0:  thunk id (high 32) | op count (low 32)
//! word 1:  attempt tag base (30 bits)
//! word 2:  argument count
//! word 3:  completed flag (0/1) — fast path for helpers
//! word 4..4+nargs:        immutable arguments (written before publication)
//! word 4+nargs..+nops:    the operation log (one word per operation)
//! ```
//!
//! The frame address itself is what gets published (e.g. inside a lock
//! descriptor); any process holding it can [`Frame::help`] the thunk to
//! completion.

use crate::registry::{Registry, ThunkId};
use crate::run::IdemRun;
use wfl_runtime::{Addr, Ctx, Heap};

/// Handle to a thunk frame in the shared heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame(pub Addr);

const W_HEADER: u32 = 0;
const W_TAGBASE: u32 = 1;
const W_NARGS: u32 = 2;
const W_COMPLETED: u32 = 3;
const W_ARGS: u32 = 4;

/// Own steps [`Frame::help`] takes around a run of the thunk body: the
/// completed-flag read, three header reads and the completion write. A
/// help that finds the frame completed takes 1.
pub const HELP_FIXED_STEPS: u64 = 5;

impl Frame {
    /// Number of heap words a frame occupies for a thunk with `nops`
    /// operations and `nargs` arguments.
    pub fn words(nops: usize, nargs: usize) -> usize {
        4 + nargs + nops
    }

    /// Own steps [`Frame::create`] takes for `nargs` arguments: the
    /// allocation, three header writes and one write per argument.
    pub const fn create_steps(nargs: usize) -> u64 {
        4 + nargs as u64
    }

    /// Creates and initializes a frame as the running process (counted
    /// steps). The frame is fully initialized before the returned address
    /// is shared, so no synchronization is needed on the header words.
    pub fn create(ctx: &Ctx<'_>, registry: &Registry, id: ThunkId, tag_base: u32, args: &[u64]) -> Frame {
        let nops = registry.get(id).max_ops();
        let base = ctx.alloc(Self::words(nops, args.len()));
        ctx.write_rel(base.off(W_HEADER), ((id.0 as u64) << 32) | nops as u64);
        ctx.write_rel(base.off(W_TAGBASE), tag_base as u64);
        ctx.write_rel(base.off(W_NARGS), args.len() as u64);
        // completed flag and log slots are zero from the allocator.
        for (i, &a) in args.iter().enumerate() {
            ctx.write_rel(base.off(W_ARGS + i as u32), a);
        }
        Frame(base)
    }

    /// Creates a frame during harness setup (uncounted steps).
    pub fn create_root(heap: &Heap, registry: &Registry, id: ThunkId, tag_base: u32, args: &[u64]) -> Frame {
        let nops = registry.get(id).max_ops();
        let base = heap.alloc_root(Self::words(nops, args.len()));
        heap.poke(base.off(W_HEADER), ((id.0 as u64) << 32) | nops as u64);
        heap.poke(base.off(W_TAGBASE), tag_base as u64);
        heap.poke(base.off(W_NARGS), args.len() as u64);
        for (i, &a) in args.iter().enumerate() {
            heap.poke(base.off(W_ARGS + i as u32), a);
        }
        Frame(base)
    }

    /// Runs (or helps run) the thunk to completion. Idempotent: any number
    /// of processes may call this concurrently; the combined effect equals
    /// one run. On return, a complete run of the thunk has finished.
    pub fn help(self, ctx: &Ctx<'_>, registry: &Registry) {
        // Fast path: someone already finished a run.
        if ctx.read_acq(self.0.off(W_COMPLETED)) != 0 {
            return;
        }
        let header = ctx.read_acq(self.0.off(W_HEADER));
        let id = ThunkId((header >> 32) as u32);
        let nops = (header & 0xffff_ffff) as usize;
        let tag_base = ctx.read_acq(self.0.off(W_TAGBASE)) as u32;
        let nargs = ctx.read_acq(self.0.off(W_NARGS)) as usize;
        let args_base = self.0.off(W_ARGS);
        let log_base = self.0.off(W_ARGS + nargs as u32);
        let mut run = IdemRun::new(ctx, args_base, nargs, log_base, nops, tag_base);
        let thunk = registry.get(id);
        let body_start = ctx.steps();
        thunk.run(&mut run);
        debug_assert!(
            ctx.steps() - body_start <= thunk.max_steps(),
            "thunk body took {} steps, above its declared max_steps {}",
            ctx.steps() - body_start,
            thunk.max_steps()
        );
        // Mark completion (monotonic write; Release so the fast path's
        // Acquire read of the flag also sees the thunk's effects).
        ctx.write_rel(self.0.off(W_COMPLETED), 1);
    }

    /// Whether some run of the thunk has finished (uncounted inspection).
    pub fn is_completed(self, heap: &Heap) -> bool {
        heap.peek(self.0.off(W_COMPLETED)) != 0
    }

    /// Runs the thunk **raw**: operations go straight to memory (tag 0),
    /// bypassing the idempotence log. NOT idempotent and NOT safe to run
    /// concurrently with helpers of the same frame — for single-runner
    /// baselines and for measuring the construction's overhead (E9).
    pub fn run_raw(self, ctx: &Ctx<'_>, registry: &Registry) {
        let header = ctx.read_acq(self.0.off(W_HEADER));
        let id = ThunkId((header >> 32) as u32);
        let nargs = ctx.read_acq(self.0.off(W_NARGS)) as usize;
        let args_base = self.0.off(W_ARGS);
        let mut run = IdemRun::new_raw(ctx, args_base, nargs);
        registry.get(id).run(&mut run);
        ctx.write_rel(self.0.off(W_COMPLETED), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Thunk;
    use crate::{cell, tag::TagSource};
    use wfl_runtime::schedule::SeededRandom;
    use wfl_runtime::sim::SimBuilder;

    /// read a; write b = a + arg1.
    struct AddInto;
    impl Thunk for AddInto {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let src = Addr::from_word(run.arg(0));
            let dst = Addr::from_word(run.arg(1));
            let delta = run.arg(2) as u32;
            let v = run.read(src);
            run.write(dst, v.wrapping_add(delta));
        }
        fn max_ops(&self) -> usize {
            2
        }
    }

    #[test]
    fn frame_words_layout() {
        assert_eq!(Frame::words(2, 3), 9);
        assert_eq!(Frame::words(0, 0), 4);
    }

    #[test]
    fn single_run_executes_thunk() {
        let mut registry = Registry::new();
        let id = registry.register(AddInto);
        let heap = Heap::new(1 << 10);
        let src = heap.alloc_root(1);
        let dst = heap.alloc_root(1);
        heap.poke(src, cell::untagged(40));
        let mut tags = TagSource::new(0);
        let frame =
            Frame::create_root(&heap, &registry, id, tags.next_base(), &[src.to_word(), dst.to_word(), 2]);

        let report = SimBuilder::new(&heap, 1)
            .spawn(|ctx: &Ctx| frame.help(ctx, &registry))
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(dst)), 42);
        assert!(frame.is_completed(&heap));
    }

    #[test]
    fn solo_create_and_help_take_their_counted_steps() {
        let mut registry = Registry::new();
        let id = registry.register(AddInto);
        let heap = Heap::new(1 << 10);
        let src = heap.alloc_root(1);
        let dst = heap.alloc_root(1);
        let args = [src.to_word(), dst.to_word(), 2];
        let reg = &registry;
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(0);
                let frame = Frame::create(ctx, reg, id, tags.next_base(), &args);
                assert_eq!(ctx.steps(), Frame::create_steps(args.len()));
                let before = ctx.steps();
                frame.help(ctx, reg);
                // Three argument reads, a solo read (3) and a solo write
                // (5) inside the fixed help steps.
                assert_eq!(ctx.steps() - before, HELP_FIXED_STEPS + 3 + 3 + 5);
                let before = ctx.steps();
                frame.help(ctx, reg);
                assert_eq!(ctx.steps() - before, 1, "a completed frame costs one read");
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(dst)), 2);
    }

    #[test]
    fn many_helpers_one_effect() {
        for seed in 0..20 {
            let mut registry = Registry::new();
            let id = registry.register(AddInto);
            let heap = Heap::new(1 << 10);
            let src = heap.alloc_root(1);
            let dst = heap.alloc_root(1);
            heap.poke(src, cell::untagged(7));
            heap.poke(dst, cell::untagged(100));
            let mut tags = TagSource::new(0);
            let frame = Frame::create_root(
                &heap,
                &registry,
                id,
                tags.next_base(),
                &[src.to_word(), dst.to_word(), 1],
            );
            let report = SimBuilder::new(&heap, 6)
                .schedule(SeededRandom::new(6, seed))
                .spawn_all(|_pid| {
                    let registry = &registry;
                    move |ctx: &Ctx| frame.help(ctx, registry)
                })
                .run();
            report.assert_clean();
            assert_eq!(cell::value(heap.peek(dst)), 8, "seed {seed}");
        }
    }

    /// Increment-in-place: the classic double-apply trap. read x; write x+1.
    struct IncrInPlace;
    impl Thunk for IncrInPlace {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let x = Addr::from_word(run.arg(0));
            let v = run.read(x);
            run.write(x, v + 1);
        }
        fn max_ops(&self) -> usize {
            2
        }
    }

    #[test]
    fn increment_in_place_applies_exactly_once() {
        for seed in 0..50 {
            let mut registry = Registry::new();
            let id = registry.register(IncrInPlace);
            let heap = Heap::new(1 << 10);
            let x = heap.alloc_root(1);
            let mut tags = TagSource::new(0);
            let frame = Frame::create_root(&heap, &registry, id, tags.next_base(), &[x.to_word()]);
            let report = SimBuilder::new(&heap, 8)
                .schedule(SeededRandom::new(8, 1000 + seed))
                .spawn_all(|_pid| {
                    let registry = &registry;
                    move |ctx: &Ctx| frame.help(ctx, registry)
                })
                .run();
            report.assert_clean();
            assert_eq!(cell::value(heap.peek(x)), 1, "seed {seed}: increment must apply once");
        }
    }
}
