//! Blocking ordered two-phase locking: the classic fine-grained-locks
//! baseline. Each lock is one word (0 free, else holder pid+1); locks are
//! acquired in ascending id order by spinning, the critical section runs
//! raw, and all locks are released in reverse order.
//!
//! Deadlock-free (ordered acquisition) but **blocking**: if the scheduler
//! delays a lock holder forever, every contender spins forever — the
//! failure mode the paper's helping mechanism eliminates. Attempts never
//! "fail" under normal operation (they wait instead), so `won` is true
//! whenever the critical section ran. The one exception is cooperative
//! shutdown: once the driver raises the stop flag (a timed real-threads
//! run ending, or the simulator entering its drain phase), a spinning
//! acquisition releases whatever it already holds and returns `won ==
//! false` instead of wedging the drain behind a stalled holder.

use crate::api::{AttemptOutcome, LockAlgo};
use wfl_core::{Scratch, TryLockRequest};
use wfl_idem::{Frame, Registry, TagSource};
use wfl_runtime::{Addr, Ctx, Heap, Placement, LINE_WORDS};

/// Contention-management policy of the blocking baseline's spin loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingMode {
    /// Naked test-and-test-and-set: poll the lock word on every scheduled
    /// step. The historical baseline — and, past ~8 threads, a strawman:
    /// every contender hammers the holder's cache line.
    #[default]
    Spin,
    /// TTAS with bounded exponential backoff between polls (the local-spin
    /// discipline of cohort locks, per Fissile Locks): after each failed
    /// poll the contender burns a doubling number of *local* steps before
    /// touching the shared word again, capped at [`COHORT_MAX_BACKOFF`].
    /// Keeps the 16–64-thread comparison honest — coherence traffic on the
    /// lock line stays bounded instead of scaling with the contender count.
    Cohort,
}

/// Backoff ceiling (local steps between polls) of [`BlockingMode::Cohort`].
/// Bounded so a freed lock is observed within O(cap) own steps.
pub const COHORT_MAX_BACKOFF: u64 = 128;

/// Blocking two-phase locking over an array of spinlock words.
pub struct BlockingTpl<'a> {
    /// The thunk registry.
    pub registry: &'a Registry,
    locks: Addr,
    nlocks: usize,
    /// Words between consecutive lock words: 1 packed, [`LINE_WORDS`]
    /// padded (each lock word owns a cache line).
    stride: u32,
    mode: BlockingMode,
}

impl<'a> BlockingTpl<'a> {
    /// Creates the lock words (harness setup). Packed layout, plain spin —
    /// byte-compatible with the historical baseline (tests pin addresses).
    pub fn create_root(heap: &Heap, registry: &'a Registry, nlocks: usize) -> BlockingTpl<'a> {
        Self::create_root_placed(heap, registry, nlocks, Placement::Packed)
    }

    /// Creates the lock words under an explicit [`Placement`]: padded
    /// spreads each lock word onto its own 64B line so contended spins on
    /// different locks never false-share.
    pub fn create_root_placed(
        heap: &Heap,
        registry: &'a Registry,
        nlocks: usize,
        placement: Placement,
    ) -> BlockingTpl<'a> {
        assert!(nlocks > 0);
        let (locks, stride) = match placement {
            Placement::Packed => (heap.alloc_root(nlocks), 1),
            Placement::Padded => {
                (heap.alloc_root_aligned(nlocks * LINE_WORDS), LINE_WORDS as u32)
            }
        };
        BlockingTpl { registry, locks, nlocks, stride, mode: BlockingMode::default() }
    }

    /// This baseline with a different spin policy.
    pub fn with_mode(mut self, mode: BlockingMode) -> BlockingTpl<'a> {
        self.mode = mode;
        self
    }

    fn lock_word(&self, id: u32) -> Addr {
        assert!((id as usize) < self.nlocks, "unknown lock id {id}");
        self.locks.off(id * self.stride)
    }
}

impl LockAlgo for BlockingTpl<'_> {
    fn blocks_under_crash(&self) -> bool {
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
        let deadline = scratch.deadline;
        let me = ctx.pid() as u64 + 1;
        {
            let order = &mut scratch.order;
            order.clear();
            order.extend(req.locks.iter().map(|l| l.0));
            order.sort_unstable();
        }
        // Acquire in ascending order (deadlock freedom).
        let mut acquired = 0usize;
        for i in 0..scratch.order.len() {
            let w = self.lock_word(scratch.order[i]);
            // Cohort backoff state, reset per lock: the holder change that
            // freed the previous lock says nothing about this one.
            let mut backoff = 1u64;
            loop {
                // TTAS: the read filters the CAS, so only contenders that
                // just observed the word free write to the line.
                if ctx.read_acq(w) == 0 && ctx.cas_bool_sync(w, 0, me) {
                    acquired += 1;
                    break;
                }
                // Spin; in the simulator this burns scheduled steps, and
                // under a crashed holder it never terminates *unless* the
                // driver is draining or the caller armed a deadline — then
                // bail out, releasing everything held so far, so shutdown
                // (and an SLO-bounded attempt) stays wait-free even for the
                // blocking baseline. Note a stalled *holder* still blocks:
                // an expired contender gives up, but a contender whose
                // deadline has not expired keeps spinning — the collapse
                // E16 measures.
                if ctx.stop_requested() || deadline.expired(ctx) {
                    for &held in scratch.order[..acquired].iter().rev() {
                        ctx.write_rel(self.lock_word(held), 0);
                    }
                    return AttemptOutcome {
                        won: false,
                        steps: ctx.steps() - start,
                        aborted: true,
                        rescued: false,
                        combined: false,
                        combined_peers: 0,
                        delay_overrun: false,
                    };
                }
                if self.mode == BlockingMode::Cohort {
                    // Local spin between polls: counted own steps that
                    // touch no shared memory, doubling up to the cap.
                    for _ in 0..backoff {
                        ctx.local_step();
                    }
                    backoff = (backoff * 2).min(COHORT_MAX_BACKOFF);
                }
            }
        }
        // Critical section, raw (no helpers exist to race with).
        let frame = Frame::create(ctx, self.registry, req.thunk, tags.next_base(), req.args);
        frame.run_raw(ctx, self.registry);
        // Release in reverse order.
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
    use wfl_runtime::schedule::{RoundRobin, SeededRandom, StallWindow, Stalls};
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
    fn counter_is_exact_without_crashes() {
        for seed in 0..10 {
            let mut registry = Registry::new();
            let incr = registry.register(Incr);
            let heap = Heap::new(1 << 20);
            let algo = BlockingTpl::create_root(&heap, &registry, 2);
            let counter = heap.alloc_root(1);
            let algo_ref = &algo;
            let report = SimBuilder::new(&heap, 4)
                .schedule(SeededRandom::new(4, seed))
                .max_steps(10_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = wfl_core::Scratch::new();
                        for _ in 0..5 {
                            let locks = [LockId(0), LockId(1)];
                            let req = TryLockRequest {
                                locks: &locks,
                                thunk: incr,
                                args: &[counter.to_word()],
                            };
                            let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                            assert!(out.won);
                        }
                    }
                })
                .run();
            report.assert_clean();
            assert_eq!(cell::value(heap.peek(counter)), 20, "seed {seed}");
        }
    }

    #[test]
    fn cohort_mode_counter_is_exact_and_renamed() {
        for seed in 0..10 {
            let mut registry = Registry::new();
            let incr = registry.register(Incr);
            let heap = Heap::new(1 << 20);
            let algo = BlockingTpl::create_root_placed(&heap, &registry, 2, Placement::Padded)
                .with_mode(BlockingMode::Cohort);
            let counter = heap.alloc_root(1);
            let algo_ref = &algo;
            let report = SimBuilder::new(&heap, 4)
                .schedule(SeededRandom::new(4, seed))
                .max_steps(10_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = wfl_core::Scratch::new();
                        for _ in 0..5 {
                            let locks = [LockId(0), LockId(1)];
                            let req = TryLockRequest {
                                locks: &locks,
                                thunk: incr,
                                args: &[counter.to_word()],
                            };
                            let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                            assert!(out.won, "cohort backoff must still always acquire");
                        }
                    }
                })
                .run();
            report.assert_clean();
            assert_eq!(cell::value(heap.peek(counter)), 20, "seed {seed}");
        }
    }

    #[test]
    fn padded_lock_words_own_distinct_lines() {
        let registry = Registry::new();
        let heap = Heap::new(1 << 12);
        let algo = BlockingTpl::create_root_placed(&heap, &registry, 4, Placement::Padded);
        let lines: Vec<usize> =
            (0..4).map(|id| algo.lock_word(id).0 as usize / wfl_runtime::LINE_WORDS).collect();
        let mut dedup = lines.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "padded lock words share lines: {lines:?}");
    }

    #[test]
    fn cohort_deadline_still_bails_out() {
        // The backoff loop must not starve the bail-out polls: an armed
        // deadline still aborts a contender spinning on a dead holder.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 16);
        let algo = BlockingTpl::create_root(&heap, &registry, 1).with_mode(BlockingMode::Cohort);
        let counter = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 2)
            .schedule(RoundRobin::new(2))
            .max_steps(1_000_000)
            .drain_cap(100_000)
            .spawn(move |ctx: &Ctx| {
                let w = Addr(1);
                loop {
                    if ctx.read(w) == 0 && ctx.cas_bool(w, 0, 1) {
                        break;
                    }
                }
                loop {
                    ctx.local_step();
                }
            })
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(1);
                let mut scratch = wfl_core::Scratch::new();
                scratch.deadline = wfl_core::Deadline::after(ctx, 2_000);
                let locks = [LockId(0)];
                let req =
                    TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                assert!(!out.won && out.aborted);
            })
            .run();
        assert_eq!(report.poisoned, vec![0], "the cohort contender must exit on its own");
    }

    #[test]
    fn crashed_holder_blocks_everyone() {
        // Process 0 takes the lock then never runs again; process 1 spins
        // until the drain gives up and poisons it: the blocking baseline's
        // non-wait-freedom, made visible.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 16);
        let algo = BlockingTpl::create_root(&heap, &registry, 1);
        let counter = heap.alloc_root(1);
        let algo_ref = &algo;
        // Crash pid 0 shortly after it acquires (it acquires within its
        // first ~20 steps; crash at t=50 of the round-robin schedule).
        let report = SimBuilder::new(&heap, 2)
            .schedule(Stalls::new(RoundRobin::new(2), vec![StallWindow::crash(0, 50)]))
            .max_steps(20_000)
            .drain_cap(100_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = wfl_core::Scratch::new();
                    let locks = [LockId(0)];
                    let req =
                        TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                    // pid 0: acquire, then "crash" (the schedule stops it
                    // mid-critical-section; it spins on a flag forever).
                    if pid == 0 {
                        algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                        // Hold the lock again and never release: simulate
                        // crashing inside the critical section.
                        let w = heap_lock_word(ctx);
                        loop {
                            if ctx.read(w) == 0 && ctx.cas_bool(w, 0, 1) {
                                break;
                            }
                        }
                        loop {
                            ctx.local_step(); // crashed while holding
                        }
                    } else {
                        algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                    }
                }
            })
            .run();
        // Someone is poisoned: either the crashed holder (stalled forever)
        // or the spinner (blocked forever) — blocking is not wait-free.
        assert!(!report.poisoned.is_empty(), "expected unbounded blocking");
    }

    /// The first allocation in this test's heap layout after the lock
    /// words: lock word 0 lives at the algo's base.
    fn heap_lock_word(_ctx: &Ctx<'_>) -> Addr {
        // BlockingTpl::create_root allocated the lock array first (word 1).
        Addr(1)
    }

    #[test]
    fn drain_bails_out_spinners_with_a_failed_attempt() {
        // A holder that never releases used to wedge every contender until
        // the simulator poisoned them. With the stop-aware spin, the
        // contender observes the drain's stop flag, releases nothing it
        // doesn't hold, and returns `won == false` — only the genuinely
        // stuck holder is poisoned, and the critical section never ran.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 16);
        let algo = BlockingTpl::create_root(&heap, &registry, 1);
        let counter = heap.alloc_root(1);
        let outcome_out = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 2)
            .schedule(RoundRobin::new(2))
            .max_steps(5_000)
            .drain_cap(100_000)
            .spawn(move |ctx: &Ctx| {
                // pid 0: grab the lock word raw and never release (a crashed
                // holder), ignoring the stop flag.
                let w = heap_lock_word(ctx);
                loop {
                    if ctx.read(w) == 0 && ctx.cas_bool(w, 0, 1) {
                        break;
                    }
                }
                loop {
                    ctx.local_step();
                }
            })
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(1);
                let mut scratch = wfl_core::Scratch::new();
                let locks = [LockId(0)];
                let req =
                    TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                ctx.heap().poke(outcome_out, 1 + out.won as u64);
            })
            .run();
        assert_eq!(report.poisoned, vec![0], "only the stuck holder is poisoned");
        assert_eq!(heap.peek(outcome_out), 1, "spinner must bail with won == false");
        assert_eq!(cell::value(heap.peek(counter)), 0, "bailed attempt must not run the thunk");
    }

    #[test]
    fn deadline_bails_out_of_a_contended_spin() {
        // Same shape as the stop-flag bail-out, but driven by an armed
        // scratch deadline: the contender acquires lock 0, spins on lock 1
        // (held by the crashed pid 0), and gives up once its own-step
        // deadline passes — releasing lock 0 and reporting an abort, long
        // before the drain phase would have rescued it.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 16);
        let algo = BlockingTpl::create_root(&heap, &registry, 2);
        let counter = heap.alloc_root(1);
        let out_cell = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 2)
            .schedule(RoundRobin::new(2))
            .max_steps(1_000_000)
            .drain_cap(100_000)
            .spawn(move |ctx: &Ctx| {
                // pid 0: hold lock word 1 forever.
                let w = Addr(2);
                loop {
                    if ctx.read(w) == 0 && ctx.cas_bool(w, 0, 1) {
                        break;
                    }
                }
                loop {
                    ctx.local_step();
                }
            })
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(1);
                let mut scratch = wfl_core::Scratch::new();
                scratch.deadline = wfl_core::Deadline::after(ctx, 500);
                let locks = [LockId(0), LockId(1)];
                let req =
                    TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                assert!(!out.won);
                assert!(out.aborted, "deadline expiry must be reported as an abort");
                assert!(!out.rescued, "no helpers exist in the blocking baseline");
                ctx.heap().poke(out_cell, 1);
            })
            .run();
        assert_eq!(report.poisoned, vec![0], "the contender must exit on its own");
        assert_eq!(heap.peek(out_cell), 1, "the contender's attempt must return");
        assert_eq!(heap.peek(Addr(1)), 0, "lock 0 must be released on deadline bail-out");
        assert_eq!(heap.peek(Addr(2)), 1, "lock 1 still held by the crashed holder");
        assert_eq!(cell::value(heap.peek(counter)), 0, "aborted attempt must not run the thunk");
    }

    #[test]
    fn bailout_releases_partially_acquired_locks() {
        // The contender acquires lock 0, then spins on lock 1 (held by the
        // crashed pid 0). On bail-out it must release lock 0, or shutdown
        // would leak a held lock into any later inspection.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 16);
        let algo = BlockingTpl::create_root(&heap, &registry, 2);
        let counter = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 2)
            .schedule(RoundRobin::new(2))
            .max_steps(5_000)
            .drain_cap(100_000)
            .spawn(move |ctx: &Ctx| {
                // pid 0: hold lock word 1 forever.
                let w = Addr(2); // second lock word of the array at Addr(1)
                loop {
                    if ctx.read(w) == 0 && ctx.cas_bool(w, 0, 1) {
                        break;
                    }
                }
                loop {
                    ctx.local_step();
                }
            })
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(1);
                let mut scratch = wfl_core::Scratch::new();
                let locks = [LockId(0), LockId(1)];
                let req =
                    TryLockRequest { locks: &locks, thunk: incr, args: &[counter.to_word()] };
                let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                assert!(!out.won);
            })
            .run();
        assert_eq!(report.poisoned, vec![0]);
        assert_eq!(heap.peek(Addr(1)), 0, "lock 0 must be released on bail-out");
        assert_eq!(heap.peek(Addr(2)), 1, "lock 1 still held by the crashed holder");
    }
}
