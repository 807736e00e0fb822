//! CCSynch list-based combining (Fatourou & Kallimanis, PPoPP 2012,
//! *"Revisiting the combining synchronization technique"*).
//!
//! No lock word at all: contenders SWAP a fresh node onto a global tail,
//! publish their request (thunk frame) into the node they displaced, and
//! spin on it locally. Whoever exits its spin *uncompleted* is the
//! combiner: it walks the queue applying up to `H` requests back to
//! back, then hands combining duty to the first unapplied node. Each
//! process recycles one node (allocation-free after setup; nodes are
//! cache-line padded like PR 8's hot records).
//!
//! Aborts use the same claim-CAS discipline as [`crate::FcLock`]: the
//! combiner claims a request (`frame → TAKEN`) before running it, an
//! aborting owner *retracts* (`frame → RETRACTED`); whichever CAS lands
//! settles exactly-once. A retracting owner still spins to `wait == 0`
//! and still performs combining duty if handed it (applying everyone
//! else, skipping its own retracted slot) — bailing early would orphan
//! the queue behind it.
//!
//! The SWAP is emulated with a CAS loop (the runtime exposes no native
//! exchange), making arrival lock-free rather than wait-free — fine for
//! a baseline whose whole family is blocking under a frozen combiner.

use crate::obs;
use wfl_baselines::{AttemptOutcome, LockAlgo};
use wfl_core::{Scratch, TryLockRequest};
use wfl_idem::{Frame, Registry, TagSource};
use wfl_obs::EventKind;
use wfl_runtime::{Addr, Ctx, Heap, Placement, LINE_WORDS};

const W_WAIT: u32 = 0;
const W_DONE: u32 = 1;
const W_REQ: u32 = 2;
const W_NEXT: u32 = 3;
/// Words per queue node (packed placement).
const NODE_WORDS: u32 = 4;

/// Request word: nothing published yet (the tail dummy).
const REQ_NONE: u64 = 0;
/// Request word: retracted by an aborting owner before any combiner
/// claimed it (the combiner skips the node).
const REQ_RETRACTED: u64 = u64::MAX;
/// Request word: claimed by a combiner (the frame is being / has been
/// run). Frame addresses are small heap words, never near the sentinels.
const REQ_TAKEN: u64 = u64::MAX - 1;

/// CCSynch combining queue (one recycled node per process plus the
/// dummy).
pub struct CcSynch<'a> {
    registry: &'a Registry,
    /// Global queue tail: holds the address of the current dummy node.
    tail: Addr,
    /// Per-process spare-node slots (single-writer after setup).
    slots: Addr,
    nprocs: usize,
    slot_stride: u32,
    /// Combining bound `H`: max requests applied per combiner stint.
    h: u64,
}

impl<'a> CcSynch<'a> {
    /// Creates the queue (harness setup): `nprocs + 1` nodes, the tail
    /// pointing at the zeroed dummy.
    pub fn create_root(heap: &Heap, registry: &'a Registry, nprocs: usize) -> CcSynch<'a> {
        Self::create_root_placed(heap, registry, nprocs, Placement::Packed)
    }

    /// Creates the queue under an explicit [`Placement`] (padded: every
    /// node and slot owns a 64B line).
    pub fn create_root_placed(
        heap: &Heap,
        registry: &'a Registry,
        nprocs: usize,
        placement: Placement,
    ) -> CcSynch<'a> {
        assert!(nprocs > 0);
        let nnodes = nprocs + 1;
        let (tail, nodes, slots, node_stride, slot_stride) = match placement {
            Placement::Packed => (
                heap.alloc_root(1),
                heap.alloc_root(nnodes * NODE_WORDS as usize),
                heap.alloc_root(nprocs),
                NODE_WORDS,
                1u32,
            ),
            Placement::Padded => (
                heap.alloc_root_aligned(LINE_WORDS),
                heap.alloc_root_aligned(nnodes * LINE_WORDS),
                heap.alloc_root_aligned(nprocs * LINE_WORDS),
                LINE_WORDS as u32,
                LINE_WORDS as u32,
            ),
        };
        // Node 0 is the initial dummy: all-zero (wait=0, done=0, req=NONE,
        // next=0) is exactly the handed-off state. Each process starts
        // with node `pid + 1` as its spare.
        heap.poke(tail, nodes.to_word());
        for p in 0..nprocs {
            let spare = nodes.off((p as u32 + 1) * node_stride);
            heap.poke(slots.off(p as u32 * slot_stride), spare.to_word());
        }
        CcSynch { registry, tail, slots, nprocs, slot_stride, h: 4 * nprocs as u64 }
    }

    fn slot(&self, pid: usize) -> Addr {
        debug_assert!(pid < self.nprocs);
        self.slots.off(pid as u32 * self.slot_stride)
    }

    /// The combiner stint: walk the chain from `cur`, applying every
    /// unretracted request whose node has a successor, up to `h` nodes;
    /// hand duty to the first unapplied node. Returns
    /// `(others_applied, self_applied)` — `self` meaning `cur`'s own
    /// request.
    fn combine(&self, ctx: &Ctx<'_>, cur: Addr) -> (u64, bool) {
        obs(ctx, EventKind::CombinerEnter, 0);
        let mut others = 0u64;
        let mut self_applied = false;
        let mut tmp = cur;
        let mut count = 0u64;
        loop {
            // A node with no successor yet is the live dummy: its request
            // word is not yet published — hand off and stop.
            let next = ctx.read_acq(tmp.off(W_NEXT));
            if next == 0 || count >= self.h {
                break;
            }
            count += 1;
            let req = ctx.read_acq(tmp.off(W_REQ));
            if req != REQ_NONE
                && req != REQ_RETRACTED
                && req != REQ_TAKEN
                && ctx.cas_bool_sync(tmp.off(W_REQ), req, REQ_TAKEN)
            {
                obs(ctx, EventKind::CombinerApply, tmp.to_word());
                Frame(Addr::from_word(req)).run_raw(ctx, self.registry);
                if tmp == cur {
                    self_applied = true;
                } else {
                    others += 1;
                }
            }
            // Completed: Release order — done before the wait flip the
            // owner spins on.
            ctx.write_rel(tmp.off(W_DONE), 1);
            ctx.write_rel(tmp.off(W_WAIT), 0);
            tmp = Addr::from_word(next);
        }
        // Handoff: wait=0 with done=0 makes tmp's owner (or the next
        // arriver displacing the dummy) the next combiner.
        ctx.write_rel(tmp.off(W_WAIT), 0);
        obs(ctx, EventKind::CombinerExit, others + self_applied as u64);
        (others, self_applied)
    }
}

impl LockAlgo for CcSynch<'_> {
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
        let me = ctx.pid();
        // Pre-arrival bail: not enqueued, nothing to unwind.
        if ctx.stop_requested() || deadline.expired(ctx) {
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
        let frame = Frame::create(ctx, self.registry, req.thunk, tags.next_base(), req.args);
        let frame_word = frame.0.to_word();

        // Reset the spare node and SWAP it onto the tail (CAS loop).
        let next_node = Addr::from_word(ctx.read_acq(self.slot(me)));
        ctx.write_rel(next_node.off(W_NEXT), 0);
        ctx.write_rel(next_node.off(W_DONE), 0);
        ctx.write_rel(next_node.off(W_REQ), REQ_NONE);
        ctx.write_rel(next_node.off(W_WAIT), 1);
        let cur = loop {
            let t = ctx.read_acq(self.tail);
            if ctx.cas_bool_sync(self.tail, t, next_node.to_word()) {
                break Addr::from_word(t);
            }
        };
        // Publish into the displaced node: request first, then the next
        // link (Release) — a combiner that sees the link sees the frame.
        ctx.write_rel(cur.off(W_REQ), frame_word);
        ctx.write_rel(cur.off(W_NEXT), next_node.to_word());
        // Adopt the displaced node as the next attempt's spare; it is
        // fully settled before this attempt returns.
        ctx.write_rel(self.slot(me), cur.to_word());

        // Spin locally; retract on abort but keep spinning — the node
        // stays in the queue until a combiner (possibly us) settles it.
        let mut retracted = false;
        let mut tried_retract = false;
        while ctx.read_acq(cur.off(W_WAIT)) == 1 {
            if !tried_retract && (ctx.stop_requested() || deadline.expired(ctx)) {
                tried_retract = true;
                retracted = ctx.cas_bool_sync(cur.off(W_REQ), frame_word, REQ_RETRACTED);
            }
        }

        if ctx.read_acq(cur.off(W_DONE)) == 1 {
            // A combiner settled the node.
            if retracted {
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
            return AttemptOutcome {
                won: true,
                steps: ctx.steps() - start,
                aborted: tried_retract,
                // The retract lost the claim race: the thunk already
                // belonged to a combiner's batch — a rescued win, not a
                // combined one (same disjointness as wfl's abort path).
                rescued: tried_retract,
                combined: !tried_retract,
                combined_peers: 0,
                delay_overrun: false,
            };
        }

        // Handed combining duty (wait=0, done=0): our own request is
        // still unclaimed unless we retracted it ourselves.
        let (others, self_applied) = self.combine(ctx, cur);
        if retracted {
            debug_assert!(!self_applied);
            return AttemptOutcome {
                won: false,
                steps: ctx.steps() - start,
                aborted: true,
                rescued: false,
                combined: false,
                combined_peers: others,
                delay_overrun: false,
            };
        }
        debug_assert!(self_applied);
        AttemptOutcome {
            won: true,
            steps: ctx.steps() - start,
            aborted: false,
            rescued: false,
            combined: false,
            combined_peers: others,
            delay_overrun: false,
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
        let algo = CcSynch::create_root_placed(&heap, &registry, 4, placement);
        let counter = heap.alloc_root(1);
        let algo_ref = &algo;
        let report = SimBuilder::new(&heap, 4)
            .schedule(SeededRandom::new(4, seed))
            .max_steps(10_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    for _ in 0..5 {
                        let locks = [LockId(0)];
                        let req = TryLockRequest {
                            locks: &locks,
                            thunk: incr,
                            args: &[counter.to_word()],
                        };
                        let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                        assert!(out.won, "ccsynch attempts always complete without faults");
                        assert!(!out.aborted && !out.rescued);
                    }
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
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let algo = CcSynch::create_root(&heap, &registry, 4);
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
    fn expired_deadline_aborts_cleanly_and_node_is_reusable() {
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let algo = CcSynch::create_root(&heap, &registry, 1);
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
                assert!(!out.won && out.aborted && !out.rescued);
                scratch.deadline = Deadline::NEVER;
                for _ in 0..3 {
                    let out = algo_ref.attempt(ctx, &mut tags, &mut scratch, &req);
                    assert!(out.won && !out.combined, "solo attempts self-combine");
                }
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 3, "aborted attempt never ran");
    }
}
