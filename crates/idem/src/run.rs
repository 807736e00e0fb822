//! The idempotent operation protocols.
//!
//! An [`IdemRun`] is one process's cursor over a thunk frame's operation
//! log. Operations execute in program order; op `i` uses log slot `i`.
//! Each slot is a single word:
//!
//! ```text
//! bits 63..62: state — 00 EMPTY, 01 WITNESS, 10 DONE
//! bits 61..0:  payload — for WITNESS, the full witnessed cell word;
//!              for DONE, the recorded result
//! ```
//!
//! Slot states advance monotonically `EMPTY → (WITNESS →) DONE`; an
//! operation returns only once its slot is DONE, so all runs agree on every
//! result, and hence (for deterministic thunks) on the entire operation
//! sequence.
//!
//! # Safety scope (see DESIGN.md §1.4)
//!
//! * `read` is correct under arbitrary concurrent mutation of the cell.
//! * `write` and `cas` are correct when, during the thunk's interval, the
//!   target cell is mutated only by helpers of this same thunk — exactly
//!   the protection the lock algorithm provides for critical-section data.
//!   (`write` additionally tolerates *earlier stale helpers* of the same
//!   thunk, whose re-applies are defused by tag uniqueness.)

use crate::cell;
use crate::tag::op_tag;
use wfl_runtime::{Addr, Ctx};

const ST_MASK: u64 = 0b11 << 62;
const ST_EMPTY: u64 = 0b00 << 62;
const ST_WITNESS: u64 = 0b01 << 62;
const ST_DONE: u64 = 0b10 << 62;
const PAYLOAD_MASK: u64 = (1 << 62) - 1;

/// Worst-case own steps of one logged operation (Theorem 4.2's constant).
/// `write` and `cas` take at most 10: propose a witness (slot read, cell
/// read, CAS), apply it (slot read, cell read, CAS), retire the slot (slot
/// read, cell read, CAS) and see it DONE (slot read). A failed CAS can only
/// skip ahead, since slot states never move back. `read` takes at most 4.
/// A solo run takes exactly these counts (tests below).
pub const OP_MAX_STEPS: u64 = 10;

#[inline]
fn payload(slot: u64) -> u64 {
    slot & PAYLOAD_MASK
}

/// Execution mode of a cursor: logged (idempotent) or raw (direct).
enum Mode {
    /// Idempotent execution through the operation log.
    Logged { log_base: Addr, nops: usize, tag_base: u32 },
    /// Raw execution: operations go straight to memory with tag 0. NOT
    /// idempotent — for baselines and for measuring the construction's
    /// overhead (experiment E9). Never run concurrently with helpers.
    Raw,
}

/// One process's execution cursor over a thunk frame.
pub struct IdemRun<'c, 'h> {
    ctx: &'c Ctx<'h>,
    args_base: Addr,
    nargs: usize,
    mode: Mode,
    next_op: usize,
}

impl std::fmt::Debug for IdemRun<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdemRun").field("next_op", &self.next_op).finish()
    }
}

impl<'c, 'h> IdemRun<'c, 'h> {
    /// Creates a logged (idempotent) cursor (called by
    /// [`crate::Frame::help`]).
    pub(crate) fn new(
        ctx: &'c Ctx<'h>,
        args_base: Addr,
        nargs: usize,
        log_base: Addr,
        nops: usize,
        tag_base: u32,
    ) -> IdemRun<'c, 'h> {
        IdemRun { ctx, args_base, nargs, mode: Mode::Logged { log_base, nops, tag_base }, next_op: 0 }
    }

    /// Creates a raw cursor (called by [`crate::Frame::run_raw`]).
    pub(crate) fn new_raw(ctx: &'c Ctx<'h>, args_base: Addr, nargs: usize) -> IdemRun<'c, 'h> {
        IdemRun { ctx, args_base, nargs, mode: Mode::Raw, next_op: 0 }
    }

    /// The executing process's context (for local steps and randomness;
    /// do **not** bypass the log with direct shared accesses).
    pub fn ctx(&self) -> &'c Ctx<'h> {
        self.ctx
    }

    /// Reads immutable argument `i` (these are fixed before the frame is
    /// published, so a plain read is safe).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn arg(&self, i: usize) -> u64 {
        assert!(i < self.nargs, "argument {i} out of range ({} args)", self.nargs);
        self.ctx.read_acq(self.args_base.off(i as u32))
    }

    /// Number of operations executed so far by this cursor.
    pub fn ops_used(&self) -> usize {
        self.next_op
    }

    #[inline]
    fn take_op(&mut self) -> (Addr, u32) {
        let Mode::Logged { log_base, nops, tag_base } = self.mode else {
            unreachable!("take_op in raw mode")
        };
        assert!(
            self.next_op < nops,
            "thunk exceeded its declared max_ops ({nops})"
        );
        let slot = log_base.off(self.next_op as u32);
        let tag = op_tag(tag_base, self.next_op);
        self.next_op += 1;
        (slot, tag)
    }

    /// Idempotent read of a tagged cell: returns the (agreed) 32-bit value.
    ///
    /// All runs of the thunk observe the same value — the one recorded by
    /// the first helper to fill the log slot — which is the operation's
    /// linearization point. Safe under arbitrary concurrent writers.
    pub fn read(&mut self, cell_addr: Addr) -> u32 {
        if matches!(self.mode, Mode::Raw) {
            self.next_op += 1;
            return cell::value(self.ctx.read_acq(cell_addr));
        }
        let (slot, _tag) = self.take_op();
        loop {
            let s = self.ctx.read_acq(slot);
            if s & ST_MASK == ST_DONE {
                wfl_runtime::trace::emit(|| format!("t={} pid={} idem.read cell={:?} slot={:?} -> {}", self.ctx.now(), self.ctx.pid(), cell_addr, slot, payload(s) as u32));
                return payload(s) as u32;
            }
            let w = self.ctx.read_acq(cell_addr);
            // Record the value we saw; the first recorder wins.
            self.ctx.cas_bool_sync(slot, ST_EMPTY, ST_DONE | cell::value(w) as u64);
        }
    }

    /// Idempotent write of a 32-bit value to a tagged cell.
    ///
    /// Uses the same two-phase **witness protocol** as [`IdemRun::cas`]:
    /// helpers first agree (via the log slot) on a single witnessed cell
    /// state, and the apply CAS expects exactly that agreed witness — never
    /// a re-read value. Because the witness (with its unique tag) can never
    /// recur in the cell, at most one apply can ever succeed, *including*
    /// by helpers that slept across the slot check (the double-apply race a
    /// check-then-apply scheme would allow — found by the seed-106
    /// adversarial trace, see the regression test in `tests/`). Requires
    /// that the cell is not concurrently mutated by code outside this
    /// thunk's helpers (lock-protected data).
    pub fn write(&mut self, cell_addr: Addr, value: u32) {
        if matches!(self.mode, Mode::Raw) {
            self.next_op += 1;
            self.ctx.write_rel(cell_addr, cell::untagged(value));
            return;
        }
        let (slot, tag) = self.take_op();
        loop {
            let s = self.ctx.read_acq(slot);
            match s & ST_MASK {
                ST_DONE => {
                    wfl_runtime::trace::emit(|| {
                        format!(
                            "t={} pid={} idem.write cell={:?} slot={:?} tag={:x} v={} done (cell now {:x})",
                            self.ctx.now(),
                            self.ctx.pid(),
                            cell_addr,
                            slot,
                            tag,
                            value,
                            self.ctx.heap().peek(cell_addr)
                        )
                    });
                    return;
                }
                ST_EMPTY => {
                    // Propose what we see as THE witness. If our slot read
                    // was stale (the op has advanced), this CAS fails and
                    // the loop re-reads the slot — we never touch the cell
                    // from the EMPTY branch.
                    let w = self.ctx.read_acq(cell_addr);
                    self.ctx.cas_bool_sync(slot, ST_EMPTY, ST_WITNESS | w);
                }
                ST_WITNESS => {
                    let w = payload(s);
                    let cur = self.ctx.read_acq(cell_addr);
                    if cell::tag(cur) == tag {
                        // The apply happened (by us or another helper).
                        self.ctx.cas_bool_sync(slot, s, ST_DONE);
                        continue;
                    }
                    // Apply from exactly the agreed witness; since `w` can
                    // never recur, at most one such CAS ever succeeds.
                    let ok = self.ctx.cas_bool_sync(cell_addr, w, cell::pack(tag, value));
                    wfl_runtime::trace::emit(|| {
                        format!(
                            "t={} pid={} idem.write cell={:?} slot={:?} tag={:x} v={} apply from {:x} ok={}",
                            self.ctx.now(),
                            self.ctx.pid(),
                            cell_addr,
                            slot,
                            tag,
                            value,
                            w,
                            ok
                        )
                    });
                }
                _ => unreachable!("corrupt log slot state {s:#x}"),
            }
        }
    }

    /// Idempotent compare-and-swap on a tagged cell: atomically replaces
    /// the value `expected` with `new`; returns whether it succeeded. All
    /// runs observe the same outcome.
    ///
    /// Uses a two-phase witness protocol: helpers agree (via the log) on a
    /// single witnessed cell state; a failure outcome linearizes at that
    /// witness read, a success at the unique apply. Requires that the cell
    /// is mutated only by this thunk's helpers during the thunk's interval
    /// (lock-protected data).
    pub fn cas(&mut self, cell_addr: Addr, expected: u32, new: u32) -> bool {
        if matches!(self.mode, Mode::Raw) {
            self.next_op += 1;
            return self
                .ctx
                .cas_bool_sync(cell_addr, cell::untagged(expected), cell::untagged(new));
        }
        let (slot, tag) = self.take_op();
        loop {
            let s = self.ctx.read_acq(slot);
            match s & ST_MASK {
                ST_DONE => return payload(s) != 0,
                ST_EMPTY => {
                    let w = self.ctx.read_acq(cell_addr);
                    if cell::tag(w) == tag {
                        // Applied already (so a witness exists); re-read the
                        // slot, which can no longer be EMPTY.
                        continue;
                    }
                    // Propose what we saw as THE witness.
                    self.ctx.cas_bool_sync(slot, ST_EMPTY, ST_WITNESS | w);
                }
                ST_WITNESS => {
                    let w = payload(s);
                    if cell::value(w) != expected {
                        // Agreed witness refutes `expected`: CAS fails,
                        // linearizing at the witness read.
                        self.ctx.cas_bool_sync(slot, s, ST_DONE);
                        continue;
                    }
                    let cur = self.ctx.read_acq(cell_addr);
                    if cell::tag(cur) == tag {
                        // The apply happened (by us or another helper).
                        self.ctx.cas_bool_sync(slot, s, ST_DONE | 1);
                        continue;
                    }
                    // Apply from exactly the agreed witness; at most one
                    // such CAS can ever succeed.
                    self.ctx.cas_bool_sync(cell_addr, w, cell::pack(tag, new));
                }
                _ => unreachable!("corrupt log slot state {s:#x}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::registry::{Registry, Thunk};
    use crate::tag::TagSource;
    use wfl_runtime::schedule::{RoundRobin, SeededRandom};
    use wfl_runtime::sim::SimBuilder;
    use wfl_runtime::Heap;

    /// r = cas(c, exp, new); write(out, r ? 1 : 0)
    struct CasThenRecord;
    impl Thunk for CasThenRecord {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let c = Addr::from_word(run.arg(0));
            let out = Addr::from_word(run.arg(1));
            let exp = run.arg(2) as u32;
            let new = run.arg(3) as u32;
            let ok = run.cas(c, exp, new);
            run.write(out, if ok { 1 } else { 0 });
        }
        fn max_ops(&self) -> usize {
            2
        }
        fn max_steps(&self) -> u64 {
            // Four argument reads: one more than the default allows.
            crate::body_steps(2) + 1
        }
    }

    fn run_helpers(nprocs: usize, seed: u64, init_c: u32, exp: u32, new: u32) -> (u32, u32, u32) {
        let mut registry = Registry::new();
        let id = registry.register(CasThenRecord);
        let heap = Heap::new(1 << 12);
        let c = heap.alloc_root(1);
        let out = heap.alloc_root(1);
        heap.poke(c, cell::untagged(init_c));
        let mut tags = TagSource::new(0);
        let frame = Frame::create_root(
            &heap,
            &registry,
            id,
            tags.next_base(),
            &[c.to_word(), out.to_word(), exp as u64, new as u64],
        );
        let report = SimBuilder::new(&heap, nprocs)
            .schedule(SeededRandom::new(nprocs, seed))
            .spawn_all(|_pid| {
                let registry = &registry;
                move |ctx| frame.help(ctx, registry)
            })
            .run();
        report.assert_clean();
        (cell::value(heap.peek(c)), cell::value(heap.peek(out)), cell::tag(heap.peek(c)))
    }

    #[test]
    fn cas_success_applies_once_and_all_agree() {
        for seed in 0..30 {
            let (c, out, tag) = run_helpers(6, seed, 0, 0, 5);
            assert_eq!(c, 5, "seed {seed}");
            assert_eq!(out, 1, "seed {seed}: all runs must record success");
            assert_ne!(tag, 0, "cell must carry the op tag");
        }
    }

    #[test]
    fn cas_failure_has_no_effect_and_all_agree() {
        for seed in 0..30 {
            let (c, out, tag) = run_helpers(6, seed, 3, 0, 5);
            assert_eq!(c, 3, "seed {seed}: failed CAS must not change the cell");
            assert_eq!(out, 0, "seed {seed}: all runs must record failure");
            assert_eq!(tag, 0, "failed CAS must not install a tag");
        }
    }

    /// A chain of dependent ops across three cells, to check agreement on
    /// intermediate reads: b = a + 1; c = b * 2.
    struct Chain;
    impl Thunk for Chain {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let a = Addr::from_word(run.arg(0));
            let b = Addr::from_word(run.arg(1));
            let c = Addr::from_word(run.arg(2));
            let va = run.read(a);
            run.write(b, va + 1);
            let vb = run.read(b);
            run.write(c, vb * 2);
        }
        fn max_ops(&self) -> usize {
            4
        }
    }

    #[test]
    fn dependent_chain_matches_sequential_execution() {
        for seed in 0..30 {
            let mut registry = Registry::new();
            let id = registry.register(Chain);
            let heap = Heap::new(1 << 12);
            let a = heap.alloc_root(1);
            let b = heap.alloc_root(1);
            let c = heap.alloc_root(1);
            heap.poke(a, cell::untagged(10));
            let mut tags = TagSource::new(0);
            let frame = Frame::create_root(
                &heap,
                &registry,
                id,
                tags.next_base(),
                &[a.to_word(), b.to_word(), c.to_word()],
            );
            let report = SimBuilder::new(&heap, 5)
                .schedule(SeededRandom::new(5, 77 + seed))
                .spawn_all(|_pid| {
                    let registry = &registry;
                    move |ctx| frame.help(ctx, registry)
                })
                .run();
            report.assert_clean();
            assert_eq!(cell::value(heap.peek(b)), 11, "seed {seed}");
            assert_eq!(cell::value(heap.peek(c)), 22, "seed {seed}");
        }
    }

    /// Reads agree even when a racy external writer keeps flipping the cell.
    struct ReadTwiceRecord;
    impl Thunk for ReadTwiceRecord {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let src = Addr::from_word(run.arg(0));
            let out1 = Addr::from_word(run.arg(1));
            let out2 = Addr::from_word(run.arg(2));
            let v1 = run.read(src);
            run.write(out1, v1);
            let v2 = run.read(src);
            run.write(out2, v2);
        }
        fn max_ops(&self) -> usize {
            4
        }
    }

    #[test]
    fn racy_reads_are_agreed_and_plausible() {
        for seed in 0..20 {
            let mut registry = Registry::new();
            let id = registry.register(ReadTwiceRecord);
            let heap = Heap::new(1 << 12);
            let src = heap.alloc_root(1);
            let out1 = heap.alloc_root(1);
            let out2 = heap.alloc_root(1);
            heap.poke(src, cell::untagged(100));
            let mut tags = TagSource::new(0);
            let frame = Frame::create_root(
                &heap,
                &registry,
                id,
                tags.next_base(),
                &[src.to_word(), out1.to_word(), out2.to_word()],
            );
            // Processes 0..3 help; process 3 is a racy writer flipping src
            // between 100 and 200 with plain (untagged) writes.
            let reg = &registry;
            let report = SimBuilder::new(&heap, 4)
                .schedule(SeededRandom::new(4, 555 + seed))
                .spawn(move |ctx: &Ctx| frame.help(ctx, reg))
                .spawn(move |ctx: &Ctx| frame.help(ctx, reg))
                .spawn(move |ctx: &Ctx| frame.help(ctx, reg))
                .spawn(move |ctx: &Ctx| {
                    for i in 0..200u32 {
                        ctx.write(src, cell::untagged(if i % 2 == 0 { 200 } else { 100 }));
                    }
                })
                .run();
            report.assert_clean();
            let o1 = cell::value(heap.peek(out1));
            let o2 = cell::value(heap.peek(out2));
            assert!(o1 == 100 || o1 == 200, "seed {seed}: out1={o1}");
            assert!(o2 == 100 || o2 == 200, "seed {seed}: out2={o2}");
        }
    }

    /// Ops beyond max_ops must panic loudly (they would overrun the log).
    struct Overrun;
    impl Thunk for Overrun {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let a = Addr::from_word(run.arg(0));
            run.read(a);
            run.read(a);
        }
        fn max_ops(&self) -> usize {
            1
        }
    }

    #[test]
    fn exceeding_max_ops_is_reported() {
        let mut registry = Registry::new();
        let id = registry.register(Overrun);
        let heap = Heap::new(1 << 10);
        let a = heap.alloc_root(1);
        let mut tags = TagSource::new(0);
        let frame = Frame::create_root(&heap, &registry, id, tags.next_base(), &[a.to_word()]);
        let reg = &registry;
        let report = SimBuilder::new(&heap, 1).spawn(move |ctx: &Ctx| frame.help(ctx, reg)).run();
        assert_eq!(report.panics.len(), 1);
        assert!(report.panics[0].1.contains("max_ops"));
    }

    /// Records the own steps each of a read, a write and a successful cas
    /// takes, via uncounted pokes into the cells at args 1..=3.
    struct OpCosts;
    impl Thunk for OpCosts {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let c = Addr::from_word(run.arg(0));
            let outs: Vec<Addr> = (1..=3).map(|i| Addr::from_word(run.arg(i))).collect();
            let ctx = run.ctx();
            let t = ctx.steps();
            let v = run.read(c);
            let t_read = ctx.steps();
            run.write(c, v + 1);
            let t_write = ctx.steps();
            run.cas(c, v + 1, v + 2);
            let t_cas = ctx.steps();
            ctx.heap().poke(outs[0], t_read - t);
            ctx.heap().poke(outs[1], t_write - t_read);
            ctx.heap().poke(outs[2], t_cas - t_write);
        }
        fn max_ops(&self) -> usize {
            3
        }
    }

    #[test]
    fn solo_ops_take_exactly_their_worst_case_steps() {
        let mut registry = Registry::new();
        let id = registry.register(OpCosts);
        let heap = Heap::new(1 << 10);
        let c = heap.alloc_root(1);
        let outs = heap.alloc_root(3);
        let mut tags = TagSource::new(0);
        let args: Vec<u64> =
            std::iter::once(c.to_word()).chain((0..3).map(|i| outs.off(i).to_word())).collect();
        let frame = Frame::create_root(&heap, &registry, id, tags.next_base(), &args);
        let reg = &registry;
        let report = SimBuilder::new(&heap, 1).spawn(move |ctx: &Ctx| frame.help(ctx, reg)).run();
        report.assert_clean();
        let costs: Vec<u64> = (0..3).map(|i| heap.peek(outs.off(i))).collect();
        assert_eq!(costs, vec![4, OP_MAX_STEPS, OP_MAX_STEPS], "read, write, cas");
        assert_eq!(cell::value(heap.peek(c)), 2);
    }

    /// Step cost of an op sequence is linear with a small constant
    /// (Theorem 4.2: constant overhead per operation).
    struct ManyWrites(usize);
    impl Thunk for ManyWrites {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let base = Addr::from_word(run.arg(0));
            for i in 0..self.0 {
                run.write(base.off(i as u32), i as u32);
            }
        }
        fn max_ops(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn solo_run_overhead_is_constant_factor() {
        let n = 64;
        let mut registry = Registry::new();
        let id = registry.register(ManyWrites(n));
        let heap = Heap::new(1 << 14);
        let base = heap.alloc_root(n);
        let mut tags = TagSource::new(0);
        let frame = Frame::create_root(&heap, &registry, id, tags.next_base(), &[base.to_word()]);
        let reg = &registry;
        let report = SimBuilder::new(&heap, 1)
            .schedule(RoundRobin::new(1))
            .spawn(move |ctx: &Ctx| frame.help(ctx, reg))
            .run();
        report.assert_clean();
        let steps = report.steps[0] as usize;
        // A raw run would take n writes; the idempotent run must stay
        // within a constant factor (plus frame-header constant). A solo
        // witness-protocol write costs 10 steps (3 slot reads, 2 cell
        // reads, 3 CAS, bookkeeping), so 12n is a safe constant bound.
        assert!(steps <= 12 * n + 16, "steps {steps} for {n} ops is not O(1) overhead");
        for i in 0..n {
            assert_eq!(cell::value(heap.peek(base.off(i as u32))), i as u32);
        }
    }
}
