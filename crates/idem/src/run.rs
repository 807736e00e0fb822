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
//! Slot states advance monotonically `EMPTY → (WITNESS →) DONE`. A helper
//! marks a slot DONE only after the operation's effect has happened, and
//! starts operation `i + 1` only after seeing slot `i` DONE, so all runs
//! agree on every result, and hence (for deterministic thunks) on the
//! entire operation sequence.
//!
//! No operation re-reads a word to confirm what a CAS already decided: the
//! agreement CAS on the slot returns the agreed word itself, and an apply
//! CAS from the agreed witness proves the apply happened whether it
//! succeeds or fails. A read takes at most [`READ_MAX_STEPS`] own steps, a
//! write or cas at most [`OP_MAX_STEPS`], under any interleaving.
//!
//! # Safety scope (see DESIGN.md §1.4)
//!
//! * `read` is correct under arbitrary concurrent mutation of the cell.
//! * `write` and `cas` are correct when, during the thunk's interval, the
//!   target cell is mutated only by helpers of this same thunk — exactly
//!   the protection the lock algorithm provides for critical-section data.
//!   (Stale helpers of earlier operations and thunks are harmless: they
//!   apply from witnesses that can never recur.)

use crate::cell;
use crate::tag::op_tag;
use wfl_runtime::{Addr, Ctx};

const ST_MASK: u64 = 0b11 << 62;
const ST_EMPTY: u64 = 0b00 << 62;
const ST_WITNESS: u64 = 0b01 << 62;
const ST_DONE: u64 = 0b10 << 62;
const PAYLOAD_MASK: u64 = (1 << 62) - 1;

/// Worst-case own steps of one logged `write` or `cas` (Theorem 4.2's
/// constant): agree on a witness (slot read, cell read, CAS), apply it
/// (CAS) and retire the slot (CAS). A helper that finds the slot already
/// agreed skips the cell read and the agreement CAS; one that finds it
/// DONE returns after the slot read. A solo run takes exactly 5.
pub const OP_MAX_STEPS: u64 = 5;

/// Worst-case own steps of one logged `read`: slot read, cell read and the
/// recording CAS, whose reply is the agreed value. A solo run takes
/// exactly 3.
pub const READ_MAX_STEPS: u64 = 3;

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
        let s = self.ctx.read_acq(slot);
        if s & ST_MASK == ST_DONE {
            return payload(s) as u32;
        }
        // Record the value we see; the first recorder wins, and a failed
        // CAS replies with the winner's record.
        let v = cell::value(self.ctx.read_acq(cell_addr));
        let prev = self.ctx.cas_val_sync(slot, ST_EMPTY, ST_DONE | v as u64);
        if prev == ST_EMPTY {
            return v;
        }
        debug_assert_eq!(prev & ST_MASK, ST_DONE, "corrupt log slot state {prev:#x}");
        payload(prev) as u32
    }

    /// Agrees with the other helpers on the witness of the op at `slot`:
    /// the cell word it applies from. Returns the agreed slot word, WITNESS
    /// or DONE.
    ///
    /// A witness proposal succeeds only while the slot is still EMPTY, so
    /// no helper has applied this op yet and no later op has started: the
    /// cell still holds the proposed word, and only this op's apply can
    /// move it off. If the slot has moved on, the CAS fails and replies
    /// with the word that beat it; the EMPTY branch never touches the cell
    /// with a stale read.
    fn agree(&self, slot: Addr, cell_addr: Addr) -> u64 {
        let mut agreed = self.ctx.read_acq(slot);
        if agreed & ST_MASK == ST_EMPTY {
            let proposed = ST_WITNESS | self.ctx.read_acq(cell_addr);
            let prev = self.ctx.cas_val_sync(slot, ST_EMPTY, proposed);
            agreed = if prev == ST_EMPTY { proposed } else { prev };
        }
        debug_assert_ne!(agreed & ST_MASK, ST_MASK, "corrupt log slot state {agreed:#x}");
        agreed
    }

    /// Idempotent write of a 32-bit value to a tagged cell.
    ///
    /// Helpers first agree (via the log slot) on a single witnessed cell
    /// word, then apply with a CAS that expects exactly that witness —
    /// never a re-read value. Because the witness can never recur in the
    /// cell, at most one apply can ever succeed, *including* by helpers
    /// that slept across the op's completion (the double-apply race a
    /// check-then-apply scheme would allow — found by the seed-106
    /// adversarial trace, see the regression test in `tests/`). A failed
    /// apply means the cell already left the witness, which only this op's
    /// apply can do, so either way the write has happened when the slot is
    /// retired. Requires that the cell is not concurrently mutated by code
    /// outside this thunk's helpers (lock-protected data).
    pub fn write(&mut self, cell_addr: Addr, value: u32) {
        if matches!(self.mode, Mode::Raw) {
            self.next_op += 1;
            self.ctx.write_rel(cell_addr, cell::untagged(value));
            return;
        }
        let (slot, tag) = self.take_op();
        let s = self.agree(slot, cell_addr);
        if s & ST_MASK == ST_DONE {
            return;
        }
        self.ctx.cas_bool_sync(cell_addr, payload(s), cell::pack(tag, value));
        self.ctx.cas_bool_sync(slot, s, ST_DONE);
    }

    /// Idempotent compare-and-swap on a tagged cell: atomically replaces
    /// the value `expected` with `new`; returns whether it succeeded. All
    /// runs observe the same outcome.
    ///
    /// Uses the witness protocol of [`IdemRun::write`]. The outcome is a
    /// pure function of the agreed witness, so every helper computes the
    /// same one: a failure linearizes at the witness read, a success at
    /// the unique apply. Requires that the cell is mutated only by this
    /// thunk's helpers during the thunk's interval (lock-protected data).
    pub fn cas(&mut self, cell_addr: Addr, expected: u32, new: u32) -> bool {
        if matches!(self.mode, Mode::Raw) {
            self.next_op += 1;
            return self
                .ctx
                .cas_bool_sync(cell_addr, cell::untagged(expected), cell::untagged(new));
        }
        let (slot, tag) = self.take_op();
        let s = self.agree(slot, cell_addr);
        if s & ST_MASK == ST_DONE {
            return payload(s) != 0;
        }
        let w = payload(s);
        let ok = cell::value(w) == expected;
        if ok {
            self.ctx.cas_bool_sync(cell_addr, w, cell::pack(tag, new));
        }
        // A failed retire means another helper made the same transition.
        self.ctx.cas_bool_sync(slot, s, ST_DONE | ok as u64);
        ok
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
        assert_eq!(costs, vec![3, 5, 5], "read, write, cas");
        assert_eq!(costs, vec![READ_MAX_STEPS, OP_MAX_STEPS, OP_MAX_STEPS], "solo runs hit the worst case");
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
        // witness-protocol write costs 5 steps (slot read, cell read,
        // agreement CAS, apply CAS, retire CAS), so 6n is a safe bound.
        assert!(steps <= 6 * n + 16, "steps {steps} for {n} ops is not O(1) overhead");
        for i in 0..n {
            assert_eq!(cell::value(heap.peek(base.off(i as u32))), i as u32);
        }
    }
}
