//! TryLock attempt descriptors (Algorithm 3's `Descriptor` struct).
//!
//! A descriptor is the shared record of one tryLock attempt: the lock set,
//! the thunk frame, a status word (`active`/`won`/`lost`) and a priority
//! word. The priority word doubles as the multi-active-set flag:
//!
//! * `0` — unset (flag false; the paper's `-1`);
//! * `1` — TBD (participation-revealed, priority not yet drawn; only used
//!   by the unknown-bounds variant of §6.2);
//! * `≥ 2` — a revealed priority. Priorities are unique: 41 random bits
//!   concatenated with the attempt's unique 22-bit tag serial, with the
//!   top bit set (paper footnote 3: a poly(P) range avoids collisions; we
//!   make them impossible outright).
//!
//! Layout (heap words, `L` = lock count of this attempt):
//!
//! ```text
//! word 0:            status (0 active, 1 won, 2 lost)
//! word 1:            priority / flag
//! word 2:            lock count | (snapshot addr << 16) for §6.2
//! word 3:            thunk frame address
//! word 4 .. 4+L:     lock ids
//! ```

use wfl_idem::Frame;
use wfl_runtime::{Addr, Ctx, Heap};

/// Status value: still competing.
pub const ST_ACTIVE: u64 = 0;
/// Status value: won all its competitions; thunk may run.
pub const ST_WON: u64 = 1;
/// Status value: eliminated by a higher-priority competitor.
pub const ST_LOST: u64 = 2;
/// Status value: won, and the thunk was claimed for batch execution by a
/// combining lock holder (the [`LockConfig::combine`] fast path).
/// Semantically a win — every status check that accepts [`ST_WON`] must
/// accept this via [`is_won`] — but recorded separately so the owner
/// reports a [`AttemptMetrics::combined`] win instead of re-running the
/// protocol.
///
/// [`LockConfig::combine`]: crate::LockConfig::combine
/// [`AttemptMetrics::combined`]: crate::AttemptMetrics::combined
pub const ST_COMBINED: u64 = 3;

/// Whether a status word denotes a win (either the ordinary `decide` CAS
/// or a combining grant). The `active → combined` transition is a one-shot
/// CAS just like `decide`, so it is mutually exclusive with `eliminate`.
#[inline]
pub fn is_won(status: u64) -> bool {
    status == ST_WON || status == ST_COMBINED
}

/// Priority value: unset (multi-active-set flag is false).
pub const PRIO_UNSET: u64 = 0;
/// Priority value: participating, priority to be drawn (§6.2 only).
pub const PRIO_TBD: u64 = 1;

/// Identifier of a lock (an index into a [`crate::space::LockSpace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// Handle to a descriptor record in the shared heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Desc(pub Addr);

const W_STATUS: u32 = 0;
const W_PRIO: u32 = 1;
const W_META: u32 = 2;
const W_FRAME: u32 = 3;
const W_LOCKS: u32 = 4;

impl Desc {
    /// Words needed for a descriptor with `nlocks` locks.
    pub fn words(nlocks: usize) -> usize {
        W_LOCKS as usize + nlocks
    }

    /// Own steps [`Desc::create`] takes for `nlocks` locks: the allocation,
    /// two header writes and one write per lock id.
    pub const fn create_steps(nlocks: usize) -> u64 {
        3 + nlocks as u64
    }

    /// Allocates and initializes a descriptor (counted steps; the record
    /// is private until inserted into the active sets, whose insert CAS is
    /// the Release publication point — so Release init writes suffice).
    pub fn create(ctx: &Ctx<'_>, locks: &[LockId], frame: Frame) -> Desc {
        let base = ctx.alloc(Self::words(locks.len()));
        // status = ACTIVE (0) and priority = UNSET (0) from the allocator.
        ctx.write_rel(base.off(W_META), locks.len() as u64);
        ctx.write_rel(base.off(W_FRAME), frame.0.to_word());
        for (i, l) in locks.iter().enumerate() {
            ctx.write_rel(base.off(W_LOCKS + i as u32), l.0 as u64);
        }
        Desc(base)
    }

    /// The item value stored in active sets (the descriptor's address).
    #[inline]
    pub fn item(self) -> u64 {
        self.0.to_word()
    }

    /// Recovers a descriptor handle from an active-set item.
    #[inline]
    pub fn from_item(item: u64) -> Desc {
        Desc(Addr::from_word(item))
    }

    /// Address of the status word.
    #[inline]
    pub fn status_addr(self) -> Addr {
        self.0.off(W_STATUS)
    }

    /// Address of the priority word.
    #[inline]
    pub fn prio_addr(self) -> Addr {
        self.0.off(W_PRIO)
    }

    /// Reads the status word (one step; Acquire under the tiered
    /// ordering — a `WON` observation must also see the frame).
    #[inline]
    pub fn status(self, ctx: &Ctx<'_>) -> u64 {
        ctx.read_acq(self.status_addr())
    }

    /// Reads the priority word (one step; Acquire — a revealed priority
    /// must also make the descriptor body and §6.2 snapshot visible).
    #[inline]
    pub fn priority(self, ctx: &Ctx<'_>) -> u64 {
        ctx.read_acq(self.prio_addr())
    }

    /// Number of locks in the attempt's lock set (one step).
    pub fn nlocks(self, ctx: &Ctx<'_>) -> usize {
        (ctx.read_acq(self.0.off(W_META)) & 0xffff) as usize
    }

    /// The `i`-th lock id (one step).
    pub fn lock(self, ctx: &Ctx<'_>, i: usize) -> LockId {
        LockId(ctx.read_acq(self.0.off(W_LOCKS + i as u32)) as u32)
    }

    /// The thunk frame (one step).
    pub fn frame(self, ctx: &Ctx<'_>) -> Frame {
        Frame(Addr::from_word(ctx.read_acq(self.0.off(W_FRAME))))
    }

    /// Publishes the §6.2 frozen-snapshot address (stored alongside the
    /// lock count; the snapshot is written before the priority reveal —
    /// the reveal's Release write is what makes it visible to helpers that
    /// see a revealed priority).
    pub fn set_snapshot(self, ctx: &Ctx<'_>, snap: Addr) {
        let nlocks = self.nlocks(ctx) as u64;
        ctx.write_rel(self.0.off(W_META), nlocks | (snap.to_word() << 16));
    }

    /// Reads the §6.2 frozen-snapshot address (NULL if absent).
    pub fn snapshot(self, ctx: &Ctx<'_>) -> Addr {
        Addr::from_word(ctx.read_acq(self.0.off(W_META)) >> 16)
    }

    /// Uncounted inspection of the status word (harness/tests).
    pub fn peek_status(self, heap: &Heap) -> u64 {
        heap.peek(self.status_addr())
    }
}

/// Builds a unique revealed priority from random bits and the attempt's
/// unique tag base: top bit set (so the value is always `> PRIO_TBD`),
/// then 41 random bits, then the 22-bit tag serial.
#[inline]
pub fn make_priority(random: u64, tag_base: u32) -> u64 {
    (1 << 63) | ((random & ((1 << 41) - 1)) << 22) | (tag_base >> 8) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_idem::TagSource;

    #[test]
    fn priorities_are_unique_even_with_equal_randomness() {
        let mut a = TagSource::new(0);
        let mut b = TagSource::new(1);
        let pa = make_priority(0xdead_beef, a.next_base());
        let pb = make_priority(0xdead_beef, b.next_base());
        assert_ne!(pa, pb, "tag serial must break ties");
        assert!(pa > PRIO_TBD && pb > PRIO_TBD);
    }

    #[test]
    fn priority_is_dominated_by_random_bits() {
        let mut t = TagSource::new(0);
        let base = t.next_base();
        let lo = make_priority(1, base);
        let hi = make_priority(2, base);
        assert!(hi > lo);
    }

    #[test]
    fn words_layout() {
        assert_eq!(Desc::words(0), 4);
        assert_eq!(Desc::words(3), 7);
    }
}
