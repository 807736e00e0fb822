//! Algorithm 1: the linearizable active set.
//!
//! An announcements array of `C` slots (plus a permanent sentinel slot `C`
//! that resolves the pseudocode's off-by-one corner case, see DESIGN.md
//! §1.5). Each slot holds an `owner` word (the member item, or 0) and a
//! `set` word (a pointer to an immutable snapshot list of the members at
//! this slot and above). `insert` claims the first ownerless slot by CAS
//! and *climbs*: at every slot from its own down to 0, twice, it recomputes
//! `set(j) := set(j+1) ∪ owner(j)` and installs the result with CAS, so
//! membership information propagates to slot 0 where `getSet` reads it.
//!
//! Snapshot lists are immutable cons cells in the shared arena. A slot's
//! `set` word is **versioned**: a 32-bit install count in the high half and
//! the list's node address in the low half (0 = the empty set). Every
//! install CAS writes the count plus one, so installed words never repeat
//! and a climb CAS can only succeed if the slot is unchanged since it was
//! read; stale climbers can never overwrite newer snapshots (the ABA that a
//! literal reading of the pseudocode would allow). Nodes therefore need not
//! be fresh: an ownerless slot installs the node of the slot above it, and
//! only a present owner costs a cons cell (DESIGN.md §1.5).

use wfl_runtime::{Addr, Ctx, Heap, Placement, LINE_WORDS};

/// Handle to an active set object in the shared heap.
///
/// The handle is plain data (`Copy`) and can be freely shared; all state
/// lives in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSet {
    base: Addr,
    capacity: u32,
    /// Words between consecutive slot bases: [`SLOT_WORDS`] packed (the
    /// historical back-to-back layout, 4 slots per cache line), or
    /// [`LINE_WORDS`] padded (each slot — and with it the hot owner word
    /// and its snapshot pointer — owns a full 64B line). The stride is
    /// pure address arithmetic: step sequences are identical either way.
    stride: u32,
}

/// List node: `[elem, next]`, `next` a plain node address (0 ends the list).
const NODE_WORDS: usize = 2;
const SLOT_WORDS: u32 = 2;

/// Low half of a versioned `set` word: the snapshot list's node address.
const ADDR_MASK: u64 = u32::MAX as u64;
/// One install in the high half of a versioned `set` word.
const VERSION_ONE: u64 = 1 << 32;

/// The node address a versioned `set` word points at (0 = empty set).
#[inline]
fn node_of(set: u64) -> u64 {
    set & ADDR_MASK
}

/// Worst-case own steps of one climb pass at one level: three reads, a cons
/// cell (allocation and two writes) and the install CAS.
const CLIMB_PASS_MAX_STEPS: u64 = 7;

/// Worst-case own steps of a climb from slot `k - 1`: `k` levels, two
/// passes each.
const fn climb_max_steps(k: usize) -> u64 {
    2 * CLIMB_PASS_MAX_STEPS * k as u64
}

/// Worst-case own steps of [`ActiveSet::insert`] when at most `k` items
/// (this one included) are present or being inserted: the claim lands in
/// one of slots `0..k`, each scanned slot costing a read and at most one
/// lost CAS, and the climb starts at most `k - 1` levels up.
pub const fn insert_max_steps(k: usize) -> u64 {
    2 * k as u64 + climb_max_steps(k)
}

/// Worst-case own steps of [`ActiveSet::remove`] under the same bound: the
/// owner clear and a climb from at most slot `k - 1`.
pub const fn remove_max_steps(k: usize) -> u64 {
    1 + climb_max_steps(k)
}

/// Own steps of [`ActiveSet::get_set`] returning `n` members: the snapshot
/// word read and two reads per list node.
pub const fn get_set_steps(n: usize) -> u64 {
    1 + 2 * n as u64
}

impl ActiveSet {
    /// Number of heap words an active set with `capacity` slots occupies
    /// in the packed layout.
    pub fn words(capacity: usize) -> usize {
        Self::words_placed(capacity, Placement::Packed)
    }

    /// Number of heap words an active set with `capacity` slots occupies
    /// under `placement` (excluding alignment slack).
    pub fn words_placed(capacity: usize, placement: Placement) -> usize {
        let stride = match placement {
            Placement::Packed => SLOT_WORDS as usize,
            Placement::Padded => LINE_WORDS,
        };
        (capacity + 1) * stride
    }

    /// Creates an active set with room for `capacity` concurrent members
    /// (the paper sizes this at the contention bound `κ`, or at the number
    /// of processes `P` for the unknown-bounds variant). Harness setup.
    /// Packed layout (kept byte-compatible for address-pinned tests); the
    /// harness default goes through [`ActiveSet::create_root_placed`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn create_root(heap: &Heap, capacity: usize) -> ActiveSet {
        Self::create_root_placed(heap, capacity, Placement::Packed)
    }

    /// Creates an active set under an explicit [`Placement`]. Padded sets
    /// get a line-aligned base and one cache line per slot, so concurrent
    /// claims of different slots (and the sentinel) never false-share.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn create_root_placed(heap: &Heap, capacity: usize, placement: Placement) -> ActiveSet {
        assert!(capacity > 0, "active set capacity must be positive");
        let words = Self::words_placed(capacity, placement);
        // All words zero: every owner empty, every snapshot pointer empty,
        // including the sentinel slot `capacity`.
        let (base, stride) = match placement {
            Placement::Packed => (heap.alloc_root(words), SLOT_WORDS),
            Placement::Padded => (heap.alloc_root_aligned(words), LINE_WORDS as u32),
        };
        ActiveSet { base, capacity: capacity as u32, stride }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The placement this set was created under.
    pub fn placement(&self) -> Placement {
        if self.stride == SLOT_WORDS {
            Placement::Packed
        } else {
            Placement::Padded
        }
    }

    /// The heap address of the first slot (tests and shard accounting).
    pub fn base(&self) -> Addr {
        self.base
    }

    #[inline]
    fn owner_addr(&self, slot: u32) -> Addr {
        self.base.off(slot * self.stride)
    }

    #[inline]
    fn set_addr(&self, slot: u32) -> Addr {
        self.base.off(slot * self.stride + 1)
    }

    /// Inserts `item` (nonzero), returning the slot index to pass to
    /// [`ActiveSet::remove`]. Takes `O(k)` steps where `k` bounds the
    /// concurrent members plus in-flight inserts.
    ///
    /// # Panics
    /// Panics if `item` is zero or no slot is free (point contention
    /// exceeded the configured capacity — a misconfigured `κ`).
    pub fn insert(&self, ctx: &Ctx<'_>, item: u64) -> usize {
        assert!(item != 0, "item 0 is reserved for empty slots");
        for i in 0..self.capacity {
            // The claim CAS is the publication point of `item`'s record
            // (AcqRel under the tiered ordering); the scan is Acquire.
            if ctx.read_acq(self.owner_addr(i)) == 0
                && ctx.cas_bool_sync(self.owner_addr(i), 0, item)
            {
                self.climb(ctx, i);
                return i as usize;
            }
        }
        panic!(
            "active set of capacity {} is full: point contention exceeded the configured bound",
            self.capacity
        );
    }

    /// Removes the item previously inserted at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn remove(&self, ctx: &Ctx<'_>, slot: usize) {
        assert!(slot < self.capacity as usize, "slot {slot} out of range");
        ctx.write_rel(self.owner_addr(slot as u32), 0);
        self.climb(ctx, slot as u32);
    }

    /// Reads the current membership snapshot into `out` (deduplicated,
    /// unordered). The snapshot pointer read is a single step; walking
    /// costs `O(k)`.
    pub fn get_set(&self, ctx: &Ctx<'_>, out: &mut Vec<u64>) {
        out.clear();
        // Acquire loads: the snapshot word was installed by a Release
        // CAS, so chasing it observes fully-initialized cons cells.
        let mut node = node_of(ctx.read_acq(self.set_addr(0)));
        while node != 0 {
            let a = Addr::from_word(node);
            let elem = ctx.read_acq(a);
            if !out.contains(&elem) {
                out.push(elem);
            }
            node = ctx.read_acq(a.off(1));
        }
    }

    /// Uncounted inspection of the current slot owners (harness,
    /// controllers, and debugging; not part of the algorithm).
    pub fn peek_owners(&self, heap: &Heap) -> Vec<u64> {
        (0..self.capacity)
            .map(|i| heap.peek(self.owner_addr(i)))
            .filter(|&o| o != 0)
            .collect()
    }

    /// Propagates ownership changes from `slot` down to slot 0 (two passes
    /// per level, as in Algorithm 1).
    ///
    /// Each install writes the slot's version plus one. The version cannot
    /// wrap within a heap lifetime: every attempt climbs each of its sets
    /// twice (insert and remove), each climb installs at most twice per
    /// slot, and attempts are bounded by the tag space, so a slot sees at
    /// most 4 · P · 4,096 installs — under 2²⁴ even at the tag space's
    /// 1,024-pid limit, far below 2³².
    fn climb(&self, ctx: &Ctx<'_>, slot: u32) {
        for j in (0..=slot).rev() {
            // Pass 1's cons cell and the `(owner, above node)` it encodes.
            let mut built: Option<(u64, u64, u64)> = None;
            for _pass in 0..2 {
                let cur = ctx.read_acq(self.set_addr(j));
                // Slot j+1 is either a real slot or the permanent sentinel.
                let above = node_of(ctx.read_acq(self.set_addr(j + 1)));
                let owner = ctx.read_acq(self.owner_addr(j));
                let node = if owner == 0 {
                    // set(j+1) itself (0 when empty): lists are immutable.
                    above
                } else {
                    match built {
                        Some((o, a, n)) if (o, a) == (owner, above) => n,
                        _ => {
                            let n = cons(ctx, owner, above);
                            built = Some((owner, above, n));
                            n
                        }
                    }
                };
                debug_assert!(cur >> 32 < u32::MAX as u64, "slot {j} install version wrapped");
                let new = ((cur & !ADDR_MASK) + VERSION_ONE) | node;
                // The install CAS releases any freshly-written node to
                // every future Acquire reader of the snapshot word.
                ctx.cas_bool_sync(self.set_addr(j), cur, new);
            }
        }
    }
}

/// Allocates an immutable list node. The node is private until the climb's
/// install CAS publishes it, so Release writes suffice for its fields.
fn cons(ctx: &Ctx<'_>, elem: u64, next: u64) -> u64 {
    let n = ctx.alloc(NODE_WORDS);
    ctx.write_rel(n, elem);
    ctx.write_rel(n.off(1), next);
    n.to_word()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_runtime::schedule::{RoundRobin, SeededRandom};
    use wfl_runtime::sim::SimBuilder;

    fn with_one_proc(capacity: usize, body: impl FnOnce(&Ctx<'_>, ActiveSet) + Send) -> Heap {
        let heap = Heap::new(1 << 16);
        let set = ActiveSet::create_root(&heap, capacity);
        let report = SimBuilder::new(&heap, 1).spawn(move |ctx: &Ctx| body(ctx, set)).run();
        report.assert_clean();
        heap
    }

    #[test]
    fn insert_then_getset_sees_item() {
        with_one_proc(4, |ctx, set| {
            set.insert(ctx, 42);
            let mut out = Vec::new();
            set.get_set(ctx, &mut out);
            assert_eq!(out, vec![42]);
        });
    }

    #[test]
    fn remove_clears_membership() {
        with_one_proc(4, |ctx, set| {
            let s = set.insert(ctx, 42);
            set.remove(ctx, s);
            let mut out = Vec::new();
            set.get_set(ctx, &mut out);
            assert!(out.is_empty(), "got {out:?}");
        });
    }

    #[test]
    fn multiple_members_all_visible() {
        with_one_proc(8, |ctx, set| {
            for item in [5u64, 6, 7] {
                set.insert(ctx, item);
            }
            let mut out = Vec::new();
            set.get_set(ctx, &mut out);
            out.sort_unstable();
            assert_eq!(out, vec![5, 6, 7]);
        });
    }

    #[test]
    fn slots_are_reused_after_remove() {
        with_one_proc(2, |ctx, set| {
            // Capacity 2 suffices for 100 sequential insert/remove pairs.
            for i in 0..100u64 {
                let s = set.insert(ctx, i + 1);
                assert_eq!(s, 0, "sequential inserts reuse slot 0");
                set.remove(ctx, s);
            }
        });
    }

    #[test]
    fn interleaved_insert_remove_pairs() {
        with_one_proc(4, |ctx, set| {
            let s1 = set.insert(ctx, 1);
            let s2 = set.insert(ctx, 2);
            assert_ne!(s1, s2);
            set.remove(ctx, s1);
            let s3 = set.insert(ctx, 3);
            let mut out = Vec::new();
            set.get_set(ctx, &mut out);
            out.sort_unstable();
            assert_eq!(out, vec![2, 3]);
            set.remove(ctx, s2);
            set.remove(ctx, s3);
        });
    }

    #[test]
    fn concurrent_inserts_get_distinct_slots_and_all_become_visible() {
        for seed in 0..25 {
            let heap = Heap::new(1 << 16);
            let set = ActiveSet::create_root(&heap, 8);
            let slots = heap.alloc_root(4);
            let report = SimBuilder::new(&heap, 4)
                .schedule(SeededRandom::new(4, seed))
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let s = set.insert(ctx, pid as u64 + 1);
                        ctx.write(slots.off(pid as u32), s as u64 + 1);
                    }
                })
                .run();
            report.assert_clean();
            // Distinct slots.
            let mut claimed: Vec<u64> = (0..4).map(|i| heap.peek(slots.off(i))).collect();
            claimed.sort_unstable();
            claimed.dedup();
            assert_eq!(claimed.len(), 4, "seed {seed}: duplicate slots {claimed:?}");
            // After quiescence, slot 0's snapshot contains all four.
            let snapshot_probe = SimBuilder::new(&heap, 1)
                .spawn(move |ctx: &Ctx| {
                    let mut out = Vec::new();
                    set.get_set(ctx, &mut out);
                    out.sort_unstable();
                    assert_eq!(out, vec![1, 2, 3, 4], "completed inserts must be visible");
                })
                .run();
            snapshot_probe.assert_clean();
        }
    }

    #[test]
    fn insert_steps_are_bounded_by_capacity_factor() {
        // Theorem 5.2: O(κ) steps per operation (κ = capacity here).
        for &cap in &[2usize, 4, 8, 16] {
            let heap = Heap::new(1 << 18);
            let set = ActiveSet::create_root(&heap, cap);
            let report = SimBuilder::new(&heap, 1)
                .schedule(RoundRobin::new(1))
                .spawn(move |ctx: &Ctx| {
                    let s = set.insert(ctx, 9);
                    set.remove(ctx, s);
                })
                .run();
            report.assert_clean();
            let steps = report.steps[0];
            // insert+remove with empty set: climb from slot 0 both times.
            // Must not scale with capacity when the set is near-empty.
            assert!(steps < 80, "cap {cap}: insert+remove took {steps} steps");
        }
    }

    #[test]
    fn operations_stay_within_their_worst_case_step_counts() {
        const PROCS: usize = 4;
        for seed in 0..20 {
            let heap = Heap::new(1 << 18);
            let set = ActiveSet::create_root(&heap, PROCS);
            let report = SimBuilder::new(&heap, PROCS)
                .schedule(SeededRandom::new(PROCS, 300 + seed))
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut out = Vec::new();
                        for round in 0..6u64 {
                            let t = ctx.steps();
                            let s = set.insert(ctx, pid as u64 * 100 + round + 1);
                            assert!(ctx.steps() - t <= insert_max_steps(PROCS));
                            let t = ctx.steps();
                            set.get_set(ctx, &mut out);
                            assert!(out.len() <= PROCS);
                            assert!(ctx.steps() - t <= get_set_steps(out.len()));
                            let t = ctx.steps();
                            set.remove(ctx, s);
                            assert!(ctx.steps() - t <= remove_max_steps(PROCS));
                        }
                    }
                })
                .run();
            report.assert_clean();
        }
        // Solo, from an empty set: a claim (read + CAS), one level with a
        // cons cell on pass 1 and its reuse on pass 2; a remove installs
        // the empty set twice.
        with_one_proc(2, |ctx, set| {
            let t = ctx.steps();
            let s = set.insert(ctx, 5);
            assert_eq!(ctx.steps() - t, 2 + CLIMB_PASS_MAX_STEPS + 4);
            let t = ctx.steps();
            set.remove(ctx, s);
            assert_eq!(ctx.steps() - t, 1 + 4 + 4);
        });
    }

    #[test]
    fn only_a_present_owner_costs_a_cons_cell() {
        let heap = Heap::new(1 << 16);
        let set = ActiveSet::create_root(&heap, 2);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let arena = ctx.heap();
                let before = arena.lane_used(ctx.pid());
                let s = set.insert(ctx, 42);
                // Slot 0 climbs twice with the same (owner, above): pass 2
                // reuses pass 1's node.
                assert_eq!(arena.lane_used(ctx.pid()) - before, NODE_WORDS);
                let before = arena.lane_used(ctx.pid());
                set.remove(ctx, s);
                // Owner empty, set above empty: the empty set is address 0.
                assert_eq!(arena.lane_used(ctx.pid()), before);
            })
            .run();
        report.assert_clean();
    }

    #[test]
    fn reinstalled_node_addresses_get_fresh_set_words() {
        let heap = Heap::new(1 << 16);
        let set = ActiveSet::create_root(&heap, 2);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let mut seen = vec![ctx.read(set.set_addr(0))];
                let b = set.insert(ctx, 7);
                let a = set.insert(ctx, 8);
                assert_eq!((b, a), (0, 1));
                seen.push(ctx.read(set.set_addr(0)));
                // Slot 0 empties and refills; every empty climb re-installs
                // slot 1's node at slot 0.
                for _ in 0..3 {
                    set.remove(ctx, b);
                    seen.push(ctx.read(set.set_addr(0)));
                    assert_eq!(set.insert(ctx, 7), b);
                    seen.push(ctx.read(set.set_addr(0)));
                }
                let above = node_of(ctx.read(set.set_addr(1)));
                let reinstalled = seen.iter().filter(|&&w| node_of(w) == above).count();
                assert_eq!(reinstalled, 3, "slot 1's node re-installed after each remove");
                for (i, w) in seen.iter().enumerate() {
                    assert!(!seen[..i].contains(w), "set word {w:#x} repeats: {seen:x?}");
                }
            })
            .run();
        report.assert_clean();
    }

    #[test]
    fn padded_placement_isolates_slots_on_distinct_lines() {
        let heap = Heap::new(1 << 12);
        let set = ActiveSet::create_root_placed(&heap, 4, Placement::Padded);
        assert_eq!(set.placement(), Placement::Padded);
        assert_eq!(set.base().0 as usize % LINE_WORDS, 0, "base is line-aligned");
        for i in 0..=4u32 {
            // Slot i (including the sentinel) starts on its own line.
            let owner = set.owner_addr(i).0 as usize;
            assert_eq!(owner % LINE_WORDS, 0, "slot {i} owner not line-aligned");
            assert_eq!(owner / LINE_WORDS, set.base().0 as usize / LINE_WORDS + i as usize);
        }
    }

    #[test]
    fn padded_placement_preserves_semantics() {
        let heap = Heap::new(1 << 16);
        let set = ActiveSet::create_root_placed(&heap, 4, Placement::Padded);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let s1 = set.insert(ctx, 1);
                let s2 = set.insert(ctx, 2);
                let mut out = Vec::new();
                set.get_set(ctx, &mut out);
                out.sort_unstable();
                assert_eq!(out, vec![1, 2]);
                set.remove(ctx, s1);
                set.get_set(ctx, &mut out);
                assert_eq!(out, vec![2]);
                set.remove(ctx, s2);
            })
            .run();
        report.assert_clean();
    }

    #[test]
    fn placement_does_not_change_counted_steps() {
        // The E13 A/B contract: placement is pure address arithmetic, so a
        // deterministic schedule takes the identical step sequence under
        // either layout.
        let steps_for = |placement: Placement| {
            let heap = Heap::new(1 << 16);
            let set = ActiveSet::create_root_placed(&heap, 4, placement);
            let report = SimBuilder::new(&heap, 2)
                .schedule(SeededRandom::new(2, 77))
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        for round in 0..10u64 {
                            let s = set.insert(ctx, (pid as u64) * 100 + round + 1);
                            let mut out = Vec::new();
                            set.get_set(ctx, &mut out);
                            set.remove(ctx, s);
                        }
                    }
                })
                .run();
            report.assert_clean();
            report.steps
        };
        assert_eq!(steps_for(Placement::Packed), steps_for(Placement::Padded));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_item_rejected() {
        let heap = Heap::new(1 << 10);
        let set = ActiveSet::create_root(&heap, 2);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                set.insert(ctx, 0);
            })
            .run();
        // insert panics inside the body; surface it.
        if let Some((_pid, msg)) = report.panics.first() {
            panic!("{}", msg);
        }
    }

    #[test]
    fn overflow_reports_misconfigured_contention() {
        let heap = Heap::new(1 << 12);
        let set = ActiveSet::create_root(&heap, 2);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                set.insert(ctx, 1);
                set.insert(ctx, 2);
                set.insert(ctx, 3); // third concurrent member: over capacity
            })
            .run();
        assert_eq!(report.panics.len(), 1);
        assert!(report.panics[0].1.contains("point contention"));
    }
}
