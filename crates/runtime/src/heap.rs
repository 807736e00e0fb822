//! The shared word heap: a fixed arena of `u64` words with a sharded,
//! wait-free bump allocator.
//!
//! All shared data structures (lock descriptors, active-set slots, snapshot
//! cons cells, idempotence logs) are laid out as small records of words and
//! addressed by [`Addr`] handles (word indices). This representation lets an
//! arbitrary number of processes concurrently read and CAS the same records
//! — the helping pattern at the heart of the paper — without reference
//! counting or epoch reclamation. Memory is reclaimed wholesale at quiescent
//! points with [`Heap::reset_to`] (see `DESIGN.md` §1.1).
//!
//! # Allocation lanes (DESIGN.md §1.1.2)
//!
//! A single global `fetch_add` cursor would be one shared hot word that
//! every cons cell, descriptor and idempotence-log record of every thread
//! serialized through. The arena is instead carved into
//! cache-line-aligned **slabs**; each process id owns a private **lane**
//! and bumps a plain, uncontended cursor inside its current slab, touching
//! the shared slab cursor only once per slab (or once per multi-slab grab
//! for records larger than a slab). Records allocated by different lanes
//! therefore never share a cache line, and the contended RMW amortizes
//! from once-per-record to once-per-slab.
//!
//! A small **emergency reserve** at the top of the arena lets an attempt
//! that exhausts the slab region finish cleanly: [`crate::Ctx::alloc`]
//! falls back to the reserve and latches the context's `heap_low` flag so
//! the caller can end its batch at the next epoch boundary instead of
//! aborting mid-attempt (see [`HeapExhausted`] and `retry.rs`).
//!
//! # Storage
//!
//! The words live in one zero-allocated slice, which the system allocator
//! serves with `calloc`: building a heap writes no word, so it costs the
//! same at any capacity, and a page is first touched when a run allocates
//! into it. Word indices are offset by a `skew` of 0–7 words so that every
//! [`LINE_WORDS`] multiple is a real 64-byte line boundary in memory.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Index of a word in a [`Heap`]. `Addr(0)` is the reserved null address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u32);

/// The reserved null address. Word 0 of every heap is never allocated.
pub const NULL: Addr = Addr(0);

impl Addr {
    /// Address of the word `off` places after `self`.
    ///
    /// # Panics
    /// Panics if the offset overflows 32-bit addressing — a corrupted
    /// record (e.g. a bad snapshot offset) must fail loudly here instead
    /// of silently wrapping into the reserved null word 0.
    #[inline]
    pub fn off(self, off: u32) -> Addr {
        match self.0.checked_add(off) {
            Some(a) => Addr(a),
            None => panic!("Addr::off overflow: base {:#x} + offset {:#x} exceeds u32 addressing", self.0, off),
        }
    }

    /// Whether this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Packs the address into a `u64` value (for storing pointers in cells).
    #[inline]
    pub fn to_word(self) -> u64 {
        self.0 as u64
    }

    /// Recovers an address previously packed with [`Addr::to_word`].
    ///
    /// # Panics
    /// Panics if the word does not fit in 32 bits (i.e. is not a packed
    /// address).
    #[inline]
    pub fn from_word(w: u64) -> Addr {
        assert!(w <= u32::MAX as u64, "word {w:#x} is not a packed Addr");
        Addr(w as u32)
    }
}

/// Words per hardware cache line (64 bytes of `u64`s).
pub const LINE_WORDS: usize = 8;

/// Per-lane allocation state, padded to its own cache line so one lane's
/// bump never invalidates another's.
#[repr(C, align(64))]
#[derive(Debug)]
struct Lane {
    /// Next free word inside the lane's current slab. Only the owning
    /// process advances it (Relaxed suffices: single-writer, and records
    /// are published through release CAS/stores, never through cursors).
    cur: AtomicUsize,
    /// One past the last word of the current slab (0 = no slab yet).
    end: AtomicUsize,
    /// Words handed out by this lane since the last rewind (the per-lane
    /// usage the epoch high-water accounting reads at quiescence).
    used: AtomicUsize,
}

impl Lane {
    fn empty() -> Lane {
        Lane { cur: AtomicUsize::new(0), end: AtomicUsize::new(0), used: AtomicUsize::new(0) }
    }
}

/// How setup-time shared records (lock words, active-set slot arrays) are
/// placed relative to cache lines. Orthogonal to the allocation lanes:
/// the allocator shards *who allocates*, placement shards *what neighbors
/// what*.
///
/// Placement is pure address arithmetic — it changes which words a record
/// occupies, never the counted step sequence of any operation — so the
/// simulator replays identically under either mode (the E13 A/B contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The historical layout: records allocated back-to-back, so up to
    /// [`LINE_WORDS`] unrelated hot words share one cache line. Kept for
    /// the E13 packed-vs-padded A/B cell and for tests that pin absolute
    /// addresses.
    Packed,
    /// Cache-line-isolated layout: each hot record (a baseline lock word,
    /// an active-set slot) is strided to own a full 64B line, and record
    /// bases are line-aligned, so operations on disjoint records touch
    /// disjoint lines.
    #[default]
    Padded,
}

impl Placement {
    /// Short label for tables and JSON ("packed" / "padded").
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Packed => "packed",
            Placement::Padded => "padded",
        }
    }
}

/// Pads and aligns `T` to a cache line so adjacent values in an array (or
/// adjacent stack slots) never false-share. Used for the real-threads
/// driver's shared control words (clock, stop flag, pauser) and per-thread
/// result slots; the heap-resident analogue is [`Placement::Padded`].
#[repr(C, align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// Default number of process lanes (pids) a laned heap supports. Far above
/// any experiment's thread count; the per-lane state costs one cache line
/// each, so the headroom is ~4 KiB.
pub const DEFAULT_LANES: usize = 64;

/// Largest auto-selected slab: 512 words = 4 KiB.
pub const MAX_SLAB_WORDS: usize = 512;

/// Recoverable allocation failure: the slab region is exhausted. Callers on the attempt path receive this
/// through [`Heap::alloc`] / the [`crate::Ctx::heap_low`] latch and give
/// up cleanly at the next epoch boundary, where a quiescent
/// [`Heap::reset_to_quiescent`] rewinds every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapExhausted {
    /// Lane that failed (the last lane is the root lane).
    pub lane: usize,
    /// Words requested by the failing allocation.
    pub requested: usize,
}

impl std::fmt::Display for HeapExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "heap exhausted: lane {} could not allocate {} words", self.lane, self.requested)
    }
}

impl std::error::Error for HeapExhausted {}

/// Per-lane rewind point captured by [`Heap::mark`]: the lane's cursor,
/// slab end and usage counter at the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneMark {
    cur: usize,
    end: usize,
    used: usize,
}

/// A full-allocator rewind point: the shared slab cursor,
/// the reserve cursor, and every lane's state. Captured by [`Heap::mark`]
/// and consumed by [`Heap::reset_to`] / [`Heap::reset_to_quiescent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapMark {
    cursor: usize,
    reserve: usize,
    lanes: Vec<LaneMark>,
}

/// A fixed-capacity arena of atomic `u64` words with a sharded bump
/// allocator (see the module docs).
///
/// The allocator is wait-free (a plain bump, plus one `fetch_add` per
/// slab), satisfying the model's requirement that every instruction of a tryLock
/// attempt is bounded. Allocation never reuses memory during an epoch; the
/// harness reclaims transient allocations at quiescent points via
/// [`Heap::mark`] / [`Heap::reset_to`].
pub struct Heap {
    /// Zero-allocated storage: `capacity` rounded up to a line, plus
    /// `LINE_WORDS - 1` words of slack for `skew`.
    words: Box<[AtomicU64]>,
    /// Storage words before word index 0, chosen so that `skew + 8k` starts
    /// a 64-byte line: every [`LINE_WORDS`] multiple of an [`Addr`] is a
    /// real cache-line boundary, so slabs and lanes never false-share.
    skew: usize,
    /// Usable words (word indices `0..capacity`; `capacity` may be below
    /// the line-rounded storage).
    capacity: usize,
    /// Slab size in words (cache-line multiple).
    slab_words: usize,
    /// First word of the emergency reserve region (== `capacity` when the
    /// arena is too small to carry a reserve).
    reserve_base: usize,
    /// Next unassigned slab's first word (always a slab multiple). The
    /// only cross-lane contended word, touched once per slab.
    cursor: AtomicUsize,
    /// Next free word of the emergency reserve.
    reserve: AtomicUsize,
    /// Per-pid lanes plus one trailing root lane.
    lanes: Box<[Lane]>,
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("capacity", &self.capacity)
            .field("slab_words", &self.slab_words)
            .field("used", &self.used())
            .finish()
    }
}

impl Heap {
    /// Creates a heap with `capacity` words (all zero), [`DEFAULT_LANES`]
    /// process lanes and an auto-sized slab. Word 0 is reserved as the
    /// null address. Construction cost does not grow with `capacity` (see
    /// [`Heap::with_lanes`]).
    ///
    /// # Panics
    /// Panics if `capacity` is 0 or exceeds `u32::MAX` words.
    pub fn new(capacity: usize) -> Heap {
        Heap::with_lanes(capacity, DEFAULT_LANES, 0)
    }

    /// Creates a heap with `lanes` process lanes (pids `0..lanes`; a root
    /// lane for uncounted setup allocations is added on top) and slabs of
    /// `slab_words` words, rounded up to a cache-line multiple. A zero
    /// `slab_words` scales the slab to the arena (at most
    /// [`MAX_SLAB_WORDS`], at least one cache line).
    ///
    /// The storage comes from `calloc` as untouched, kernel-zeroed pages,
    /// so construction writes no word. It is a slice of plain 8-byte
    /// words, not of 64-byte-aligned lines: the system allocator serves a
    /// zeroed request aligned above 16 bytes as an aligned allocation plus
    /// a `memset` of every word. Line alignment comes from `skew` instead.
    ///
    /// # Panics
    /// Panics if `capacity` is 0 or exceeds `u32::MAX` words.
    pub fn with_lanes(capacity: usize, lanes: usize, slab_words: usize) -> Heap {
        assert!(capacity > 0, "heap capacity must be positive");
        assert!(
            capacity <= u32::MAX as usize,
            "heap capacity must fit 32-bit addressing"
        );
        let words = zeroed_words(capacity.next_multiple_of(LINE_WORDS) + LINE_WORDS - 1);
        // Words to skip so that word index 0 starts a 64-byte line (the
        // slice is 8-byte aligned, so the gap is a whole number of words).
        let skew = (words.as_ptr() as usize).wrapping_neg() % 64 / 8;

        let slab = Self::effective_slab(capacity, slab_words);
        let reserve_base = Self::reserve_base_for(capacity, slab);
        let mut lane_vec = Vec::with_capacity(lanes + 1);
        lane_vec.resize_with(lanes + 1, Lane::empty);
        let heap = Heap {
            words,
            skew,
            capacity,
            slab_words: slab,
            reserve_base,
            // Slab 0 is pre-assigned to the root lane below.
            cursor: AtomicUsize::new(slab.min(reserve_base)),
            reserve: AtomicUsize::new(reserve_base),
            lanes: lane_vec.into_boxed_slice(),
        };
        // The root lane starts inside slab 0, past the NULL word, so the
        // first root allocation is `Addr(1)`.
        let root = &heap.lanes[lanes];
        root.cur.store(1, Ordering::Relaxed);
        root.end.store(slab.min(reserve_base), Ordering::Relaxed);
        heap
    }

    /// Auto slab size: scale with the arena (aim for ~64 slabs) but stay
    /// within one cache line and [`MAX_SLAB_WORDS`]; always a cache-line
    /// multiple so slab boundaries are cache-line boundaries.
    fn effective_slab(capacity: usize, requested: usize) -> usize {
        let slab = if requested == 0 {
            (capacity / 64).next_power_of_two().clamp(LINE_WORDS, MAX_SLAB_WORDS)
        } else {
            requested.max(LINE_WORDS)
        };
        slab.div_ceil(LINE_WORDS) * LINE_WORDS
    }

    /// Reserve sizing: up to 8 slabs (capped at an eighth of the arena);
    /// arenas under 32 slabs carry no reserve — they are unit-test sized,
    /// and a hard failure there is a sizing bug worth hearing about.
    fn reserve_base_for(capacity: usize, slab: usize) -> usize {
        if capacity < 32 * slab {
            return capacity;
        }
        let reserve = (capacity / 8).min(8 * slab);
        capacity - reserve
    }

    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        &self.words[self.skew + i]
    }

    /// Number of words in the heap.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured slab size in words.
    #[inline]
    pub fn slab_words(&self) -> usize {
        self.slab_words
    }

    /// Number of lanes the allocator accounts: process lanes plus the
    /// trailing root lane.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Index of the root lane (uncounted setup allocations).
    pub fn root_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Words handed out by `lane` since the last rewind.
    pub fn lane_used(&self, lane: usize) -> usize {
        self.lanes[lane].used.load(Ordering::SeqCst)
    }

    /// Arena footprint in words: every word of every slab handed out plus
    /// the consumed reserve.
    /// Includes per-lane slack, so it is the number that must stay within
    /// [`Heap::capacity`].
    #[inline]
    pub fn used(&self) -> usize {
        let region = self.cursor.load(Ordering::SeqCst).min(self.reserve_base);
        let reserve = self.reserve.load(Ordering::SeqCst).min(self.capacity) - self.reserve_base;
        region + reserve
    }

    /// A conservative lower bound on the words still available to `lane`
    /// without touching the reserve: its current slab's remainder plus the
    /// unassigned slab region.
    pub fn lane_remaining(&self, lane: usize) -> usize {
        let region = self.reserve_base.saturating_sub(self.cursor.load(Ordering::SeqCst));
        let l = &self.lanes[lane];
        let slack = l.end.load(Ordering::Relaxed).saturating_sub(l.cur.load(Ordering::Relaxed));
        region + slack
    }

    /// Allocates `n` zeroed words from `lane`'s private cursor, taking new
    /// slab(s) from the shared slab cursor only on exhaustion. Wait-free:
    /// a plain bump on the hot path, one `fetch_add` per slab handoff.
    ///
    /// `lane` must be the calling process's pid (lanes are single-writer:
    /// two threads allocating through the same lane race).
    ///
    /// # Errors
    /// [`HeapExhausted`] when the slab region cannot satisfy the request;
    /// the lane is left unchanged so the caller can retry after a quiescent
    /// rewind.
    ///
    /// # Panics
    /// Panics if `n` is zero or `lane` is out of range.
    #[inline]
    pub fn alloc(&self, lane: usize, n: usize) -> Result<Addr, HeapExhausted> {
        // Hard assert (not debug): a zero-word allocation would return an
        // address aliasing the lane's next record.
        assert!(n > 0, "zero-word allocation");
        assert!(
            lane < self.lanes.len(),
            "lane {lane} out of range: this heap has {} process lanes \
             (build it with Heap::with_lanes)",
            self.lanes.len() - 1
        );
        let l = &self.lanes[lane];
        let cur = l.cur.load(Ordering::Relaxed);
        let end = l.end.load(Ordering::Relaxed);
        if cur + n <= end {
            // The uncontended hot path: a plain single-writer bump.
            l.cur.store(cur + n, Ordering::Relaxed);
            l.used.store(l.used.load(Ordering::Relaxed) + n, Ordering::Relaxed);
            return Ok(Addr(cur as u32));
        }
        // Slab handoff: abandon the current slab's tail and take enough
        // contiguous slabs for `n` in one shared RMW. Relaxed:
        // disjointness comes from RMW atomicity alone, and records are
        // published through release CAS/stores, never through cursors.
        let take = n.div_ceil(self.slab_words) * self.slab_words;
        let base = self.cursor.fetch_add(take, Ordering::Relaxed);
        if base + n > self.reserve_base {
            // Leave the lane untouched (its old slab tail is still valid)
            // so the epoch boundary can rewind and the lane can go on.
            return Err(HeapExhausted { lane, requested: n });
        }
        l.cur.store(base + n, Ordering::Relaxed);
        l.end.store((base + take).min(self.reserve_base), Ordering::Relaxed);
        l.used.store(l.used.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        Ok(Addr(base as u32))
    }

    /// Allocates `n` words from the emergency reserve (shared `fetch_add`;
    /// cold — only reached when a lane has already failed). This is what
    /// lets an in-flight attempt run to completion after exhaustion so it
    /// is never abandoned in a half-published state; the caller must stop
    /// opening new work until a quiescent rewind (see
    /// [`crate::Ctx::heap_low`]).
    ///
    /// # Panics
    /// Panics (with a [`HeapExhausted`] payload) when the reserve itself
    /// is dry — a genuine sizing bug.
    pub fn alloc_reserve(&self, lane: usize, n: usize) -> Addr {
        let base = self.reserve.fetch_add(n, Ordering::Relaxed);
        if base + n > self.capacity {
            std::panic::panic_any(HeapExhausted { lane, requested: n });
        }
        // Reserve words still bill the requesting lane's usage, so the
        // high-water accounting covers pressure runs too.
        if let Some(l) = self.lanes.get(lane) {
            l.used.store(l.used.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
        Addr(base as u32)
    }

    /// Allocates `n` zeroed words for setup-time roots (harness and epoch
    /// re-rooting; uncounted). Uses the dedicated root lane.
    ///
    /// # Panics
    /// Panics when the heap is exhausted; root creation failing is a
    /// sizing bug, not a recoverable condition — experiments size heaps
    /// generously and reset between batches.
    #[inline]
    pub fn alloc_root(&self, n: usize) -> Addr {
        match self.alloc(self.root_lane(), n) {
            Ok(a) => a,
            Err(e) => panic!(
                "heap exhausted: capacity {} words, requested {} for a root ({e})",
                self.capacity, n
            ),
        }
    }

    /// Like [`Heap::alloc_root`], but the returned base is rounded up to a
    /// [`LINE_WORDS`] multiple, i.e. the record starts on a 64B cache-line
    /// boundary (word indices are skewed so that [`LINE_WORDS`] multiples
    /// are line-aligned in memory, see [`Heap::with_lanes`]). Over-allocates
    /// at most `LINE_WORDS - 1` words of setup-time slack; fully
    /// deterministic, so sim replays are unaffected by which placement
    /// requested it.
    ///
    /// # Panics
    /// Panics when the heap is exhausted, like [`Heap::alloc_root`].
    pub fn alloc_root_aligned(&self, n: usize) -> Addr {
        let raw = self.alloc_root(n + LINE_WORDS - 1);
        let base = (raw.0 as usize).next_multiple_of(LINE_WORDS);
        Addr(base as u32)
    }

    /// Reads a word without counting a step (harness/controller use only;
    /// algorithm code must go through [`crate::Ctx::read`]).
    #[inline]
    pub fn peek(&self, a: Addr) -> u64 {
        self.word(a.0 as usize).load(Ordering::SeqCst)
    }

    /// Writes a word without counting a step (harness setup only).
    #[inline]
    pub fn poke(&self, a: Addr, v: u64) {
        self.word(a.0 as usize).store(v, Ordering::SeqCst);
    }

    /// Raw CAS without counting a step (harness setup only). Returns the
    /// previous value; the CAS succeeded iff it equals `old`.
    #[inline]
    pub fn cas_raw(&self, a: Addr, old: u64, new: u64) -> u64 {
        match self.word(a.0 as usize).compare_exchange(
            old,
            new,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    // ----- ordering-parameterized accessors (used by `Ctx`'s tiers) -----

    /// Atomic load with an explicit ordering (step accounting is the
    /// caller's responsibility — this is the `Ctx` backend).
    #[inline]
    pub(crate) fn load(&self, a: Addr, ord: Ordering) -> u64 {
        self.word(a.0 as usize).load(ord)
    }

    /// Atomic store with an explicit ordering.
    #[inline]
    pub(crate) fn store(&self, a: Addr, v: u64, ord: Ordering) {
        self.word(a.0 as usize).store(v, ord);
    }

    /// Atomic CAS with explicit success/failure orderings; returns the
    /// previous value (success iff it equals `old`).
    #[inline]
    pub(crate) fn cas_ord(&self, a: Addr, old: u64, new: u64, ok: Ordering, fail: Ordering) -> u64 {
        match self.word(a.0 as usize).compare_exchange(old, new, ok, fail) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// Captures the whole allocator state (shared cursors plus every
    /// lane's position) for a later [`Heap::reset_to`].
    pub fn mark(&self) -> HeapMark {
        HeapMark {
            cursor: self.cursor.load(Ordering::SeqCst),
            reserve: self.reserve.load(Ordering::SeqCst),
            lanes: self
                .lanes
                .iter()
                .map(|l| LaneMark {
                    cur: l.cur.load(Ordering::SeqCst),
                    end: l.end.load(Ordering::SeqCst),
                    used: l.used.load(Ordering::SeqCst),
                })
                .collect(),
        }
    }

    /// Zeroes and rewinds everything allocated after `mark` through a
    /// store-based sweep (shared by the `&mut` and quiescent reset forms;
    /// soundness is the caller's obligation, see [`Heap::reset_to`]).
    ///
    /// The zeroing stores are `Relaxed`: nothing runs concurrently with a
    /// rewind, and the next reader is ordered after it by whatever made
    /// the point quiescent — `&mut self` for [`Heap::reset_to`], the
    /// `EpochSync` lock for [`Heap::reset_to_quiescent`] (DESIGN.md
    /// §1.1.1, "The barrier doubles as the memory fence"). A `SeqCst`
    /// store per word would be a full fence per word for no extra
    /// guarantee. Cursor and lane-mark stores keep `SeqCst`.
    fn rewind(&self, mark: &HeapMark) {
        let cursor = self.cursor.load(Ordering::SeqCst).min(self.reserve_base);
        assert!(mark.cursor <= cursor, "reset mark {} beyond cursor {cursor}", mark.cursor);
        // Whole slabs handed out after the mark.
        for i in mark.cursor..cursor {
            self.word(i).store(0, Ordering::Relaxed);
        }
        // Each lane's partially-used slab at mark time: everything from
        // the marked cursor to that slab's end is post-mark allocation
        // (the lane may have bumped past it before moving on).
        for (l, m) in self.lanes.iter().zip(&mark.lanes) {
            for i in m.cur..m.end {
                self.word(i).store(0, Ordering::Relaxed);
            }
            l.cur.store(m.cur, Ordering::SeqCst);
            l.end.store(m.end, Ordering::SeqCst);
            l.used.store(m.used, Ordering::SeqCst);
        }
        // The consumed reserve.
        let reserve = self.reserve.load(Ordering::SeqCst).min(self.capacity);
        for i in mark.reserve..reserve {
            self.word(i).store(0, Ordering::Relaxed);
        }
        self.reserve.store(mark.reserve, Ordering::SeqCst);
        self.cursor.store(mark.cursor, Ordering::SeqCst);
    }

    /// Rolls the allocator back to `mark` and zeroes every word allocated
    /// after it — the shared slab region, every lane's partial slab, and
    /// the consumed reserve.
    ///
    /// # Safety (logical)
    /// This is only sound at *quiescent points*: no process may be running,
    /// and no live structure below `mark` may still point above `mark`
    /// (callers such as the active set re-initialize their snapshot pointers
    /// after a reset). The `&mut self` receiver enforces exclusivity.
    ///
    /// # Panics
    /// Panics if `mark` is ahead of the current allocation state.
    pub fn reset_to(&mut self, mark: &HeapMark) {
        self.rewind(mark);
    }

    /// Like [`Heap::reset_to`], but callable through a shared reference —
    /// the form the epoch protocol needs, where the resetting thread is one
    /// of the worker threads and cannot hold `&mut Heap`.
    ///
    /// # Safety (logical)
    /// Only sound at *quiescent points*: every other thread must be parked
    /// at an epoch barrier (see [`crate::epoch::EpochSync`]) whose release
    /// happens-after this call returns. The barrier's lock provides the
    /// happens-before edges in both directions: the workers' final writes
    /// (including their lanes' Relaxed cursor bumps) are visible to the
    /// resetter, and the zeroing and lane rewinds below are visible to
    /// every worker the barrier releases afterwards. Violating quiescence
    /// (any thread still running algorithm code) corrupts live records.
    pub fn reset_to_quiescent(&self, mark: &HeapMark) {
        self.rewind(mark);
    }

    /// A 64-bit FNV-1a hash of the allocated portion of the heap (the slab
    /// footprint plus the consumed reserve). Used by tests to assert that
    /// simulated executions are deterministic.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let feed = |i: usize, h: &mut u64| {
            let v = self.word(i).load(Ordering::SeqCst);
            for b in v.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        let region = self.cursor.load(Ordering::SeqCst).min(self.reserve_base);
        for i in 0..region {
            feed(i, &mut h);
        }
        let reserve = self.reserve.load(Ordering::SeqCst).min(self.capacity);
        for i in self.reserve_base..reserve {
            feed(i, &mut h);
        }
        h
    }
}

/// `n` zeroed words from `calloc` (see [`Heap::with_lanes`]).
#[allow(unsafe_code)]
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    // SAFETY: `AtomicU64` has the same size and bit validity as `u64`, so
    // all-zero bytes are a valid zero.
    unsafe { Box::<[AtomicU64]>::new_zeroed_slice(n).assume_init() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_disjoint_and_null_reserved() {
        let heap = Heap::new(64);
        let a = heap.alloc_root(3);
        let b = heap.alloc_root(3);
        assert!(!a.is_null());
        assert_eq!(a.0, 1, "first allocation starts after the null word");
        assert_eq!(b.0, a.0 + 3, "same lane allocates contiguously inside a slab");
    }

    #[test]
    fn aligned_root_allocs_start_on_line_boundaries() {
        let heap = Heap::new(1 << 10);
        let a = heap.alloc_root_aligned(3);
        let b = heap.alloc_root_aligned(10);
        assert_eq!(a.0 as usize % LINE_WORDS, 0);
        assert_eq!(b.0 as usize % LINE_WORDS, 0);
        assert!(b.0 >= a.0 + 3, "aligned allocations are disjoint");
        // Zeroed like any root allocation.
        for off in 0..10 {
            assert_eq!(heap.peek(b.off(off)), 0);
        }
    }

    #[test]
    fn line_multiples_map_to_cache_line_boundaries() {
        // Large arenas come from `mmap` at a page plus the allocator's
        // header, so without the skew word 0 would sit mid-line.
        for capacity in [16, 1 << 10, 1 << 20, 1 << 22] {
            let heap = Heap::new(capacity);
            for i in (0..capacity).step_by(LINE_WORDS) {
                let at = std::ptr::from_ref(heap.word(i)) as usize;
                assert_eq!(at % 64, 0, "capacity {capacity}: word {i} is not line-aligned");
            }
        }
    }

    #[test]
    fn lazily_zeroed_large_heap_reads_and_rewinds_to_zero() {
        let capacity = 1 << 22;
        let mut heap = Heap::new(capacity);
        let all_zero = |heap: &Heap| (0..capacity).all(|i| heap.peek(Addr(i as u32)) == 0);
        assert!(heap.reserve_base < capacity, "a reserve must exist here");
        assert!(all_zero(&heap), "a fresh heap reads zero everywhere");

        let mark = heap.mark();
        let slab = heap.slab_words();
        let reserve = capacity - heap.reserve_base;
        let regions = [
            (heap.alloc(0, 3 * slab + 5).unwrap(), 3 * slab + 5),
            (heap.alloc(1, 7).unwrap(), 7),
            (heap.alloc_root(5), 5),
            (heap.alloc_root(2 * slab), 2 * slab),
            (heap.alloc_reserve(0, reserve), reserve),
        ];
        for &(base, n) in &regions {
            for off in 0..n as u32 {
                heap.poke(base.off(off), u64::from(off) + 1);
            }
        }
        assert_eq!(heap.peek(Addr(capacity as u32 - 1)), reserve as u64, "the reserve reaches the last word");

        heap.reset_to(&mark);
        assert!(all_zero(&heap), "every word reads zero after the rewind");
    }

    #[test]
    fn placement_labels_and_default() {
        assert_eq!(Placement::Packed.label(), "packed");
        assert_eq!(Placement::Padded.label(), "padded");
        assert_eq!(Placement::default(), Placement::Padded);
    }

    #[test]
    fn cache_padded_occupies_a_full_line() {
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 64);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
    }

    #[test]
    fn peek_poke_roundtrip() {
        let heap = Heap::new(16);
        let a = heap.alloc_root(1);
        heap.poke(a, 0xdead_beef);
        assert_eq!(heap.peek(a), 0xdead_beef);
    }

    #[test]
    fn cas_raw_reports_previous_value() {
        let heap = Heap::new(16);
        let a = heap.alloc_root(1);
        heap.poke(a, 7);
        assert_eq!(heap.cas_raw(a, 7, 9), 7);
        assert_eq!(heap.peek(a), 9);
        assert_eq!(heap.cas_raw(a, 7, 11), 9, "failed CAS returns actual");
        assert_eq!(heap.peek(a), 9);
    }

    #[test]
    fn lanes_allocate_from_disjoint_cache_aligned_slabs() {
        let heap = Heap::new(1 << 12);
        let slab = heap.slab_words();
        assert_eq!(slab % LINE_WORDS, 0, "slabs must be cache-line multiples");
        let a = heap.alloc(0, 3).unwrap();
        let b = heap.alloc(1, 3).unwrap();
        let r = heap.alloc_root(3);
        assert_eq!(a.0 as usize % slab, 0, "a fresh lane starts on a slab boundary");
        assert_eq!(b.0 as usize % slab, 0);
        // Three different lanes: pairwise different slabs.
        let slabs: Vec<usize> = [a, b, r].iter().map(|x| x.0 as usize / slab).collect();
        let mut dedup = slabs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "lanes must not share a slab: {slabs:?}");
        // Within a lane the bump is contiguous and stays inside the slab.
        let a2 = heap.alloc(0, 2).unwrap();
        assert_eq!(a2.0, a.0 + 3);
    }

    #[test]
    fn oversized_allocation_takes_contiguous_slabs() {
        let heap = Heap::new(1 << 12);
        let slab = heap.slab_words();
        let big = heap.alloc(2, 3 * slab + 5).unwrap();
        assert_eq!(big.0 as usize % slab, 0, "multi-slab grabs start slab-aligned");
        // The lane keeps bumping inside the tail of the last grabbed slab.
        let next = heap.alloc(2, 1).unwrap();
        assert_eq!(next.0 as usize, big.0 as usize + 3 * slab + 5);
    }

    #[test]
    fn exhausted_lane_reports_error_and_reserve_completes() {
        // 64 slabs of 8 words and a reserve: exhaust the slab region, then
        // verify the recoverable error plus the reserve fallback.
        let heap = Heap::with_lanes(64 * 8, 2, 8);
        assert!(heap.capacity() > heap.lane_remaining(0), "a reserve must exist here");
        let mut last = 0;
        while let Ok(a) = heap.alloc(0, 8) {
            last = a.0;
        }
        let err = heap.alloc(0, 8).unwrap_err();
        assert_eq!(err.lane, 0);
        assert_eq!(err.requested, 8);
        assert!(last > 0);
        // The reserve still hands out completion memory.
        let r = heap.alloc_reserve(0, 4);
        assert!(r.0 as usize >= heap.reserve_base);
        heap.poke(r, 9);
        assert_eq!(heap.peek(r), 9);
    }

    #[test]
    fn reset_zeroes_transient_region_only() {
        let mut heap = Heap::new(64);
        let root = heap.alloc_root(1);
        heap.poke(root, 42);
        let mark = heap.mark();
        let used_at_mark = heap.used();
        let t = heap.alloc_root(2);
        heap.poke(t, 5);
        heap.poke(t.off(1), 6);
        heap.reset_to(&mark);
        assert_eq!(heap.peek(root), 42, "root survives reset");
        assert_eq!(heap.used(), used_at_mark, "footprint rewound to the mark");
        let t2 = heap.alloc_root(2);
        assert_eq!(t2, t, "bump rolled back");
        assert_eq!(heap.peek(t2), 0, "transient region re-zeroed");
        assert_eq!(heap.peek(t2.off(1)), 0);
    }

    #[test]
    fn quiescent_reset_matches_exclusive_reset() {
        let heap = Heap::new(64);
        let root = heap.alloc_root(1);
        heap.poke(root, 7);
        let mark = heap.mark();
        let t = heap.alloc_root(3);
        heap.poke(t.off(2), 9);
        heap.reset_to_quiescent(&mark);
        assert_eq!(heap.peek(root), 7, "pre-mark words survive");
        let t2 = heap.alloc_root(3);
        assert_eq!(t2, t, "bump rolled back");
        assert_eq!(heap.peek(t2.off(2)), 0, "transient region re-zeroed");
    }

    #[test]
    fn reset_rewinds_every_lane_and_the_reserve() {
        let heap = Heap::with_lanes(64 * 8, 3, 8);
        let keep = heap.alloc(1, 2).unwrap();
        heap.poke(keep, 11);
        let mark = heap.mark();
        let used_at_mark = heap.used();
        // Dirty several lanes, a multi-slab grab, and the reserve.
        for lane in 0..3 {
            let a = heap.alloc(lane, 5).unwrap();
            heap.poke(a, lane as u64 + 1);
        }
        let big = heap.alloc(2, 20).unwrap();
        heap.poke(big.off(19), 99);
        let r = heap.alloc_reserve(0, 2);
        heap.poke(r, 77);
        assert!(heap.used() > used_at_mark);

        heap.reset_to_quiescent(&mark);
        assert_eq!(heap.used(), used_at_mark, "footprint rewound to the mark");
        assert_eq!(heap.peek(keep), 11, "pre-mark words survive");
        for lane in 0..3 {
            assert_eq!(
                heap.lane_used(lane),
                mark.lanes[lane].used,
                "lane {lane} usage rewound"
            );
        }
        // Identical allocations land on identical addresses and read zero.
        for lane in 0..3 {
            let a = heap.alloc(lane, 5).unwrap();
            assert_eq!(heap.peek(a), 0, "lane {lane} transients re-zeroed");
        }
        let big2 = heap.alloc(2, 20).unwrap();
        assert_eq!(big2, big, "slab cursor rewound");
        assert_eq!(heap.peek(big2.off(19)), 0);
        let r2 = heap.alloc_reserve(0, 2);
        assert_eq!(r2, r, "reserve cursor rewound");
        assert_eq!(heap.peek(r2), 0);
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let heap = Heap::new(16);
        let a = heap.alloc_root(1);
        let f0 = heap.fingerprint();
        heap.poke(a, 1);
        assert_ne!(heap.fingerprint(), f0);
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn alloc_past_capacity_panics() {
        let heap = Heap::new(4);
        heap.alloc_root(16);
    }

    #[test]
    #[should_panic(expected = "Addr::off overflow")]
    fn addr_off_overflow_panics_instead_of_wrapping() {
        let _ = Addr(u32::MAX - 2).off(8);
    }

    #[test]
    fn addr_word_packing_roundtrip() {
        let a = Addr(12345);
        assert_eq!(Addr::from_word(a.to_word()), a);
        assert!(NULL.is_null());
        assert!(!Addr(1).is_null());
    }

    #[test]
    fn concurrent_lane_allocations_never_overlap() {
        // 8 threads, each on its own lane, racing the shared slab cursor:
        // every returned region must be pairwise disjoint and, for
        // sub-slab sizes, never straddle a slab boundary.
        let heap = Heap::with_lanes(1 << 17, 8, 64);
        let slab = heap.slab_words();
        let regions: Vec<std::sync::Mutex<Vec<(usize, usize)>>> =
            (0..8).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for (lane, out) in regions.iter().enumerate() {
                let heap = &heap;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..200usize {
                        let n = 1 + (lane * 31 + i * 7) % 48;
                        let a = heap.alloc(lane, n).expect("arena sized generously");
                        local.push((a.0 as usize, n));
                    }
                    *out.lock().unwrap() = local;
                });
            }
        });
        let mut all: Vec<(usize, usize)> = regions
            .iter()
            .flat_map(|m| m.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
        for &(base, n) in &all {
            if n <= slab {
                assert_eq!(
                    base / slab,
                    (base + n - 1) / slab,
                    "sub-slab allocation [{base}, {}) straddles a slab boundary",
                    base + n
                );
            }
        }
    }
}
