//! Per-process execution context: step-counted shared-memory operations.
//!
//! All algorithm code in this repository is written against [`Ctx`] and runs
//! unchanged under both drivers (real threads and the deterministic
//! simulator). Every operation — shared reads/writes/CAS, allocation,
//! invocation/response markers, and explicit local steps — counts exactly
//! one *own step* of the process, matching the paper's cost model in which
//! delays ("stall until `T0` own steps have been taken") are measured in the
//! process's own instructions.
//!
//! # The real-threads hot path
//!
//! Two driver-selected knobs keep the free-running driver contention-free
//! without touching the simulator (see `DESIGN.md` §2):
//!
//! * [`ClockMode`] — how logical timestamps are drawn. `Precise` performs
//!   one global `fetch_add` per step (exact, totally-ordered history
//!   timestamps; the simulator's and the historical default). `Leased`
//!   claims a whole block of timestamps in one relaxed `fetch_add` and
//!   ticks locally, so the shared clock cache line is touched once per
//!   block instead of once per step.
//! * [`OrderTier`] — how the *semantic* memory operations
//!   ([`Ctx::read_acq`], [`Ctx::write_rel`], [`Ctx::cas_bool_sync`], …)
//!   map to hardware orderings. Under `SeqCst` they all stay sequentially
//!   consistent; under `Tiered` they become acquire/release/acq-rel, which
//!   the algorithm's publication structure permits (§2.2 of DESIGN.md).

use crate::gate::Gate;
use crate::heap::{Addr, Heap};
use crate::history::{Event, PendingOp};
use crate::rng::Pcg;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A command sent to a process by the (adaptive) player adversary, encoded
/// as a boxed word slice; workloads define the encoding.
pub type Command = Box<[u64]>;

/// A per-process mailbox, written by the simulator controller between steps
/// and polled by the process as a gated step.
pub type Mailbox = Mutex<VecDeque<Command>>;

/// How a real-mode context draws global logical timestamps (one per step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// One `SeqCst` `fetch_add` on the shared clock per step: timestamps
    /// are exact and totally ordered across processes. Required when a
    /// recorded history's timestamps must be globally meaningful.
    Precise,
    /// Claim a lease of this many consecutive timestamps in one relaxed
    /// `fetch_add`, then tick locally. Per-process timestamps remain
    /// strictly monotonic and globally unique; cross-process order within
    /// concurrently-held leases is not meaningful. Use for throughput runs.
    Leased(u64),
}

impl ClockMode {
    /// The default lease length used by [`crate::real::RealConfig::fast`].
    pub const DEFAULT_LEASE: u64 = 256;
}

/// Which hardware ordering the semantic (tiered) memory operations use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderTier {
    /// Everything sequentially consistent (the simulator, and the
    /// conservative real-mode default).
    SeqCst,
    /// Acquire/release/acq-rel where the algorithm's publication structure
    /// permits: status and slot CAS = AcqRel, reveal/publish writes =
    /// Release, membership/pointer-chasing reads = Acquire.
    Tiered,
}

/// Per-process execution context.
///
/// A `Ctx` is created by a driver for exactly one process (thread) and must
/// not be shared across threads (it is `!Sync` by construction).
pub struct Ctx<'h> {
    heap: &'h Heap,
    pid: usize,
    nprocs: usize,
    gate: Option<&'h Gate>,
    clock: &'h AtomicU64,
    stop: &'h AtomicBool,
    /// Real-mode fault injection: when set and holding `pid + 1`, this
    /// process is suspended — `stepped` spins (uncounted) until the
    /// injector clears the word. Models the OS scheduler withholding steps
    /// (the real-threads analogue of a [`crate::schedule::StallWindow`]):
    /// own steps do not advance while suspended, exactly as in sim.
    pauser: Option<&'h AtomicU64>,
    mailbox: Option<&'h Mailbox>,
    clock_mode: ClockMode,
    tier: OrderTier,
    steps: Cell<u64>,
    last_now: Cell<u64>,
    /// Latched when an allocation had to fall back to the heap's emergency
    /// reserve: the process's lane (or the shared slab region) is dry.
    heap_low: Cell<bool>,
    /// Next unconsumed leased timestamp (real + `Leased` mode only).
    lease_next: Cell<u64>,
    /// One past the last timestamp of the current lease.
    lease_end: Cell<u64>,
    rng: RefCell<Pcg>,
    events: RefCell<Vec<Event>>,
    pending: RefCell<Option<PendingOp>>,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("steps", &self.steps.get())
            .field("simulated", &self.gate.is_some())
            .field("clock_mode", &self.clock_mode)
            .field("tier", &self.tier)
            .finish()
    }
}

impl<'h> Ctx<'h> {
    /// Creates a context. Drivers call this; algorithm code receives `&Ctx`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        heap: &'h Heap,
        pid: usize,
        nprocs: usize,
        seed: u64,
        gate: Option<&'h Gate>,
        clock: &'h AtomicU64,
        stop: &'h AtomicBool,
        pauser: Option<&'h AtomicU64>,
        mailbox: Option<&'h Mailbox>,
        clock_mode: ClockMode,
        tier: OrderTier,
    ) -> Ctx<'h> {
        let clock_mode = match clock_mode {
            ClockMode::Leased(0) => ClockMode::Leased(1),
            other => other,
        };
        Ctx {
            heap,
            pid,
            nprocs,
            gate,
            clock,
            stop,
            pauser,
            mailbox,
            clock_mode,
            tier,
            steps: Cell::new(0),
            last_now: Cell::new(0),
            heap_low: Cell::new(false),
            lease_next: Cell::new(0),
            lease_end: Cell::new(0),
            rng: RefCell::new(Pcg::new(seed, pid as u64 + 1)),
            events: RefCell::new(Vec::new()),
            pending: RefCell::new(None),
        }
    }

    /// Draws this step's logical timestamp in real (ungated) mode.
    #[inline]
    fn next_tick(&self) -> u64 {
        match self.clock_mode {
            ClockMode::Precise => self.clock.fetch_add(1, Ordering::SeqCst),
            ClockMode::Leased(block) => {
                let t = self.lease_next.get();
                if t >= self.lease_end.get() {
                    // Lease exhausted (or never claimed): claim the next
                    // block with the run's only shared-clock RMW. Relaxed
                    // suffices — uniqueness comes from RMW atomicity, and
                    // nothing is published through the clock.
                    let base = self.clock.fetch_add(block, Ordering::Relaxed);
                    self.lease_next.set(base + 1);
                    self.lease_end.set(base + block);
                    base
                } else {
                    self.lease_next.set(t + 1);
                    t
                }
            }
        }
    }

    /// Executes `f` as one step: counts it, and in simulated mode blocks
    /// until the oblivious scheduler grants the step.
    #[inline]
    fn stepped<T>(&self, f: impl FnOnce() -> T) -> T {
        self.steps.set(self.steps.get() + 1);
        match self.gate {
            Some(gate) => {
                gate.request();
                self.last_now.set(gate.now());
                let r = f();
                gate.complete();
                r
            }
            None => {
                // Fault injection: a suspended process takes no steps until
                // the injector releases it. The spin is uncounted — the
                // step happens (and is counted) only once it is granted,
                // mirroring the simulator's wasted scheduler slots.
                if let Some(p) = self.pauser {
                    while p.load(Ordering::Acquire) == self.pid as u64 + 1 {
                        std::hint::spin_loop();
                    }
                }
                let t = self.next_tick();
                self.last_now.set(t);
                f()
            }
        }
    }

    // ----- ordering-tier selection -----

    /// Ordering for tiered loads (membership scans, pointer chasing).
    #[inline]
    fn acq(&self) -> Ordering {
        match self.tier {
            OrderTier::SeqCst => Ordering::SeqCst,
            OrderTier::Tiered => Ordering::Acquire,
        }
    }

    /// Ordering for tiered stores (reveals, record publication).
    #[inline]
    fn rel(&self) -> Ordering {
        match self.tier {
            OrderTier::SeqCst => Ordering::SeqCst,
            OrderTier::Tiered => Ordering::Release,
        }
    }

    /// Success ordering for tiered CAS (status transitions, slot claims).
    #[inline]
    fn acqrel(&self) -> Ordering {
        match self.tier {
            OrderTier::SeqCst => Ordering::SeqCst,
            OrderTier::Tiered => Ordering::AcqRel,
        }
    }

    /// Process id in `0..nprocs`.
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Total number of processes in the system (the paper's `P`).
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of own steps this process has taken so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Global logical time of this process's most recent step. Under
    /// [`ClockMode::Leased`] this is strictly monotonic per process and
    /// globally unique, but only lease-granular across processes.
    #[inline]
    pub fn now(&self) -> u64 {
        self.last_now.get()
    }

    /// The driver-selected clock mode.
    #[inline]
    pub fn clock_mode(&self) -> ClockMode {
        self.clock_mode
    }

    /// The underlying heap (for address arithmetic only; going around the
    /// step accounting in algorithm code invalidates the experiments).
    #[inline]
    pub fn heap(&self) -> &'h Heap {
        self.heap
    }

    /// Whether the driver has requested cooperative shutdown. Workload
    /// loops must poll this between attempts.
    #[inline]
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    // ----- shared-memory operations (one step each) -----

    /// Atomic read of a shared word (sequentially consistent).
    #[inline]
    pub fn read(&self, a: Addr) -> u64 {
        self.stepped(|| self.heap.load(a, Ordering::SeqCst))
    }

    /// Atomic write of a shared word (sequentially consistent).
    #[inline]
    pub fn write(&self, a: Addr, v: u64) {
        self.stepped(|| self.heap.store(a, v, Ordering::SeqCst))
    }

    /// Atomic compare-and-swap; returns the *previous* value. The CAS
    /// succeeded iff the return value equals `old`. Sequentially
    /// consistent.
    #[inline]
    pub fn cas_val(&self, a: Addr, old: u64, new: u64) -> u64 {
        self.stepped(|| self.heap.cas_ord(a, old, new, Ordering::SeqCst, Ordering::SeqCst))
    }

    /// Atomic compare-and-swap; returns whether it succeeded. Sequentially
    /// consistent.
    #[inline]
    pub fn cas_bool(&self, a: Addr, old: u64, new: u64) -> bool {
        self.cas_val(a, old, new) == old
    }

    // ----- tiered shared-memory operations (one step each) -----
    //
    // Identical to the operations above under `OrderTier::SeqCst` (always
    // the case in the simulator, so determinism and the recorded histories
    // are untouched); weaker-but-sufficient hardware orderings under
    // `OrderTier::Tiered`.

    /// Tiered read: `Acquire` under [`OrderTier::Tiered`]. For reads that
    /// chase a published pointer or scan membership (active-set snapshots,
    /// descriptor status/priority, frame headers).
    #[inline]
    pub fn read_acq(&self, a: Addr) -> u64 {
        self.stepped(|| self.heap.load(a, self.acq()))
    }

    /// Tiered write: `Release` under [`OrderTier::Tiered`]. For writes
    /// that publish a record or reveal a value (priority reveal, record
    /// initialization completed by a later release publication, owner
    /// clears).
    #[inline]
    pub fn write_rel(&self, a: Addr, v: u64) {
        self.stepped(|| self.heap.store(a, v, self.rel()))
    }

    /// Tiered CAS returning the previous value: `AcqRel` on success /
    /// `Acquire` on failure under [`OrderTier::Tiered`]. For one-shot
    /// status transitions, slot claims and snapshot installs.
    #[inline]
    pub fn cas_val_sync(&self, a: Addr, old: u64, new: u64) -> u64 {
        self.stepped(|| {
            let fail = self.acq();
            self.heap.cas_ord(a, old, new, self.acqrel(), fail)
        })
    }

    /// Tiered CAS returning success, see [`Ctx::cas_val_sync`].
    #[inline]
    pub fn cas_bool_sync(&self, a: Addr, old: u64, new: u64) -> bool {
        self.cas_val_sync(a, old, new) == old
    }

    /// A full `SeqCst` fence under [`OrderTier::Tiered`]; a no-op under
    /// [`OrderTier::SeqCst`] (every operation is already sequentially
    /// consistent there, and the simulator serializes steps anyway).
    ///
    /// Not a counted step: it is a hardware-ordering artifact with no
    /// shared-memory effect, so step accounting stays identical across
    /// tiers. Needed at *reveal points*: a Release store followed by
    /// Acquire scans permits store-buffer reordering (both of two
    /// concurrent attempts reading the other's pre-reveal value); an SC
    /// fence between each attempt's reveal store and its subsequent scan
    /// restores the "at least one sees the other" guarantee
    /// (Dekker-via-fences, see DESIGN.md §2.2).
    #[inline]
    pub fn publication_fence(&self) {
        if self.tier == OrderTier::Tiered {
            std::sync::atomic::fence(Ordering::SeqCst);
        }
    }

    /// Allocates `n` words from this process's allocation lane (one step;
    /// the model treats allocation as a constant-time primitive, see
    /// DESIGN.md). The hot path is a plain uncontended bump inside the
    /// lane's current slab; the shared slab cursor is touched once per
    /// slab. The lane is the pid, so simulated replays allocate from
    /// identical lanes deterministically.
    ///
    /// When the slab region is exhausted the allocation falls back to the
    /// heap's emergency reserve and latches [`Ctx::heap_low`], so the
    /// in-flight attempt completes (it may already have published records)
    /// and the caller gives up cleanly before starting new work — the next
    /// quiescent epoch reset rewinds every lane and clears the pressure.
    ///
    /// # Panics
    /// Panics (with a [`crate::heap::HeapExhausted`] payload) only when the
    /// reserve itself is dry — a genuine arena-sizing bug.
    #[inline]
    pub fn alloc(&self, n: usize) -> Addr {
        self.stepped(|| match self.heap.alloc(self.pid, n) {
            Ok(a) => a,
            Err(_) => {
                self.heap_low.set(true);
                self.heap.alloc_reserve(self.pid, n)
            }
        })
    }

    /// Whether an allocation has had to dip into the emergency reserve
    /// since the last [`Ctx::reset_heap_low`]. Retry loops and batch
    /// drivers treat this like tag exhaustion: stop opening new attempts
    /// and let the epoch boundary rewind the lanes.
    #[inline]
    pub fn heap_low(&self) -> bool {
        self.heap_low.get()
    }

    /// Clears the heap-pressure latch. Called by epoch drivers right after
    /// a quiescent reset has rewound the lanes (a new heap lifetime).
    #[inline]
    pub fn reset_heap_low(&self) {
        self.heap_low.set(false);
    }

    // ----- local operations (one step each) -----

    /// A private step with no shared-memory effect. Used to implement the
    /// paper's fixed delays.
    #[inline]
    pub fn local_step(&self) {
        self.stepped(|| ())
    }

    /// Stalls (taking local steps) until this process has taken at least
    /// `target` own steps in total. This is the paper's `Delay until ...
    /// total steps taken` primitive; the stall length is a deterministic
    /// function of the process's own step count, never of other processes.
    ///
    /// Under the simulator the whole stall is one gate request for its
    /// remaining steps: the schedule grants them one slot at a time exactly
    /// as for separate local steps, but the worker thread wakes only once.
    pub fn stall_until_steps(&self, target: u64) {
        let n = target.saturating_sub(self.steps.get());
        match self.gate {
            Some(gate) if n > 0 => {
                self.steps.set(target);
                gate.request_run(n);
                self.last_now.set(gate.now());
                gate.complete();
            }
            _ => {
                while self.steps.get() < target {
                    self.local_step();
                }
            }
        }
    }

    /// Draws 64 random bits from this process's private deterministic
    /// stream (one local step).
    #[inline]
    pub fn rand_u64(&self) -> u64 {
        self.stepped(|| self.rng.borrow_mut().next_u64())
    }

    /// Draws a uniform value in `0..bound` (one local step).
    #[inline]
    pub fn rand_below(&self, bound: u64) -> u64 {
        self.stepped(|| self.rng.borrow_mut().below(bound))
    }

    /// Polls this process's mailbox for a command from the player adversary
    /// (one step). Returns `None` when the mailbox is empty or the driver
    /// has no mailboxes (real mode).
    pub fn poll_mailbox(&self) -> Option<Command> {
        self.stepped(|| self.mailbox.and_then(|m| m.lock().pop_front()))
    }

    // ----- history recording -----

    /// Marks the invocation of a high-level operation (one step). Must be
    /// matched by [`Ctx::respond`].
    ///
    /// # Panics
    /// Panics if an operation is already pending on this process.
    pub fn invoke(&self, op: u32, a: u64, b: u64) {
        self.stepped(|| ());
        let mut p = self.pending.borrow_mut();
        assert!(p.is_none(), "nested invoke on process {}", self.pid);
        *p = Some(PendingOp { op, a, b, invoke: self.last_now.get() });
    }

    /// Marks the response of the pending operation (one step), recording a
    /// history [`Event`].
    ///
    /// # Panics
    /// Panics if no operation is pending.
    pub fn respond(&self, result: u64, mut result_set: Vec<u64>) {
        self.stepped(|| ());
        let p = self.pending.borrow_mut().take().expect("respond without invoke");
        result_set.sort_unstable();
        self.events.borrow_mut().push(Event {
            pid: self.pid,
            op: p.op,
            a: p.a,
            b: p.b,
            result,
            result_set,
            invoke: p.invoke,
            response: self.last_now.get(),
        });
    }

    /// Drains the recorded events (drivers call this after the body runs).
    pub(crate) fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx(heap: &Heap) -> (Ctx<'_>, &'static AtomicU64, &'static AtomicBool) {
        // Leak tiny statics for test plumbing simplicity.
        let clock: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        (
            Ctx::new(heap, 0, 1, 42, None, clock, stop, None, None, ClockMode::Precise, OrderTier::SeqCst),
            clock,
            stop,
        )
    }

    fn leased_ctx(heap: &Heap, block: u64) -> (Ctx<'_>, &'static AtomicU64) {
        let clock: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        (
            Ctx::new(
                heap,
                0,
                1,
                42,
                None,
                clock,
                stop,
                None,
                None,
                ClockMode::Leased(block),
                OrderTier::Tiered,
            ),
            clock,
        )
    }

    #[test]
    fn every_operation_counts_one_step() {
        let heap = Heap::new(64);
        let (ctx, _, _) = test_ctx(&heap);
        let a = ctx.alloc(1);
        assert_eq!(ctx.steps(), 1);
        ctx.write(a, 5);
        assert_eq!(ctx.steps(), 2);
        assert_eq!(ctx.read(a), 5);
        assert_eq!(ctx.steps(), 3);
        assert!(ctx.cas_bool(a, 5, 6));
        assert_eq!(ctx.steps(), 4);
        ctx.local_step();
        assert_eq!(ctx.steps(), 5);
        ctx.rand_u64();
        assert_eq!(ctx.steps(), 6);
    }

    #[test]
    fn tiered_operations_count_steps_and_roundtrip() {
        let heap = Heap::new(64);
        let (ctx, _) = leased_ctx(&heap, 4);
        let a = ctx.alloc(1);
        ctx.write_rel(a, 9);
        assert_eq!(ctx.read_acq(a), 9);
        assert!(ctx.cas_bool_sync(a, 9, 11));
        assert_eq!(ctx.cas_val_sync(a, 9, 12), 11, "failed CAS reports witness");
        assert_eq!(ctx.read_acq(a), 11);
        assert_eq!(ctx.steps(), 6);
    }

    #[test]
    fn cas_val_reports_witness() {
        let heap = Heap::new(64);
        let (ctx, _, _) = test_ctx(&heap);
        let a = ctx.alloc(1);
        ctx.write(a, 10);
        assert_eq!(ctx.cas_val(a, 10, 20), 10);
        assert_eq!(ctx.cas_val(a, 10, 30), 20);
        assert_eq!(ctx.read(a), 20);
    }

    #[test]
    fn stall_until_steps_reaches_exact_target() {
        let heap = Heap::new(16);
        let (ctx, _, _) = test_ctx(&heap);
        ctx.stall_until_steps(100);
        assert_eq!(ctx.steps(), 100);
        // Already past target: no-op.
        ctx.stall_until_steps(50);
        assert_eq!(ctx.steps(), 100);
    }

    #[test]
    fn invoke_respond_records_event() {
        let heap = Heap::new(16);
        let (ctx, _, _) = test_ctx(&heap);
        ctx.invoke(3, 7, 8);
        ctx.local_step();
        ctx.respond(1, vec![5, 2]);
        let evs = ctx.take_events();
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!((e.op, e.a, e.b, e.result), (3, 7, 8, 1));
        assert_eq!(e.result_set, vec![2, 5], "result sets are sorted");
        assert!(e.invoke < e.response);
    }

    #[test]
    #[should_panic(expected = "respond without invoke")]
    fn respond_without_invoke_panics() {
        let heap = Heap::new(16);
        let (ctx, _, _) = test_ctx(&heap);
        ctx.respond(0, vec![]);
    }

    #[test]
    fn real_mode_clock_advances() {
        let heap = Heap::new(16);
        let (ctx, clock, _) = test_ctx(&heap);
        ctx.local_step();
        let t1 = ctx.now();
        ctx.local_step();
        assert!(ctx.now() > t1);
        assert_eq!(clock.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn precise_mode_yields_consecutive_timestamps() {
        let heap = Heap::new(16);
        let (ctx, _, _) = test_ctx(&heap);
        for i in 0..100u64 {
            ctx.local_step();
            assert_eq!(ctx.now(), i, "precise mode = one global tick per step");
        }
    }

    #[test]
    fn leased_mode_ticks_locally_and_claims_blocks() {
        let heap = Heap::new(16);
        let (ctx, clock) = leased_ctx(&heap, 8);
        for i in 0..20u64 {
            ctx.local_step();
            assert_eq!(ctx.now(), i, "solo leased timestamps are still consecutive");
        }
        // 20 steps with block 8: exactly ceil(20/8) = 3 lease claims.
        assert_eq!(clock.load(Ordering::SeqCst), 24, "clock advanced by whole leases");
    }

    #[test]
    fn leased_block_zero_is_normalized() {
        let heap = Heap::new(16);
        let (ctx, _) = leased_ctx(&heap, 0);
        ctx.local_step();
        let t1 = ctx.now();
        ctx.local_step();
        assert!(ctx.now() > t1, "degenerate lease must still be monotonic");
    }

    #[test]
    fn stop_flag_is_visible() {
        let heap = Heap::new(16);
        let (ctx, _, stop) = test_ctx(&heap);
        assert!(!ctx.stop_requested());
        stop.store(true, Ordering::SeqCst);
        assert!(ctx.stop_requested());
    }

    #[test]
    fn rand_streams_are_deterministic_per_pid_and_seed() {
        let heap = Heap::new(16);
        let clock: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let mk = |pid: usize| {
            Ctx::new(&heap, pid, 4, 99, None, clock, stop, None, None, ClockMode::Precise, OrderTier::SeqCst)
        };
        let c1 = mk(3);
        let c2 = mk(3);
        assert_eq!(c1.rand_u64(), c2.rand_u64());
        let c3 = mk(2);
        assert_ne!(c1.rand_u64(), c3.rand_u64());
    }
}
