//! Epoch lifecycle for the shared arena: quiescent batch resets that make
//! timed runs unbounded by the tag space.
//!
//! The tagged-write idempotence scheme guarantees at-most-once application
//! *per heap lifetime*, and the per-process attempt counters that back it
//! are finite (see `wfl_idem::tag`). A run that should last longer than one
//! tag space therefore proceeds in **epochs**: batches of attempts
//! separated by quiescent points at which one thread rewinds the heap
//! ([`Heap::reset_to_quiescent`]) and the per-process tag counters are
//! rewound (`TagSource::reset`), after which the workload's root records
//! are re-created from scratch.
//!
//! Rewinding tags is sound exactly because the reset is quiescent: every
//! record a helper could still be poised to apply — descriptors, frames,
//! operation logs — lives above the epoch mark and is zeroed, and every
//! worker is parked at the barrier, so no pre-reset observation survives
//! into the new epoch. See `DESIGN.md` §1.1.
//!
//! Two pieces implement the protocol:
//!
//! * [`EpochState`] — the heap watermark to rewind to, plus the epoch
//!   counter and the arena high-water mark (both reported by benchmarks).
//! * [`EpochSync`] — the rendezvous: every worker calls
//!   [`EpochSync::arrive`] at the end of its batch; the last arrival
//!   becomes the *leader*, performs the boundary work (aggregate outcomes,
//!   check safety, reset, re-root) while everyone else is parked, and
//!   [`EpochSync::release`]s them with a continue/stop decision.
//!
//! [`run_epoch_worker`] packages the per-worker loop (batch → rendezvous →
//! maybe-lead → resume) so drivers only supply the batch body and the
//! leader's boundary closure.

use crate::ctx::Ctx;
use crate::heap::{Heap, HeapMark};
use parking_lot::{Condvar, Mutex};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The heap rewind point and per-run epoch accounting shared by all
/// workers. High-water marks are tracked **per allocation lane** (one per
/// process plus the root lane), so arena-pressure reports show
/// where the words went, not just how many.
#[derive(Debug)]
pub struct EpochState {
    mark: HeapMark,
    epochs: AtomicU64,
    /// Max over boundaries of the words handed out at that boundary,
    /// summed over lanes — a single epoch's peak, so it can never exceed
    /// the arena capacity.
    total_high: AtomicUsize,
    /// Per-lane maxima (each lane's own peak, possibly from different
    /// epochs — their sum can exceed [`EpochState::high_water`]).
    high_water: Box<[AtomicUsize]>,
}

impl EpochState {
    /// Captures the current allocator state (shared cursors plus every
    /// lane's position) as the epoch mark. Create this **before**
    /// allocating any per-epoch roots: everything above the mark is wiped
    /// at each boundary.
    pub fn new(heap: &Heap) -> EpochState {
        let mark = heap.mark();
        let mut hw = Vec::with_capacity(heap.lane_count());
        hw.resize_with(heap.lane_count(), || AtomicUsize::new(0));
        EpochState {
            mark,
            epochs: AtomicU64::new(0),
            total_high: AtomicUsize::new(0),
            high_water: hw.into_boxed_slice(),
        }
    }

    /// The rewind point epochs return to.
    pub fn mark(&self) -> &HeapMark {
        &self.mark
    }

    /// Number of epochs completed so far (boundary crossings, including the
    /// final boundary recorded by [`EpochState::finish`]).
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::SeqCst)
    }

    /// Highest usage observed at any single epoch boundary (words handed
    /// out, summed over every lane at that boundary) — bounded by the
    /// arena capacity.
    pub fn high_water(&self) -> usize {
        self.total_high.load(Ordering::SeqCst)
    }

    /// Per-lane high-water marks (index = lane = pid; the trailing entry is
    /// the root lane's setup/re-root allocations). Each entry is that
    /// lane's own peak — possibly from different epochs, so the vector may
    /// sum past [`EpochState::high_water`].
    pub fn high_water_lanes(&self) -> Vec<usize> {
        self.high_water.iter().map(|w| w.load(Ordering::SeqCst)).collect()
    }

    /// Records every lane's current usage into its high-water mark, and
    /// this boundary's total into the scalar high water.
    pub fn observe(&self, heap: &Heap) {
        let mut total = 0;
        for (lane, hw) in self.high_water.iter().enumerate() {
            let used = heap.lane_used(lane);
            hw.fetch_max(used, Ordering::SeqCst);
            total += used;
        }
        self.total_high.fetch_max(total, Ordering::SeqCst);
    }

    /// Closes an epoch with a reset: records the high-water mark, rewinds
    /// the heap to the mark, and counts the epoch. Leader-only, and only
    /// while every other worker is parked at the [`EpochSync`] barrier (see
    /// [`Heap::reset_to_quiescent`] for the quiescence contract).
    pub fn advance(&self, heap: &Heap) {
        self.observe(heap);
        heap.reset_to_quiescent(&self.mark);
        self.epochs.fetch_add(1, Ordering::SeqCst);
    }

    /// Closes the final epoch without a reset (the run is over; the heap is
    /// left intact for post-run inspection).
    pub fn finish(&self, heap: &Heap) {
        self.observe(heap);
        self.epochs.fetch_add(1, Ordering::SeqCst);
    }
}

/// What [`EpochSync::arrive`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// This caller arrived last: it must perform the boundary work and then
    /// [`EpochSync::release`] the others.
    Leader,
    /// Another caller led; the payload is the leader's continue decision
    /// (`false` = the run is over, do not start another epoch).
    Follower(bool),
}

#[derive(Debug)]
struct SyncState {
    expected: usize,
    arrived: usize,
    departed: usize,
    generation: u64,
    decision: bool,
    /// Set when any member departs (normal exit or unwind). All subsequent
    /// decisions are forced to "stop" so the surviving workers wind down
    /// instead of waiting for a member that will never arrive.
    aborted: bool,
}

/// The epoch rendezvous barrier (see module docs).
///
/// Built on a mutex + condvar rather than a spinning sense-reversal
/// barrier: epoch boundaries are cold (one per thousands of attempts), and
/// the mutex doubles as the happens-before edge that makes the leader's
/// quiescent heap reset sound.
#[derive(Debug)]
pub struct EpochSync {
    state: Mutex<SyncState>,
    cv: Condvar,
}

impl EpochSync {
    /// A barrier for `members` workers.
    ///
    /// # Panics
    /// Panics if `members` is zero.
    pub fn new(members: usize) -> EpochSync {
        assert!(members > 0, "an epoch barrier needs at least one member");
        EpochSync {
            state: Mutex::new(SyncState {
                expected: members,
                arrived: 0,
                departed: 0,
                generation: 0,
                decision: false,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of members the barrier was created for.
    pub fn members(&self) -> usize {
        self.state.lock().expected
    }

    /// Rendezvous at an epoch boundary. The last live member to arrive
    /// returns [`Arrival::Leader`] immediately (the others stay parked
    /// until it calls [`EpochSync::release`]); everyone else blocks and
    /// returns [`Arrival::Follower`] with the leader's decision.
    pub fn arrive(&self) -> Arrival {
        let mut s = self.state.lock();
        s.arrived += 1;
        if s.arrived >= s.expected.saturating_sub(s.departed) {
            return Arrival::Leader;
        }
        let gen = s.generation;
        while s.generation == gen {
            self.cv.wait(&mut s);
        }
        Arrival::Follower(s.decision)
    }

    /// Leader-only: publishes the continue/stop decision and wakes every
    /// follower. Returns the *effective* decision, which is forced to
    /// `false` if any member has departed.
    pub fn release(&self, cont: bool) -> bool {
        let mut s = self.state.lock();
        let effective = cont && !s.aborted;
        s.decision = effective;
        s.arrived = 0;
        s.generation += 1;
        self.cv.notify_all();
        effective
    }

    /// Registers the caller as a barrier member for the duration of the
    /// returned guard. Dropping the guard (normal return *or* unwind)
    /// departs the member, so a worker that dies can never strand the
    /// others at the barrier.
    pub fn member(&self) -> EpochMember<'_> {
        EpochMember { sync: self }
    }

    fn depart(&self) {
        let mut s = self.state.lock();
        s.departed += 1;
        s.aborted = true;
        if s.arrived > 0 && s.arrived >= s.expected.saturating_sub(s.departed) {
            // Everyone still present is already parked waiting: nobody is
            // left to become leader, so close the cycle with a stop
            // decision on their behalf.
            s.decision = false;
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
        }
    }
}

/// RAII membership in an [`EpochSync`]; see [`EpochSync::member`].
#[derive(Debug)]
pub struct EpochMember<'a> {
    sync: &'a EpochSync,
}

impl Drop for EpochMember<'_> {
    fn drop(&mut self) {
        self.sync.depart();
    }
}

/// One worker's epoch loop: run `epoch_body` for the current epoch,
/// rendezvous, have exactly one worker run `boundary` (returning whether to
/// open another epoch), and resume or exit accordingly.
///
/// `boundary` runs while every other worker is parked — it is the one place
/// where [`EpochState::advance`] / [`Heap::reset_to_quiescent`] and root
/// re-creation are sound. If it panics (a failed safety check, an exhausted
/// heap), the followers are released with a stop decision before the panic
/// propagates, so the run ends loudly instead of hanging.
pub fn run_epoch_worker(
    ctx: &Ctx<'_>,
    sync: &EpochSync,
    mut epoch_body: impl FnMut(&Ctx<'_>, u64),
    boundary: impl Fn(&Ctx<'_>, u64) -> bool,
) {
    let _member = sync.member();
    let mut epoch = 0u64;
    loop {
        epoch_body(ctx, epoch);
        let cont = match sync.arrive() {
            Arrival::Leader => match std::panic::catch_unwind(AssertUnwindSafe(|| boundary(ctx, epoch))) {
                Ok(c) => sync.release(c),
                Err(payload) => {
                    sync.release(false);
                    std::panic::resume_unwind(payload);
                }
            },
            Arrival::Follower(c) => c,
        };
        if !cont {
            break;
        }
        epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn state_tracks_mark_epochs_and_high_water() {
        let heap = Heap::new(256);
        let _persistent = heap.alloc_root(4);
        let state = EpochState::new(&heap);
        let used_at_mark = heap.used();
        assert_eq!(state.epochs(), 0);

        let t = heap.alloc_root(32);
        heap.poke(t, 11);
        state.advance(&heap);
        assert_eq!(state.epochs(), 1);
        // High water is per-lane words handed out: the root lane carried
        // the persistent root plus the transient.
        assert_eq!(state.high_water(), 4 + 32);
        let lanes = state.high_water_lanes();
        assert_eq!(lanes[heap.root_lane()], 4 + 32, "root lane carries all of it");
        assert!(lanes[..heap.root_lane()].iter().all(|&w| w == 0));
        assert_eq!(heap.used(), used_at_mark, "advance rewinds to the mark");
        assert_eq!(heap.peek(t), 0, "transient region zeroed");

        heap.alloc_root(8);
        state.finish(&heap);
        assert_eq!(state.epochs(), 2);
        assert_eq!(state.high_water(), 4 + 32, "high water keeps the maximum");
        assert!(heap.used() > used_at_mark, "finish does not reset");
    }

    #[test]
    fn barrier_elects_one_leader_per_generation_and_delivers_decisions() {
        let sync = EpochSync::new(4);
        let leaders = AtomicUsize::new(0);
        let continues = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..3 {
                        let cont = match sync.arrive() {
                            Arrival::Leader => {
                                leaders.fetch_add(1, Ordering::SeqCst);
                                sync.release(round < 2)
                            }
                            Arrival::Follower(c) => c,
                        };
                        assert_eq!(cont, round < 2, "round {round}");
                        if cont {
                            continues.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 3, "exactly one leader per generation");
        assert_eq!(continues.load(Ordering::SeqCst), 8, "4 workers x 2 continue rounds");
    }

    #[test]
    fn departed_member_does_not_strand_waiters() {
        let sync = EpochSync::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    // Both survivors arrive; the third member departs
                    // instead. Whoever completes the cycle must deliver a
                    // stop decision everywhere.
                    let cont = match sync.arrive() {
                        Arrival::Leader => sync.release(true),
                        Arrival::Follower(c) => c,
                    };
                    assert!(!cont, "departure must force a stop decision");
                });
            }
            scope.spawn(|| {
                let member = sync.member();
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(member); // departs without ever arriving
            });
        });
    }

    #[test]
    fn worker_loop_runs_boundary_once_per_epoch() {
        let heap = Heap::new(1 << 10);
        let state = EpochState::new(&heap);
        let sync = EpochSync::new(2);
        let bodies = AtomicUsize::new(0);
        let boundaries = AtomicUsize::new(0);
        let report = crate::real::run_threads(&heap, 2, 1, None, |_pid| {
            let (sync, state, bodies, boundaries) = (&sync, &state, &bodies, &boundaries);
            move |ctx: &Ctx| {
                run_epoch_worker(
                    ctx,
                    sync,
                    |ctx, _epoch| {
                        ctx.alloc(16);
                        bodies.fetch_add(1, Ordering::SeqCst);
                    },
                    |ctx, epoch| {
                        boundaries.fetch_add(1, Ordering::SeqCst);
                        if epoch < 2 {
                            state.advance(ctx.heap());
                            true
                        } else {
                            state.finish(ctx.heap());
                            false
                        }
                    },
                );
            }
        });
        report.assert_clean();
        assert_eq!(bodies.load(Ordering::SeqCst), 6, "2 workers x 3 epochs");
        assert_eq!(boundaries.load(Ordering::SeqCst), 3, "one leader per epoch");
        assert_eq!(state.epochs(), 3);
        // Each epoch allocated 2x16 words above the (empty) mark; resets
        // rewound them, so the high water is one epoch's worth: 16 words in
        // each worker's lane, nothing in the root lane.
        assert_eq!(state.high_water(), 32);
        let lanes = state.high_water_lanes();
        assert_eq!((lanes[0], lanes[1]), (16, 16), "one slabful of usage per worker lane");
        assert_eq!(lanes[heap.root_lane()], 0);
    }

    #[test]
    fn leader_panic_releases_followers_with_stop() {
        let heap = Heap::new(1 << 8);
        let sync = EpochSync::new(2);
        let report = crate::real::run_threads(&heap, 2, 1, None, |_pid| {
            let sync = &sync;
            move |ctx: &Ctx| {
                run_epoch_worker(
                    ctx,
                    sync,
                    |_ctx, _epoch| {},
                    |_ctx, _epoch| panic!("boundary check failed"),
                );
            }
        });
        // Exactly one worker (the leader) panicked; the follower exited
        // cleanly instead of hanging at the barrier.
        assert_eq!(report.panics.len(), 1);
        assert!(report.panics[0].1.contains("boundary check failed"));
    }
}
