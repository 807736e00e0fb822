//! The harness's generic epoch driver: the backends and modes a workload
//! runs under ([`ExecMode`]), the hooks a workload supplies
//! ([`EpochWorkload`]), and the lifecycle that drives them
//! ([`drive_epochs`]). The protocol is described in the
//! [`crate::harness`] module docs.

use crate::algo::{AlgoInstance, AlgoSpec};
use crate::outcomes::{HarnessReport, Outcomes};
use std::sync::{Mutex, RwLock};
use std::time::Duration;
use wfl_baselines::LockAlgo;
use wfl_core::{AttemptMetrics, Deadline, GiveUp, Scratch};
use wfl_idem::{Registry, TagSource};
use wfl_runtime::epoch::{run_epoch_worker, EpochState, EpochSync};
use wfl_runtime::real::{run_threads_epochs, RealConfig};
use wfl_runtime::schedule::{Bursty, PeriodicFaults, RoundRobin, Schedule, SeededRandom, Weighted};
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Ctx, Event, Heap, History};

/// Scheduler families for simulated experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Fair round-robin.
    RoundRobin,
    /// Seeded uniform random.
    Random,
    /// Runs of the given length on one process at a time.
    Bursty(u64),
    /// Weights `1, 4, 7, ...` — persistent speed skew across processes.
    WeightedRamp,
    /// Seeded uniform random with periodic injected stalls: in every window
    /// of `period` scheduled slots, one deterministically chosen victim
    /// loses its first `quantum` slots — a lock holder freezing
    /// mid-critical-section (the E16 fault model, sim arm). Deterministic
    /// and oblivious, so fault runs replay exactly.
    RandomFaults {
        /// Window length in scheduled slots.
        period: u64,
        /// Stalled slots per window (`<= period`).
        quantum: u64,
    },
}

impl SchedKind {
    /// Instantiates the schedule for `n` processes (public so external
    /// drivers — the fairness adversary — build schedules from the same
    /// families).
    pub fn build(self, n: usize, seed: u64) -> Box<dyn Schedule> {
        match self {
            SchedKind::RoundRobin => Box::new(RoundRobin::new(n)),
            SchedKind::Random => Box::new(SeededRandom::new(n, seed)),
            SchedKind::Bursty(len) => Box::new(Bursty::new(n, len, seed)),
            SchedKind::WeightedRamp => Box::new(Weighted::new(
                &(0..n as u64).map(|i| 1 + 3 * i).collect::<Vec<_>>(),
                seed,
            )),
            SchedKind::RandomFaults { period, quantum } => Box::new(PeriodicFaults::new(
                SeededRandom::new(n, seed),
                n,
                period,
                quantum,
                seed ^ 0x5EED_FA17,
            )),
        }
    }
}

/// Who grants the process bodies their steps.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// Deterministic simulator.
    Sim {
        /// Schedule family.
        sched: SchedKind,
        /// Scheduled-phase budget **per epoch** (the simulator drains
        /// cooperatively past the budget).
        max_steps: u64,
    },
    /// Free-running OS threads, one per workload process. With `run_for`
    /// set, the driver raises the cooperative stop flag at the deadline
    /// and every attempt loop drains; recorded outcomes then cover a
    /// variable number of completed rounds.
    Real {
        /// Optional wall-clock budget (timed run).
        run_for: Option<Duration>,
        /// Hot-path configuration of the real driver.
        cfg: RealConfig,
    },
}

/// Which backend executes a workload's process bodies, and how the run is
/// batched into epochs.
///
/// The bodies themselves are identical across backends — they are written
/// against [`Ctx`] — so switching the backend changes *only* who grants
/// steps and where the epoch boundaries fall.
#[derive(Debug, Clone, Copy)]
pub struct ExecMode {
    /// The executing backend.
    pub backend: Backend,
    /// Rounds per process per epoch (`None` = the whole run is one epoch).
    /// Deterministic in sim, so epoch-crossing bugs are replayable; on
    /// timed real runs the driver keeps opening fresh epochs until the
    /// deadline — wall-clock soaks unbounded by the tag space.
    pub epoch_rounds: Option<usize>,
    /// Per-round own-step deadline budget armed into the attempt's
    /// [`Scratch::deadline`] (`None` = attempts run to a decision). See
    /// [`ExecMode::with_deadline_steps`].
    pub deadline_steps: Option<u64>,
    /// Capture a flight-recorder trace of the run (see
    /// [`ExecMode::with_recorder`]).
    pub recorder: bool,
}

impl ExecMode {
    /// A single-epoch mode on `backend`, without deadlines or recorder.
    pub fn new(backend: Backend) -> ExecMode {
        ExecMode { backend, epoch_rounds: None, deadline_steps: None, recorder: false }
    }

    /// A simulator mode (single epoch).
    pub fn sim(sched: SchedKind, max_steps: u64) -> ExecMode {
        ExecMode::new(Backend::Sim { sched, max_steps })
    }

    /// An untimed real-threads mode with the contention-free hot path.
    pub fn real() -> ExecMode {
        ExecMode::new(Backend::Real { run_for: None, cfg: RealConfig::fast() })
    }

    /// A timed real-threads mode with the contention-free hot path.
    pub fn real_timed(run_for: Duration) -> ExecMode {
        ExecMode::new(Backend::Real { run_for: Some(run_for), cfg: RealConfig::fast() })
    }

    /// Batches the run into epochs of `rounds` rounds per process (clamped
    /// to at least 1). See [`ExecMode::epoch_rounds`] for the
    /// timed/untimed split.
    pub fn with_epoch_rounds(mut self, rounds: usize) -> ExecMode {
        self.epoch_rounds = Some(rounds.max(1));
        self
    }

    /// Arms a per-round abort deadline: before every round the driver sets
    /// the attempt's [`Scratch::deadline`] to `steps` own steps from the
    /// round's start, so any single acquisition bails out (releasing
    /// partial acquisitions, descriptor left helpable) instead of
    /// overstaying its SLO. Applies to **all six workloads** — the budget
    /// rides [`Scratch`], untouched by workload-specific round logic.
    pub fn with_deadline_steps(mut self, steps: u64) -> ExecMode {
        self.deadline_steps = Some(steps.max(1));
        self
    }

    /// Turns on the flight recorder for the run: the driver enables
    /// `wfl_obs::rec` before spawning the processes, the epoch leader
    /// stamps an `EpochBarrier` control event at every boundary, and the
    /// drained [`wfl_obs::TraceSnapshot`] rides back on
    /// [`HarnessReport::trace`]. The recorder is process-global, so traced
    /// runs must not overlap other traced runs in the same process.
    pub fn with_recorder(mut self) -> ExecMode {
        self.recorder = true;
        self
    }

    /// Rounds per process per epoch for a run of `total_rounds`.
    pub fn epoch_len(&self, total_rounds: usize) -> usize {
        self.epoch_rounds.unwrap_or(total_rounds).max(1)
    }

    /// Short label for tables and JSON ("sim" / "real").
    pub fn label(&self) -> &'static str {
        match self.backend {
            Backend::Sim { .. } => "sim",
            Backend::Real { .. } => "real",
        }
    }
}

// ---------------------------------------------------------------------------
// The generic epoch driver
// ---------------------------------------------------------------------------

/// One workload's epoch-lifecycle hooks. The generic driver
/// ([`drive_epochs`]) owns batching, recording, rendezvous, reset and
/// aggregation; a workload supplies root (re-)creation, per-round behavior
/// and the boundary safety check.
pub(crate) trait EpochWorkload: Sync {
    /// Per-epoch heap roots (shared by every worker through the world
    /// slot).
    type Roots: Send + Sync;
    /// Per-worker per-epoch scratch (request buffers, result cells, ...).
    type Local;

    /// (Re-)creates the workload's heap roots on a fresh (or freshly
    /// reset) arena for epoch `epoch`.
    fn re_root(&self, heap: &Heap, epoch: usize) -> Self::Roots;

    /// Rounds `pid` may run in an epoch whose batch is `rounds` long: its
    /// batch length and its outcome-book capacity. Default `rounds`.
    fn slots(&self, _pid: usize, rounds: usize) -> usize {
        rounds
    }

    /// Builds a worker's per-epoch scratch (may allocate from the heap via
    /// `ctx`; such allocations are reclaimed by the next reset).
    fn local(&self, ctx: &Ctx<'_>, roots: &Self::Roots) -> Self::Local;

    /// Runs one round. `round` is the global round number (deterministic
    /// draws key off it, so behavior varies across epochs); `slot` is the
    /// index within the current epoch.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        ctx: &Ctx<'_>,
        roots: &Self::Roots,
        local: &mut Self::Local,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        slot: usize,
    ) -> AttemptMetrics;

    /// Asked before each of `pid`'s rounds, after the stop-flag and
    /// heap-pressure checks. Default [`Turn::Go`]. A [`Turn::Wait`] takes
    /// no counted step, so only real-threads workloads may wait.
    fn turn(&self, _ctx: &Ctx<'_>, _roots: &Self::Roots, _pid: usize) -> Turn {
        Turn::Go
    }

    /// Runs once at the end of each of `pid`'s batches, however the batch
    /// ended: all rounds run, [`Turn::Done`], the stop flag or heap
    /// pressure. Default: nothing.
    fn end_batch(&self, _ctx: &Ctx<'_>, _roots: &Self::Roots, _pid: usize) {}

    /// Epoch-boundary check at quiescence: aggregate this epoch's recorded
    /// outcomes (via [`Outcomes::aggregate`]) and compare the heap state
    /// against them. Returns the epoch report and whether the heap state
    /// matched; the driver also fails the epoch on the report's own
    /// outcome oracle (`safety_ok`).
    fn check(&self, heap: &Heap, roots: &Self::Roots, rec: &Outcomes) -> (HarnessReport, bool);
}

/// Whether a process runs its next round now ([`EpochWorkload::turn`]).
pub(crate) enum Turn {
    /// Run the round.
    Go,
    /// Not yet: the driver re-checks the stop flag and heap pressure, then
    /// asks again.
    Wait,
    /// End the process's batch for this epoch (not a give-up).
    Done,
}

/// A world: everything re-created at each epoch boundary.
struct World<'reg, R> {
    algo: AlgoInstance<'reg>,
    roots: R,
    rec: Outcomes,
}

/// One worker's batch for one epoch: build the per-epoch scratch, run up
/// to `pid`'s [`EpochWorkload::slots`] of the epoch's `rounds` (bailing at
/// the cooperative stop flag, or when [`EpochWorkload::turn`] ends the
/// batch), record each outcome. Shared verbatim by the simulator and
/// real-threads arms of [`drive_epochs`] — the bodies must stay identical
/// across backends.
#[allow(clippy::too_many_arguments)]
fn run_batch<WL: EpochWorkload>(
    ctx: &Ctx<'_>,
    wl: &WL,
    world: &World<'_, WL::Roots>,
    registry: &Registry,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    pid: usize,
    base: usize,
    rounds: usize,
    deadline_steps: Option<u64>,
) {
    // A fresh heap lifetime: the boundary reset (or first-epoch setup) has
    // rewound the lanes, so any latched allocation pressure is stale.
    ctx.reset_heap_low();
    let mut local = wl.local(ctx, &world.roots);
    let rounds = wl.slots(pid, rounds);
    world.algo.with(registry, |algo| {
        let mut cut_short = None;
        let mut slot = 0;
        while slot < rounds {
            // Heap pressure ends the batch exactly like the stop flag: the
            // attempt that tapped the reserve has completed and been
            // recorded; nothing new starts until the boundary rewinds the
            // lanes (see `Ctx::heap_low`).
            if ctx.stop_requested() {
                cut_short = Some(GiveUp::Stop);
                break;
            }
            if ctx.heap_low() {
                cut_short = Some(GiveUp::HeapLow);
                break;
            }
            match wl.turn(ctx, &world.roots, pid) {
                Turn::Go => {}
                Turn::Wait => {
                    std::hint::spin_loop();
                    continue;
                }
                Turn::Done => break,
            }
            // Arm the per-round SLO: the attempt (any algorithm) bails out
            // once the budget is spent instead of retrying/spinning on.
            if let Some(budget) = deadline_steps {
                scratch.deadline = Deadline::after(ctx, budget);
            }
            let out =
                wl.round(ctx, &world.roots, &mut local, algo, tags, scratch, pid, base + slot, slot);
            world.rec.record(ctx, pid, slot, &out);
            slot += 1;
        }
        if deadline_steps.is_some() {
            scratch.deadline = Deadline::NEVER;
        }
        world.rec.record_break(ctx, pid, cut_short);
    });
    wl.end_batch(ctx, &world.roots, pid);
}

/// Runs `wl` for `total_rounds` rounds per process (timed epoch runs:
/// unbounded) under `mode`, driving the full epoch lifecycle on either
/// backend. See the module docs for the protocol.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_epochs<WL: EpochWorkload>(
    heap: &Heap,
    registry: &Registry,
    spec: AlgoSpec,
    nprocs: usize,
    seed: u64,
    total_rounds: usize,
    mode: &ExecMode,
    wl: &WL,
) -> HarnessReport {
    // The epoch mark precedes every root: a boundary rewinds *everything*
    // (workload roots, outcome slots, lock records, transients), which is
    // what makes rewinding the tag counters sound.
    let state = EpochState::new(heap);
    let epoch_len = mode.epoch_len(total_rounds);
    let deadline_steps = mode.deadline_steps;
    // The flight recorder is enabled at quiescence, before any process
    // spawns, and drained after the last join — the single points where
    // every ring is guaranteed writer-free. The recorder is global, so a
    // traced run owns it for its whole duration.
    let recording = mode.recorder;
    if recording {
        wfl_obs::rec::enable();
    }
    let cap = (0..nprocs).map(|pid| wl.slots(pid, epoch_len)).max().unwrap_or(epoch_len);
    let make_world = |epoch: usize| World {
        algo: AlgoInstance::create(heap, registry, &spec),
        roots: wl.re_root(heap, epoch),
        rec: Outcomes::create_root(heap, nprocs, cap, epoch * epoch_len),
    };

    let mut run = match mode.backend {
        Backend::Sim { sched, max_steps } => {
            let mut run = HarnessReport::empty(nprocs);
            let mut events: Vec<Event> = Vec::new();
            let mut epoch = 0usize;
            loop {
                let base = epoch * epoch_len;
                // The loop only opens an epoch while base < total_rounds,
                // so this is >= 1 except in the degenerate total == 0 run
                // (which must execute zero rounds).
                let rounds = epoch_len.min(total_rounds.saturating_sub(base));
                let world = make_world(epoch);
                let world_ref = &world;
                let report = SimBuilder::new(heap, nprocs)
                    .seed(seed)
                    // Re-seed the schedule per epoch so boundaries land at
                    // fresh interleavings (still fully deterministic).
                    .schedule_box(sched.build(nprocs, seed.wrapping_add(epoch as u64)))
                    .max_steps(max_steps)
                    .spawn_all(|pid| {
                        move |ctx: &Ctx| {
                            let mut tags = TagSource::new(pid);
                            let mut scratch = Scratch::new();
                            run_batch(ctx, wl, world_ref, registry, &mut tags, &mut scratch, pid, base, rounds, deadline_steps);
                        }
                    })
                    .run();
                report.assert_clean();
                // Each epoch's sim clock restarts near zero, so events from
                // different epochs must never be mixed into one ordered
                // history: recording is only meaningful inside epoch 0
                // (run_bank_recorded caps itself accordingly).
                debug_assert!(
                    epoch == 0 || report.history.is_empty(),
                    "sim history recorded past epoch 0 would interleave as falsely concurrent"
                );
                events.extend(report.history.events);
                let (erep, safe) = wl.check(heap, &world.roots, &world.rec);
                let safe = safe && erep.safety_ok;
                postmortem_on_failure(epoch, safe);
                run.merge(&erep, safe);
                // The sim host owns the quiescent gap between epoch runs,
                // so the control ring is writer-free here (the host has no
                // pid or clock of its own — `now` is 0 by convention).
                wfl_obs::rec::record_ctrl(wfl_obs::EventKind::EpochBarrier, 0, epoch as u64);
                epoch += 1;
                if epoch * epoch_len >= total_rounds {
                    state.finish(heap);
                    break;
                }
                state.advance(heap);
            }
            run.history = History::from_parts(vec![events]);
            run
        }
        Backend::Real { run_for, cfg } => {
            // A timed run with an explicit epoch length keeps opening
            // epochs until the deadline; otherwise the run covers exactly
            // `total_rounds`.
            let unbounded = run_for.is_some() && mode.epoch_rounds.is_some();
            let sync = EpochSync::new(nprocs);
            let slot_world = RwLock::new(make_world(0));
            let run = Mutex::new(HarnessReport::empty(nprocs));
            let (sync_ref, state_ref, world_ref, run_ref, make_world_ref) =
                (&sync, &state, &slot_world, &run, &make_world);
            let report = run_threads_epochs(heap, nprocs, seed, run_for, cfg, &state, &sync, |pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    run_epoch_worker(
                        ctx,
                        sync_ref,
                        |ctx, epoch| {
                            // A fresh heap lifetime begins: rewind the tag
                            // counters (sound — see the quiescence argument
                            // in DESIGN.md §1.1).
                            tags.reset();
                            let world = world_ref.read().unwrap();
                            let base = epoch as usize * epoch_len;
                            let rounds = if unbounded {
                                epoch_len
                            } else {
                                // The leader only continues while the next
                                // base is below the total, so this is >= 1
                                // except in the degenerate total == 0 run.
                                epoch_len.min(total_rounds.saturating_sub(base))
                            };
                            run_batch(ctx, wl, &world, registry, &mut tags, &mut scratch, pid, base, rounds, deadline_steps);
                        },
                        |ctx, epoch| {
                            // Leader, at quiescence: aggregate + check this
                            // epoch, then either close the run or reset the
                            // arena and re-root the next epoch.
                            let heap = ctx.heap();
                            let mut world = world_ref.write().unwrap();
                            let (erep, safe) = wl.check(heap, &world.roots, &world.rec);
                            let safe = safe && erep.safety_ok;
                            postmortem_on_failure(epoch as usize, safe);
                            run_ref.lock().unwrap().merge(&erep, safe);
                            // The barrier stamp goes on the leader's *own*
                            // ring, not the control ring: the fault
                            // injector thread may be writing control
                            // events concurrently, and pid rings are the
                            // single-writer-safe home for worker emissions.
                            wfl_obs::rec::record(
                                ctx.pid(),
                                wfl_obs::EventKind::EpochBarrier,
                                ctx.now(),
                                ctx.steps(),
                                epoch,
                            );
                            let next_base = (epoch as usize + 1) * epoch_len;
                            let done = ctx.stop_requested()
                                || (!unbounded && next_base >= total_rounds);
                            if done {
                                state_ref.finish(heap);
                                false
                            } else {
                                state_ref.advance(heap);
                                *world = make_world_ref(epoch as usize + 1);
                                true
                            }
                        },
                    );
                }
            });
            report.assert_clean();
            let mut run = run.into_inner().unwrap();
            // The driver-stamped epoch count (from the EpochState the
            // leaders advanced) must agree with the boundary merges — a
            // divergence means a worker body skipped the epoch protocol.
            assert_eq!(
                report.epochs, run.epochs,
                "driver epoch count disagrees with boundary aggregation"
            );
            run.wall = Some(report.wall);
            run.history = report.history;
            run
        }
    };
    run.heap_high_water = state.high_water();
    run.heap_high_water_lanes = state.high_water_lanes();
    if recording {
        wfl_obs::rec::disable();
        run.trace = Some(wfl_obs::rec::snapshot());
    }
    run
}

/// Prints the flight recorder's tail when a recorded run fails its
/// safety check — the postmortem the recorder exists for. A no-op when
/// the recorder is off (every untraced run).
fn postmortem_on_failure(epoch: usize, safe: bool) {
    if !safe && wfl_obs::rec::is_enabled() {
        eprintln!(
            "[wfl-obs] epoch {epoch} safety check FAILED; flight-recorder tail:\n{}",
            wfl_obs::rec::snapshot().postmortem(16)
        );
    }
}
