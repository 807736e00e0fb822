//! The adaptive player adversary on **both execution backends** — the
//! fairness experiments' workload (E15).
//!
//! The paper's headline guarantee (Theorem 6.9) is about an adaptive
//! adversary: however the player times competitor attempts, even with
//! full knowledge of the history, a victim's per-attempt success
//! probability cannot be pushed below `1/C_p`. A victim process (pid 0)
//! attempts on a fixed cadence; every other process is a competitor the
//! adversary aims at it. The adaptive decision (*flood strong contenders
//! exactly while the victim is exposed*) is
//! [`crate::player::flood_decision`], shared verbatim between:
//!
//! * **Sim**: the E7 construction, ported behind [`ExecMode`]: a
//!   [`TargetedStarter`] controller watches the victim's probe cell
//!   between steps and feeds competitor commands into mailboxes
//!   (deterministic, parity-testable against a hand-rolled E7 run).
//! * **Real threads**: the harness's sixth epoch workload. Competitors
//!   observe the probe cell themselves (uncounted peeks, the adversary's
//!   omniscience) and attempt when the decision fires, until the victim
//!   closes the epoch. The harness's epoch driver runs it, so a timed run
//!   with an epoch length keeps opening fresh heap lifetimes until the
//!   wall budget is spent, and every attempt lands in the harness's
//!   outcome book.
//!
//! Every attempt's critical section bumps the contested lock's acquisition
//! counter and appends its unique holder token to the lock's **holder
//! log** (`HolderTouch`); the per-epoch safety check (counter == recorded
//! wins) makes each adversary run a mutual-exclusion test, and recorded
//! runs feed the logs plus a [`HOLD_OP`]-bracketed history through
//! `wfl_lincheck::holders` for the holder-exclusivity audit.

use crate::algo::{AlgoHandle, AlgoKind, AlgoSpec};
use crate::driver::{drive_epochs, Backend, EpochWorkload, ExecMode, SchedKind, Turn};
use crate::outcomes::{HarnessReport, Outcomes};
use crate::player::{run_commanded, TargetedStarter};
use std::sync::Mutex;
use wfl_baselines::LockAlgo;
use wfl_core::{AttemptMetrics, LockId, Scratch, TryLockRequest};
use wfl_idem::tag::MIN_PROCESS_CAPACITY;
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_lincheck::holders::HOLD_OP;
use wfl_runtime::real::RealConfig;
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, Ctx, Heap};

pub use crate::player::{flood_decision, AdvStrength, PROBE_OPAQUE};
pub use crate::telemetry::{jain_index, ProcTelemetry};

/// Shape of one adversary run. The victim is always pid 0.
#[derive(Debug, Clone, Copy)]
pub struct AdversarySpec {
    /// Processes: one victim plus `nprocs - 1` competitors.
    pub nprocs: usize,
    /// Victim attempts: total for untimed runs, per epoch for timed
    /// epoch-batched runs (competitors attempt as often as the adversary
    /// decides, up to the tag space).
    pub rounds: usize,
    /// Contested locks. Each epoch contests lock `epoch % nlocks` (the
    /// adversary's optimal play is a single lock; rotating across epochs
    /// spreads the holder audit over several locks). The sim arm is
    /// single-epoch and requires 1.
    pub nlocks: usize,
    /// Adversary aggressiveness.
    pub strength: AdvStrength,
    /// Victim cadence: global steps between attempt starts in sim; the
    /// victim's think steps between attempts on real threads (also the
    /// competitors' think under [`AdvStrength::Calm`]).
    pub victim_period: u64,
    /// Workload seed.
    pub seed: u64,
    /// Arena words.
    pub heap_words: usize,
    /// Real arm: record `HOLD_OP`-bracketed attempt events and the holder
    /// logs for the first `nlocks` epochs (use a `Precise`-clock
    /// [`wfl_runtime::real::RealConfig`] so event timestamps are globally
    /// ordered for the audit).
    pub record: bool,
}

impl AdversarySpec {
    /// A spec with the E7 defaults: one contested lock, the targeted
    /// (paper) adversary, victim cadence 600.
    pub fn new(nprocs: usize, rounds: usize) -> AdversarySpec {
        assert!(nprocs >= 2, "an adversary run needs a victim and a competitor");
        AdversarySpec {
            nprocs,
            rounds,
            nlocks: 1,
            strength: AdvStrength::Targeted,
            victim_period: 600,
            seed: 1,
            heap_words: 1 << 22,
            record: false,
        }
    }
}

/// Aggregated results of an adversary run.
#[derive(Debug)]
pub struct FairnessReport {
    /// Per-process fairness telemetry, merged across every epoch
    /// (index 0 = the victim).
    pub per_proc: Vec<ProcTelemetry>,
    /// Per-lock holder sequences from the recorded epochs: `(lock id,
    /// tokens in acquisition order)`.
    pub holder_logs: Vec<(u64, Vec<u64>)>,
    /// The run's outcome book. `safety_ok` is the per-epoch check that
    /// the contested counter matched the recorded wins; `history` holds
    /// the `HOLD_OP` attempt events of the recorded epochs (empty unless
    /// `record` was set on a real run).
    pub run: HarnessReport,
}

impl FairnessReport {
    /// The victim's pid.
    pub const VICTIM: usize = 0;

    /// The victim's telemetry.
    pub fn victim(&self) -> &ProcTelemetry {
        &self.per_proc[Self::VICTIM]
    }

    /// The victim's success-rate estimator (the Theorem 6.9 quantity).
    pub fn victim_success(&self) -> Bernoulli {
        self.victim().success()
    }

    /// Jain's fairness index over the per-process success *rates* of every
    /// process that attempted at all. Rates, not win counts: the victim
    /// and the competitors attempt at very different frequencies by
    /// design, and the paper's guarantee is per-attempt.
    pub fn jain_rates(&self) -> f64 {
        let rates: Vec<f64> =
            self.per_proc.iter().filter(|t| t.attempts > 0).map(|t| t.rate()).collect();
        jain_index(&rates)
    }
}

/// The unique 32-bit holder token of attempt `slot` by `pid` (fits a
/// tagged cell's value; slots are bounded by the per-epoch tag space).
pub fn holder_token(pid: usize, slot: usize) -> u32 {
    debug_assert!(slot < (1 << 16) - 1 && pid < (1 << 15));
    ((pid as u32 + 1) << 16) | (slot as u32 + 1)
}

/// Critical section of every adversary attempt: bump the contested lock's
/// acquisition counter and append the attempt's holder token at the log
/// slot the counter named. Args: `[counter, log base, log capacity,
/// token]`; a zero capacity skips the log (unrecorded epochs).
struct HolderTouch;

impl Thunk for HolderTouch {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let counter = Addr::from_word(run.arg(0));
        let seq = run.read(counter);
        run.write(counter, seq + 1);
        if (seq as u64) < run.arg(2) {
            run.write(Addr::from_word(run.arg(1)).off(seq), run.arg(3) as u32);
        }
    }
    fn max_ops(&self) -> usize {
        3
    }
}

/// `L` and `T` of every adversary attempt: one lock, a three-operation
/// critical section.
const L_MAX: usize = 1;
const T_MAX: usize = 3;

/// Runs the player adversary under `algo` on either backend (see module
/// docs). The sim arm is the ported E7 construction (one epoch, one lock,
/// victim commanded on a cadence, competitors commanded by the
/// [`TargetedStarter`]); the real arm runs the same decision logic with
/// free-running observer competitors on the harness's epoch driver.
///
/// # Panics
/// Panics on spec/mode mismatches (sim with `nlocks != 1`, epoch batching
/// or a deadline), on process panics, and on a per-epoch round count
/// above the tag space.
pub fn run_adversary(spec: &AdversarySpec, algo: AlgoKind, mode: &ExecMode) -> FairnessReport {
    assert!(spec.nprocs >= 2);
    match mode.backend {
        Backend::Sim { sched, max_steps } => {
            assert!(mode.epoch_rounds.is_none(), "sim adversary runs are single-epoch");
            // The commanded player loop has no round to arm a deadline on.
            assert!(mode.deadline_steps.is_none(), "sim adversary runs cannot arm a deadline");
            assert_eq!(spec.nlocks, 1, "the sim adversary contests a single lock");
            run_sim(spec, algo, sched, max_steps, mode.recorder)
        }
        Backend::Real { cfg, .. } => run_real(spec, algo, cfg, mode),
    }
}

// ---------------------------------------------------------------------------
// Sim arm (the E7 port)
// ---------------------------------------------------------------------------

fn run_sim(
    spec: &AdversarySpec,
    algo: AlgoKind,
    sched: SchedKind,
    max_steps: u64,
    recorder: bool,
) -> FairnessReport {
    let rounds = spec.rounds;
    assert!(rounds <= MIN_PROCESS_CAPACITY as usize, "rounds exceed the tag space");
    let mut registry = Registry::new();
    let touch = registry.register(HolderTouch);
    let heap = Heap::new(spec.heap_words);
    // Allocation order is part of the sim arm's contract (the parity test
    // reconstructs it): lock records, counter, then `run_commanded`'s
    // results, step log and probe.
    let handle = AlgoHandle::create(&heap, &registry, algo, 1, spec.nprocs, L_MAX, T_MAX);
    let counter = heap.alloc_root(1);
    if recorder {
        wfl_obs::rec::enable();
    }
    let (report, outcomes) = handle.with(|a| {
        run_commanded(&heap, spec.nprocs, rounds, true, true, a, touch, |sim, probe| {
            sim.seed(spec.seed)
                .schedule_box(sched.build(spec.nprocs, spec.seed))
                .controller(TargetedStarter {
                    victim: 0,
                    competitors: (1..spec.nprocs).collect(),
                    locks: vec![LockId(0)],
                    // No holder log in sim: commands carry one fixed arg
                    // set, and the log needs a distinct token per attempt.
                    args: vec![counter.to_word(), 0, 0, 0],
                    victim_period: spec.victim_period,
                    victim_desc_cell: probe.expect("the victim has a probe cell"),
                    strength: spec.strength,
                    issued: 0,
                })
                .max_steps(max_steps)
        })
    });

    let mut run = HarnessReport::empty(spec.nprocs);
    run.epochs = 1;
    let mut per_proc = vec![ProcTelemetry::new(); spec.nprocs];
    for (pid, (tel, outs)) in per_proc.iter_mut().zip(&outcomes).enumerate() {
        for out in outs {
            tel.record(out);
            run.attempts += 1;
            run.wins += out.won as u64;
            run.per_pid[pid].0 += out.won as u64;
            run.per_pid[pid].1 += 1;
            run.steps.record(out.steps);
            run.delay_overruns += out.delay_overrun as u64;
        }
    }
    run.safety_ok = cell::value(heap.peek(counter)) as u64 == run.wins;
    run.history = report.history;
    if recorder {
        wfl_obs::rec::disable();
        run.trace = Some(wfl_obs::rec::snapshot());
    }
    FairnessReport { per_proc, holder_logs: Vec::new(), run }
}

// ---------------------------------------------------------------------------
// Real arm (free-running observer competitors on the harness driver)
// ---------------------------------------------------------------------------

/// One epoch's contest: everything re-rooted at each boundary.
struct Contest {
    /// The lock contested this epoch (`epoch % nlocks`).
    lock: LockId,
    /// The lock's acquisition counter (a tagged cell).
    counter: Addr,
    /// The lock's holder log (`log_cap` tagged cells).
    log: Addr,
    /// Holder-log capacity; 0 outside the recorded epochs.
    log_cap: usize,
    /// The victim's probe cell.
    probe: Addr,
    /// Raised by the victim when its batch is over; competitors drain.
    epoch_done: Addr,
}

/// The real arm as an [`EpochWorkload`]: the victim runs probe-bracketed
/// attempts on a cadence, the competitors attempt whenever the flood
/// decision fires, and the boundary folds the outcome book into the
/// per-process telemetry.
struct AdversaryWl {
    spec: AdversarySpec,
    touch: ThunkId,
    /// Epochs whose holder logs are captured (the first `nlocks` when
    /// recording).
    record_epochs: usize,
    /// Holder-log capacity of a recorded epoch: an upper bound on its
    /// wins.
    log_cap: usize,
    /// Per-process telemetry, folded at each boundary (leader only).
    per_proc: Mutex<Vec<ProcTelemetry>>,
    /// Holder logs of the recorded epochs (leader only).
    holder_logs: Mutex<Vec<(u64, Vec<u64>)>>,
}

impl EpochWorkload for AdversaryWl {
    type Roots = Contest;
    type Local = ();

    fn re_root(&self, heap: &Heap, epoch: usize) -> Contest {
        let log_cap = if epoch < self.record_epochs { self.log_cap } else { 0 };
        Contest {
            lock: LockId((epoch % self.spec.nlocks) as u32),
            counter: heap.alloc_root(1),
            log: heap.alloc_root(log_cap.max(1)),
            log_cap,
            probe: heap.alloc_root(1),
            epoch_done: heap.alloc_root(1),
        }
    }

    /// The victim runs the epoch's rounds; a competitor may spend its
    /// guaranteed tag capacity (not its actual serial count: pids >= 1 own
    /// one extra serial, and the holder log is sized to the guarantee).
    fn slots(&self, pid: usize, rounds: usize) -> usize {
        if pid == FairnessReport::VICTIM {
            rounds
        } else {
            MIN_PROCESS_CAPACITY as usize
        }
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &Contest) {}

    /// A competitor waits for the flood decision (cadence-based under
    /// [`AdvStrength::Calm`]) and drains once the victim closes the epoch.
    fn turn(&self, ctx: &Ctx<'_>, c: &Contest, pid: usize) -> Turn {
        let heap = ctx.heap();
        let strength = self.spec.strength;
        if pid == FairnessReport::VICTIM {
            Turn::Go
        } else if heap.peek(c.epoch_done) != 0 {
            Turn::Done
        } else if strength == AdvStrength::Calm || flood_decision(heap, c.probe, strength) {
            Turn::Go
        } else {
            Turn::Wait
        }
    }

    /// One attempt on the contested lock, bracketed for the holder audit
    /// when recording (invoke before, respond after, so the event interval
    /// covers the critical section). The victim publishes the attempt
    /// through its probe cell: the paper's algorithms overwrite the
    /// sentinel with the descriptor address, giving the adversary
    /// reveal-window precision; baselines stay opaque.
    fn round(
        &self,
        ctx: &Ctx<'_>,
        c: &Contest,
        _local: &mut (),
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        _round: usize,
        slot: usize,
    ) -> AttemptMetrics {
        let victim = pid == FairnessReport::VICTIM;
        if victim {
            scratch.probe = Some(c.probe);
            ctx.write_rel(c.probe, PROBE_OPAQUE);
        }
        let token = holder_token(pid, slot);
        let args = [c.counter.to_word(), c.log.to_word(), c.log_cap as u64, token as u64];
        let req = TryLockRequest { locks: &[c.lock], thunk: self.touch, args: &args };
        let recording = c.log_cap > 0;
        if recording {
            ctx.invoke(HOLD_OP, c.lock.0 as u64, token as u64);
        }
        let out = algo.attempt(ctx, tags, scratch, &req);
        if recording {
            ctx.respond(out.won as u64, vec![]);
        }
        if victim {
            ctx.write_rel(c.probe, 0);
            scratch.probe = None;
        }
        if victim || self.spec.strength == AdvStrength::Calm {
            for _ in 0..self.spec.victim_period {
                ctx.local_step();
            }
        }
        out
    }

    /// The victim closes the epoch, even when its batch broke early, so
    /// the competitors drain to the barrier.
    fn end_batch(&self, ctx: &Ctx<'_>, c: &Contest, pid: usize) {
        if pid == FairnessReport::VICTIM {
            ctx.write_rel(c.epoch_done, 1);
        }
    }

    /// The contested counter must equal the book's wins exactly. Each
    /// process's telemetry is folded per epoch: a boundary ends every
    /// acquisition in flight (the arena it was attempting on is gone).
    fn check(&self, heap: &Heap, c: &Contest, rec: &Outcomes) -> (HarnessReport, bool) {
        let report = rec.aggregate(heap, |_, _| {});
        let counted = cell::value(heap.peek(c.counter)) as u64;
        if c.log_cap > 0 {
            let n = (counted as usize).min(c.log_cap);
            let tokens = (0..n).map(|k| cell::value(heap.peek(c.log.off(k as u32))) as u64).collect();
            self.holder_logs.lock().expect("holder-log lock poisoned").push((c.lock.0 as u64, tokens));
        }
        for (pid, acc) in self.per_proc.lock().expect("telemetry lock poisoned").iter_mut().enumerate() {
            let mut tel = ProcTelemetry::new();
            for a in rec.attempts(heap, pid) {
                tel.record(&a.out);
            }
            acc.merge(&tel);
        }
        let safe = counted == report.wins;
        (report, safe)
    }
}

fn run_real(spec: &AdversarySpec, algo: AlgoKind, cfg: RealConfig, mode: &ExecMode) -> FairnessReport {
    assert!(spec.nlocks >= 1);
    // The holder audit's real-time-precedence condition is only sound on
    // globally ordered timestamps; leased clocks hand out per-thread
    // blocks, which would make the audit flag correct runs.
    assert!(
        !spec.record || cfg.clock == wfl_runtime::ClockMode::Precise,
        "recorded adversary runs need RealConfig::precise (globally ordered event timestamps)"
    );
    let mut registry = Registry::new();
    let touch = registry.register(HolderTouch);
    let heap = Heap::new(spec.heap_words);
    let wl = AdversaryWl {
        spec: *spec,
        touch,
        record_epochs: if spec.record { spec.nlocks } else { 0 },
        // The victim's batch plus every competitor's whole tag space.
        log_cap: mode.epoch_len(spec.rounds) + (spec.nprocs - 1) * MIN_PROCESS_CAPACITY as usize,
        per_proc: Mutex::new(vec![ProcTelemetry::new(); spec.nprocs]),
        holder_logs: Mutex::new(Vec::new()),
    };
    let aspec = AlgoSpec::new(algo, spec.nlocks, spec.nprocs, L_MAX, T_MAX, &registry);
    let run = drive_epochs(&heap, &registry, aspec, spec.nprocs, spec.seed, spec.rounds, mode, &wl);
    FairnessReport {
        per_proc: wl.per_proc.into_inner().expect("telemetry lock poisoned"),
        holder_logs: wl.holder_logs.into_inner().expect("holder-log lock poisoned"),
        run,
    }
}

