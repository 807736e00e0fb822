//! The adaptive player adversary on **both execution backends**.
//!
//! A victim process (pid 0) attempts on a fixed cadence; every other
//! process is a competitor the adversary aims at it. The adaptive decision
//! — *flood strong contenders exactly while the victim is exposed* — is
//! [`wfl_workloads::player::flood_decision`], shared verbatim between:
//!
//! * **Sim**: the E7 construction, ported behind [`ExecMode`]: a
//!   [`TargetedStarter`] controller watches the victim's probe cell
//!   between steps and feeds competitor commands into mailboxes
//!   (deterministic, parity-testable against a hand-rolled E7 run).
//! * **Real threads**: competitor threads observe the probe cell
//!   themselves (uncounted peeks — the adversary's omniscience) and launch
//!   attempts when the decision fires. Built on the epoch lifecycle
//!   ([`wfl_runtime::epoch`]): a timed run with an epoch length keeps
//!   opening fresh heap lifetimes until the wall budget is spent, so
//!   adversarial soaks are unbounded by the tag space.
//!
//! Every attempt's critical section bumps the contested lock's acquisition
//! counter and appends its unique holder token to the lock's **holder
//! log** ([`HolderTouch`]); the per-epoch safety check (counter == recorded
//! wins) makes each adversary run a mutual-exclusion test, and recorded
//! runs feed the logs plus a [`HOLD_OP`]-bracketed history through
//! `wfl_lincheck::holders` for the holder-exclusivity audit.

use crate::telemetry::{jain_index, ProcTelemetry};
use std::sync::{Mutex, RwLock};
use std::time::Duration;
use wfl_core::{LockId, Scratch, TryLockRequest};
use wfl_idem::tag::MIN_PROCESS_CAPACITY;
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_lincheck::holders::HOLD_OP;
use wfl_runtime::epoch::{run_epoch_worker, EpochState, EpochSync};
use wfl_runtime::real::run_threads_epochs;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, CachePadded, Ctx, Heap, History};
use wfl_workloads::harness::{AlgoHandle, AlgoKind, Backend, ExecMode};
use wfl_workloads::player::{
    flood_decision, run_player_loop_stats, AdvStrength, TargetedStarter, PROBE_OPAQUE,
};

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
    /// Whether every epoch's acquisition counter matched its recorded wins
    /// exactly (the mutual-exclusion check).
    pub safety_ok: bool,
    /// Heap lifetimes the run spanned.
    pub epochs: u64,
    /// Wall-clock duration (real runs only).
    pub wall: Option<Duration>,
    /// `HOLD_OP` attempt events from the recorded epochs (empty unless
    /// `record` was set on a real run).
    pub history: History,
    /// Per-lock holder sequences from the recorded epochs: `(lock id,
    /// tokens in acquisition order)`.
    pub holder_logs: Vec<(u64, Vec<u64>)>,
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

    /// Total attempts across all processes.
    pub fn attempts(&self) -> u64 {
        self.per_proc.iter().map(|t| t.attempts).sum()
    }

    /// Total wins across all processes.
    pub fn wins(&self) -> u64 {
        self.per_proc.iter().map(|t| t.wins).sum()
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
/// free-running observer competitors on the epoch lifecycle.
///
/// # Panics
/// Panics on spec/mode mismatches (sim with `nlocks != 1` or epoch
/// batching), on process panics, and on a per-epoch round count above the
/// tag space.
pub fn run_adversary(spec: &AdversarySpec, algo: AlgoKind, mode: &ExecMode) -> FairnessReport {
    assert!(spec.nprocs >= 2);
    match mode.backend {
        Backend::Sim { sched, max_steps } => {
            assert!(mode.epoch_rounds.is_none(), "sim adversary runs are single-epoch");
            assert_eq!(spec.nlocks, 1, "the sim adversary contests a single lock");
            run_sim(spec, algo, sched, max_steps)
        }
        Backend::Real { run_for, cfg } => run_real(spec, algo, run_for, cfg, mode),
    }
}

// ---------------------------------------------------------------------------
// Sim arm (the E7 port)
// ---------------------------------------------------------------------------

fn run_sim(
    spec: &AdversarySpec,
    algo: AlgoKind,
    sched: wfl_workloads::harness::SchedKind,
    max_steps: u64,
) -> FairnessReport {
    let rounds = spec.rounds;
    assert!(rounds <= MIN_PROCESS_CAPACITY as usize, "rounds exceed the tag space");
    let mut registry = Registry::new();
    let touch = registry.register(HolderTouch);
    let heap = Heap::new(spec.heap_words);
    // Allocation order is part of the sim arm's contract (the parity test
    // reconstructs it): lock records, counter, results, step log, probe.
    let handle = AlgoHandle::create(&heap, &registry, algo, 1, spec.nprocs, L_MAX, T_MAX);
    let counter = heap.alloc_root(1);
    let results = heap.alloc_root(spec.nprocs * rounds);
    let steps_log = heap.alloc_root(spec.nprocs * rounds);
    let probe = heap.alloc_root(1);

    let adversary = TargetedStarter {
        victim: 0,
        competitors: (1..spec.nprocs).collect(),
        locks: vec![LockId(0)],
        // No holder log in sim: commands carry one fixed arg set, and the
        // log needs a distinct token per attempt.
        args: vec![counter.to_word(), 0, 0, 0],
        victim_period: spec.victim_period,
        victim_desc_cell: probe,
        strength: spec.strength,
        issued: 0,
    };
    let handle_ref = &handle;
    let report = SimBuilder::new(&heap, spec.nprocs)
        .seed(spec.seed)
        .schedule_box(sched.build(spec.nprocs, spec.seed))
        .controller(adversary)
        .max_steps(max_steps)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                if pid == 0 {
                    scratch.probe = Some(probe);
                }
                let base = (pid * rounds) as u32;
                handle_ref.with(|a| {
                    run_player_loop_stats(
                        ctx,
                        a,
                        &mut tags,
                        &mut scratch,
                        touch,
                        results.off(base),
                        steps_log.off(base),
                        rounds as u64,
                    )
                });
            }
        })
        .run();
    report.assert_clean();

    let mut per_proc = vec![ProcTelemetry::new(); spec.nprocs];
    let mut total_wins = 0u64;
    for (pid, tel) in per_proc.iter_mut().enumerate() {
        for slot in 0..rounds {
            let idx = (pid * rounds + slot) as u32;
            match heap.peek(results.off(idx)) {
                0 => break,
                o => {
                    tel.record_attempt(o == 2, heap.peek(steps_log.off(idx)));
                    total_wins += (o == 2) as u64;
                }
            }
        }
    }
    let safety_ok = cell::value(heap.peek(counter)) as u64 == total_wins;
    FairnessReport {
        per_proc,
        safety_ok,
        epochs: 1,
        wall: None,
        history: report.history,
        holder_logs: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Real arm (free-running observer competitors on the epoch lifecycle)
// ---------------------------------------------------------------------------

/// Everything re-created at each epoch boundary.
struct World<'reg> {
    algo: AlgoHandle<'reg>,
    /// The lock contested this epoch (`epoch % nlocks`).
    lock: LockId,
    /// The lock's acquisition counter (a tagged cell).
    counter: Addr,
    /// The lock's holder log (`log_cap` tagged cells).
    log: Addr,
    /// The victim's probe cell.
    probe: Addr,
    /// Raised by the victim when its batch is over; competitors drain.
    epoch_done: Addr,
}

/// Boundary-folded run state.
struct Acc {
    safety_ok: bool,
    epochs: u64,
    holder_logs: Vec<(u64, Vec<u64>)>,
}

fn run_real(
    spec: &AdversarySpec,
    algo: AlgoKind,
    run_for: Option<Duration>,
    cfg: wfl_runtime::real::RealConfig,
    mode: &ExecMode,
) -> FairnessReport {
    assert!(spec.nlocks >= 1);
    let nprocs = spec.nprocs;
    let epoch_len = mode.epoch_len(spec.rounds);
    assert!(epoch_len <= MIN_PROCESS_CAPACITY as usize, "epoch length exceeds the tag space");
    // A timed run with an epoch length keeps opening epochs until the
    // deadline (the soak shape); otherwise the victim's total is `rounds`.
    let unbounded = run_for.is_some() && mode.epoch_rounds.is_some();
    // The holder audit's real-time-precedence condition is only sound on
    // globally ordered timestamps; leased clocks hand out per-thread
    // blocks, which would make the audit flag correct runs.
    assert!(
        !spec.record || cfg.clock == wfl_runtime::ClockMode::Precise,
        "recorded adversary runs need RealConfig::precise (globally ordered event timestamps)"
    );
    let record_epochs = if spec.record { spec.nlocks as u64 } else { 0 };
    let log_cap = if spec.record {
        // Upper bound on one epoch's wins: the victim's batch plus every
        // competitor's whole tag space.
        epoch_len + (nprocs - 1) * MIN_PROCESS_CAPACITY as usize
    } else {
        0
    };

    let mut registry = Registry::new();
    let touch = registry.register(HolderTouch);
    let heap = Heap::new(spec.heap_words);
    // The epoch mark precedes every root: boundaries rewind the lock
    // records, counter, log and probe wholesale.
    let state = EpochState::new(&heap);
    let registry_ref = &registry;
    let heap_ref = &heap;
    let make_world = |epoch: usize| World {
        algo: AlgoHandle::create(heap_ref, registry_ref, algo, spec.nlocks, nprocs, L_MAX, T_MAX),
        lock: LockId((epoch % spec.nlocks) as u32),
        counter: heap_ref.alloc_root(1),
        log: heap_ref.alloc_root(log_cap.max(1)),
        probe: heap_ref.alloc_root(1),
        epoch_done: heap_ref.alloc_root(1),
    };

    let sync = EpochSync::new(nprocs);
    let world = RwLock::new(make_world(0));
    // One telemetry slot per process, each padded to its own cache line:
    // every worker merges into its slot at every epoch boundary, and the
    // unpadded mutexes used to share lines (false-sharing audit,
    // DESIGN.md §1.3).
    let slots: Vec<CachePadded<Mutex<ProcTelemetry>>> =
        (0..nprocs).map(|_| CachePadded(Mutex::new(ProcTelemetry::new()))).collect();
    // Wins recorded by everyone during the current epoch (the leader takes
    // and resets it at the boundary; workers add before arriving, so the
    // barrier orders the additions before the take).
    let epoch_wins = Mutex::new(0u64);
    let acc = Mutex::new(Acc { safety_ok: true, epochs: 0, holder_logs: Vec::new() });

    let (sync_ref, state_ref, world_ref, slots_ref, wins_ref, acc_ref, make_world_ref, spec_ref) =
        (&sync, &state, &world, &slots, &epoch_wins, &acc, &make_world, spec);
    let report = run_threads_epochs(&heap, nprocs, spec.seed, run_for, cfg, &state, &sync, |pid| {
        move |ctx: &Ctx| {
            let mut tags = TagSource::new(pid);
            let mut scratch = Scratch::new();
            run_epoch_worker(
                ctx,
                sync_ref,
                |ctx, epoch| {
                    // A fresh heap lifetime: rewind the tag counters
                    // (sound at the quiescent boundary, DESIGN.md §1.1)
                    // and drop stale allocation pressure.
                    tags.reset();
                    ctx.reset_heap_low();
                    let w = world_ref.read().unwrap();
                    let recording = epoch < record_epochs;
                    let mut tel = ProcTelemetry::new();
                    let mut wins = 0u64;
                    if pid == 0 {
                        let rounds = if unbounded {
                            epoch_len
                        } else {
                            epoch_len.min(spec_ref.rounds.saturating_sub(epoch as usize * epoch_len))
                        };
                        victim_batch(
                            ctx, &w, spec_ref, touch, log_cap, rounds, recording, &mut tags,
                            &mut scratch, &mut tel, &mut wins,
                        );
                    } else {
                        competitor_batch(
                            ctx, &w, spec_ref, touch, log_cap, pid, recording, &mut tags,
                            &mut scratch, &mut tel, &mut wins,
                        );
                    }
                    slots_ref[pid].0.lock().unwrap().merge(&tel);
                    *wins_ref.lock().unwrap() += wins;
                },
                |ctx, epoch| {
                    // Leader, at quiescence: the mutual-exclusion check —
                    // the contested lock's counter must equal exactly the
                    // wins everyone recorded this epoch.
                    let heap = ctx.heap();
                    let mut w = world_ref.write().unwrap();
                    let wins = std::mem::take(&mut *wins_ref.lock().unwrap());
                    let counted = cell::value(heap.peek(w.counter)) as u64;
                    let mut a = acc_ref.lock().unwrap();
                    a.safety_ok &= counted == wins;
                    a.epochs += 1;
                    if epoch < record_epochs {
                        let n = (counted as usize).min(log_cap);
                        let tokens: Vec<u64> = (0..n)
                            .map(|k| cell::value(heap.peek(w.log.off(k as u32))) as u64)
                            .collect();
                        a.holder_logs.push((w.lock.0 as u64, tokens));
                    }
                    drop(a);
                    let next_base = (epoch as usize + 1) * epoch_len;
                    let done =
                        ctx.stop_requested() || (!unbounded && next_base >= spec_ref.rounds);
                    if done {
                        state_ref.finish(heap);
                        false
                    } else {
                        state_ref.advance(heap);
                        *w = make_world_ref(epoch as usize + 1);
                        true
                    }
                },
            );
        }
    });
    report.assert_clean();
    let acc = acc.into_inner().unwrap();
    assert_eq!(
        report.epochs, acc.epochs,
        "driver epoch count disagrees with boundary aggregation"
    );
    FairnessReport {
        per_proc: slots.into_iter().map(|m| m.0.into_inner().unwrap()).collect(),
        safety_ok: acc.safety_ok,
        epochs: acc.epochs,
        wall: Some(report.wall),
        history: report.history,
        holder_logs: acc.holder_logs,
    }
}

/// One attempt on the contested lock, bracketed for the holder audit when
/// recording: invoke **before** the attempt and respond after, so the
/// event interval covers the critical section.
#[allow(clippy::too_many_arguments)]
fn contested_attempt(
    ctx: &Ctx<'_>,
    w: &World<'_>,
    touch: ThunkId,
    log_cap: usize,
    pid: usize,
    slot: usize,
    recording: bool,
    tags: &mut TagSource,
    scratch: &mut Scratch,
) -> wfl_baselines::AttemptOutcome {
    let token = holder_token(pid, slot);
    let locks = [w.lock];
    let args =
        [w.counter.to_word(), w.log.to_word(), log_cap as u64, token as u64];
    let req = TryLockRequest { locks: &locks, thunk: touch, args: &args };
    if recording {
        ctx.invoke(HOLD_OP, w.lock.0 as u64, token as u64);
    }
    let out = w.algo.with(|a| a.attempt(ctx, tags, scratch, &req));
    if recording {
        ctx.respond(out.won as u64, vec![]);
    }
    out
}

/// The victim's epoch batch: `rounds` attempts on a fixed cadence, each
/// published through the probe cell, ending with the epoch-done signal
/// that drains the competitors to the barrier.
#[allow(clippy::too_many_arguments)]
fn victim_batch(
    ctx: &Ctx<'_>,
    w: &World<'_>,
    spec: &AdversarySpec,
    touch: ThunkId,
    log_cap: usize,
    rounds: usize,
    recording: bool,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    tel: &mut ProcTelemetry,
    wins: &mut u64,
) {
    // The paper's algorithms overwrite the sentinel with the descriptor
    // address, giving the adversary reveal-window precision; baselines
    // stay opaque.
    scratch.probe = Some(w.probe);
    for slot in 0..rounds {
        if ctx.stop_requested() || ctx.heap_low() {
            break;
        }
        ctx.write_rel(w.probe, PROBE_OPAQUE);
        let out = contested_attempt(ctx, w, touch, log_cap, 0, slot, recording, tags, scratch);
        ctx.write_rel(w.probe, 0);
        tel.record_attempt_outcome(out.won, out.steps, out.aborted, out.rescued);
        *wins += out.won as u64;
        for _ in 0..spec.victim_period {
            ctx.local_step();
        }
    }
    scratch.probe = None;
    // Unconditional: competitors must drain even if this batch broke early.
    ctx.write_rel(w.epoch_done, 1);
}

/// A competitor's epoch batch: observe the victim's probe cell (uncounted
/// peeks — adversary omniscience) and attempt whenever the shared flood
/// decision fires, until the victim closes the epoch or the tag space
/// runs out.
#[allow(clippy::too_many_arguments)]
fn competitor_batch(
    ctx: &Ctx<'_>,
    w: &World<'_>,
    spec: &AdversarySpec,
    touch: ThunkId,
    log_cap: usize,
    pid: usize,
    recording: bool,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    tel: &mut ProcTelemetry,
    wins: &mut u64,
) {
    let heap = ctx.heap();
    let mut slot = 0usize;
    loop {
        if ctx.stop_requested() || ctx.heap_low() || heap.peek(w.epoch_done) != 0 {
            break;
        }
        // Per-epoch attempt budget: the *guaranteed* capacity, not this
        // pid's actual serial count (pids >= 1 own one extra serial; the
        // holder log is sized `MIN_PROCESS_CAPACITY` per competitor, so
        // spending that extra serial could overflow a recorded log and
        // trip the audit on a correct run).
        if tags.remaining() == 0 || slot >= MIN_PROCESS_CAPACITY as usize {
            break; // budget spent; wait out the epoch at the barrier
        }
        let go = match spec.strength {
            AdvStrength::Calm => true, // cadence-based: think below
            s => flood_decision(heap, w.probe, s),
        };
        if !go {
            std::hint::spin_loop();
            continue;
        }
        let out = contested_attempt(ctx, w, touch, log_cap, pid, slot, recording, tags, scratch);
        tel.record_attempt_outcome(out.won, out.steps, out.aborted, out.rescued);
        *wins += out.won as u64;
        slot += 1;
        if spec.strength == AdvStrength::Calm {
            for _ in 0..spec.victim_period {
                ctx.local_step();
            }
        }
    }
}
