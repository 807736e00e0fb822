//! The closed loop: two workers send requests back to back, each
//! request one `lock_and_run_until` call (called again if it gives up), in
//! epochs of one tag budget separated by quiescent boundaries at which the
//! leader checks the oracles, rewinds the arena and re-roots the lock space.
//!
//! It reuses the runtime's epoch primitives (`run_threads_epochs`,
//! `run_epoch_worker`, `EpochState`, `EpochSync`) directly rather than the
//! workload harness: the harness reports no per-request latency.

use crate::trace::Phases;
use crate::workload::{Picker, Roots, Section, ThunkSpans, Workload, KAPPA, WORKERS};
use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};
use wfl_core::{lock_and_run_until, GiveUp, LockId, Scratch, TryLockRequest};
use wfl_idem::{cell, Registry, TagSource, ThunkId};
use wfl_runtime::{
    run_epoch_worker, run_threads_epochs, Ctx, EpochState, EpochSync, Heap, RealConfig,
};

/// Tags kept in hand when a batch stops opening requests: one request
/// never needs more attempts than this in practice (its attempts are
/// independent, each winning with probability ≥ 1/(κL)).
const TAG_RESERVE: u32 = 64;

/// Attempts per batch in a traced run. A batch is drained from the
/// recorder at the next boundary; at most ~8 events per attempt keeps the
/// 2,048-event rings from wrapping (a wrap is reported as a failure).
const TRACED_BATCH: u64 = 192;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time: from the first request to the boundary that stops.
    pub secs: f64,
    /// Record the flight recorder and the thunk spans.
    pub traced: bool,
    /// Attempts per worker per epoch (`u64::MAX` = the whole tag budget).
    pub batch_attempts: u64,
}

impl RunOpts {
    pub fn new(workload: Workload, seed: u64, secs: f64, traced: bool) -> RunOpts {
        let batch_attempts = if traced { TRACED_BATCH } else { u64::MAX };
        RunOpts {
            workload,
            seed,
            secs,
            traced,
            batch_attempts,
        }
    }
}

/// One worker's totals for a run.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Per-request latency in ns (`u32::MAX` for a request that failed).
    pub samples: Vec<u32>,
    pub requests: u64,
    /// `lock_and_run_until` calls (a request calls again after a give-up).
    pub calls: u64,
    /// Calls that gave up on their deadline or attempt budget.
    pub gave_up: u64,
    /// Requests whose critical section never ran.
    pub failed: u64,
    pub wins: u64,
    pub attempts: u64,
    pub steps: u64,
    /// Time parked between the end of a batch and the barrier's release,
    /// excluding the boundary work this worker did as leader.
    pub parked: Duration,
    pub wall: Duration,
    /// Traced runs: Σ per request of its span minus the thunk spans this
    /// worker ran inside it.
    pub self_ns: u64,
}

/// What the boundary leader accumulates.
#[derive(Debug, Default)]
struct Boundaries {
    reset: Vec<Duration>,
    reroot: Vec<Duration>,
    end: Option<Instant>,
    phases: Phases,
}

/// The result of one run (one set-up, one measured window).
#[derive(Debug)]
pub struct RunResult {
    /// Workload start to the first request.
    pub setup: Duration,
    /// First request to the final boundary.
    pub wall: Duration,
    pub workers: Vec<WorkerStats>,
    pub epochs: u64,
    pub high_water: usize,
    pub reset: Vec<Duration>,
    pub reroot: Vec<Duration>,
    /// Traced runs: the recorder's phase split.
    pub phases: Phases,
    /// Traced runs: thunk-body runs and nanoseconds, all workers.
    pub thunk_runs: u64,
    pub thunk_ns: u64,
    /// Oracle failures, each naming the workload and epoch.
    pub failures: Vec<String>,
    /// The run's arena, held as long as the result so that a later run's
    /// set-up cannot reuse its pages: every set-up then pays for fresh
    /// memory, as a process creating its heap does, instead of whatever
    /// the allocator happened to keep.
    pub _arena: Heap,
}

impl RunResult {
    pub fn wins(&self) -> u64 {
        self.workers.iter().map(|w| w.wins).sum()
    }
}

/// What the workers and the boundary leader of one run share.
struct Shared {
    opts: RunOpts,
    state: EpochState,
    roots: RwLock<Roots>,
    /// Wins per written lock this epoch, added by each worker at batch end.
    tallies: Mutex<Vec<u64>>,
    boundaries: Mutex<Boundaries>,
    failures: Mutex<Vec<String>>,
    first_request: OnceLock<Instant>,
}

impl Shared {
    fn fail(&self, msg: String) {
        self.failures.lock().expect("failure list").push(msg);
    }

    /// The leader's boundary work, at quiescence: check the cells against
    /// the tallies, drain the recorder, then either close the run or rewind
    /// the arena and re-root. Returns whether to open another epoch.
    fn boundary(&self, ctx: &Ctx<'_>, epoch: u64) -> bool {
        let w = self.opts.workload;
        let heap = ctx.heap();
        let mut roots = self
            .roots
            .write()
            .expect("no worker panics holding the roots");
        let mut b = self.boundaries.lock().expect("boundary stats");
        let mut failures = self.failures.lock().expect("failure list");
        // Mutual exclusion and exactly-once: every protected cell counts
        // exactly the wins tallied for its lock this epoch.
        for (lock, tally) in self
            .tallies
            .lock()
            .expect("tally lock")
            .iter_mut()
            .enumerate()
        {
            let got = cell::value(heap.peek(roots.cell(LockId(lock as u32)))) as u64;
            if got != *tally {
                failures.push(format!(
                    "{}: epoch {epoch}: lock {lock}'s cell holds {got} but {} wins were tallied for it",
                    w.name(),
                    *tally
                ));
            }
            *tally = 0;
        }
        if self.opts.traced {
            let snap = wfl_obs::rec::snapshot();
            b.phases
                .fold(&snap, w.cfg().t0(), epoch, w.name(), &mut failures);
            // Clears every ring for the next batch (quiescent: all parked).
            wfl_obs::rec::enable();
        }
        let measure = Duration::from_secs_f64(self.opts.secs);
        let done = self
            .first_request
            .get()
            .is_some_and(|t| t.elapsed() >= measure);
        if done || !failures.is_empty() {
            self.state.finish(heap);
            b.end = Some(Instant::now());
            return false;
        }
        let t = Instant::now();
        self.state.advance(heap);
        b.reset.push(t.elapsed());
        let t = Instant::now();
        *roots = Roots::create(heap, w);
        b.reroot.push(t.elapsed());
        true
    }
}

/// Sets up the workload, runs it for `opts.secs` and tears it down.
pub fn run(opts: RunOpts) -> RunResult {
    let w = opts.workload;
    let setup_start = Instant::now();
    let spans = opts.traced.then(|| Arc::new(ThunkSpans::default()));
    let mut registry = Registry::new();
    let section = registry.register(Section::new(w, spans.clone()));
    let heap = Heap::new(w.heap_words());
    // The epoch mark precedes every root, so each boundary rewinds the
    // lock space and cells with everything else and re-creates them: a
    // lock space below the mark would keep snapshot pointers into the
    // rewound region.
    let state = EpochState::new(&heap);
    let shared = Shared {
        opts,
        roots: RwLock::new(Roots::create(&heap, w)),
        state,
        tallies: Mutex::new(vec![0; w.nlocks()]),
        boundaries: Mutex::default(),
        failures: Mutex::default(),
        first_request: OnceLock::new(),
    };
    let sync = EpochSync::new(WORKERS);
    let results: Vec<Mutex<WorkerStats>> = (0..WORKERS).map(|_| Mutex::default()).collect();

    if opts.traced {
        wfl_obs::rec::enable();
    }
    let report = run_threads_epochs(
        &heap,
        WORKERS,
        opts.seed,
        None,
        RealConfig::fast(),
        &shared.state,
        &sync,
        |pid| {
            let (shared, sync, registry, spans, results) =
                (&shared, &sync, &registry, spans.as_deref(), &results);
            move |ctx: &Ctx| {
                let st = worker(ctx, pid, shared, sync, registry, section, spans);
                *results[pid].lock().expect("result slot") = st;
            }
        },
    );
    if opts.traced {
        wfl_obs::rec::disable();
    }

    let mut failures = shared.failures.into_inner().expect("failure list");
    failures.extend(
        report
            .panics
            .iter()
            .map(|(pid, msg)| format!("{}: worker {pid} panicked: {msg}", w.name())),
    );
    let b = shared.boundaries.into_inner().expect("boundary stats");
    let first = shared.first_request.get().copied().unwrap_or(setup_start);
    let (thunk_runs, thunk_ns) = spans.map_or((0, 0), |s| {
        (
            (0..WORKERS).map(|p| s.runs(p)).sum(),
            (0..WORKERS).map(|p| s.ns(p)).sum(),
        )
    });
    RunResult {
        setup: first - setup_start,
        wall: b.end.unwrap_or_else(Instant::now) - first,
        workers: results
            .into_iter()
            .map(|r| r.into_inner().expect("result slot"))
            .collect(),
        epochs: shared.state.epochs(),
        high_water: shared.state.high_water(),
        reset: b.reset,
        reroot: b.reroot,
        phases: b.phases,
        thunk_runs,
        thunk_ns,
        failures,
        _arena: heap,
    }
}

/// One closed-loop client: batches of requests until the leader stops the
/// run at a boundary.
fn worker(
    ctx: &Ctx<'_>,
    pid: usize,
    shared: &Shared,
    sync: &EpochSync,
    registry: &Registry,
    section: ThunkId,
    spans: Option<&ThunkSpans>,
) -> WorkerStats {
    let body_start = Instant::now();
    let w = shared.opts.workload;
    let (cfg, policy) = (w.cfg(), w.policy());
    let mut tags = TagSource::new(pid);
    let mut scratch = Scratch::with_bounds(KAPPA, w.l());
    let mut picker = Picker::new(w, shared.opts.seed, pid);
    let mut locks: Vec<LockId> = Vec::with_capacity(w.l());
    let mut args: Vec<u64> = Vec::with_capacity(w.l());
    let mut tally = vec![0u64; w.nlocks()];
    // Room for the run's samples up front keeps reallocation out of the
    // measured loop.
    let hint = (shared.opts.secs * 400_000.0).min(16_000_000.0) as usize;
    let mut st = WorkerStats {
        samples: Vec::with_capacity(hint),
        ..Default::default()
    };
    // Boundary time this worker spent as leader, and its value when the
    // worker's last batch ended.
    let led = Cell::new(Duration::ZERO);
    let mut batch_end: Option<(Instant, Duration)> = None;
    let park = |st: &mut WorkerStats, batch_end: Option<(Instant, Duration)>| {
        if let Some((end, led_then)) = batch_end {
            st.parked += end.elapsed().saturating_sub(led.get() - led_then);
        }
    };

    run_epoch_worker(
        ctx,
        sync,
        |ctx, _epoch| {
            park(&mut st, batch_end);
            // A fresh heap lifetime: the boundary rewound the arena, so
            // tags rewind and stale pressure clears.
            tags.reset();
            ctx.reset_heap_low();
            let roots = shared
                .roots
                .read()
                .expect("the leader never panics holding the roots");
            let mut batch = 0u64;
            while batch < shared.opts.batch_attempts
                && tags.remaining() > TAG_RESERVE
                && !ctx.heap_low()
            {
                picker.draw(w.l(), &mut locks);
                args.clear();
                args.extend(locks.iter().map(|&l| roots.cell(l).to_word()));
                let req = TryLockRequest {
                    locks: &locks,
                    thunk: section,
                    args: &args,
                };
                let thunk_before = spans.map_or(0, |s| s.ns(pid));
                let start = Instant::now();
                shared.first_request.get_or_init(|| start);
                let won = loop {
                    let m = lock_and_run_until(
                        ctx,
                        &roots.space,
                        registry,
                        &cfg,
                        &mut tags,
                        &mut scratch,
                        req,
                        policy.max_attempts,
                        policy.deadline(ctx),
                        policy.backoff,
                    );
                    st.calls += 1;
                    st.attempts += m.attempts;
                    st.steps += m.steps;
                    batch += m.attempts;
                    let ceiling = policy.step_ceiling(&cfg, m.attempts);
                    if m.steps > ceiling {
                        shared.fail(format!(
                            "{}: Thm 6.1: a call took {} steps over {} attempts, above {ceiling}",
                            w.name(),
                            m.steps,
                            m.attempts
                        ));
                    }
                    match m.gave_up {
                        None => break true,
                        // The client calls again when a call ran out of
                        // deadline or attempts.
                        Some(GiveUp::Deadline | GiveUp::Attempts) => st.gave_up += 1,
                        // Tags or arena ran out mid-request: the batch
                        // sizing failed.
                        Some(_) => break false,
                    }
                };
                let ns = start.elapsed().as_nanos();
                st.requests += 1;
                if won {
                    st.samples.push(ns.min(u32::MAX as u128 - 1) as u32);
                    st.wins += 1;
                    for l in &locks[..w.writes()] {
                        tally[l.0 as usize] += 1;
                    }
                } else {
                    st.samples.push(u32::MAX);
                    st.failed += 1;
                }
                if let Some(s) = spans {
                    st.self_ns += (ns as u64).saturating_sub(s.ns(pid) - thunk_before);
                }
            }
            drop(roots);
            let mut tallies = shared.tallies.lock().expect("tally lock");
            for (sum, mine) in tallies.iter_mut().zip(tally.iter_mut()) {
                *sum += std::mem::take(mine);
            }
            batch_end = Some((Instant::now(), led.get()));
        },
        |ctx, epoch| {
            let start = Instant::now();
            let cont = shared.boundary(ctx, epoch);
            led.set(led.get() + start.elapsed());
            cont
        },
    );
    park(&mut st, batch_end);
    st.wall = body_start.elapsed();
    st
}
