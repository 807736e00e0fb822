//! The three workloads: lock shape, per-request lock draw, retry policy and
//! the critical section every request runs.
//!
//! Each workload is chosen to stress a different layer (see README.md):
//! `disjoint` never meets a competitor, so it isolates the fixed per-attempt
//! cost (`T0 + T1` padding, allocation, epoch resets); `hot` puts both
//! workers on one lock, so every attempt overlaps a competitor's; `wide`
//! takes 4 of 16 locks with a deadline-armed retry policy, so `T0 ∝ L²`
//! dominates and the abort polls are live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wfl_core::{Backoff, Deadline, LockConfig, LockId, LockSpace, SpaceLayout};
use wfl_idem::{IdemRun, Thunk};
use wfl_runtime::rng::Pcg;
use wfl_runtime::{Addr, CachePadded, Ctx, Heap, LINE_WORDS};

/// Point contention bound `κ`: two workers, so no lock ever has more than
/// two concurrent attempts.
pub const KAPPA: usize = 2;
/// Closed-loop clients, one thread each.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Disjoint,
    Hot,
    Wide,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Disjoint, Workload::Hot, Workload::Wide];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Disjoint => "disjoint",
            Workload::Hot => "hot",
            Workload::Wide => "wide",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Locks in the lock space.
    pub fn nlocks(self) -> usize {
        match self {
            Workload::Disjoint => 4 * WORKERS,
            Workload::Hot => 1,
            Workload::Wide => 16,
        }
    }

    /// Locks per request (`L`).
    pub fn l(self) -> usize {
        match self {
            Workload::Disjoint => 2,
            Workload::Hot => 1,
            Workload::Wide => 4,
        }
    }

    /// How many of a request's locks have their cell written (the others
    /// are only read).
    pub fn writes(self) -> usize {
        match self {
            Workload::Disjoint => 2,
            Workload::Hot => 1,
            Workload::Wide => 1,
        }
    }

    /// Shared operations per critical section (`T`): a read and a write
    /// per written cell, a read per read-only cell.
    fn t(self) -> usize {
        self.l() + self.writes()
    }

    /// The lock configuration: the paper's delays on, `c0 = c1 = 40`.
    pub fn cfg(self) -> LockConfig {
        LockConfig::new(KAPPA, self.l(), self.t())
    }

    /// The locks worker `pid` draws from: four private locks per worker on
    /// `disjoint`, the single shared lock on `hot`, all 16 on `wide`.
    fn pool(self, pid: usize) -> Vec<u32> {
        match self {
            Workload::Disjoint => (4 * pid as u32..4 * pid as u32 + 4).collect(),
            Workload::Hot | Workload::Wide => (0..self.nlocks() as u32).collect(),
        }
    }

    /// Retry policy of one `lock_and_run_until` call.
    pub fn policy(self) -> Policy {
        match self {
            Workload::Disjoint | Workload::Hot => Policy {
                max_attempts: u64::MAX,
                budget: None,
                backoff: Backoff::NONE,
            },
            Workload::Wide => Policy {
                max_attempts: 8,
                budget: Some(8 * self.cfg().step_bound()),
                backoff: Backoff::exponential(64, 4096),
            },
        }
    }

    /// Arena words: one epoch of both workers' whole tag budget at the
    /// largest per-attempt footprint, plus a quarter for slab slack and
    /// the roots. The footprint is the descriptor (`4 + L`), the frame
    /// (`4 + L` args + `T` log words) and, per lock, the two-word snapshot
    /// nodes an insert and a remove install while climbing at most `κ`
    /// slots twice each.
    pub fn heap_words(self) -> usize {
        let per_attempt = 8 + 2 * self.l() + self.t() + self.l() * 2 * KAPPA * 2 * 2;
        let epoch = WORKERS * wfl_idem::tag::MAX_ATTEMPTS as usize * per_attempt;
        (epoch + epoch / 4 + (1 << 14)).next_power_of_two()
    }
}

/// How one request's `lock_and_run_until` call retries.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    pub max_attempts: u64,
    /// Own-step budget of one call (`None` = no deadline).
    pub budget: Option<u64>,
    pub backoff: Backoff,
}

impl Policy {
    pub fn deadline(&self, ctx: &Ctx<'_>) -> Deadline {
        self.budget
            .map_or(Deadline::NEVER, |b| Deadline::after(ctx, b))
    }

    /// Theorem 6.1 as a per-call ceiling: every attempt takes at most
    /// `step_bound() + 1` own steps (the `+ 1` is the status read after
    /// the end-of-attempt padding), plus the backoff pauses between them.
    pub fn step_ceiling(&self, cfg: &LockConfig, attempts: u64) -> u64 {
        let pauses: u64 = (1..attempts.max(1))
            .map(|k| self.backoff.pause_after(k))
            .sum();
        attempts * (cfg.step_bound() + 1) + pauses
    }
}

/// Draws each request's locks: `L` distinct locks of the worker's pool,
/// uniform without replacement, from `Pcg(seed, pid)`.
pub struct Picker {
    pool: Vec<u32>,
    rng: Pcg,
}

impl Picker {
    pub fn new(w: Workload, seed: u64, pid: usize) -> Picker {
        Picker {
            pool: w.pool(pid),
            rng: Pcg::new(seed, pid as u64),
        }
    }

    /// Partial Fisher–Yates: the first `l` pool entries after the swaps.
    pub fn draw(&mut self, l: usize, out: &mut Vec<LockId>) {
        out.clear();
        let n = self.pool.len();
        for i in 0..l {
            let j = i + self.rng.below((n - i) as u64) as usize;
            self.pool.swap(i, j);
            out.push(LockId(self.pool[i]));
        }
    }
}

/// One epoch's heap roots: the lock space and one protected cell per lock.
pub struct Roots {
    pub space: LockSpace,
    cells: Addr,
}

impl Roots {
    /// Creates the roots on a fresh (or freshly rewound) arena. Must run
    /// after the epoch mark is taken: everything above the mark is zeroed
    /// at each boundary, including the active sets' snapshot pointers.
    pub fn create(heap: &Heap, w: Workload) -> Roots {
        let space = LockSpace::create_root_with(heap, w.nlocks(), KAPPA, SpaceLayout::default());
        // A cache line per cell, so workers writing different cells never
        // share a line.
        let cells = heap.alloc_root_aligned(w.nlocks() * LINE_WORDS);
        Roots { space, cells }
    }

    pub fn cell(&self, lock: LockId) -> Addr {
        self.cells.off(lock.0 * LINE_WORDS as u32)
    }
}

/// Per-worker thunk-body spans of a traced run: runs and nanoseconds.
/// Each slot is written only by the worker whose pid it carries.
#[derive(Debug, Default)]
pub struct ThunkSpans {
    per_pid: [CachePadded<(AtomicU64, AtomicU64)>; WORKERS],
}

impl ThunkSpans {
    fn record(&self, pid: usize, d: Duration) {
        let (runs, ns) = &self.per_pid[pid].0;
        runs.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn runs(&self, pid: usize) -> u64 {
        self.per_pid[pid].0 .0.load(Ordering::Relaxed)
    }

    pub fn ns(&self, pid: usize) -> u64 {
        self.per_pid[pid].0 .1.load(Ordering::Relaxed)
    }
}

/// The critical section: `cell += 1` on the cells of the first `writes`
/// locks, a read of the others. Its arguments are the cells' addresses in
/// draw order.
pub struct Section {
    cells: usize,
    writes: usize,
    spans: Option<Arc<ThunkSpans>>,
}

impl Section {
    pub fn new(w: Workload, spans: Option<Arc<ThunkSpans>>) -> Section {
        Section {
            cells: w.l(),
            writes: w.writes(),
            spans,
        }
    }
}

impl Thunk for Section {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let start = self.spans.as_ref().map(|_| std::time::Instant::now());
        for i in 0..self.cells {
            let c = Addr::from_word(run.arg(i));
            let v = run.read(c);
            if i < self.writes {
                run.write(c, v + 1);
            }
        }
        if let (Some(spans), Some(start)) = (&self.spans, start) {
            spans.record(run.ctx().pid(), start.elapsed());
        }
    }

    fn max_ops(&self) -> usize {
        self.cells + self.writes
    }
}
