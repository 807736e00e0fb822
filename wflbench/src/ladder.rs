//! The isolation ladder: single-thread timings of each layer's public
//! operations, one rung per layer, so the traced run's per-layer numbers
//! can be reconciled against the end-to-end ones.
//!
//! Every rung times chunks of operations and reports the median chunk's
//! nanoseconds per operation. Rungs that allocate rewind the arena between
//! chunks, outside the timed region, and create their roots above the
//! rewind mark.

use crate::workload::{Picker, Roots, Section, Workload, KAPPA};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wfl_activeset::ActiveSet;
use wfl_core::{try_locks, LockConfig, LockId, Scratch, TryLockRequest};
use wfl_idem::{Frame, IdemRun, Registry, TagSource, Thunk};
use wfl_runtime::{run_threads_with, Addr, Ctx, Heap, Placement, RealConfig};

const LADDER_HEAP_WORDS: usize = 1 << 20;
/// Rungs in one ladder; each gets an equal share of the time budget.
const RUNGS: u32 = 12;
const MIN_CHUNKS: usize = 3;
/// Operations per thunk of the idempotent-op rungs.
const IDEM_OPS: usize = 64;
/// Active-set capacities the set rungs sweep (`κ`).
const SET_KAPPAS: [usize; 2] = [2, 8];

#[derive(Debug, Default, Clone)]
pub struct Ladder {
    pub local_step_ns: f64,
    pub alloc_ns: f64,
    pub read_acq_ns: f64,
    pub cas_sync_ns: f64,
    /// One insert plus one remove landing in the top slot of a set whose
    /// other `κ − 1` slots are taken, per [`SET_KAPPAS`] entry.
    pub insert_remove_ns: [f64; 2],
    /// One getSet of a full set, per [`SET_KAPPAS`] entry.
    pub get_set_ns: [f64; 2],
    pub idem_read_ns: f64,
    pub idem_write_ns: f64,
    /// One uncontended attempt of the workload's lock shape.
    pub attempt_ns: f64,
    pub attempt_nodelay_ns: f64,
    pub attempt_steps: u64,
    pub attempt_nodelay_steps: u64,
}

impl Ladder {
    /// Own steps of the fixed `T0 + T1` padding in one attempt.
    pub fn pad_steps(&self) -> u64 {
        self.attempt_steps - self.attempt_nodelay_steps
    }

    /// Share of the attempt's time spent in the padding.
    pub fn pad_share(&self) -> f64 {
        (self.attempt_ns - self.attempt_nodelay_ns) / self.attempt_ns
    }

    /// How far the padding's time misses `pad_steps × local_step_ns`, as a
    /// share of the attempt: what the per-step rung leaves unexplained.
    pub fn residual_share(&self) -> f64 {
        let predicted = self.pad_steps() as f64 * self.local_step_ns;
        (self.attempt_ns - self.attempt_nodelay_ns - predicted).abs() / self.attempt_ns
    }
}

/// Times `chunk` (which returns its own timed duration) until `budget` is
/// spent, at least [`MIN_CHUNKS`] times; the median chunk's ns per op.
fn rung(budget: Duration, ops: u64, mut chunk: impl FnMut() -> Duration) -> f64 {
    let end = Instant::now() + budget;
    let mut per_op = Vec::new();
    while per_op.len() < MIN_CHUNKS || Instant::now() < end {
        per_op.push(chunk().as_nanos() as f64 / ops as f64);
    }
    crate::stats::median(&mut per_op)
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// `IDEM_OPS` idempotent reads, or writes, of the cell in argument 0.
struct Repeat {
    write: bool,
}

impl Thunk for Repeat {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = Addr::from_word(run.arg(0));
        for i in 0..IDEM_OPS {
            if self.write {
                run.write(c, i as u32);
            } else {
                black_box(run.read(c));
            }
        }
    }

    fn max_ops(&self) -> usize {
        IDEM_OPS
    }
}

/// Runs every rung on one worker thread (`RealConfig::fast()`, as the
/// workers), within about `budget` in total.
pub fn run(w: Workload, seed: u64, budget: Duration) -> Ladder {
    let heap = Heap::new(LADDER_HEAP_WORDS);
    let out = Mutex::new(None);
    let report = run_threads_with(&heap, 1, seed, None, RealConfig::fast(), |_pid| {
        let out = &out;
        move |ctx: &Ctx| {
            *out.lock().expect("ladder slot") = Some(rungs(ctx, w, seed, budget / RUNGS));
        }
    });
    report.assert_clean();
    out.into_inner()
        .expect("ladder slot")
        .expect("the ladder thread finished")
}

fn rungs(ctx: &Ctx<'_>, w: Workload, seed: u64, each: Duration) -> Ladder {
    let heap = ctx.heap();
    let mark = heap.mark();
    // Single thread: every rewind below is quiescent.
    let rewind = || {
        heap.reset_to_quiescent(&mark);
        ctx.reset_heap_low();
    };
    let mut l = Ladder::default();

    const STEPS: u64 = 100_000;
    l.local_step_ns = rung(each, STEPS, || {
        timed(|| ctx.stall_until_steps(ctx.steps() + STEPS))
    });

    const ALLOCS: u64 = 4096;
    l.alloc_ns = rung(each, ALLOCS, || {
        let t = timed(|| {
            for _ in 0..ALLOCS {
                black_box(ctx.alloc(8));
            }
        });
        rewind();
        t
    });

    const WORD_OPS: u64 = 100_000;
    let word = heap.alloc_root(1);
    l.read_acq_ns = rung(each, WORD_OPS, || {
        timed(|| {
            for _ in 0..WORD_OPS {
                black_box(ctx.read_acq(word));
            }
        })
    });
    rewind();
    let word = heap.alloc_root(1);
    let mut v = 0;
    l.cas_sync_ns = rung(each, WORD_OPS, || {
        timed(|| {
            for _ in 0..WORD_OPS {
                black_box(ctx.cas_bool_sync(word, v, v + 1));
                v += 1;
            }
        })
    });
    rewind();

    const PAIRS: u64 = 256;
    const GETS: u64 = 10_000;
    for (i, &k) in SET_KAPPAS.iter().enumerate() {
        // Items are arbitrary nonzero words; the set never dereferences them.
        let filled = |n: usize| {
            let set = ActiveSet::create_root_placed(heap, k, Placement::Padded);
            for item in 1..=n as u64 {
                set.insert(ctx, item);
            }
            set
        };
        l.insert_remove_ns[i] = rung(each, PAIRS, || {
            let set = filled(k - 1);
            let t = timed(|| {
                for _ in 0..PAIRS {
                    let slot = set.insert(ctx, u64::MAX);
                    set.remove(ctx, slot);
                }
            });
            rewind();
            t
        });
        let set = filled(k);
        let mut members = Vec::with_capacity(k);
        l.get_set_ns[i] = rung(each, GETS, || {
            timed(|| {
                for _ in 0..GETS {
                    set.get_set(ctx, &mut members);
                }
            })
        });
        rewind();
    }

    const FRAMES: u64 = 64;
    let mut registry = Registry::new();
    let ids = [
        registry.register(Repeat { write: false }),
        registry.register(Repeat { write: true }),
    ];
    let mut tags = TagSource::new(ctx.pid());
    let mut frames = Vec::with_capacity(FRAMES as usize);
    let mut idem = [0.0; 2];
    for (ns, &id) in idem.iter_mut().zip(&ids) {
        *ns = rung(each, FRAMES * IDEM_OPS as u64, || {
            let cell = heap.alloc_root(1);
            frames.clear();
            frames.extend((0..FRAMES).map(|_| {
                Frame::create_root(heap, &registry, id, tags.next_base(), &[cell.to_word()])
            }));
            let t = timed(|| {
                for f in &frames {
                    f.help(ctx, &registry);
                }
            });
            rewind();
            tags.reset();
            t
        });
    }
    [l.idem_read_ns, l.idem_write_ns] = idem;

    let cfg = w.cfg();
    (l.attempt_ns, l.attempt_steps) = attempts(ctx, w, seed, &cfg, each, &rewind);
    (l.attempt_nodelay_ns, l.attempt_nodelay_steps) =
        attempts(ctx, w, seed, &cfg.without_delays(), each, &rewind);
    l
}

/// Solo attempts of `w`'s lock shape under `cfg`: ns per attempt and the
/// (deterministic) own steps of one attempt.
fn attempts(
    ctx: &Ctx<'_>,
    w: Workload,
    seed: u64,
    cfg: &LockConfig,
    each: Duration,
    rewind: &dyn Fn(),
) -> (f64, u64) {
    const ATTEMPTS: u64 = 256;
    let heap = ctx.heap();
    let mut registry = Registry::new();
    let section = registry.register(Section::new(w, None));
    let mut tags = TagSource::new(ctx.pid());
    let mut scratch = Scratch::with_bounds(KAPPA, w.l());
    let mut picker = Picker::new(w, seed, 0);
    let mut locks: Vec<LockId> = Vec::with_capacity(w.l());
    let mut args = Vec::with_capacity(w.l());
    let mut steps = Vec::new();
    let ns = rung(each, ATTEMPTS, || {
        let roots = Roots::create(heap, w);
        let t = timed(|| {
            for _ in 0..ATTEMPTS {
                picker.draw(w.l(), &mut locks);
                args.clear();
                args.extend(locks.iter().map(|&l| roots.cell(l).to_word()));
                let req = TryLockRequest {
                    locks: &locks,
                    thunk: section,
                    args: &args,
                };
                let m = try_locks(
                    ctx,
                    &roots.space,
                    &registry,
                    cfg,
                    &mut tags,
                    &mut scratch,
                    req,
                );
                assert!(m.won, "a solo attempt always wins");
                steps.push(m.steps);
            }
        });
        rewind();
        tags.reset();
        t
    });
    let mid = steps.len() / 2;
    (ns, *steps.select_nth_unstable(mid).1)
}
