//! Retry-until-success: the wait-free lock built from independent tryLock
//! attempts.
//!
//! Theorem 6.9 gives each attempt success probability ≥ `1/C_p ≥ 1/(κL)`,
//! independent across attempts; Theorem 6.1 bounds each attempt at
//! `O(κ²L²T)` steps. Retrying until success therefore succeeds within
//! `O(κ³L³T)` expected steps — the paper's headline corollary — and the
//! attempt count is stochastically dominated by a geometric distribution
//! with mean ≤ `κL` (validated in experiment E5).

use crate::abort::{Backoff, Deadline, GiveUp};
use crate::config::LockConfig;
use crate::metrics::RetryMetrics;
use crate::scratch::Scratch;
use crate::space::LockSpace;
use crate::trylock::{try_locks, TryLockRequest};
use wfl_idem::{Registry, TagSource};
use wfl_runtime::Ctx;

/// Acquires the locks and runs the thunk, retrying failed attempts until
/// one succeeds. Wait-free with expected `O(κ³L³T)` steps.
///
/// Note: each retry is a fresh attempt with a fresh descriptor and a fresh
/// random priority (attempts are independent by Theorem 6.9).
///
/// Under [`LockConfig::combine`] ([`LockConfig::with_combining`]) an
/// attempt may be claimed and executed by a combining lock holder; the
/// attempt then reports a settled win (`AttemptMetrics::combined`) and the
/// loop exits exactly as for an ordinary win — the retry layer never
/// re-runs the acquisition protocol for a thunk that already executed in a
/// batch.
///
/// `lock_and_run` is unconditional by contract — it disarms any deadline
/// left in the scratch for the duration of the loop (retry-until-success
/// and a per-attempt abort are contradictory; use
/// [`lock_and_run_until`] for abortable acquisition).
#[allow(clippy::too_many_arguments)]
pub fn lock_and_run(
    ctx: &Ctx<'_>,
    space: &LockSpace,
    registry: &Registry,
    cfg: &LockConfig,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    req: TryLockRequest<'_>,
) -> RetryMetrics {
    let armed = std::mem::replace(&mut scratch.deadline, Deadline::NEVER);
    let m = lock_and_run_inner(ctx, space, registry, cfg, tags, scratch, req);
    scratch.deadline = armed;
    m
}

#[allow(clippy::too_many_arguments)]
fn lock_and_run_inner(
    ctx: &Ctx<'_>,
    space: &LockSpace,
    registry: &Registry,
    cfg: &LockConfig,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    req: TryLockRequest<'_>,
) -> RetryMetrics {
    let mut attempts = 0;
    let mut steps = 0;
    loop {
        let m = try_locks(ctx, space, registry, cfg, tags, scratch, req);
        attempts += 1;
        steps += m.steps;
        if m.won {
            return RetryMetrics { attempts, steps, gave_up: None };
        }
    }
}

/// Abortable acquisition with a hard exit: retries tryLock attempts until
/// one succeeds, the `deadline` (in the caller's own steps) expires — also
/// *mid-attempt*, at the helping-safe poll points of
/// [`try_locks`] — or `max_attempts` runs out. It also gives up as soon as
/// the driver's cooperative stop flag is raised between attempts (so a
/// timed real-threads run, or the simulator's drain phase, is never
/// wedged behind a long retry loop), when the caller's tag source is
/// exhausted (each retry draws one attempt tag; giving up cleanly lets a
/// multi-epoch driver close the batch and rewind tags at the next
/// quiescent reset instead of panicking mid-retry), or when the heap
/// signals allocation pressure ([`Ctx::heap_low`]: an earlier allocation
/// had to dip into the emergency reserve — like tag exhaustion, the epoch
/// boundary rewinds the lanes and clears the condition). Between failed
/// attempts the loop pauses for `backoff` local steps (bounded
/// exponential). It checks every give-up condition before a pause and
/// pauses only when another attempt follows: a pause that would reach the
/// deadline is not taken, and the loop gives up on
/// [`GiveUp::Deadline`] at once. So a call's steps are its attempts' plus
/// the pauses between them.
///
/// The returned metrics carry the give-up reason: `gave_up` is `None` iff
/// the locks were acquired and the thunk ran; otherwise it says *why* the
/// loop stopped and the thunk has never run.
///
/// An abandoned attempt leaves its descriptor fully helpable: if a
/// competitor completes it first, the acquisition **succeeded** (the thunk
/// ran; `gave_up` is `None`) — abort never blocks others, and never
/// forfeits a critical section that was already granted.
#[allow(clippy::too_many_arguments)]
pub fn lock_and_run_until(
    ctx: &Ctx<'_>,
    space: &LockSpace,
    registry: &Registry,
    cfg: &LockConfig,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    req: TryLockRequest<'_>,
    max_attempts: u64,
    deadline: Deadline,
    backoff: Backoff,
) -> RetryMetrics {
    let t_start = ctx.steps();
    let armed = std::mem::replace(&mut scratch.deadline, deadline);
    let mut attempts = 0;
    let gave_up = loop {
        // Bounded exponential backoff before every attempt but the first,
        // in own local steps (deterministic in sim). Every give-up check
        // (all uncounted) runs before it, so the loop never pauses into a
        // give-up: a pause that would reach the deadline leaves no step for
        // an attempt after it.
        let pause = backoff.pause_after(attempts);
        if attempts >= max_attempts {
            break Some(GiveUp::Attempts);
        }
        if tags.remaining() == 0 {
            break Some(GiveUp::Tags);
        }
        if ctx.heap_low() {
            break Some(GiveUp::HeapLow);
        }
        if pause >= deadline.remaining(ctx) {
            break Some(GiveUp::Deadline);
        }
        ctx.stall_until_steps(ctx.steps() + pause);
        let m = try_locks(ctx, space, registry, cfg, tags, scratch, req);
        attempts += 1;
        if m.won {
            break None;
        }
        if let Some(r) = m.aborted {
            break Some(r.into());
        }
        if ctx.stop_requested() {
            break Some(GiveUp::Stop);
        }
    };
    scratch.deadline = armed;
    if let Some(g) = gave_up {
        crate::trylock::obs(ctx, wfl_obs::EventKind::GiveUp, g.index() as u64);
    }
    RetryMetrics { attempts, steps: ctx.steps() - t_start, gave_up }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::LockId;
    use wfl_idem::{cell, IdemRun, Registry, Thunk};
    use wfl_runtime::schedule::{RoundRobin, SeededRandom};
    use wfl_runtime::sim::SimBuilder;
    use wfl_runtime::{Addr, Heap};

    struct Incr;
    impl Thunk for Incr {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            let c = Addr::from_word(run.arg(0));
            let v = run.read(c);
            run.write(c, v + 1);
        }
        fn max_ops(&self) -> usize {
            2
        }
    }

    #[test]
    fn retry_always_succeeds_and_counts_attempts() {
        for seed in 0..6 {
            let mut registry = Registry::new();
            let incr = registry.register(Incr);
            let heap = Heap::new(1 << 22);
            let space = LockSpace::create_root(&heap, 1, 3);
            let counter = heap.alloc_root(1);
            let attempts_out = heap.alloc_root(3);
            let cfg = LockConfig::new(3, 1, 2).without_delays();
            let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
            let report = SimBuilder::new(&heap, 3)
                .schedule(SeededRandom::new(3, seed))
                .max_steps(200_000_000)
                .spawn_all(|pid| {
                    move |ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = Scratch::new();
                        let mut total = 0u64;
                        for _ in 0..4 {
                            let req = TryLockRequest {
                                locks: &[LockId(0)],
                                thunk: incr,
                                args: &[counter.to_word()],
                            };
                            let m = lock_and_run(
                                ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req,
                            );
                            assert!(m.attempts >= 1);
                            assert!(m.steps >= 1);
                            total += m.attempts;
                        }
                        ctx.write(attempts_out.off(pid as u32), total);
                    }
                })
                .run();
            report.assert_clean();
            // Wait-free retry: all 12 acquisitions happened, exactly once.
            assert_eq!(cell::value(heap.peek(counter)), 12, "seed {seed}");
            for pid in 0..3 {
                assert!(heap.peek(attempts_out.off(pid)) >= 4, "seed {seed}");
            }
        }
    }

    #[test]
    fn limited_retry_gives_up_cleanly() {
        // One process retries against a permanently-held... nothing can be
        // permanently held in a wait-free lock, so instead verify the
        // success path (limit not reached) and that `None` is only
        // possible when attempts genuinely failed.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let space = LockSpace::create_root(&heap, 1, 1);
        let counter = heap.alloc_root(1);
        let cfg = LockConfig::new(1, 1, 2).without_delays();
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &wfl_runtime::Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let req = TryLockRequest {
                    locks: &[LockId(0)],
                    thunk: incr,
                    args: &[counter.to_word()],
                };
                let m = lock_and_run_until(
                    ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req, 3,
                    Deadline::NEVER, Backoff::NONE,
                );
                assert!(m.won(), "uncontended attempt must succeed within the limit");
                assert_eq!(m.attempts, 1, "solo attempts succeed first try");
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 1);
    }

    #[test]
    fn limited_retry_gives_up_cleanly_on_tag_exhaustion() {
        // Drain the tag source to its last serial before calling: the retry
        // wrapper must return `None` (attempt never started) rather than
        // panicking inside `try_locks` — this is what lets an epoch batch
        // end at the tag boundary and rewind at the next quiescent reset.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let space = LockSpace::create_root(&heap, 1, 1);
        let counter = heap.alloc_root(1);
        let cfg = LockConfig::new(1, 1, 2).without_delays();
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &wfl_runtime::Ctx| {
                let mut tags = TagSource::new(0);
                while tags.remaining() > 0 {
                    tags.next_base();
                }
                let mut scratch = Scratch::new();
                let req = TryLockRequest {
                    locks: &[LockId(0)],
                    thunk: incr,
                    args: &[counter.to_word()],
                };
                let m = lock_and_run_until(
                    ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req, 10,
                    Deadline::NEVER, Backoff::NONE,
                );
                assert_eq!(
                    m.gave_up,
                    Some(GiveUp::Tags),
                    "exhausted tags must give up (with the reason), not panic"
                );
                assert_eq!(m.attempts, 0, "no attempt ever started");
                // After a rewind (as the epoch boundary performs) the same
                // request succeeds.
                tags.reset();
                let m = lock_and_run_until(
                    ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req, 10,
                    Deadline::NEVER, Backoff::NONE,
                );
                assert!(m.won(), "rewound tags must work again");
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 1);
    }

    #[test]
    fn deadline_in_the_past_gives_up_before_drawing_a_tag() {
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let space = LockSpace::create_root(&heap, 1, 1);
        let counter = heap.alloc_root(1);
        let cfg = LockConfig::new(1, 1, 2).without_delays();
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &wfl_runtime::Ctx| {
                let mut tags = TagSource::new(0);
                let before = tags.remaining();
                let mut scratch = Scratch::new();
                let req = TryLockRequest {
                    locks: &[LockId(0)],
                    thunk: incr,
                    args: &[counter.to_word()],
                };
                ctx.stall_until_steps(100);
                let m = lock_and_run_until(
                    ctx,
                    space_ref,
                    reg_ref,
                    cfg_ref,
                    &mut tags,
                    &mut scratch,
                    req,
                    u64::MAX,
                    Deadline::at_steps(50),
                    Backoff::NONE,
                );
                assert_eq!(m.gave_up, Some(GiveUp::Deadline));
                assert_eq!(m.attempts, 0, "expired deadline: no attempt starts");
                assert_eq!(tags.remaining(), before, "no tag was burned");
                assert!(scratch.deadline.is_never(), "deadline disarmed on exit");
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 0, "the thunk never ran");
    }

    #[test]
    fn deadline_aborts_mid_attempt_and_leaves_state_reusable() {
        // Arm a deadline that expires *inside* the attempt (the T0 reveal
        // stall alone is longer than the budget): the attempt must abort at
        // a poll point, report the reason, and leave the lock space fully
        // usable — the same process immediately acquires the same lock with
        // no deadline.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let space = LockSpace::create_root(&heap, 1, 2);
        let counter = heap.alloc_root(1);
        let cfg = LockConfig::new(2, 1, 2); // delays ON: attempts are long
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = SimBuilder::new(&heap, 1)
            .max_steps(10_000_000)
            .spawn(move |ctx: &wfl_runtime::Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let req = TryLockRequest {
                    locks: &[LockId(0)],
                    thunk: incr,
                    args: &[counter.to_word()],
                };
                let budget = cfg_ref.t0() / 2;
                let m = lock_and_run_until(
                    ctx,
                    space_ref,
                    reg_ref,
                    cfg_ref,
                    &mut tags,
                    &mut scratch,
                    req,
                    u64::MAX,
                    Deadline::after(ctx, budget),
                    Backoff::exponential(4, 64),
                );
                assert_eq!(m.gave_up, Some(GiveUp::Deadline));
                assert_eq!(m.attempts, 1, "the single attempt aborted mid-flight");
                assert!(
                    m.steps < cfg_ref.step_bound(),
                    "abort returned early, not after the full padded attempt"
                );
                // The abandoned descriptor must not wedge the lock: a
                // fresh unbounded acquisition of the same lock succeeds.
                let m2 = lock_and_run(
                    ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req,
                );
                assert!(m2.won());
            })
            .run();
        report.assert_clean();
        assert_eq!(
            cell::value(heap.peek(counter)),
            1,
            "aborted attempt's thunk never ran; the follow-up ran exactly once"
        );
    }

    #[test]
    fn a_pause_that_would_reach_the_deadline_is_not_taken() {
        // Three processes retry on one lock with delays on, so every lost
        // attempt takes exactly `step_bound() + 1` steps; round-robin keeps
        // their attempts in step, so they meet and lose. The deadline
        // falls inside the pause after a second lost attempt: the call
        // must give up there without pausing, so its steps stay within
        // its attempts and the pauses between them.
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 22);
        let space = LockSpace::create_root(&heap, 1, 3);
        let counter = heap.alloc_root(1);
        let cfg = LockConfig::new(3, 1, 2);
        let backoff = Backoff::exponential(64, 512);
        let attempt = cfg.step_bound() + 1;
        let budget = 2 * attempt + backoff.pause_after(1) + backoff.pause_after(2) / 2;
        let calls = std::sync::Mutex::new(Vec::new());
        let (space_ref, reg_ref, cfg_ref, calls_ref) = (&space, &registry, &cfg, &calls);
        let report = SimBuilder::new(&heap, 3)
            .schedule(RoundRobin::new(3))
            .max_steps(10_000_000)
            .spawn_all(|pid| {
                move |ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    for _ in 0..8 {
                        let req = TryLockRequest {
                            locks: &[LockId(0)],
                            thunk: incr,
                            args: &[counter.to_word()],
                        };
                        let m = lock_and_run_until(
                            ctx,
                            space_ref,
                            reg_ref,
                            cfg_ref,
                            &mut tags,
                            &mut scratch,
                            req,
                            u64::MAX,
                            Deadline::after(ctx, budget),
                            backoff,
                        );
                        calls_ref.lock().unwrap().push(m);
                    }
                }
            })
            .run();
        report.assert_clean();
        let calls = calls.into_inner().unwrap();
        let wins = calls.iter().filter(|m| m.won()).count();
        assert_eq!(cell::value(heap.peek(counter)) as usize, wins);
        for m in &calls {
            let pauses: u64 = (1..m.attempts).map(|k| backoff.pause_after(k)).sum();
            assert!(
                m.steps <= m.attempts * attempt + pauses,
                "a call took {} steps over {} attempts: it paused past its last attempt",
                m.steps,
                m.attempts
            );
        }
        assert!(
            calls.iter().any(|m| m.gave_up == Some(GiveUp::Deadline) && m.attempts >= 2),
            "no call lost two attempts and reached its deadline"
        );
    }

    #[test]
    fn generous_deadline_succeeds_with_backoff_armed() {
        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 20);
        let space = LockSpace::create_root(&heap, 1, 1);
        let counter = heap.alloc_root(1);
        let cfg = LockConfig::new(1, 1, 2).without_delays();
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &wfl_runtime::Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let req = TryLockRequest {
                    locks: &[LockId(0)],
                    thunk: incr,
                    args: &[counter.to_word()],
                };
                let m = lock_and_run_until(
                    ctx,
                    space_ref,
                    reg_ref,
                    cfg_ref,
                    &mut tags,
                    &mut scratch,
                    req,
                    8,
                    Deadline::after(ctx, 1_000_000),
                    Backoff::exponential(8, 128),
                );
                assert!(m.won());
                assert_eq!(m.gave_up, None);
            })
            .run();
        report.assert_clean();
        assert_eq!(cell::value(heap.peek(counter)), 1);
    }

    #[test]
    fn limited_retry_honors_the_stop_flag_in_timed_real_runs() {
        // Two "victim" threads retry with an absurd attempt budget; their
        // *only* exit is `lock_and_run_until` giving up, which can
        // only happen via the stop check (the budget is effectively
        // infinite). A "contender" thread keeps attempting until both
        // victims have exited, guaranteeing the victims keep seeing failed
        // attempts after the timer fires. Without the stop check the
        // victims never exit and attempt until they exhaust the per-process
        // tag space — a loud failure instead of a hang. Delays sized for a
        // 5,000-step critical section pace every attempt to tens of
        // microseconds, so the tag space (4096 attempts/process/heap
        // lifetime) comfortably outlasts the timer on the fixed path.
        use wfl_runtime::real::{run_threads_with, RealConfig};

        let mut registry = Registry::new();
        let incr = registry.register(Incr);
        let heap = Heap::new(1 << 23);
        let space = LockSpace::create_root(&heap, 1, 3);
        let counter = heap.alloc_root(1);
        let victims_done = heap.alloc_root(1);
        let wins_out = heap.alloc_root(3);
        let cfg = LockConfig::new(3, 1, 2).with_cs_steps(5_000);
        let (space_ref, reg_ref, cfg_ref) = (&space, &registry, &cfg);
        let report = run_threads_with(
            &heap,
            3,
            5,
            Some(std::time::Duration::from_millis(5)),
            RealConfig::fast(),
            |pid| {
                move |ctx: &wfl_runtime::Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    let mut wins = 0u64;
                    let args = [counter.to_word()];
                    if pid == 0 {
                        // Contender: sustains failure pressure until both
                        // victims have observed the stop flag and left.
                        // The poll rides the tiered Acquire read (this spin
                        // is a real-mode hot loop; see DESIGN.md §2.2's
                        // ordering audit) — the victims' AcqRel increment
                        // publishes their exit. If a loaded box stretches
                        // the window past the contender's tag space, it
                        // falls back to local spinning instead of panicking
                        // mid-draw (the victims then exit through their own
                        // tag/stop give-up paths).
                        while ctx.read_acq(victims_done) < 2 {
                            if tags.remaining() == 0 {
                                ctx.local_step();
                                continue;
                            }
                            let req =
                                TryLockRequest { locks: &[LockId(0)], thunk: incr, args: &args };
                            let m = try_locks(
                                ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req,
                            );
                            wins += m.won as u64;
                        }
                    } else {
                        loop {
                            let req =
                                TryLockRequest { locks: &[LockId(0)], thunk: incr, args: &args };
                            let m = lock_and_run_until(
                                ctx, space_ref, reg_ref, cfg_ref, &mut tags, &mut scratch, req,
                                u64::MAX, Deadline::NEVER, Backoff::NONE,
                            );
                            if m.won() {
                                wins += 1;
                            } else {
                                break; // stop flag observed mid-retry
                            }
                        }
                        loop {
                            let seen = ctx.read_acq(victims_done);
                            if ctx.cas_val_sync(victims_done, seen, seen + 1) == seen {
                                break;
                            }
                        }
                    }
                    ctx.heap().poke(wins_out.off(pid as u32), wins);
                }
            },
        );
        report.assert_clean();
        let wins: u64 = (0..3).map(|i| heap.peek(wins_out.off(i as u32))).sum();
        assert!(wins > 0);
        assert_eq!(cell::value(heap.peek(counter)) as u64, wins);
    }
}
