//! Algorithm 3: the fast and fair randomized wait-free tryLock.
//!
//! A tryLock attempt, in the order of the paper's pseudocode:
//!
//! 1. create a descriptor (status `active`, priority unset);
//! 2. **helping phase**: for each of its locks, read the (flag-filtered)
//!    active set and `run` every revealed competitor to completion — any
//!    attempt whose priority the player adversary could have seen before
//!    starting us is forced to finish without competing against us;
//! 3. **multiInsert** the descriptor into its locks' active sets; raising
//!    the flag is the *reveal step*: stall until exactly `T0` own steps
//!    have elapsed since the attempt started, then write a fresh uniformly
//!    random priority — so the reveal time is a fixed function of the
//!    start time, denying the adversary any priority-dependent timing;
//! 4. `run(p)`: compete — compare priorities against every active
//!    competitor on every lock, eliminating the lower side; then `decide`
//!    (CAS `active → won`) and celebrate;
//! 5. **multiRemove**, and stall until `T0 + T1` own steps so the end of
//!    the attempt is also a fixed function of its start.
//!
//! `run` is also the *helping function*: any process can run it on any
//! revealed descriptor, which is what makes the lock wait-free — a stalled
//! winner's critical section is completed by its competitors
//! (idempotently, via `wfl-idem`).

use crate::abort::{poll_abort, AbortReason};
use crate::config::LockConfig;
use crate::descriptor::{
    is_won, make_priority, Desc, LockId, PRIO_TBD, PRIO_UNSET, ST_ACTIVE, ST_COMBINED, ST_LOST,
    ST_WON,
};
use crate::metrics::AttemptMetrics;
use crate::scratch::Scratch;
use crate::space::LockSpace;
use std::cell::Cell;
use wfl_activeset::{get_members_by, multi_insert_into, multi_remove, ActiveSet, Flag};
use wfl_idem::{Frame, Registry, TagSource, ThunkId};
use wfl_obs::EventKind;
use wfl_runtime::Ctx;

/// Emits one flight-recorder event from an algorithm hook point. Every
/// argument read (`pid`, `now`, `steps`) is an uncounted `Cell` load, so
/// recording never perturbs the schedule or the step accounting; when
/// the recorder is disabled this is one relaxed load and a branch.
#[inline]
pub(crate) fn obs(ctx: &Ctx<'_>, kind: EventKind, arg: u64) {
    wfl_obs::rec::record(ctx.pid(), kind, ctx.now(), ctx.steps(), arg);
}

/// A tryLock request: the lock set and the critical section to run on
/// success.
#[derive(Debug, Clone, Copy)]
pub struct TryLockRequest<'a> {
    /// Locks to acquire (distinct, at most the configured `L`).
    pub locks: &'a [LockId],
    /// The registered critical-section thunk.
    pub thunk: ThunkId,
    /// Arguments for the thunk frame.
    pub args: &'a [u64],
}

/// The multi-active-set flag strategy of the known-bounds algorithm: the
/// priority word is the flag; raising it is the reveal step, with the
/// paper's `T0` delay folded in.
struct RevealFlag<'a> {
    /// Stall target (absolute own steps) before revealing; `None` when
    /// delays are ablated.
    reveal_at: Option<u64>,
    /// Unique serial for tie-free priorities.
    tag_base: u32,
    /// The attempt's overrun flag ([`Attempt::overrun`]).
    overrun: &'a Cell<bool>,
}

impl Flag for RevealFlag<'_> {
    fn clear(&self, ctx: &Ctx<'_>, item: u64) {
        ctx.write_rel(Desc::from_item(item).prio_addr(), PRIO_UNSET);
    }

    fn set(&self, ctx: &Ctx<'_>, item: u64) {
        if let Some(target) = self.reveal_at {
            if ctx.steps() > target {
                self.overrun.set(true);
            }
            ctx.stall_until_steps(target);
        }
        let r = ctx.rand_u64();
        // The reveal is the publication point of the attempt: Release, so
        // an Acquire reader of the priority sees the whole descriptor.
        ctx.write_rel(Desc::from_item(item).prio_addr(), make_priority(r, self.tag_base));
        // Mutual exclusion needs more than publication: of two concurrent
        // attempts, at least one must SEE the other's reveal in its
        // post-reveal scan. A Release store + Acquire load alone permits
        // the store-buffer outcome where both miss; the SC fence between
        // each attempt's reveal and its scan forbids it (DESIGN.md §2.2).
        ctx.publication_fence();
    }

    fn get(&self, ctx: &Ctx<'_>, item: u64) -> bool {
        Desc::from_item(item).priority(ctx) > PRIO_TBD
    }
}

/// Reads the flag-filtered membership of a lock's active set: the
/// descriptors whose priority is revealed.
pub(crate) fn revealed_members(ctx: &Ctx<'_>, set: &ActiveSet, out: &mut Vec<u64>) {
    get_members_by(ctx, |ctx, item| Desc::from_item(item).priority(ctx) > PRIO_TBD, set, out);
}

/// `eliminate(p)`: one-shot transition `active → lost`. Idempotent under
/// arbitrary helper races (monotonic CAS; AcqRel under the tiered
/// ordering). Returns whether this call made the transition.
#[inline]
pub(crate) fn eliminate(ctx: &Ctx<'_>, p: Desc) -> bool {
    ctx.cas_bool_sync(p.status_addr(), ST_ACTIVE, ST_LOST)
}

/// `decide(p)`: one-shot transition `active → won`; succeeds iff `p` was
/// never eliminated.
#[inline]
pub(crate) fn decide(ctx: &Ctx<'_>, p: Desc) {
    ctx.cas_bool_sync(p.status_addr(), ST_ACTIVE, ST_WON);
}

/// `celebrateIfWon(p)`: if `p` has won (by `decide` or by a combining
/// grant — [`ST_COMBINED`] is a win), run its thunk (idempotently; any
/// number of helpers may do this concurrently). Treating `COMBINED` as
/// won here is what serializes combined executions: a competitor that
/// sees a claimed member helps its thunk to completion before deciding
/// itself, exactly as for an ordinary winner.
#[inline]
pub(crate) fn celebrate_if_won(ctx: &Ctx<'_>, registry: &Registry, p: Desc) {
    if is_won(p.status(ctx)) {
        p.frame(ctx).help(ctx, registry);
    }
}

/// The `run` function of Algorithm 3 — both the competition step and the
/// helping function. Compares `p`'s priority with every active competitor
/// on every lock in `p`'s lock set, eliminating the lower side; then
/// decides `p` and celebrates.
///
/// For §6.2 descriptors (those carrying a frozen snapshot), the member
/// lists come from the snapshot instead of querying the active sets, and a
/// competitor whose priority is still TBD causes `p` to self-eliminate
/// (the conservative reconstruction documented in DESIGN.md §1.6).
pub(crate) fn run_desc(
    ctx: &Ctx<'_>,
    space: &LockSpace,
    registry: &Registry,
    p: Desc,
    members: &mut Vec<u64>,
) {
    let nlocks = p.nlocks(ctx);
    let snap = p.snapshot(ctx);
    let mut snap_off = 0u32;
    for li in 0..nlocks {
        if snap.is_null() {
            let lock = p.lock(ctx, li);
            revealed_members(ctx, space.set(lock), members);
        } else {
            // §6.2: read the frozen per-lock snapshot from the heap.
            members.clear();
            let count = ctx.read_acq(snap.off(snap_off)) as u32;
            for k in 0..count {
                members.push(ctx.read_acq(snap.off(snap_off + 1 + k)));
            }
            snap_off += 1 + count;
        }
        if p.status(ctx) == ST_ACTIVE {
            // p's own entry decides nothing (DESIGN §1.7): skip it, no step.
            for q in members.iter().map(|&m| Desc::from_item(m)).filter(|&q| q != p) {
                if q.status(ctx) == ST_ACTIVE {
                    let pq = q.priority(ctx);
                    let pp = p.priority(ctx);
                    if pq == PRIO_TBD {
                        // §6.2 conservative rule: unknown competitor
                        // priority — p loses the comparison.
                        eliminate(ctx, p);
                    } else if pp > PRIO_TBD && pq > PRIO_TBD {
                        if pp > pq {
                            eliminate(ctx, q);
                        } else {
                            eliminate(ctx, p);
                        }
                    }
                }
                celebrate_if_won(ctx, registry, q);
            }
        }
    }
    decide(ctx, p);
    celebrate_if_won(ctx, registry, p);
}

/// One attempt in flight, past its helping phase: the state both tryLock
/// variants thread through the steps they share ([`Attempt::begin`], the
/// exits, and the settle).
pub(crate) struct Attempt {
    /// The attempt's descriptor.
    pub(crate) p: Desc,
    /// Own steps at the attempt's start.
    pub(crate) start: u64,
    /// Unique serial for tie-free priorities.
    pub(crate) tag_base: u32,
    /// Descriptors helped during the helping phase.
    helped: u64,
    /// Set if real work overran a delay target (fairness void).
    overrun: Cell<bool>,
}

impl Attempt {
    /// The prelude both variants share. Creates the descriptor and its
    /// thunk frame, hands the descriptor to the fairness probe, then (with
    /// `helping`) runs every already-revealed competitor to completion.
    /// Polls for an abort between helps and once more before the insert;
    /// an abort abandons the still-private descriptor, and its metrics are
    /// the `Err`.
    pub(crate) fn begin(
        ctx: &Ctx<'_>,
        space: &LockSpace,
        registry: &Registry,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        req: &TryLockRequest<'_>,
        helping: bool,
    ) -> Result<Attempt, AttemptMetrics> {
        let start = ctx.steps();
        let tag_base = tags.next_base();
        let deadline = scratch.deadline;

        // Descriptor + thunk frame (private until inserted).
        let frame = Frame::create(ctx, registry, req.thunk, tag_base, req.args);
        let p = Desc::create(ctx, req.locks, frame);
        obs(ctx, EventKind::AttemptStart, req.locks.len() as u64);
        if let Some(cell) = scratch.probe {
            // Fairness probe: hand the adversary this attempt's descriptor
            // the moment it exists — it can watch the priority word for the
            // pre-reveal window. Strictly more visibility than a real
            // player could extract, which is exactly the regime Theorem 6.9
            // bounds.
            ctx.write_rel(cell, p.item());
        }
        let mut a = Attempt { p, start, tag_base, helped: 0, overrun: Cell::new(false) };

        // Helping phase: clear the field of every already-revealed
        // competitor.
        let mut aborted: Option<AbortReason> = None;
        if helping {
            // Split borrow: `helping` holds the member list being iterated
            // while `members` serves as run_desc's own scan buffer.
            let Scratch { helping, members, .. } = scratch;
            'help: for &l in req.locks {
                revealed_members(ctx, space.set(l), helping);
                for &m in helping.iter() {
                    // Abort poll (uncounted) between helps: each competitor
                    // is helped to completion or not started — never left
                    // half run — and our own descriptor is still private.
                    if let Some(r) = poll_abort(ctx, deadline) {
                        aborted = Some(r);
                        break 'help;
                    }
                    run_desc(ctx, space, registry, Desc::from_item(m), members);
                    a.helped += 1;
                }
            }
        }

        // Pre-insert abort poll. The descriptor has never been revealed, so
        // abandoning it here is trivially safe: eliminate it so any probe
        // observer sees a settled status, clear the probe, and return
        // without the end-of-attempt padding — an aborted attempt forfeits
        // its fairness guarantees but costs nobody else anything.
        if aborted.is_none() {
            aborted = poll_abort(ctx, deadline);
        }
        if let Some(r) = aborted {
            eliminate(ctx, p);
            if let Some(cell) = scratch.probe {
                ctx.write_rel(cell, 0);
            }
            obs(ctx, EventKind::Abort, r.index() as u64);
            return Err(a.finish(ctx, AttemptMetrics::abandoned(r, false, ctx.steps() - start)));
        }
        obs(ctx, EventKind::HelpDone, a.helped);
        Ok(a)
    }

    /// multiRemove from every lock's active set, then clear the probe.
    pub(crate) fn withdraw<F: Flag>(&self, ctx: &Ctx<'_>, scratch: &Scratch, flag: &F) {
        multi_remove(ctx, flag, self.p.item(), &scratch.sets, &scratch.slots);
        if let Some(cell) = scratch.probe {
            ctx.write_rel(cell, 0);
        }
    }

    /// Abandons the attempt after its priority reveal. The descriptor is
    /// public, so abandoning it must leave it helpable: the abort is an
    /// `eliminate` racing the helpers' `decide` — whichever one-shot status
    /// transition lands is final and visible to everyone. If a helper
    /// already decided the attempt *won*, the abort came too late: the
    /// critical section belongs to this attempt, so celebrate it (running
    /// the thunk to completion if the helper is still mid-flight) and
    /// report the win as a rescue. A combining grant that lands before the
    /// eliminate is a win the same way: the thunk already belongs to the
    /// claimant's batch, so it too is a rescue (never `combined`: rescued
    /// and combined are disjoint).
    pub(crate) fn abandon<F: Flag>(
        &self,
        ctx: &Ctx<'_>,
        registry: &Registry,
        scratch: &Scratch,
        flag: &F,
        reason: AbortReason,
    ) -> AttemptMetrics {
        let rescued = !eliminate(ctx, self.p) && is_won(self.p.status(ctx));
        if rescued {
            celebrate_if_won(ctx, registry, self.p);
        }
        self.withdraw(ctx, scratch, flag);
        obs(ctx, EventKind::Abort, reason.index() as u64 | 1 << 8);
        if rescued {
            obs(ctx, EventKind::Rescue, 0);
        }
        self.finish(ctx, AttemptMetrics::abandoned(reason, rescued, ctx.steps() - self.start))
    }

    /// `run(p)` on the attempt's own descriptor: compete and decide.
    pub(crate) fn compete(
        &self,
        ctx: &Ctx<'_>,
        space: &LockSpace,
        registry: &Registry,
        members: &mut Vec<u64>,
    ) {
        run_desc(ctx, space, registry, self.p, members);
        if wfl_obs::rec::is_enabled() {
            // The status re-read for the event argument is an uncounted
            // peek: the counted re-read in `end` happens identically
            // either way.
            obs(ctx, EventKind::SettleDone, is_won(ctx.heap().peek(self.p.status_addr())) as u64);
        }
    }

    /// Ends an attempt that ran to its decision (after the withdrawal and
    /// the end padding): reads the settled status. `combined_peers` counts
    /// the peers this attempt's combining batch ran.
    pub(crate) fn end(&self, ctx: &Ctx<'_>, combined_peers: u64) -> AttemptMetrics {
        let status = self.p.status(ctx);
        self.finish(
            ctx,
            AttemptMetrics {
                // This attempt's own win was granted by a combining peer
                // (its `decide` lost to a claimant's CAS; the thunk ran in
                // the peer's batch): the retry loop observes a settled win
                // either way.
                combined: status == ST_COMBINED,
                combined_peers,
                ..AttemptMetrics::decided(is_won(status), ctx.steps() - self.start)
            },
        )
    }

    /// Every exit's last step: adds what the attempt tracked to `m` and
    /// records the `AttemptEnd` event.
    pub(crate) fn finish(&self, ctx: &Ctx<'_>, m: AttemptMetrics) -> AttemptMetrics {
        let m = AttemptMetrics { helped: self.helped, delay_overrun: self.overrun.get(), ..m };
        obs(ctx, EventKind::AttemptEnd, m.bits().0);
        m
    }
}

/// Executes one tryLock attempt (the known-bounds algorithm of §6).
///
/// Returns the attempt's outcome and step cost. On success, the thunk has
/// been run (by this process or a helper) before the call returns; on
/// failure, no run of the thunk ever happens (Definition 4.3).
///
/// `scratch` is the caller's per-process [`Scratch`]; reusing it across
/// attempts keeps the hot path allocation-free (reuse never changes the
/// counted step sequence).
///
/// # Panics
/// Panics if the request violates the configuration: more than
/// `cfg.l_max` locks, duplicate locks, an empty lock set, or a thunk
/// declaring more than `cfg.t_max` operations.
pub fn try_locks(
    ctx: &Ctx<'_>,
    space: &LockSpace,
    registry: &Registry,
    cfg: &LockConfig,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    req: TryLockRequest<'_>,
) -> AttemptMetrics {
    validate(space, registry, cfg.l_max, cfg.t_max, &req);
    if cfg.delays {
        validate_budget(registry, cfg, &req);
    }
    let a = match Attempt::begin(ctx, space, registry, tags, scratch, &req, cfg.helping) {
        Ok(a) => a,
        Err(aborted) => return aborted,
    };
    let (p, start) = (a.p, a.start);
    let budget = cfg.delays.then(|| cfg.budget());
    // Absolute own-step targets of the reveal and of the attempt's end;
    // the end moves `combine_slack` later once combining claims a peer.
    let reveal_at = budget.map(|b| start + b.t0());
    let mut end_at = budget.map(|b| start + b.t0() + b.t1());
    let claim_end_at = budget.map(|b| start + b.t0() + b.t1() + b.combine_slack);
    // Combining spends only what is left before an end: a step of it
    // starts only while its worst case and the multiRemove after it fit.
    let (pass, claim, remove) =
        budget.map_or((0, 0, 0), |b| (b.combine_pass, b.combine_claim, b.remove));
    let fits = |ctx: &Ctx<'_>, end: Option<u64>, cost: u64| {
        end.is_none_or(|e| ctx.steps() + cost + remove <= e)
    };

    // multiInsert; the flag raise is the reveal step with the T0 delay.
    scratch.sets.clear();
    scratch.sets.extend(req.locks.iter().map(|&l| *space.set(l)));
    let flag = RevealFlag { reveal_at, tag_base: a.tag_base, overrun: &a.overrun };
    multi_insert_into(ctx, &flag, p.item(), &scratch.sets, &mut scratch.slots);
    obs(ctx, EventKind::RevealDone, 0);

    // Post-reveal abort poll (the `T0` reveal stall just ran, so this is
    // where an expired deadline usually surfaces).
    if let Some(r) = poll_abort(ctx, scratch.deadline) {
        return a.abandon(ctx, registry, scratch, &flag, r);
    }

    a.compete(ctx, space, registry, &mut scratch.members);

    // Combining fast path (E17, `cfg.combine`): having won by our own
    // `decide` — own thunk complete, descriptor still in every active set
    // — claim competitors that revealed after the competition scan and
    // are still ACTIVE, granting each a win (`active → combined`, a
    // one-shot CAS arbitrating against their eliminate/decide exactly
    // like `decide` does) and running their thunks before releasing.
    //
    // A claimed peer skips its own competition, so every claim must be
    // arbitrated on its behalf. Each *combine round* claims at most ONE
    // peer (full argument in DESIGN.md §2.7):
    //
    // 1. **Settle pass.** Re-read every revealed member of this
    //    attempt's locks (a superset of every claim candidate's locks).
    //    The first still-ACTIVE member whose lock set is covered by ours
    //    becomes the round's *chosen* candidate; every other ACTIVE
    //    member — candidate or not — is eliminated (the fairness cost of
    //    combining; losing is always safe). A member already COMBINED
    //    has a finished claimant (a mid-batch claimant is always visibly
    //    WON on a shared lock, which aborts us next), so its frame is
    //    complete. If the pass finds any **other WON member, combining
    //    is abandoned**: that winner may be mid-frame or mid-batch.
    //    This abort rule is also what arbitrates between two would-be
    //    claimants on overlapping locks — the later one still sees the
    //    earlier one WON in a shared active set.
    //
    // 2. **Claim the chosen peer** (`active → combined`) and run its
    //    thunk. At the claim point every other member is settled, so the
    //    only parties that can still decide are attempts that revealed
    //    after the pass — and the chosen peer revealed *before* it, so
    //    the reveal/scan fence guarantees their post-reveal scan sees
    //    it: ACTIVE (they compete against it — their eliminate beats our
    //    claim, or they lose to it) or COMBINED (they help its frame to
    //    completion before deciding, exactly as for an ordinary winner).
    //    One claim per pass is essential: with two unclaimed candidates
    //    in flight, one could decide against the other claim unseen.
    //
    // Rounds repeat (bounded by κ) while claims land, so one winner can
    // still drain several peers; any failed claim or in-flight winner
    // ends combining for this attempt. With delays on, so does a pass
    // that might not fit before the end, or a claim that might not fit
    // before `T0 + T1 + combine_slack`. The first claim moves the end
    // there, so only an attempt that combines pays the slack.
    //
    // Gated on ST_WON, not `is_won`: an attempt that was itself claimed
    // (COMBINED) holds nothing — its thunk ran inside the claimant's
    // batch and the locks may already have new owners — so it must not
    // start a batch of its own.
    let mut combined_peers = 0u64;
    // The gate's status read and the first pass must fit together.
    if cfg.combine && fits(ctx, end_at, 1 + pass) && p.status(ctx) == ST_WON {
        let Scratch { members, .. } = scratch;
        let covered = |ctx: &Ctx<'_>, q: Desc| {
            let qn = q.nlocks(ctx);
            qn <= req.locks.len() && (0..qn).all(|i| req.locks.contains(&q.lock(ctx, i)))
        };
        'rounds: while combined_peers < cfg.kappa.max(1) as u64 && fits(ctx, end_at, pass) {
            let mut chosen: Option<u64> = None;
            for &l in req.locks {
                revealed_members(ctx, space.set(l), members);
                for &sm in members.iter() {
                    if sm == p.item() || chosen == Some(sm) {
                        continue;
                    }
                    let s = Desc::from_item(sm);
                    loop {
                        match s.status(ctx) {
                            ST_WON => break 'rounds,
                            ST_ACTIVE => {
                                if chosen.is_none() && covered(ctx, s) {
                                    chosen = Some(sm);
                                    break;
                                }
                                if ctx.cas_bool_sync(s.status_addr(), ST_ACTIVE, ST_LOST) {
                                    break;
                                }
                                // Lost the race to its decide: re-read.
                            }
                            // LOST is settled; COMBINED is complete (above).
                            _ => break,
                        }
                    }
                }
            }
            let Some(qm) = chosen else { break };
            if !fits(ctx, claim_end_at, claim) {
                break;
            }
            let q = Desc::from_item(qm);
            // The claim CAS is sync; this fence pairs with competitors'
            // reveal fences for the pass-vs-scan visibility argument.
            ctx.publication_fence();
            if !ctx.cas_bool_sync(q.status_addr(), ST_ACTIVE, ST_COMBINED) {
                break;
            }
            obs(ctx, EventKind::CombineClaim, qm);
            celebrate_if_won(ctx, registry, q);
            combined_peers += 1;
            end_at = claim_end_at;
        }
    }

    // Clean up, then pad to the fixed attempt length. The probe clears
    // before the padding: the competition is decided, and keeping the clear
    // inside the delay window means probing never alters the fixed
    // `T0 + T1` attempt length (`+ combine_slack` after a claim).
    a.withdraw(ctx, scratch, &flag);
    if let Some(end) = end_at {
        if ctx.steps() > end {
            a.overrun.set(true);
        }
        ctx.stall_until_steps(end);
    }
    a.end(ctx, combined_peers)
}

pub(crate) fn validate(
    space: &LockSpace,
    registry: &Registry,
    l_max: usize,
    t_max: usize,
    req: &TryLockRequest<'_>,
) {
    assert!(!req.locks.is_empty(), "a tryLock needs at least one lock");
    assert!(
        req.locks.len() <= l_max,
        "{} locks exceeds the configured L = {}",
        req.locks.len(),
        l_max
    );
    for (i, l) in req.locks.iter().enumerate() {
        assert!((l.0 as usize) < space.len(), "unknown lock id {}", l.0);
        assert!(
            !req.locks[..i].contains(l),
            "duplicate lock id {} in the lock set",
            l.0
        );
    }
    let ops = registry.get(req.thunk).max_ops();
    assert!(ops <= t_max, "thunk declares {ops} ops, exceeding the configured T = {t_max}");
}

/// The delay budget holds only for requests inside the bounds it was
/// derived from: at most `T + 1` argument words, and a thunk declaring at
/// most [`LockConfig::cs_steps`] body steps.
fn validate_budget(registry: &Registry, cfg: &LockConfig, req: &TryLockRequest<'_>) {
    assert!(
        req.args.len() <= cfg.t_max + 1,
        "{} argument words exceed the configured T + 1 = {}",
        req.args.len(),
        cfg.t_max + 1
    );
    let steps = registry.get(req.thunk).max_steps();
    assert!(
        steps <= cfg.cs_steps,
        "thunk declares {steps} body steps, exceeding the configured cs_steps = {}",
        cfg.cs_steps
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use wfl_idem::{cell, IdemRun, Thunk, HELP_FIXED_STEPS};
    use wfl_runtime::schedule::FromSeq;
    use wfl_runtime::sim::SimBuilder;
    use wfl_runtime::{Addr, Heap};

    /// Writes `arg(1)` to the cell at `arg(0)`, counting its body runs.
    struct CountedWrite(Arc<AtomicU64>);
    impl Thunk for CountedWrite {
        fn run(&self, run: &mut IdemRun<'_, '_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
            let c = Addr::from_word(run.arg(0));
            let v = run.arg(1) as u32;
            run.write(c, v);
        }
        fn max_ops(&self) -> usize {
            1
        }
    }

    const LOCKS: [LockId; 2] = [LockId(0), LockId(1)];
    /// A celebrate that runs the body: status and frame reads, the help's
    /// fixed steps, and the body (two argument reads and a solo write).
    const FULL: u64 = 2 + HELP_FIXED_STEPS + 2 + 5;
    /// A celebrate of a completed frame: status, frame and flag reads.
    const REPEAT: u64 = 3;
    /// One lock of `run(q)`, q its only member: the lock id, getSet
    /// (1 + 2), the flag filter's priority read, q's status.
    const LOCK: u64 = 1 + 3 + 1 + 1;
    /// One lock of a run with two members, up to the other member: the
    /// lock id, getSet (1 + 4), two priority reads, the run's status.
    const LOCK2: u64 = 1 + 5 + 2 + 1;
    /// A member up to its eliminate: its status and both priorities.
    const COMPARE: u64 = 3;
    /// Priorities poked over the drawn ones: p outranks its competitors.
    const HIGH: u64 = 1 << 62;
    const LOW: u64 = 1 << 61;

    /// Competitors on `nlocks` locks of capacity 2, sharing the counted
    /// thunk and one output cell.
    struct Fixture {
        heap: Heap,
        space: LockSpace,
        registry: Registry,
        runs: Arc<AtomicU64>,
        out: Addr,
        /// Tag source of the next competitor (its own pid, so tags differ).
        next_pid: Cell<usize>,
    }

    impl Fixture {
        fn new(nlocks: usize) -> Fixture {
            let runs = Arc::new(AtomicU64::new(0));
            let mut registry = Registry::new();
            registry.register(CountedWrite(runs.clone()));
            let heap = Heap::new(1 << 16);
            let space = LockSpace::create_root(&heap, nlocks, 2);
            let out = heap.alloc_root(1);
            Fixture { heap, space, registry, runs, out, next_pid: Cell::new(2) }
        }

        /// A process creates q on `locks`, inserts it and reveals its
        /// priority; with `won` it then decides q WON and stops before
        /// running the thunk. `prio`, if given, replaces the drawn
        /// priority.
        fn competitor(&self, locks: &[LockId], won: bool, prio: Option<u64>) -> Desc {
            let q_at = self.heap.alloc_root(1);
            let pid = self.next_pid.replace(self.next_pid.get() + 1);
            let Fixture { space, registry, out, .. } = self;
            SimBuilder::new(&self.heap, 1)
                .spawn(move |ctx: &Ctx| {
                    let tag_base = TagSource::new(pid).next_base();
                    let frame = Frame::create(ctx, registry, ThunkId(0), tag_base, &[out.to_word(), 7]);
                    let q = Desc::create(ctx, locks, frame);
                    let overrun = Cell::new(false);
                    let flag = RevealFlag { reveal_at: None, tag_base, overrun: &overrun };
                    let sets: Vec<ActiveSet> = locks.iter().map(|&l| *space.set(l)).collect();
                    multi_insert_into(ctx, &flag, q.item(), &sets, &mut Vec::new());
                    if won {
                        decide(ctx, q);
                    }
                    ctx.heap().poke(q_at, q.item());
                })
                .run()
                .assert_clean();
            let q = Desc::from_item(self.heap.peek(q_at));
            if let Some(prio) = prio {
                self.heap.poke(q.prio_addr(), prio);
            }
            q
        }

        /// Runs `owner` as process 0 and `helper` as process 1 under
        /// `schedule`; returns the helper's own steps.
        fn race(
            &self,
            schedule: Vec<usize>,
            owner: impl FnOnce(&Ctx<'_>) + Send,
            helper: impl FnOnce(&Ctx<'_>) + Send,
        ) -> u64 {
            let report = SimBuilder::new(&self.heap, 2)
                .schedule(FromSeq::new(schedule, false))
                .spawn(owner)
                .spawn(helper)
                .run();
            report.assert_clean();
            assert!(report.completed, "own steps {:?}", report.steps);
            report.steps[1]
        }

        fn assert_runs(&self, runs: u64) {
            assert_eq!(self.runs.load(Ordering::Relaxed), runs, "bodies run");
            assert_eq!(cell::value(self.heap.peek(self.out)), 7);
        }
    }

    /// A race schedule: process 1 takes `spans[0]` steps, then process 0
    /// one, then process 1 `spans[1]` and process 0 one, and so on; then
    /// process 1 runs to the end.
    fn interleave(spans: &[u64]) -> Vec<usize> {
        let mut schedule = Vec::new();
        for &n in spans {
            schedule.extend(std::iter::repeat_n(1, n as usize));
            schedule.push(0);
        }
        schedule.extend([1; 400]);
        schedule
    }

    #[test]
    fn helping_a_frozen_winner_runs_its_thunk_once() {
        // q was decided WON and its process froze before the thunk. An
        // attempt on q's two locks finds q revealed on each and runs it
        // twice: the first run helps the body, the second finds the frame
        // completed. Each run reads q WON at both locks, so it skips their
        // members, and its decide fails.
        let f = Fixture::new(2);
        let q = f.competitor(&LOCKS, true, None);
        let helper = |ctx: &Ctx<'_>| {
            let mut scratch = Scratch::new();
            let req = TryLockRequest { locks: &LOCKS, thunk: ThunkId(0), args: &[f.out.to_word(), 9] };
            let a = Attempt::begin(ctx, &f.space, &f.registry, &mut TagSource::new(1), &mut scratch, &req, true)
                .unwrap_or_else(|_| panic!("no deadline is armed"));
            assert_eq!(a.helped, 2);
            assert_eq!(q.peek_status(ctx.heap()), ST_WON);
        };
        let steps = f.race(vec![1; 200], |_| {}, helper);
        let run_q = |celebrate| 2 + 2 * LOCK + 1 + celebrate;
        let create = Frame::create_steps(2) + Desc::create_steps(2);
        // Per lock: the getSet of q alone and its priority read, then run(q).
        assert_eq!(steps, create + (4 + run_q(FULL)) + (4 + run_q(REPEAT)));
        f.assert_runs(1);
    }

    #[test]
    fn a_run_never_touches_its_own_entry() {
        // q is the only member of both its locks. A run of q reads q
        // ACTIVE after each getSet, then skips q's own entry: no status,
        // priority, eliminate or celebrate of it. Its one celebrate of q
        // is the last, which runs the body in full. That holds whether q
        // decides itself (`decide` by the run) or q's own process decides
        // it after the run's first lock, when the run's second lock reads
        // q WON and its decide fails.
        for mid_run in [false, true] {
            let f = Fixture::new(2);
            let q = f.competitor(&LOCKS, false, None);
            let schedule = interleave(if mid_run { &[2 + LOCK] } else { &[] });
            let owner = |ctx: &Ctx<'_>| {
                if mid_run {
                    decide(ctx, q);
                }
            };
            let helper = |ctx: &Ctx<'_>| run_desc(ctx, &f.space, &f.registry, q, &mut Vec::new());
            let steps = f.race(schedule, owner, helper);
            assert_eq!(steps, 2 + 2 * LOCK + 1 + FULL, "mid_run {mid_run}");
            assert_eq!(q.peek_status(&f.heap), ST_WON);
            f.assert_runs(1);
        }
    }

    #[test]
    fn a_settle_can_take_its_whole_budget() {
        // p (on both locks) outranks c0 (lock 0) and c1 (lock 1). At each
        // lock p reads its competitor ACTIVE and both priorities, then
        // c's own process decides it WON before p's eliminate: the CAS
        // fails and p celebrates c in full. p then decides and helps its
        // own thunk. That is every step `settle` charges, so a budget one
        // step short fails here.
        let f = Fixture::new(2);
        let p = f.competitor(&LOCKS, false, Some(HIGH));
        let c0 = f.competitor(&LOCKS[..1], false, Some(LOW));
        let c1 = f.competitor(&LOCKS[1..], false, Some(LOW + 1));
        let owner = |ctx: &Ctx<'_>| {
            decide(ctx, c0);
            decide(ctx, c1);
        };
        let helper = |ctx: &Ctx<'_>| {
            let a = Attempt { p, start: 0, tag_base: 0, helped: 0, overrun: Cell::new(false) };
            a.compete(ctx, &f.space, &f.registry, &mut Vec::new());
        };
        // The failed eliminate, then c's celebrate in full.
        let late = 1 + FULL;
        let schedule = interleave(&[2 + LOCK2 + COMPARE, late + LOCK2 + COMPARE]);
        let steps = f.race(schedule, owner, helper);
        assert_eq!(steps, 2 + 2 * (LOCK2 + COMPARE + late) + 1 + FULL);
        assert_eq!(steps, LockConfig::new(2, 2, 1).budget().settle);
        for d in [p, c0, c1] {
            assert_eq!(d.peek_status(&f.heap), ST_WON);
        }
        f.assert_runs(3);
    }

    #[test]
    fn a_helping_phase_can_take_its_whole_budget() {
        // The attempt h is on locks 0 and 1, and finds one competitor on
        // each: q0 on locks 0 and 2, q1 on locks 1 and 3. Each q outranks
        // a competitor r on its other lock, and r's own process decides r
        // WON between the run's priority reads and its eliminate. So each
        // run of q scans a lock where q is alone, celebrates r in full,
        // decides q and helps q's thunk. With the probe write, that is
        // every step `create` and `help` charge.
        let f = Fixture::new(4);
        let q0 = f.competitor(&[LockId(0), LockId(2)], false, Some(HIGH));
        let r0 = f.competitor(&[LockId(2)], false, Some(LOW));
        let q1 = f.competitor(&[LockId(1), LockId(3)], false, Some(HIGH + 1));
        let r1 = f.competitor(&[LockId(3)], false, Some(LOW + 1));
        let probe = f.heap.alloc_root(1);
        let owner = |ctx: &Ctx<'_>| {
            decide(ctx, r0);
            decide(ctx, r1);
        };
        let helper = |ctx: &Ctx<'_>| {
            let mut scratch = Scratch::new();
            scratch.probe = Some(probe);
            let req = TryLockRequest { locks: &LOCKS, thunk: ThunkId(0), args: &[f.out.to_word(), 7] };
            let a = Attempt::begin(ctx, &f.space, &f.registry, &mut TagSource::new(1), &mut scratch, &req, true)
                .unwrap_or_else(|_| panic!("no deadline is armed"));
            assert_eq!(a.helped, 2);
        };
        let create = Frame::create_steps(2) + Desc::create_steps(2) + 1;
        // Per lock: getSet of q alone and its priority read, then run(q)
        // up to r's eliminate.
        let to_compare = 4 + 2 + LOCK + LOCK2 + COMPARE;
        // The failed eliminate and r's celebrate, q's decide and its help.
        let rest = 1 + FULL + 1 + FULL;
        let steps = f.race(interleave(&[create + to_compare, rest + to_compare]), owner, helper);
        assert_eq!(steps, create + 2 * (to_compare + rest));
        let b = LockConfig::new(2, 2, 1).budget();
        assert_eq!(steps, b.create + b.help);
        for d in [q0, r0, q1, r1] {
            assert_eq!(d.peek_status(&f.heap), ST_WON);
        }
        f.assert_runs(4);
    }
}
