//! The unknown-bounds variant (§6.2): wait-free locks without knowing `κ`,
//! `L` or `T`.
//!
//! Differences from the known-bounds algorithm, following the paper's
//! sketch (the full pseudocode is only in the arXiv full version; the
//! reconstruction choices are documented in DESIGN.md §1.6):
//!
//! * Active sets are sized at the process count `P` instead of `κ` (the
//!   caller does this when creating the [`crate::space::LockSpace`]).
//! * The reveal step splits in two. The **participation reveal** writes
//!   the TBD marker after the multiInsert; the **priority reveal** happens
//!   only after the attempt has (a) queried all its locks' active sets and
//!   (b) frozen those memberships into a heap snapshot published through
//!   the descriptor. After the priority is revealed the active sets are
//!   never queried again on behalf of this attempt — `run` uses the frozen
//!   snapshot — so the adversary learns the priority only after it can no
//!   longer shape the attempt's competitor set.
//! * Fixed delays are replaced by the **doubling trick**: before each
//!   reveal (and at the end of the attempt) the process stalls until its
//!   own-step count since the attempt start reaches the next power of two,
//!   so the adversary can steer the reveal time among only `log(κLT)`
//!   values — the source of the `log` factor in Theorem 6.10.
//! * A competitor whose priority is still TBD at comparison time cannot be
//!   compared; the attempt conservatively self-eliminates (wait-free, and
//!   mutual exclusion is preserved; fairness cost measured in E6).

use crate::abort::poll_abort;
use crate::descriptor::{make_priority, Desc, PRIO_TBD, PRIO_UNSET};
use crate::metrics::AttemptMetrics;
use crate::scratch::Scratch;
use crate::space::LockSpace;
use crate::trylock::{eliminate, obs, validate, Attempt, TryLockRequest};
use wfl_activeset::{get_members_by, multi_insert_into, Flag};
use wfl_idem::{Registry, TagSource};
use wfl_obs::EventKind;
use wfl_runtime::Ctx;

/// Flag strategy for §6.2: raising the flag writes the TBD marker (the
/// participation reveal), with the doubling delay folded in.
struct TbdFlag {
    start: u64,
}

impl Flag for TbdFlag {
    fn clear(&self, ctx: &Ctx<'_>, item: u64) {
        ctx.write_rel(Desc::from_item(item).prio_addr(), PRIO_UNSET);
    }

    fn set(&self, ctx: &Ctx<'_>, item: u64) {
        stall_to_pow2(ctx, self.start);
        // Participation reveal: Release, so an Acquire reader of the TBD
        // marker sees the descriptor body.
        ctx.write_rel(Desc::from_item(item).prio_addr(), PRIO_TBD);
        // As in the known-bounds reveal: an SC fence between each
        // attempt's participation reveal and its freeze scan guarantees
        // that of two concurrent attempts at least one freezes the other
        // into its snapshot (store-buffer litmus, DESIGN.md §2.2).
        ctx.publication_fence();
    }

    fn get(&self, ctx: &Ctx<'_>, item: u64) -> bool {
        Desc::from_item(item).priority(ctx) != PRIO_UNSET
    }
}

/// Stalls until own steps since `start` reach the next power of two.
fn stall_to_pow2(ctx: &Ctx<'_>, start: u64) {
    let elapsed = (ctx.steps() - start).max(1);
    ctx.stall_until_steps(start + elapsed.next_power_of_two());
}

/// Executes one tryLock attempt without knowing `κ`, `L` or `T`
/// (Theorem 6.10). Semantics match [`crate::trylock::try_locks`]; the
/// success probability carries an extra `1/log(κLT)` factor.
///
/// # Panics
/// Panics on invalid requests (unknown/duplicate/empty lock sets).
pub fn try_locks_unknown(
    ctx: &Ctx<'_>,
    space: &LockSpace,
    registry: &Registry,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    req: TryLockRequest<'_>,
) -> AttemptMetrics {
    validate(space, registry, space.len(), usize::MAX, &req);
    let a = match Attempt::begin(ctx, space, registry, tags, scratch, &req, true) {
        Ok(a) => a,
        Err(aborted) => return aborted,
    };
    let (p, start, deadline) = (a.p, a.start, scratch.deadline);

    // multiInsert; the flag raise is the PARTICIPATION reveal (TBD).
    scratch.sets.clear();
    scratch.sets.extend(req.locks.iter().map(|&l| *space.set(l)));
    let flag = TbdFlag { start };
    multi_insert_into(ctx, &flag, p.item(), &scratch.sets, &mut scratch.slots);

    // Post-participation abort poll (the first doubling stall just ran).
    // The descriptor is public but still TBD: no helper ever runs a TBD
    // descriptor (`run_desc` is only invoked on revealed priorities) and a
    // competitor comparing against a TBD member self-eliminates rather
    // than deciding it, so `decide(p)` cannot race us — the eliminate
    // settles the status and removal is safe. Skipping the freeze also
    // skips its snapshot allocation.
    if let Some(r) = poll_abort(ctx, deadline) {
        eliminate(ctx, p);
        a.withdraw(ctx, scratch, &flag);
        obs(ctx, EventKind::Abort, r.index() as u64);
        return a.finish(ctx, AttemptMetrics::abandoned(r, false, ctx.steps() - start));
    }

    // Freeze the competitor sets: query every lock once (including TBD
    // participants) and publish the snapshot through the descriptor. The
    // per-lock lists are staged flat in the scratch (same counted reads
    // and writes as the old Vec<Vec<_>> staging, no allocation).
    scratch.frozen_items.clear();
    scratch.frozen_lens.clear();
    for set in &scratch.sets {
        get_members_by(
            ctx,
            |ctx, item| Desc::from_item(item).priority(ctx) != PRIO_UNSET,
            set,
            &mut scratch.members,
        );
        scratch.frozen_lens.push(scratch.members.len() as u32);
        scratch.frozen_items.extend_from_slice(&scratch.members);
    }
    let snap_words: usize = scratch.frozen_lens.len() + scratch.frozen_items.len();
    let snap = ctx.alloc(snap_words.max(1));
    let mut off = 0u32;
    let mut item_idx = 0usize;
    for &len in &scratch.frozen_lens {
        ctx.write_rel(snap.off(off), len as u64);
        for k in 0..len {
            ctx.write_rel(snap.off(off + 1 + k), scratch.frozen_items[item_idx]);
            item_idx += 1;
        }
        off += 1 + len;
    }
    p.set_snapshot(ctx, snap);

    // PRIORITY reveal, behind a second doubling delay. Release: helpers
    // that acquire the revealed priority must also see the snapshot.
    stall_to_pow2(ctx, start);
    let r = ctx.rand_u64();
    ctx.write_rel(p.prio_addr(), make_priority(r, a.tag_base));
    ctx.publication_fence();
    obs(ctx, EventKind::RevealDone, 0);

    // Post-priority-reveal abort poll: from here competitors can help the
    // descriptor to completion, so abandonment is the eliminate-vs-decide
    // race of the known-bounds algorithm.
    if let Some(reason) = poll_abort(ctx, deadline) {
        return a.abandon(ctx, registry, scratch, &flag, reason);
    }

    // Compete over the frozen snapshot.
    a.compete(ctx, space, registry, &mut scratch.members);

    // Clean up; pad the attempt end to a power-of-two length (the probe
    // clear stays inside the padding so probing never changes it).
    a.withdraw(ctx, scratch, &flag);
    stall_to_pow2(ctx, start);
    a.end(ctx, 0)
}
