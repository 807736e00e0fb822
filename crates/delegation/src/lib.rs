//! Delegation (combining) lock baselines: the *other* modern
//! high-performance answer for the oversubscribed regime the paper
//! targets. Instead of every contender fighting for the lock word and
//! running its own critical section, contenders *publish* their critical
//! section (as an idempotent-thunk frame — the closure shape our
//! workloads already use) and one process, the **combiner**, executes a
//! batch of published sections back to back while everyone else spins
//! locally.
//!
//! Two classic designs behind the shared [`wfl_baselines::LockAlgo`]
//! trait, both allocation-free on the attempt path (per-process records
//! are set up once, cache-line padded like PR 8's hot structures):
//!
//! * [`FcLock`] — flat combining (Hendler, Incze, Shavit, Tzafrir,
//!   SPAA 2010): a publication array plus a combiner lock; whoever
//!   acquires the lock scans the array and applies pending requests.
//! * [`CcSynch`] — list-based combining (Fatourou & Kallimanis,
//!   PPoPP 2012): a swap-based queue of request nodes where combining
//!   duty is handed from node to node, no lock word at all.
//!
//! Both serialize *every* request through one combiner at a time — the
//! delegation model protects one concurrent object, so a multi-lock
//! request is simply a request (the whole heap is the object). That is
//! the honest baseline: delegation trades away disjoint-access
//! parallelism and wait-freedom (a frozen combiner wedges everyone —
//! [`LockAlgo::blocks_under_crash`] is true for both) for very low
//! coherence traffic on the hot path. Experiments E17 (throughput) and
//! E16 (freezes) measure both sides of that trade against wfl's combining
//! fast path, which batches at a *winner* without ever blocking losers.
//!
//! [`LockAlgo::blocks_under_crash`]: wfl_baselines::LockAlgo::blocks_under_crash

#![forbid(unsafe_code)]

mod ccsynch;
mod fc;

pub use ccsynch::CcSynch;
pub use fc::FcLock;

/// Emits one flight-recorder event from a combiner hook point (uncounted
/// `Cell` reads only — see `wfl_core`'s twin helper).
#[inline]
pub(crate) fn obs(ctx: &wfl_runtime::Ctx<'_>, kind: wfl_obs::EventKind, arg: u64) {
    wfl_obs::rec::record(ctx.pid(), kind, ctx.now(), ctx.steps(), arg);
}
