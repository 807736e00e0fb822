//! The harness's outcome book: the per-`(process, round)` outcome slots a
//! run records into the shared heap ([`Outcomes`]), and the report they
//! fold into ([`HarnessReport`]), one epoch at a time.

use std::time::Duration;
use wfl_core::{AbortReason, AttemptMetrics, GiveUp};
use wfl_obs::{AttemptOutcomeBits, FixedHistogram};
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, Ctx, Heap, History};

/// Results of a harness run, aggregated across every epoch.
#[derive(Debug, Clone, Default)]
pub struct HarnessReport {
    /// Total attempts made (completed rounds; timed real runs stop early —
    /// or, with epochs, keep going until the deadline).
    pub attempts: u64,
    /// Total successful attempts.
    pub wins: u64,
    /// Per-attempt own-step counts.
    pub steps: FixedHistogram,
    /// Per-process (wins, attempts).
    pub per_pid: Vec<(u64, u64)>,
    /// Whether **every epoch's** workload invariant matched its recorded
    /// outcomes exactly (the mutual-exclusion check), and every recorded
    /// outcome was self-consistent ([`AttemptOutcomeBits::consistent`],
    /// and `rescues + combined_wins ≤ wins` per epoch).
    pub safety_ok: bool,
    /// Attempts abandoned mid-flight (armed deadline expired, or the stop
    /// flag during a deadline-armed attempt) rather than decided.
    pub aborts: u64,
    /// Abandoned attempts a competitor's helping completed anyway (these
    /// also count as wins); `rescues / aborts` is E16's abandoned-attempt
    /// helping rate.
    pub rescues: u64,
    /// Per-attempt own-step counts of the aborted attempts alone — the
    /// abort *latency* distribution (steps from round start to bailing
    /// out). Its tail against the armed budget is E16's abort-p99 gate.
    pub abort_steps: FixedHistogram,
    /// Wins granted by a combining holder (wfl's [`wfl_core::LockConfig::combine`]
    /// fast path, or a delegation baseline's combiner applying the request)
    /// rather than by the attempt's own competition. A subset of `wins`,
    /// disjoint from `rescues`.
    pub combined_wins: u64,
    /// Batch sizes observed by combining winners: one sample per winner
    /// that applied at least one peer request (the sample is the peer
    /// count). Empty when combining never fired — E17's histogram gate.
    pub combine_batch: FixedHistogram,
    /// wfl attempts whose real work overran a delay target (`T0` or
    /// `T0 + T1`). Nonzero means the delay budget did not cover the run
    /// (contention above `κ`, or a thunk above its declared step bound)
    /// and the run's fairness claim (Theorem 6.9) is void.
    pub delay_overruns: u64,
    /// Give-up events by reason, indexed by [`GiveUp::index`]: per-attempt
    /// aborts land under `Deadline`/`Stop`; a batch cut short by heap
    /// pressure or the stop flag adds one `HeapLow`/`Stop` event per
    /// process per epoch.
    pub give_up: [u64; GiveUp::COUNT],
    /// Wall-clock duration (real runs only).
    pub wall: Option<Duration>,
    /// Heap lifetimes the run spanned (1 = no epoch batching).
    pub epochs: u64,
    /// Highest arena usage observed at any epoch boundary: words handed
    /// out, summed over every allocation lane.
    pub heap_high_water: usize,
    /// The per-lane breakdown of [`HarnessReport::heap_high_water`]
    /// (index = lane = pid; the trailing entry is the root lane carrying
    /// setup and re-root allocations).
    pub heap_high_water_lanes: Vec<usize>,
    /// Recorded invoke/respond history (empty unless the workload records
    /// one, e.g. [`crate::harness::run_bank_recorded`]).
    pub history: History,
    /// The drained flight-recorder trace
    /// ([`crate::harness::ExecMode::with_recorder`] runs only).
    pub trace: Option<wfl_obs::TraceSnapshot>,
}

impl HarnessReport {
    /// A report of nothing yet for `nprocs` processes: no attempts, no
    /// epochs, safe.
    pub(crate) fn empty(nprocs: usize) -> HarnessReport {
        HarnessReport { per_pid: vec![(0, 0); nprocs], safety_ok: true, ..HarnessReport::default() }
    }

    /// Adds one epoch's counts and samples into this report; the result is
    /// safe only if both reports were and `safe` holds. Wall time, heap
    /// high water, history and trace describe the whole run and are left
    /// to the driver.
    pub(crate) fn merge(&mut self, epoch: &HarnessReport, safe: bool) {
        self.attempts += epoch.attempts;
        self.wins += epoch.wins;
        self.steps.merge(&epoch.steps);
        for (acc, e) in self.per_pid.iter_mut().zip(&epoch.per_pid) {
            acc.0 += e.0;
            acc.1 += e.1;
        }
        self.safety_ok &= epoch.safety_ok && safe;
        self.aborts += epoch.aborts;
        self.rescues += epoch.rescues;
        self.abort_steps.merge(&epoch.abort_steps);
        self.combined_wins += epoch.combined_wins;
        self.combine_batch.merge(&epoch.combine_batch);
        self.delay_overruns += epoch.delay_overruns;
        for (acc, e) in self.give_up.iter_mut().zip(&epoch.give_up) {
            *acc += e;
        }
        self.epochs += epoch.epochs;
    }

    /// The success-rate estimator over all attempts.
    pub fn success(&self) -> Bernoulli {
        Bernoulli { successes: self.wins, trials: self.attempts }
    }

    /// Successful acquisitions per wall-clock second (real runs only).
    pub fn wins_per_sec(&self) -> Option<f64> {
        self.wall.map(|w| self.wins as f64 / w.as_secs_f64().max(1e-12))
    }

    /// The meaningful slice of [`HarnessReport::heap_high_water_lanes`]
    /// for reports and JSON: the worker lanes actually used by this run
    /// (one per process) plus the trailing root lane — the heap pads to
    /// its full lane count, which would bury output in zeros.
    pub fn compact_high_water_lanes(&self) -> Vec<usize> {
        let threads = self.per_pid.len();
        if self.heap_high_water_lanes.len() <= threads + 1 {
            return self.heap_high_water_lanes.clone();
        }
        let mut v = self.heap_high_water_lanes[..threads].to_vec();
        v.push(*self.heap_high_water_lanes.last().expect("non-empty lane vector"));
        v
    }
}

/// Per-`(process, round)` outcome slots in the shared heap for **one
/// epoch**: 0 = round not run (timed run stopped first), else `1 + bits`
/// in the shared [`AttemptOutcomeBits`] layout, plus the book's own
/// [`STOPPING`] bit; a parallel word of own-steps per attempt; and one
/// batch-exit word per process (0 = ran its full batch, else
/// `1 + GiveUp::index`). The recorder knows its epoch's base round so
/// aggregation reports *global* round numbers, which is what keeps
/// deterministic `(seed, pid, round)` reconstructions exact across
/// resets.
pub(crate) struct Outcomes {
    outcomes: Addr,
    steps: Addr,
    breaks: Addr,
    /// Rounds per process this epoch can record.
    pub(crate) cap: usize,
    /// Words between consecutive processes' slot regions: `cap` rounded up
    /// to a cache-line multiple, so concurrent recorders never share a
    /// line (false-sharing audit, DESIGN.md §1.3). The bases are
    /// line-aligned, making every `pid * stride` region line-disjoint.
    stride: usize,
    nprocs: usize,
    base_round: usize,
}

/// The book's own bit, in one the shared layout leaves free: the stop flag
/// was up when an abort was recorded, which classifies the abort reason.
const STOPPING: u64 = 1 << 5;
const _: () = assert!(
    STOPPING & AttemptOutcomeBits::FLAGS == 0 && STOPPING >> AttemptOutcomeBits::PEERS_SHIFT == 0
);

impl Outcomes {
    pub(crate) fn create_root(heap: &Heap, nprocs: usize, cap: usize, base_round: usize) -> Outcomes {
        // One tag base is drawn per attempt, and the tag space is per heap
        // lifetime (= per epoch) — a cap beyond the guaranteed per-process
        // capacity could never be recorded anyway.
        assert!(
            cap <= wfl_idem::tag::MIN_PROCESS_CAPACITY as usize,
            "epoch length {cap} exceeds the per-process tag capacity"
        );
        let stride = cap.next_multiple_of(wfl_runtime::LINE_WORDS);
        Outcomes {
            outcomes: heap.alloc_root_aligned(nprocs * stride),
            steps: heap.alloc_root_aligned(nprocs * stride),
            // One line per process: the break word is written exactly once
            // per epoch, but all processes write it in the same drain
            // window.
            breaks: heap.alloc_root_aligned(nprocs * wfl_runtime::LINE_WORDS),
            cap,
            stride,
            nprocs,
            base_round,
        }
    }

    fn idx(&self, pid: usize, slot: usize) -> u32 {
        (pid * self.stride + slot) as u32
    }

    fn break_idx(&self, pid: usize) -> u32 {
        (pid * wfl_runtime::LINE_WORDS) as u32
    }

    /// Records one attempt (counted heap writes from the process itself).
    /// `slot` is the round index *within this epoch*.
    ///
    /// Release writes, not SeqCst (the §2.2 ordering audit): each slot is
    /// written by exactly one process and read only at the quiescent epoch
    /// boundary, where the barrier's mutex (or the sim host's join)
    /// already provides the happens-before edge — the store needs no
    /// global ordering of its own.
    pub(crate) fn record(&self, ctx: &Ctx<'_>, pid: usize, slot: usize, out: &AttemptMetrics) {
        let idx = self.idx(pid, slot);
        let mut bits = out.bits().0;
        // Classifies an abort: armed deadlines are the steady-state
        // trigger; the stop flag only rises once the driver drains, and it
        // never falls again, so sampling it here is exact enough to split
        // the per-reason counters.
        if out.aborted.is_some() && ctx.stop_requested() {
            bits |= STOPPING;
        }
        ctx.write_rel(self.outcomes.off(idx), 1 + bits);
        ctx.write_rel(self.steps.off(idx), out.steps);
    }

    /// Records why `pid`'s batch ended before running every round (noop
    /// word 0 when the batch completed; the slots are freshly zeroed per
    /// epoch, so only real breaks need a write — but writing
    /// unconditionally keeps the step count schedule-independent).
    pub(crate) fn record_break(&self, ctx: &Ctx<'_>, pid: usize, reason: Option<GiveUp>) {
        let word = reason.map_or(0, |g| 1 + g.index() as u64);
        ctx.write_rel(self.breaks.off(self.break_idx(pid)), word);
    }

    /// The attempts `pid` recorded this epoch, in slot order, decoded
    /// back from their outcome and step words (uncounted reads, for the
    /// quiescent boundary). An abort's reason is the book's stop-flag
    /// sample; `helped` reads 0.
    pub(crate) fn attempts<'h>(&self, heap: &'h Heap, pid: usize) -> impl Iterator<Item = Recorded> + 'h {
        let (outcomes, steps) = (self.outcomes, self.steps);
        let base = self.idx(pid, 0);
        (0..self.cap).map_while(move |slot| {
            let idx = base + slot as u32;
            // A batch fills its slots in order, so the first 0 (round not
            // run) ends the process's rounds.
            let bits = heap.peek(outcomes.off(idx)).checked_sub(1)?;
            let reason = if bits & STOPPING != 0 { AbortReason::Stop } else { AbortReason::Deadline };
            let out = AttemptMetrics::from_bits(AttemptOutcomeBits(bits), heap.peek(steps.off(idx)), reason);
            Some(Recorded { slot, out })
        })
    }

    /// Folds this epoch's recorded outcomes into a one-epoch
    /// [`HarnessReport`], invoking `on_win(pid, global_round)` for every
    /// recorded win so the caller can reconstruct the workload-specific
    /// expectation. `safety_ok` is the outcome oracle: every attempt's
    /// flags are [consistent](AttemptOutcomeBits::consistent), and
    /// `rescues + combined_wins ≤ wins`. The caller checks the workload's
    /// own invariant on top.
    pub(crate) fn aggregate(&self, heap: &Heap, mut on_win: impl FnMut(usize, usize)) -> HarnessReport {
        let mut r = HarnessReport::empty(self.nprocs);
        r.epochs = 1;
        for pid in 0..self.nprocs {
            for Recorded { slot, out } in self.attempts(heap, pid) {
                r.safety_ok &= out.bits().consistent();
                r.attempts += 1;
                r.per_pid[pid].1 += 1;
                r.steps.record(out.steps);
                if let Some(reason) = out.aborted {
                    r.aborts += 1;
                    r.abort_steps.record(out.steps);
                    r.give_up[GiveUp::from(reason).index()] += 1;
                }
                r.rescues += u64::from(out.rescued);
                r.combined_wins += u64::from(out.combined);
                r.delay_overruns += u64::from(out.delay_overrun);
                if out.combined_peers > 0 {
                    r.combine_batch.record(out.combined_peers);
                }
                if out.won {
                    r.wins += 1;
                    r.per_pid[pid].0 += 1;
                    on_win(pid, self.base_round + slot);
                }
            }
            let brk = heap.peek(self.breaks.off(self.break_idx(pid)));
            if brk != 0 {
                let idx = (brk - 1) as usize;
                assert!(idx < GiveUp::COUNT, "corrupt batch-exit word {brk}");
                r.give_up[idx] += 1;
            }
        }
        r.safety_ok &= r.rescues + r.combined_wins <= r.wins;
        r
    }
}

/// One attempt read back from the outcome book ([`Outcomes::attempts`]).
pub(crate) struct Recorded {
    /// The round index within the epoch.
    pub(crate) slot: usize,
    /// The outcome as recorded.
    pub(crate) out: AttemptMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One epoch's worth of every counter, scaled by `k` so two reports
    /// differ in every field.
    fn epoch_report(k: u64) -> HarnessReport {
        let mut r = HarnessReport::empty(3);
        r.epochs = 1;
        r.attempts = 10 * k;
        r.wins = 7 * k;
        r.aborts = 2 * k;
        r.rescues = k;
        r.combined_wins = 3 * k;
        r.delay_overruns = 4 * k;
        for (i, g) in r.give_up.iter_mut().enumerate() {
            *g = k + i as u64;
        }
        for (pid, pp) in r.per_pid.iter_mut().enumerate() {
            *pp = (k + pid as u64, 2 * k + pid as u64);
        }
        for s in 0..k {
            r.steps.record(100 + s);
            r.abort_steps.record(50 + s);
            r.combine_batch.record(1 + s);
        }
        r
    }

    /// Aggregates one epoch in which process 0 recorded `words` (each
    /// `1 + bits`, as the book writes them).
    fn aggregate_words(words: &[u64]) -> HarnessReport {
        let heap = Heap::new(1 << 12);
        let book = Outcomes::create_root(&heap, 1, 8, 0);
        for (slot, &w) in words.iter().enumerate() {
            heap.poke(book.outcomes.off(slot as u32), w);
            heap.poke(book.steps.off(slot as u32), 10);
        }
        book.aggregate(&heap, |_, _| {})
    }

    #[test]
    fn inconsistent_outcome_flags_make_the_epoch_unsafe() {
        type B = AttemptOutcomeBits;
        let ok = aggregate_words(&[
            1 + B::WON,
            1 + (B::WON | B::COMBINED),
            1 + (B::WON | B::ABORTED | B::RESCUED),
            1 + (B::ABORTED | STOPPING),
            1,
        ]);
        assert!(ok.safety_ok, "every outcome an attempt can report");
        assert_eq!((ok.wins, ok.aborts, ok.rescues, ok.combined_wins), (3, 2, 1, 1));
        assert_eq!(ok.give_up[GiveUp::Stop.index()], 1, "the book's stop sample");
        assert_eq!(ok.give_up[GiveUp::Deadline.index()], 1);
        let rescued_loss = aggregate_words(&[1 + B::WON, 1 + (B::ABORTED | B::RESCUED)]);
        assert!(!rescued_loss.safety_ok, "RESCUED without WON");
        let both = aggregate_words(&[1 + (B::WON | B::ABORTED | B::RESCUED | B::COMBINED)]);
        assert!(!both.safety_ok, "RESCUED with COMBINED");
        let combined_loss = aggregate_words(&[1 + B::COMBINED]);
        assert!(!combined_loss.safety_ok, "COMBINED without WON");
    }

    #[test]
    fn merge_sums_every_counter_and_ands_safety() {
        let (a, b) = (epoch_report(2), epoch_report(5));
        let mut run = HarnessReport::empty(3);
        run.merge(&a, true);
        run.merge(&b, true);
        assert_eq!(run.attempts, a.attempts + b.attempts);
        assert_eq!(run.wins, a.wins + b.wins);
        assert_eq!(run.aborts, a.aborts + b.aborts);
        assert_eq!(run.rescues, a.rescues + b.rescues);
        assert_eq!(run.combined_wins, a.combined_wins + b.combined_wins);
        assert_eq!(run.delay_overruns, a.delay_overruns + b.delay_overruns);
        for i in 0..GiveUp::COUNT {
            assert_eq!(run.give_up[i], a.give_up[i] + b.give_up[i], "give_up[{i}]");
        }
        for pid in 0..3 {
            let (pa, pb) = (a.per_pid[pid], b.per_pid[pid]);
            assert_eq!(run.per_pid[pid], (pa.0 + pb.0, pa.1 + pb.1), "per_pid[{pid}]");
        }
        assert_eq!(run.steps.count(), a.steps.count() + b.steps.count());
        assert_eq!(run.abort_steps.count(), a.abort_steps.count() + b.abort_steps.count());
        assert_eq!(run.combine_batch.count(), a.combine_batch.count() + b.combine_batch.count());
        assert_eq!(run.epochs, 2);
        assert!(run.safety_ok, "true AND true");
        assert_eq!(run.success().successes, run.wins);
        assert_eq!(run.success().trials, run.attempts);

        // safety_ok is the AND of both inputs: an unsafe epoch, whether
        // flagged by the caller or carried in the epoch report, poisons
        // the run.
        let mut flagged = HarnessReport::empty(3);
        flagged.merge(&a, true);
        flagged.merge(&b, false);
        assert!(!flagged.safety_ok, "true AND false");
        let mut carried = HarnessReport::empty(3);
        carried.merge(&a, true);
        carried.merge(&HarnessReport { safety_ok: false, ..b.clone() }, true);
        assert!(!carried.safety_ok, "an unsafe epoch report stays unsafe");
    }
}
