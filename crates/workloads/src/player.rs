//! Player-adversary strategies: who attempts what, and when — shared by
//! **both execution backends**.
//!
//! The paper's *player adversary* is adaptive — it sees the full history
//! and decides when each process starts a tryLock and on which locks. Two
//! drivers exercise it:
//!
//! * **Simulator**: a [`wfl_runtime::sim::Controller`]
//!   ([`TargetedStarter`]) inspects the quiesced heap between steps and
//!   feeds `start` commands into process mailboxes; the process side
//!   ([`run_player_loop`]) polls its mailbox, executes the commanded
//!   attempts and records their outcomes ([`player_result`]).
//!   [`run_commanded`] wires one such run. Experiments E7/E11 use this to
//!   try to bias a victim's success probability; the delay mechanism is
//!   what defeats it.
//! * **Real threads**: the [`crate::adversary`] workload runs competitor
//!   threads that watch the victim's probe cell directly and start
//!   attempts themselves, on the harness's epoch driver.
//!
//! Both backends take the *same* adaptive decision through
//! [`flood_decision`]: the victim publishes its in-flight attempt through a
//! **probe cell** (`Scratch::probe` makes the paper's algorithms publish
//! their descriptor address; [`PROBE_OPAQUE`] marks an attempt of a
//! baseline algorithm that exposes no descriptor), and the adversary floods
//! strong contenders precisely while the victim sits in its pre-reveal
//! window. This is strictly more visibility than a real player could
//! extract — it can even read priorities — yet Theorem 6.9 says the
//! victim's per-attempt success probability still cannot be pushed below
//! `1/C_p`.

use wfl_baselines::LockAlgo;
use wfl_core::descriptor::PRIO_TBD;
use wfl_core::{AbortReason, AttemptMetrics, Desc, LockId, Scratch, TryLockRequest};
use wfl_idem::{TagSource, ThunkId};
use wfl_obs::AttemptOutcomeBits;
use wfl_runtime::sim::{Controller, Mailboxes, SimBuilder, SimReport};
use wfl_runtime::{Addr, Ctx, Heap};

/// Probe-cell sentinel: the process is inside an attempt but exposes no
/// descriptor (a baseline algorithm, or the first steps before the paper's
/// algorithms create theirs). Descriptor addresses are always `> 1`
/// (`Addr(1)` is the first *root* allocation, never an attempt record), so
/// the sentinel cannot collide with a published descriptor.
pub const PROBE_OPAQUE: u64 = 1;

/// How aggressively the adversary schedules competitor attempts against
/// the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvStrength {
    /// Non-adaptive background contention: competitors attempt on a fixed
    /// cadence, blind to the victim's state (the control cell).
    Calm,
    /// Adaptive: flood competitors only while the victim is observed in
    /// its **pre-reveal** window (descriptor published, priority not yet
    /// drawn) — the paper's targeted player strategy.
    Targeted,
    /// Saturation: competitors attempt back-to-back, unconditionally —
    /// maximal point contention on the victim's locks at all times.
    Flood,
}

impl AdvStrength {
    /// Short label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            AdvStrength::Calm => "calm",
            AdvStrength::Targeted => "targeted",
            AdvStrength::Flood => "flood",
        }
    }

    /// All strengths, weakest first.
    pub fn all() -> [AdvStrength; 3] {
        [AdvStrength::Calm, AdvStrength::Targeted, AdvStrength::Flood]
    }
}

/// The **shared adaptive decision** of the player adversary: should
/// competitors be started right now, given the victim's probe cell? Used
/// verbatim by the simulator controller ([`TargetedStarter`]) and the
/// real-threads competitors of [`crate::adversary`], so the two backends
/// run the same strategy.
///
/// [`AdvStrength::Calm`] always answers `false` here — its cadence-based
/// starts are driver-owned (the controller's clock in sim, think-loops on
/// real threads), not reactions to the victim. [`AdvStrength::Flood`]
/// always answers `true`: saturation needs no observation.
///
/// Reads are uncounted ([`Heap::peek`]): the adversary's omniscience is
/// free, exactly like the simulator controller's heap access. Racing with
/// the victim is benign — a stale window observation only mistimes a
/// competitor attempt, it cannot corrupt anything.
pub fn flood_decision(heap: &Heap, probe_cell: Addr, strength: AdvStrength) -> bool {
    match strength {
        AdvStrength::Calm => false,
        AdvStrength::Flood => true,
        AdvStrength::Targeted => {
            let w = heap.peek(probe_cell);
            if w == 0 {
                false
            } else if w == PROBE_OPAQUE {
                // No descriptor to watch: the whole attempt is the window.
                true
            } else {
                let d = Desc(Addr::from_word(w));
                heap.peek(d.prio_addr()) <= PRIO_TBD
            }
        }
    }
}

/// Command encoding: `[n, lock0.., arg_count, args..]`; an empty slice
/// means "stop".
pub fn encode_attempt(locks: &[LockId], args: &[u64]) -> Box<[u64]> {
    let mut words = Vec::with_capacity(2 + locks.len() + args.len());
    words.push(locks.len() as u64);
    words.extend(locks.iter().map(|l| l.0 as u64));
    words.push(args.len() as u64);
    words.extend_from_slice(args);
    words.into_boxed_slice()
}

/// Decodes a command produced by [`encode_attempt`].
pub fn decode_attempt(cmd: &[u64]) -> (Vec<LockId>, Vec<u64>) {
    let n = cmd[0] as usize;
    let locks: Vec<LockId> = cmd[1..1 + n].iter().map(|&w| LockId(w as u32)).collect();
    let argc = cmd[1 + n] as usize;
    let args = cmd[2 + n..2 + n + argc].to_vec();
    (locks, args)
}

/// The process side of a commanded player: polls the mailbox; on a
/// command, runs one attempt and records its outcome into
/// `results[attempt_counter]` as `1 + bits` in the shared
/// [`AttemptOutcomeBits`] layout (0 = not yet run; read back with
/// [`player_result`]), and, given `steps_out` (a region of at least
/// `max_attempts` words), its own-step cost into
/// `steps_out[attempt_counter]`. Stops when the driver raises the stop
/// flag or after `max_attempts`.
///
/// If the caller set `scratch.probe`, the loop brackets every attempt with
/// [`PROBE_OPAQUE`]/clear writes so even baseline algorithms (which never
/// publish a descriptor) are observable by the adaptive adversary.
#[allow(clippy::too_many_arguments)]
pub fn run_player_loop<A: LockAlgo + ?Sized>(
    ctx: &Ctx<'_>,
    algo: &A,
    tags: &mut TagSource,
    scratch: &mut Scratch,
    thunk: ThunkId,
    results: Addr,
    steps_out: Option<Addr>,
    max_attempts: u64,
) {
    let mut done = 0u64;
    while done < max_attempts && !ctx.stop_requested() {
        let Some(cmd) = ctx.poll_mailbox() else { continue };
        if cmd.is_empty() {
            return;
        }
        let (locks, args) = decode_attempt(&cmd);
        let req = TryLockRequest { locks: &locks, thunk, args: &args };
        if let Some(cell) = scratch.probe {
            ctx.write_rel(cell, PROBE_OPAQUE);
        }
        let out = algo.attempt(ctx, tags, scratch, &req);
        if let Some(cell) = scratch.probe {
            ctx.write_rel(cell, 0);
        }
        ctx.write(results.off(done as u32), 1 + out.bits().0);
        if let Some(steps) = steps_out {
            ctx.write(steps.off(done as u32), out.steps);
        }
        done += 1;
    }
}

/// The outcome [`run_player_loop`] recorded in `results[i]` (uncounted);
/// `None` if that attempt never ran.
pub fn player_result(heap: &Heap, results: Addr, i: usize) -> Option<AttemptOutcomeBits> {
    heap.peek(results.off(i as u32)).checked_sub(1).map(AttemptOutcomeBits)
}

/// One commanded simulator run: a [`run_player_loop`] per process on
/// `algo`, under the simulator `sim` configures. Asserts the run was clean
/// and returns its report beside each process's decoded outcomes, in
/// attempt order.
///
/// The run first allocates its heap cells, in this order: `nprocs *
/// attempts` result words, then as many step-log words if `step_log`, then
/// the victim's probe cell if `probe`. `sim` gets a fresh [`SimBuilder`]
/// and that probe cell, and sets the schedule, seed, controller and
/// budget. The victim is pid 0: it publishes every attempt through the
/// probe cell ([`Scratch::probe`]). Without a step log every outcome
/// reads 0 steps.
#[allow(clippy::too_many_arguments)]
pub fn run_commanded<'a, A: LockAlgo + ?Sized>(
    heap: &'a Heap,
    nprocs: usize,
    attempts: usize,
    probe: bool,
    step_log: bool,
    algo: &'a A,
    thunk: ThunkId,
    sim: impl FnOnce(SimBuilder<'a, 'a>, Option<Addr>) -> SimBuilder<'a, 'a>,
) -> (SimReport, Vec<Vec<AttemptMetrics>>) {
    let results = heap.alloc_root(nprocs * attempts);
    let steps = step_log.then(|| heap.alloc_root(nprocs * attempts));
    let probe = probe.then(|| heap.alloc_root(1));
    let report = sim(SimBuilder::new(heap, nprocs), probe)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = Scratch::new();
                if pid == 0 {
                    scratch.probe = probe;
                }
                let base = (pid * attempts) as u32;
                let steps_out = steps.map(|s| s.off(base));
                let (results, max) = (results.off(base), attempts as u64);
                run_player_loop(ctx, algo, &mut tags, &mut scratch, thunk, results, steps_out, max);
            }
        })
        .run();
    report.assert_clean();
    let outcomes = (0..nprocs)
        .map(|pid| {
            (pid * attempts..(pid + 1) * attempts)
                .map_while(|i| {
                    let bits = player_result(heap, results, i)?;
                    let steps = steps.map_or(0, |s| heap.peek(s.off(i as u32)));
                    // No deadline is armed, so only a stop can abort.
                    Some(AttemptMetrics::from_bits(bits, steps, AbortReason::Stop))
                })
                .collect()
        })
        .collect();
    (report, outcomes)
}

/// An adaptive player adversary that tries to make a victim lose: it
/// watches the victim's probe cell (see [`Scratch::probe`]) and starts
/// competitor attempts timed so that strong competitors are revealed
/// around the victim's attempts. The flood trigger is the shared
/// [`flood_decision`], so the same strategy runs on real threads in
/// [`crate::adversary`].
pub struct TargetedStarter {
    /// The victim process id (receives attempts periodically).
    pub victim: usize,
    /// Competitor process ids.
    pub competitors: Vec<usize>,
    /// Lock set everyone fights over.
    pub locks: Vec<LockId>,
    /// Thunk args for every attempt.
    pub args: Vec<u64>,
    /// Interval (in global steps) between victim attempt starts. Under
    /// [`AdvStrength::Calm`] the competitors also start on this cadence.
    pub victim_period: u64,
    /// The victim's probe cell: NULL when idle, [`PROBE_OPAQUE`] or the
    /// published descriptor address while the victim is mid-attempt. The
    /// victim's driver must set `Scratch::probe` to this cell.
    pub victim_desc_cell: Addr,
    /// Adversary aggressiveness (how the probe observations are used).
    pub strength: AdvStrength,
    /// How many adaptive competitor commands have been issued (state).
    pub issued: u64,
}

impl Controller for TargetedStarter {
    fn on_step(&mut self, t: u64, heap: &Heap, mail: &Mailboxes<'_>) {
        // Keep the victim attempting on a fixed cadence.
        if t.is_multiple_of(self.victim_period) && mail.queued(self.victim) == 0 {
            mail.send(self.victim, encode_attempt(&self.locks, &self.args));
        }
        // Calm control arm: blind background contention on the same cadence.
        let start_all = match self.strength {
            AdvStrength::Calm => t.is_multiple_of(self.victim_period),
            // Adaptive arms: flood exactly while the shared decision says
            // the victim is exposed.
            _ => flood_decision(heap, self.victim_desc_cell, self.strength),
        };
        if start_all {
            for &c in &self.competitors {
                if mail.queued(c) == 0 {
                    mail.send(c, encode_attempt(&self.locks, &self.args));
                    self.issued += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_runtime::Heap;

    #[test]
    fn command_roundtrip() {
        let locks = vec![LockId(3), LockId(7)];
        let args = vec![99, 100];
        let cmd = encode_attempt(&locks, &args);
        let (l2, a2) = decode_attempt(&cmd);
        assert_eq!(l2, locks);
        assert_eq!(a2, args);
    }

    #[test]
    fn empty_args_roundtrip() {
        let cmd = encode_attempt(&[LockId(0)], &[]);
        let (l, a) = decode_attempt(&cmd);
        assert_eq!(l, vec![LockId(0)]);
        assert!(a.is_empty());
    }

    #[test]
    fn flood_decision_tracks_probe_protocol() {
        let heap = Heap::new(256);
        let probe = heap.alloc_root(1);

        // Idle victim: Calm never reacts, Targeted sees no window, Flood
        // saturates unconditionally.
        assert!(!flood_decision(&heap, probe, AdvStrength::Calm));
        assert!(!flood_decision(&heap, probe, AdvStrength::Targeted));
        assert!(flood_decision(&heap, probe, AdvStrength::Flood));

        // Opaque attempt (baseline algorithm): the whole attempt is the
        // Targeted window.
        heap.poke(probe, PROBE_OPAQUE);
        assert!(!flood_decision(&heap, probe, AdvStrength::Calm));
        assert!(flood_decision(&heap, probe, AdvStrength::Targeted));

        // Published descriptor, priority unset: pre-reveal window.
        let desc = heap.alloc_root(8); // fake descriptor: status, prio, ...
        heap.poke(probe, desc.to_word());
        assert!(flood_decision(&heap, probe, AdvStrength::Targeted), "pre-reveal = window");

        // Priority revealed: Targeted backs off.
        heap.poke(Desc(desc).prio_addr(), 1 << 63);
        assert!(!flood_decision(&heap, probe, AdvStrength::Targeted), "post-reveal = no window");
    }
}
