//! The deterministic asynchronous-shared-memory simulator.
//!
//! [`SimBuilder`] executes a set of process bodies under an oblivious
//! [`Schedule`], granting shared-memory steps one at a time.
//! Executions are bit-for-bit reproducible given the same (schedule,
//! workload) seeds, which makes adversarial executions replayable and lets
//! property tests shrink failing interleavings.
//!
//! # Phases
//!
//! 1. **Scheduled phase**: steps are granted according to the schedule until
//!    either all processes finish or `max_steps` slots have elapsed.
//! 2. **Drain phase**: if processes remain, the driver sets the cooperative
//!    stop flag and round-robins grants so that processes can finish their
//!    current bounded attempt and observe the flag. For wait-free algorithms
//!    this always terminates quickly; a drain that exceeds its cap is
//!    evidence of unbounded blocking (e.g. a baseline spinning on a crashed
//!    lock holder), which the simulator resolves by *poisoning* the stuck
//!    processes — they unwind and are reported in
//!    [`SimReport::poisoned`] rather than hanging the host.
//!
//! # The player adversary
//!
//! A [`Controller`] is invoked after every granted step with read access to
//! the quiesced heap — it sees the full history, exactly the paper's
//! *adaptive player adversary* — and communicates with processes through
//! per-process mailboxes, polled by processes as gated steps.

use crate::ctx::{ClockMode, Command, Ctx, Mailbox, OrderTier};
use crate::gate::{Gate, GrantOutcome, PoisonToken};
use crate::heap::Heap;
use crate::history::{Event, History};
use crate::schedule::Schedule;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64};

/// Handle for sending commands to processes, passed to the [`Controller`].
pub struct Mailboxes<'a> {
    boxes: &'a [Mailbox],
}

impl Mailboxes<'_> {
    /// Enqueues a command for process `pid`.
    pub fn send(&self, pid: usize, cmd: Command) {
        self.boxes[pid].lock().push_back(cmd);
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether there are no processes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Number of commands currently queued for `pid` (not yet polled).
    pub fn queued(&self, pid: usize) -> usize {
        self.boxes[pid].lock().len()
    }
}

/// The adaptive player adversary hook: observes the quiesced heap after
/// every step and may feed commands to processes.
pub trait Controller: Send {
    /// Called after the step at time `t` completes. `heap` is quiescent (no
    /// operation in flight).
    fn on_step(&mut self, t: u64, heap: &Heap, mail: &Mailboxes<'_>);
}

/// A controller that does nothing (pure workload-driven runs).
#[derive(Debug, Default, Clone)]
pub struct NoController;

impl Controller for NoController {
    fn on_step(&mut self, _t: u64, _heap: &Heap, _mail: &Mailboxes<'_>) {}
}

/// Result of a simulated execution.
#[derive(Debug)]
pub struct SimReport {
    /// True if every process finished within the scheduled phase.
    pub completed: bool,
    /// Steps actually granted and executed in the scheduled phase.
    pub granted: u64,
    /// Schedule slots wasted (process finished, stalled, or `None` slots).
    pub wasted: u64,
    /// Steps granted during the drain phase.
    pub drain_steps: u64,
    /// Per-process own-step counts.
    pub steps: Vec<u64>,
    /// Processes that had to be poisoned because they did not terminate
    /// within the drain cap (evidence of unbounded blocking).
    pub poisoned: Vec<usize>,
    /// Genuine panics caught in process bodies: `(pid, message)`.
    pub panics: Vec<(usize, String)>,
    /// The recorded history (all processes' events merged).
    pub history: History,
}

impl SimReport {
    /// Asserts the run was clean: no poisoned processes, no panics.
    ///
    /// # Panics
    /// Panics with diagnostics if any process was poisoned or panicked.
    pub fn assert_clean(&self) {
        assert!(
            self.poisoned.is_empty(),
            "processes failed to terminate (wait-freedom violation?): {:?}",
            self.poisoned
        );
        assert!(self.panics.is_empty(), "process panics: {:?}", self.panics);
    }
}

type Body<'a> = Box<dyn FnOnce(&Ctx<'_>) + Send + 'a>;

/// Builder for a simulated execution.
pub struct SimBuilder<'h, 'a> {
    heap: &'h Heap,
    nprocs: usize,
    seed: u64,
    schedule: Box<dyn Schedule + 'a>,
    controller: Box<dyn Controller + 'a>,
    max_steps: u64,
    drain_cap: u64,
    bodies: Vec<Body<'a>>,
}

impl<'h: 'a, 'a> SimBuilder<'h, 'a> {
    /// Starts building a simulation of `nprocs` processes over `heap`.
    pub fn new(heap: &'h Heap, nprocs: usize) -> SimBuilder<'h, 'a> {
        assert!(nprocs > 0);
        SimBuilder {
            heap,
            nprocs,
            seed: 0,
            schedule: Box::new(crate::schedule::RoundRobin::new(nprocs)),
            controller: Box::new(NoController),
            max_steps: 1_000_000,
            drain_cap: 50_000_000,
            bodies: Vec::new(),
        }
    }

    /// Sets the workload seed (drives per-process RNG streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the oblivious schedule (default: round-robin).
    pub fn schedule(mut self, s: impl Schedule + 'a) -> Self {
        self.schedule = Box::new(s);
        self
    }

    /// Sets the oblivious schedule from a boxed trait object (for callers
    /// that choose the schedule family at run time).
    pub fn schedule_box(mut self, s: Box<dyn Schedule + 'a>) -> Self {
        self.schedule = s;
        self
    }

    /// Sets the player-adversary controller (default: none).
    pub fn controller(mut self, c: impl Controller + 'a) -> Self {
        self.controller = Box::new(c);
        self
    }

    /// Sets the scheduled-phase length in schedule slots (default 10^6).
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Sets the drain-phase cap in grants (default 5*10^7).
    pub fn drain_cap(mut self, n: u64) -> Self {
        self.drain_cap = n;
        self
    }

    /// Adds one process body (processes get pids in insertion order).
    pub fn spawn(mut self, body: impl FnOnce(&Ctx<'_>) + Send + 'a) -> Self {
        assert!(self.bodies.len() < self.nprocs, "more bodies than processes");
        self.bodies.push(Box::new(body));
        self
    }

    /// Adds a body for every process, built from its pid.
    pub fn spawn_all<F, G>(mut self, mut make: F) -> Self
    where
        F: FnMut(usize) -> G,
        G: FnOnce(&Ctx<'_>) + Send + 'a,
    {
        while self.bodies.len() < self.nprocs {
            let pid = self.bodies.len();
            self.bodies.push(Box::new(make(pid)));
        }
        self
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    /// Panics if fewer bodies than processes were provided.
    pub fn run(self) -> SimReport {
        assert_eq!(self.bodies.len(), self.nprocs, "every process needs a body");
        let SimBuilder { heap, nprocs, seed, mut schedule, mut controller, max_steps, drain_cap, bodies } =
            self;

        let gates: Vec<Gate> = (0..nprocs).map(|_| Gate::new()).collect();
        let mailboxes: Vec<Mailbox> = (0..nprocs).map(|_| Mutex::new(VecDeque::new())).collect();
        let clock = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let step_counts: Vec<Mutex<u64>> = (0..nprocs).map(|_| Mutex::new(0)).collect();
        let event_slots: Vec<Mutex<Vec<Event>>> = (0..nprocs).map(|_| Mutex::new(Vec::new())).collect();
        let panic_slots: Vec<Mutex<Option<String>>> = (0..nprocs).map(|_| Mutex::new(None)).collect();

        let mut granted = 0u64;
        let mut wasted = 0u64;
        let mut drain_steps = 0u64;
        let mut completed = false;
        let mut poisoned: Vec<usize> = Vec::new();

        std::thread::scope(|scope| {
            for (pid, body) in bodies.into_iter().enumerate() {
                let gate = &gates[pid];
                let mailbox = &mailboxes[pid];
                let clock = &clock;
                let stop = &stop;
                let steps_out = &step_counts[pid];
                let events_out = &event_slots[pid];
                let panic_out = &panic_slots[pid];
                scope.spawn(move || {
                    // The simulator always runs Precise + SeqCst: its gate
                    // serializes steps anyway, and keeping the strongest
                    // tier means determinism and histories are untouched by
                    // the real driver's hot-path configuration.
                    let ctx = Ctx::new(
                        heap,
                        pid,
                        nprocs,
                        seed,
                        Some(gate),
                        clock,
                        stop,
                        None,
                        Some(mailbox),
                        ClockMode::Precise,
                        OrderTier::SeqCst,
                    );
                    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                    *steps_out.lock() = ctx.steps();
                    *events_out.lock() = ctx.take_events();
                    if let Err(payload) = result {
                        if !payload.is::<PoisonToken>() {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .or_else(|| {
                                    payload
                                        .downcast_ref::<crate::heap::HeapExhausted>()
                                        .map(|e| e.to_string())
                                })
                                .unwrap_or_else(|| "non-string panic".to_string());
                            *panic_out.lock() = Some(msg);
                        }
                    }
                    gate.finish();
                });
            }

            // --- scheduled phase ---
            let mail = Mailboxes { boxes: &mailboxes };
            let all_done = |gates: &[Gate]| gates.iter().all(|g| g.is_done());
            let mut t = 0u64;
            while t < max_steps {
                if all_done(&gates) {
                    completed = true;
                    break;
                }
                match schedule.next(t) {
                    Some(pid) if pid < nprocs => match gates[pid].grant(t) {
                        GrantOutcome::Stepped => granted += 1,
                        GrantOutcome::WasDone => wasted += 1,
                    },
                    _ => wasted += 1,
                }
                t += 1;
                controller.on_step(t, heap, &mail);
            }
            if !completed && all_done(&gates) {
                completed = true;
            }

            // --- drain phase ---
            if !completed {
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
                let mut d = 0u64;
                while !all_done(&gates) && d < drain_cap {
                    let pid = (d % nprocs as u64) as usize;
                    if gates[pid].grant(t + d) == GrantOutcome::Stepped {
                        drain_steps += 1;
                    }
                    d += 1;
                }
                if !all_done(&gates) {
                    for (pid, gate) in gates.iter().enumerate() {
                        if !gate.is_done() {
                            poisoned.push(pid);
                            gate.poison_flag();
                        }
                    }
                }
            }
        });

        let steps: Vec<u64> = step_counts.iter().map(|m| *m.lock()).collect();
        let events: Vec<Vec<Event>> = event_slots.iter().map(|m| std::mem::take(&mut *m.lock())).collect();
        let panics: Vec<(usize, String)> = panic_slots
            .iter()
            .enumerate()
            .filter_map(|(pid, m)| m.lock().take().map(|msg| (pid, msg)))
            .collect();

        SimReport {
            completed,
            granted,
            wasted,
            drain_steps,
            steps,
            poisoned,
            panics,
            history: History::from_parts(events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FromSeq, RoundRobin, SeededRandom, StallWindow, Stalls};

    #[test]
    fn counter_increments_sum_correctly() {
        let heap = Heap::new(1 << 10);
        let counter = heap.alloc_root(1);
        let report = SimBuilder::new(&heap, 4)
            .schedule(SeededRandom::new(4, 99))
            .max_steps(1_000_000)
            .spawn_all(|_pid| {
                move |ctx: &Ctx| {
                    for _ in 0..50 {
                        loop {
                            let v = ctx.read(counter);
                            if ctx.cas_bool(counter, v, v + 1) {
                                break;
                            }
                        }
                    }
                }
            })
            .run();
        report.assert_clean();
        assert!(report.completed);
        assert_eq!(heap.peek(counter), 200);
    }

    #[test]
    fn executions_are_deterministic() {
        let run = || {
            let heap = Heap::new(1 << 12);
            let cells = heap.alloc_root(8);
            let report = SimBuilder::new(&heap, 3)
                .seed(7)
                .schedule(SeededRandom::new(3, 123))
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        for i in 0..40u64 {
                            let slot = cells.off((ctx.rand_below(8)) as u32);
                            let v = ctx.read(slot);
                            ctx.write(slot, v.wrapping_mul(31).wrapping_add(pid as u64 + i));
                        }
                    }
                })
                .run();
            report.assert_clean();
            (heap.fingerprint(), report.steps)
        };
        let (f1, s1) = run();
        let (f2, s2) = run();
        assert_eq!(f1, f2, "heap fingerprints differ between identical runs");
        assert_eq!(s1, s2, "step counts differ between identical runs");
    }

    #[test]
    fn round_robin_interleaves_exactly() {
        // Two processes each claim 3 log slots with CAS; every slot gets
        // claimed exactly once and each process gets exactly 3.
        let heap = Heap::new(64);
        let log = heap.alloc_root(6);
        let report = SimBuilder::new(&heap, 2)
            .schedule(RoundRobin::new(2))
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut claimed = 0;
                    let mut i = 0u32;
                    while claimed < 3 {
                        if ctx.cas_bool(log.off(i), 0, pid as u64 + 1) {
                            claimed += 1;
                        }
                        i += 1;
                    }
                }
            })
            .run();
        report.assert_clean();
        assert!(report.completed);
        let written: Vec<u64> = (0..6).map(|i| heap.peek(log.off(i))).collect();
        assert_eq!(written.iter().filter(|&&v| v == 1).count(), 3);
        assert_eq!(written.iter().filter(|&&v| v == 2).count(), 3);
    }

    #[test]
    fn stalled_process_gets_no_steps_but_drain_finishes_it() {
        let heap = Heap::new(64);
        let a = heap.alloc_root(2);
        let report = SimBuilder::new(&heap, 2)
            .schedule(Stalls::new(RoundRobin::new(2), vec![StallWindow::crash(1, 0)]))
            .max_steps(100)
            .spawn(move |ctx: &Ctx| ctx.write(a, 1))
            .spawn(move |ctx: &Ctx| ctx.write(a.off(1), 1))
            .run();
        report.assert_clean();
        // Process 1 ran only in the drain phase.
        assert!(report.drain_steps > 0);
        assert_eq!(heap.peek(a.off(1)), 1);
    }

    #[test]
    fn genuine_panic_is_caught_and_reported() {
        let heap = Heap::new(64);
        let report = SimBuilder::new(&heap, 2)
            .max_steps(100)
            .spawn(|ctx: &Ctx| {
                ctx.local_step();
                panic!("boom");
            })
            .spawn(|ctx: &Ctx| ctx.local_step())
            .run();
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.panics[0].0, 0);
        assert!(report.panics[0].1.contains("boom"));
    }

    #[test]
    fn nonterminating_process_is_poisoned_not_hung() {
        let heap = Heap::new(64);
        let cell = heap.alloc_root(1);
        let report = SimBuilder::new(&heap, 1)
            .max_steps(100)
            .drain_cap(1000)
            .spawn(move |ctx: &Ctx| {
                // Spin forever on a value that never arrives, ignoring stop:
                // models a blocking algorithm waiting on a crashed holder.
                while ctx.read(cell) == 0 {}
            })
            .run();
        assert_eq!(report.poisoned, vec![0]);
        assert!(report.panics.is_empty(), "poison must not look like a real panic");
    }

    #[test]
    fn controller_commands_reach_processes() {
        struct Starter;
        impl Controller for Starter {
            fn on_step(&mut self, t: u64, _heap: &Heap, mail: &Mailboxes<'_>) {
                if t == 5 {
                    mail.send(0, vec![42].into_boxed_slice());
                }
            }
        }
        let heap = Heap::new(64);
        let out = heap.alloc_root(1);
        let report = SimBuilder::new(&heap, 1)
            .schedule(RoundRobin::new(1))
            .controller(Starter)
            .max_steps(100)
            .spawn(move |ctx: &Ctx| loop {
                if let Some(cmd) = ctx.poll_mailbox() {
                    ctx.write(out, cmd[0]);
                    break;
                }
            })
            .run();
        report.assert_clean();
        assert_eq!(heap.peek(out), 42);
    }

    #[test]
    fn history_events_are_collected_across_processes() {
        let heap = Heap::new(64);
        let report = SimBuilder::new(&heap, 2)
            .schedule(FromSeq::new(vec![0, 0, 0, 1, 1, 1], true))
            .max_steps(50)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    ctx.invoke(1, pid as u64, 0);
                    ctx.local_step();
                    ctx.respond(pid as u64, vec![]);
                }
            })
            .run();
        report.assert_clean();
        assert_eq!(report.history.len(), 2);
        for e in &report.history.events {
            assert!(e.invoke < e.response);
            assert_eq!(e.result, e.pid as u64);
        }
    }
}
