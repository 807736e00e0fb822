//! E12 — ablation of the pre-insert helping phase (§2).
//!
//! Before revealing, an attempt runs every already-revealed competitor to
//! completion, so nobody whose priority the adversary already knows can
//! compete against it. Without that phase, an adversary that starts the
//! victim exactly when a *known-strong* competitor is active wins those
//! comparisons disproportionately. This experiment uses an omniscient
//! controller that reads the competitor's revealed priority from the heap
//! and starts the victim only when the competitor's priority is in the
//! top half — with helping the victim clears it first; without, the
//! victim's success rate collapses below the fair bound.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_baselines::WflKnown;
use wfl_core::{Desc, LockConfig, LockId, LockSpace};
use wfl_idem::{IdemRun, Registry, Thunk};
use wfl_runtime::schedule::RoundRobin;
use wfl_runtime::sim::{Controller, Mailboxes};
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, Heap};
use wfl_workloads::player::{encode_attempt, run_commanded};

struct Touch;
impl Thunk for Touch {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = Addr::from_word(run.arg(0));
        let v = run.read(c);
        run.write(c, v + 1);
    }
    fn max_ops(&self) -> usize {
        2
    }
}

/// Starts the victim only when some revealed competitor descriptor on the
/// lock has a priority in the top half of the random range — timing the
/// victim into known-strong fields (possible only for an adversary that
/// can read priorities, i.e. the model's adaptive player).
struct StartWhenStrong {
    set_peek: wfl_activeset::ActiveSet,
    locks: Vec<LockId>,
    args: Vec<u64>,
    victim: usize,
    competitor: usize,
    next_competitor_at: u64,
}

impl Controller for StartWhenStrong {
    fn on_step(&mut self, t: u64, heap: &Heap, mail: &Mailboxes<'_>) {
        // Keep the competitor attempting continuously.
        if t >= self.next_competitor_at && mail.queued(self.competitor) == 0 {
            mail.send(self.competitor, encode_attempt(&self.locks, &self.args));
            self.next_competitor_at = t + 50;
        }
        // Start the victim when a revealed strong competitor is present.
        if mail.queued(self.victim) == 0 {
            let strong = self
                .set_peek
                .peek_owners(heap)
                .into_iter()
                .any(|item| {
                    let d = Desc(Addr::from_word(item));
                    let prio = heap.peek(d.prio_addr());
                    // Revealed and in the top half of the 41 random bits.
                    prio > 1 && ((prio >> 62) & 1) == 1
                });
            if strong {
                mail.send(self.victim, encode_attempt(&self.locks, &self.args));
            }
        }
    }
}

fn victim_rate(helping: bool) -> Bernoulli {
    let nprocs = 2;
    let mut registry = Registry::new();
    let touch = registry.register(Touch);
    let heap = Heap::new(1 << 25);
    let space = LockSpace::create_root(&heap, 1, nprocs);
    let counter = heap.alloc_root(1);
    let mut cfg = LockConfig::new(nprocs, 1, 2);
    cfg.helping = helping;
    // Delays off isolates the helping mechanism (and keeps the victim's
    // pending window short, which favors the adversary).
    cfg.delays = false;
    let algo = WflKnown { space: &space, registry: &registry, cfg };
    let controller = StartWhenStrong {
        set_peek: *space.set(LockId(0)),
        locks: vec![LockId(0)],
        args: vec![counter.to_word()],
        victim: 0,
        competitor: 1,
        next_competitor_at: 0,
    };
    let (_, outcomes) = run_commanded(&heap, nprocs, 70, false, false, &algo, touch, |sim, _| {
        sim.schedule(RoundRobin::new(nprocs)).controller(controller).max_steps(100_000_000)
    });
    let mut b = Bernoulli::default();
    outcomes[0].iter().for_each(|out| b.record(out.won));
    b
}

fn main() {
    println!("# E12: helping-phase ablation against a priority-reading adversary");
    header(&["helping", "victim attempts", "victim rate (99% lb)", "fair bound 1/2", "held"]);
    for helping in [true, false] {
        let b = victim_rate(helping);
        let ok = b.wilson_lower(2.58) >= 0.5;
        row(&[
            if helping { "on".into() } else { "off".to_string() },
            b.trials.to_string(),
            fmt_success(&b),
            "0.500".to_string(),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("expected shape: with the helping phase the victim first completes");
    println!("the known-strong competitor and stays near/above the fair bound;");
    println!("without it, the adversary times the victim into losing comparisons.");
}
