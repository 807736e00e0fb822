//! E7 — §2/§6.1: fairness holds against an adaptive player adversary and
//! adversarial oblivious schedules.
//!
//! A victim process attempts on a fixed cadence; an omniscient controller
//! (full heap visibility, including everyone's priorities) floods
//! competitor attempts whenever the victim is in its pending phase. The
//! victim's measured success rate is compared against `1/C_p` with the
//! worst-case contention the adversary can create (κ = nprocs, L = 1).
//! The binary exits nonzero if any row misses the bound.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_core::LockId;
use wfl_idem::{IdemRun, Registry, Thunk};
use wfl_runtime::schedule::RoundRobin;
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, Heap};
use wfl_baselines::WflKnown;
use wfl_core::{LockConfig, LockSpace};
use wfl_workloads::player::{run_commanded, AdvStrength, TargetedStarter};

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

fn victim_rate(ncompetitors: usize, delays: bool) -> (Bernoulli, bool) {
    let nprocs = 1 + ncompetitors;
    let mut registry = Registry::new();
    let touch = registry.register(Touch);
    let heap = Heap::new(1 << 25);
    let space = LockSpace::create_root(&heap, 1, nprocs);
    let counter = heap.alloc_root(1);
    let mut cfg = LockConfig::new(nprocs, 1, 2);
    cfg.delays = delays;
    let algo = WflKnown { space: &space, registry: &registry, cfg };
    // The victim publishes its in-flight attempt through the probe cell —
    // this is what the adversary watches.
    let (_, outcomes) = run_commanded(&heap, nprocs, 80, true, false, &algo, touch, |sim, probe| {
        sim.schedule(RoundRobin::new(nprocs))
            .controller(TargetedStarter {
                victim: 0,
                competitors: (1..nprocs).collect(),
                locks: vec![LockId(0)],
                args: vec![counter.to_word()],
                victim_period: 600,
                victim_desc_cell: probe.expect("the victim has a probe cell"),
                strength: AdvStrength::Targeted,
                issued: 0,
            })
            .max_steps(300_000_000)
    });
    let mut b = Bernoulli::default();
    outcomes[0].iter().for_each(|out| b.record(out.won));
    let total_wins = outcomes.iter().flatten().filter(|out| out.won).count() as u64;
    let safety = wfl_idem::cell::value(heap.peek(counter)) as u64 == total_wins;
    (b, safety)
}

fn main() {
    println!("# E7: victim success under an adaptive player adversary (delays ON)");
    header(&["competitors", "victim attempts", "victim rate (99% lb)", "bound 1/(k*L)", "held"]);
    let mut all_ok = true;
    for &nc in &[1usize, 2, 3] {
        let (rate, safety) = victim_rate(nc, true);
        assert!(safety, "counter safety violated");
        let bound = 1.0 / (nc + 1) as f64;
        let ok = rate.wilson_lower(2.58) >= bound;
        all_ok &= ok;
        row(&[
            nc.to_string(),
            rate.trials.to_string(),
            fmt_success(&rate),
            format!("{bound:.3}"),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("Theorem 6.9 under the adaptive adversary: {}", verdict(all_ok));
    assert!(all_ok, "the victim's success rate fell below the Theorem 6.9 bound");
}
