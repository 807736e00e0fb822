//! E11 — ablation of the fixed delays (§6 "Delays").
//!
//! The delays make a descriptor's reveal time a fixed function of its
//! start time, denying the adaptive player adversary any
//! priority-dependent timing. This experiment runs the E7 adversary
//! against the victim with delays ON and OFF: with delays the victim's
//! rate respects the `1/C_p` bound; without them the adversary can skew
//! the field (the paper's motivation for paying the delay cost). The
//! binary exits nonzero if the delays-on row misses the bound.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_baselines::WflKnown;
use wfl_core::{LockConfig, LockId, LockSpace};
use wfl_idem::{IdemRun, Registry, TagSource, Thunk};
use wfl_runtime::schedule::RoundRobin;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, Ctx, Heap};
use wfl_workloads::player::{player_result, run_player_loop, AdvStrength, TargetedStarter};

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

fn victim_rate(delays: bool, seed_period: u64) -> Bernoulli {
    let nprocs = 3;
    let attempts = 70u64;
    let mut registry = Registry::new();
    let touch = registry.register(Touch);
    let heap = Heap::new(1 << 25);
    let space = LockSpace::create_root(&heap, 1, nprocs);
    let counter = heap.alloc_root(1);
    let results = heap.alloc_root(attempts as usize * nprocs);
    let victim_desc_cell = heap.alloc_root(1);
    let mut cfg = LockConfig::new(nprocs, 1, 2);
    cfg.delays = delays;
    let algo = WflKnown { space: &space, registry: &registry, cfg };
    let adversary = TargetedStarter {
        victim: 0,
        competitors: (1..nprocs).collect(),
        locks: vec![LockId(0)],
        args: vec![counter.to_word()],
        victim_period: seed_period,
        victim_desc_cell,
        strength: AdvStrength::Targeted,
        issued: 0,
    };
    let algo_ref = &algo;
    let report = SimBuilder::new(&heap, nprocs)
        .schedule(RoundRobin::new(nprocs))
        .controller(adversary)
        .max_steps(300_000_000)
        .spawn_all(|pid| {
            move |ctx: &Ctx| {
                let mut tags = TagSource::new(pid);
                let mut scratch = wfl_core::Scratch::new();
                if pid == 0 {
                    scratch.probe = Some(victim_desc_cell);
                }
                let my_results = results.off((pid as u64 * attempts) as u32);
                run_player_loop(ctx, algo_ref, &mut tags, &mut scratch, touch, my_results, None, attempts);
            }
        })
        .run();
    report.assert_clean();
    let mut b = Bernoulli::default();
    for i in 0..attempts as usize {
        let Some(out) = player_result(&heap, results, i) else { break };
        b.record(out.won());
    }
    b
}

fn main() {
    println!("# E11: delay ablation under the adaptive adversary (2 competitors)");
    header(&["delays", "victim attempts", "victim rate (99% lb)", "bound 1/3", "held"]);
    let mut delays_on_ok = false;
    for delays in [true, false] {
        let b = victim_rate(delays, 600);
        let ok = b.wilson_lower(2.58) >= 1.0 / 3.0;
        delays_on_ok |= delays && ok;
        row(&[
            if delays { "on".into() } else { "off".to_string() },
            b.trials.to_string(),
            fmt_success(&b),
            "0.333".to_string(),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("expected shape: with delays the bound holds; without them the");
    println!("adversary's timing games can push the victim's rate down (safety");
    println!("still holds either way — only fairness is at stake).");
    assert!(delays_on_ok, "with delays on, the victim's rate fell below the Theorem 6.9 bound");
}
