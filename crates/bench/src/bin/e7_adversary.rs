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
use wfl_idem::{IdemRun, Registry, TagSource, Thunk};
use wfl_runtime::schedule::RoundRobin;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::stats::Bernoulli;
use wfl_runtime::{Addr, Ctx, Heap};
use wfl_baselines::WflKnown;
use wfl_core::{LockConfig, LockSpace};
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

fn victim_rate(ncompetitors: usize, delays: bool) -> (Bernoulli, bool) {
    let nprocs = 1 + ncompetitors;
    let attempts = 80u64;
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
        victim_period: 600,
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
                    // The victim publishes its in-flight attempt through
                    // the probe cell — this is what the adversary watches.
                    scratch.probe = Some(victim_desc_cell);
                }
                let my_results = results.off((pid as u64 * attempts) as u32);
                run_player_loop(ctx, algo_ref, &mut tags, &mut scratch, touch, my_results, None, attempts);
            }
        })
        .run();
    report.assert_clean();
    let mut b = Bernoulli::default();
    let mut total_wins = 0u64;
    for pid in 0..nprocs {
        for i in 0..attempts {
            let Some(out) = player_result(&heap, results, (pid as u64 * attempts + i) as usize) else {
                break;
            };
            if pid == 0 {
                b.record(out.won());
            }
            total_wins += out.won() as u64;
        }
    }
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
