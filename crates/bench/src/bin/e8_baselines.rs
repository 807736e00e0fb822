//! E8 — §3 comparison: the paper's algorithm vs lock-free locks (TSP /
//! Barnes style), blocking two-phase locking, and a no-helping tryLock.
//!
//! Two tables:
//!
//! 1. **Contended throughput** (random-conflict workload): wins, success
//!    rate, mean and max steps per attempt. Baselines that cannot fail
//!    "win" every attempt but pay unbounded per-attempt step tails; the
//!    paper's algorithm has bounded attempts that may fail.
//! 2. **Crash robustness** (philosophers with a crashed philosopher):
//!    whether the others keep eating, and whether any process ends up
//!    blocked forever (poisoned by the simulator) — the qualitative win
//!    of wait-freedom.

use wfl_bench::{fmt_success, header, row};
use wfl_baselines::{BlockingTpl, LockAlgo, NaiveTryLock, TspLock, WflKnown};
use wfl_core::{LockConfig, LockSpace};
use wfl_idem::{Registry, TagSource};
use wfl_runtime::schedule::{RoundRobin, StallWindow, Stalls};
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Ctx, Heap};
use wfl_workloads::harness::{run_random_conflict, AlgoKind, ExecMode, SchedKind, SimSpec};
use wfl_workloads::philosophers::Table;

fn throughput_table() {
    println!("## E8a: contended random-conflict workload (4 procs, 3 locks, L=2)");
    header(&["algo", "wins/attempts", "success (99% lb)", "mean steps", "p99 steps", "max steps"]);
    for (name, algo) in [
        ("wfl", AlgoKind::wfl(4)),
        ("wfl-unknown", AlgoKind::WflUnknown),
        ("tsp", AlgoKind::Tsp),
        ("blocking", AlgoKind::Blocking),
        ("naive", AlgoKind::Naive),
    ] {
        let mut spec = SimSpec::new(4, 80, 3, 2);
        spec.seed = 77;
        spec.heap_words = 1 << 25;
        let r = run_random_conflict(&spec, algo, &ExecMode::sim(SchedKind::Bursty(30), 2_000_000_000));
        assert!(r.safety_ok, "{name}: safety violated");
        row(&[
            name.to_string(),
            format!("{}/{}", r.wins, r.attempts),
            fmt_success(&r.success()),
            format!("{:.0}", r.steps.mean()),
            r.steps.percentile(0.99).to_string(),
            r.steps.max().to_string(),
        ]);
    }
    println!();
}

/// Philosophers with philosopher 0 crashed mid-run: who keeps eating?
fn crash_table() {
    println!("## E8b: crash robustness (4 philosophers, philosopher 0 crashes at t=3000)");
    header(&["algo", "meals by survivors", "processes blocked forever", "survivors starved"]);
    for name in ["wfl", "tsp", "blocking", "naive"] {
        let n = 4;
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 25);
        let table = Table::create_root(&heap, &mut registry, n);
        let space = LockSpace::create_root(&heap, n, 2);
        let wfl = WflKnown { space: &space, registry: &registry, cfg: LockConfig::new(2, 2, 2) };
        let blocking = BlockingTpl::create_root(&heap, &registry, n);
        let naive = NaiveTryLock::create_root(&heap, &registry, n);
        let tsp = TspLock::create_root(&heap, &registry, n);
        let algo: &dyn LockAlgo = match name {
            "wfl" => &wfl,
            "tsp" => &tsp,
            "blocking" => &blocking,
            _ => &naive,
        };
        let table_ref = &table;
        let report = SimBuilder::new(&heap, n)
            .schedule(Stalls::new(RoundRobin::new(n), vec![StallWindow::crash(0, 3000)]))
            .max_steps(50_000_000)
            .drain_cap(5_000_000)
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = wfl_core::Scratch::new();
                    let rounds = if pid == 0 { 1000 } else { 15 };
                    for _ in 0..rounds {
                        if ctx.stop_requested() {
                            break;
                        }
                        table_ref.attempt_eat(ctx, algo, &mut tags, &mut scratch, pid);
                    }
                }
            })
            .run();
        let survivor_meals: u64 = (1..n).map(|i| table.meals_eaten(&heap, i) as u64).sum();
        let starved = (1..n).filter(|&i| table.meals_eaten(&heap, i) == 0).count();
        row(&[
            name.to_string(),
            survivor_meals.to_string(),
            format!("{:?}", report.poisoned),
            starved.to_string(),
        ]);
    }
    println!();
    println!("expected shape: wfl and tsp keep all survivors eating with no one");
    println!("blocked; blocking wedges spinners on the crashed holder's lock until");
    println!("the drain's stop flag bails them out with failed attempts (so their");
    println!("meals stall even though nothing is poisoned); naive leaves locks");
    println!("stuck so neighbors of the crash starve.");
}

fn main() {
    println!("# E8: baseline comparison");
    throughput_table();
    crash_table();
}
