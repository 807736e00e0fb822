//! The adaptive player adversary vs the delay mechanism (§2, §6.1) — on
//! **both execution backends**.
//!
//! An adaptive adversary watches a victim process and floods competitor
//! attempts while the victim sits in its pre-reveal window, trying to
//! stack strong competitors against it. The paper's claim (Theorem 6.9):
//! the victim's per-attempt success probability still cannot be pushed
//! below `1/C_p` — the helping phase clears pre-revealed competitors and
//! the fixed delays make the victim's reveal time independent of anything
//! the adversary observes.
//!
//! Part 1 runs the deterministic simulator: an omniscient controller
//! ([`TargetedStarter`]) reads the quiesced heap between steps and feeds
//! competitor commands into mailboxes. Part 2 runs the same strategy on
//! **real threads** via `fairness::run_adversary`: competitor OS threads
//! observe the victim's published attempt state (its probe cell) and
//! launch attempts themselves, with the identical `flood_decision`.
//!
//! Run with: `cargo run --release --example adversary_demo`

use std::time::Duration;
use wait_free_locks::baselines::WflKnown;
use wait_free_locks::fairness::{run_adversary, AdvStrength, AdversarySpec};
use wait_free_locks::workloads::harness::{AlgoKind, ExecMode};
use wait_free_locks::workloads::player::{run_commanded, TargetedStarter};
use wait_free_locks::{cell, Heap, IdemRun, LockConfig, LockId, LockSpace, Registry, RoundRobin, Thunk};

struct Touch;
impl Thunk for Touch {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = wait_free_locks::Addr::from_word(run.arg(0));
        let v = run.read(c);
        run.write(c, v + 1);
    }
    fn max_ops(&self) -> usize {
        2
    }
}

fn sim_part() {
    let nprocs = 3; // victim + 2 competitors

    let mut registry = Registry::new();
    let touch = registry.register(Touch);
    let heap = Heap::new(1 << 24);
    let space = LockSpace::create_root(&heap, 1, nprocs);
    let counter = heap.alloc_root(1);
    let cfg = LockConfig::new(nprocs, 1, 2);
    let algo = WflKnown { space: &space, registry: &registry, cfg };

    // The victim publishes its in-flight attempt through the probe cell —
    // the adversary's window into its state.
    let (_, outcomes) = run_commanded(&heap, nprocs, 60, true, false, &algo, touch, |sim, probe| {
        sim.schedule(RoundRobin::new(nprocs))
            .controller(TargetedStarter {
                victim: 0,
                competitors: vec![1, 2],
                locks: vec![LockId(0)],
                args: vec![counter.to_word()],
                victim_period: 400,
                victim_desc_cell: probe.expect("the victim has a probe cell"),
                strength: AdvStrength::Targeted,
                issued: 0,
            })
            .max_steps(40_000_000)
    });

    println!("process | role       | wins / attempts | success rate");
    let mut total_wins = 0u64;
    for (pid, outs) in outcomes.iter().enumerate() {
        let role = if pid == 0 { "victim" } else { "competitor" };
        let (wins, total) = (outs.iter().filter(|o| o.won).count() as u64, outs.len() as u64);
        let rate = if total > 0 { wins as f64 / total as f64 } else { 0.0 };
        println!("{pid:>7} | {role:<10} | {wins:>4} / {total:<8} | {rate:.3}");
        total_wins += wins;
    }
    println!();
    println!("counter = {} (sanity: equals total wins)", cell::value(heap.peek(counter)));
    assert_eq!(cell::value(heap.peek(counter)) as u64, total_wins);
}

fn real_part() {
    let nprocs = 3;
    let mut spec = AdversarySpec::new(nprocs, 64);
    // Saturation pressure: on oversubscribed hardware the targeted window
    // is often narrower than a scheduler timeslice, so the demo uses the
    // maximal-contention strength (E15 sweeps all of them).
    spec.strength = AdvStrength::Flood;
    spec.victim_period = 400;
    let mode = ExecMode::real_timed(Duration::from_millis(100)).with_epoch_rounds(64);
    let algo = AlgoKind::wfl(nprocs);
    let report = run_adversary(&spec, algo, &mode);
    assert!(report.run.safety_ok, "counter safety violated");

    println!("process | role       | wins / attempts | success rate | max stretch");
    for (pid, t) in report.per_proc.iter().enumerate() {
        let role = if pid == 0 { "victim" } else { "competitor" };
        println!(
            "{pid:>7} | {role:<10} | {:>6} / {:<8} | {:.3}        | {}",
            t.wins, t.attempts, t.rate(), t.max_stretch
        );
    }
    let v = report.victim_success();
    println!();
    println!(
        "victim success {:.3} (99% lb {:.3}) vs bound 1/(kL) = {:.3}; jain index {:.3}; \
         {} epochs in the wall budget",
        v.rate(),
        v.wilson_lower(2.58),
        1.0 / nprocs as f64,
        report.jain_rates(),
        report.run.epochs
    );
}

fn main() {
    println!("== simulator: commanded player loops under the omniscient controller ==");
    sim_part();
    println!();
    println!("== real threads: observer competitors over the epoch lifecycle ==");
    real_part();
    println!();
    println!("fairness bound for the victim: 1/(kappa*L) with the adversary's worst-case");
    println!("contention — on both backends the victim's rate sits well above it.");
}
