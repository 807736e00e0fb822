//! E15 — fairness under the adaptive player adversary, on real hardware.
//!
//! The paper's Theorem 6.9: no adversary — even one that watches the full
//! history and times competitor starts adaptively — can push a victim's
//! per-attempt success probability below `1/C_p` (here `1/(κL)` with
//! κ = threads, L = 1: everyone fights over one lock). This binary sweeps
//! the player adversary (`wfl_workloads::adversary`) across algorithms ×
//! threads × adversary strength on the **real-threads backend** (victim
//! success rate, Jain fairness index over per-process success rates, max
//! stretch (tries spent on the worst acquisition), latency tails), plus a
//! **deterministic simulator block** where the targeted adversary creates
//! exact, reproducible contention.
//!
//! What the cells show: wfl's victim rate respects the bound everywhere;
//! the naive baseline has no such floor — under fine-grained (sim)
//! contention its fairness index collapses (some processes livelock while
//! others stream wins), and on oversubscribed hardware a competitor
//! preempted mid-hold starves the victim in whole-epoch bursts (the max
//! stretch blows up), exactly the failure the paper's helping + delay
//! mechanism removes.
//!
//! Emits `BENCH_fairness.json`. Usage: `e15_fairness [--smoke] [--trace out.json]`
//!   --trace : export a recorded deterministic targeted-adversary wfl sim
//!             cell as Chrome/Perfetto `trace_event` JSON (plus a
//!             `<path>.metrics.json` sidecar).
//!   --smoke : CI-sized cells, and the run **gates**:
//!     (a) real backend, each thread count: wfl victim success lower bound
//!         stays above the paper bound minus tolerance;
//!     (b) deterministic sim: wfl victim rate ≥ 1/nprocs while naive's
//!         Jain index sits measurably below wfl's;
//!     (c) real backend: the naive victim shows the degradation marker
//!         (a whole-epoch starvation burst or a measurable rate dip)
//!         that wfl provably cannot show;
//!     (d) no wfl cell, real or sim, has a delay overrun: an attempt that
//!         overran `T0` or `T0 + T1` voids the theorem's precondition, and
//!         with it the cell's fairness claim.
//!
//! Every row's uniform block (`attempts` … `steps_*`, `delay_overruns`,
//! `give_up`) comes from the run's outcome book; `steps_*` are per-attempt
//! own steps, as in every other BENCH file.

use std::fmt::Write as _;
use std::time::Duration;
use wfl_bench::{header, row, verdict};
use wfl_runtime::clamp_threads;
use wfl_workloads::adversary::{run_adversary, AdvStrength, AdversarySpec, FairnessReport};
use wfl_workloads::harness::{AlgoKind, ExecMode, SchedKind};

/// Victim attempts per epoch (also the whole-epoch burst size a preempted
/// naive holder inflicts on the victim).
const ROUNDS: usize = 96;
/// Victim think steps between attempts.
const PERIOD: u64 = 400;

fn algo_of(name: &str, threads: usize) -> AlgoKind {
    match name {
        "wfl" => AlgoKind::wfl(threads),
        "wfl-unknown" => AlgoKind::WflUnknown,
        "tsp" => AlgoKind::Tsp,
        _ => AlgoKind::Naive,
    }
}

struct Cell {
    report: FairnessReport,
    threads: usize,
    bound: f64,
}

impl Cell {
    fn victim_rate(&self) -> f64 {
        self.report.victim_success().rate()
    }

    fn victim_lb(&self) -> f64 {
        self.report.victim_success().wilson_lower(2.58)
    }
}

fn run_real_cell(algo: AlgoKind, threads: usize, strength: AdvStrength, budget: Duration) -> Cell {
    let mut spec = AdversarySpec::new(threads, ROUNDS);
    spec.strength = strength;
    spec.victim_period = PERIOD;
    spec.seed = 7;
    let mode = ExecMode::real_timed(budget).with_epoch_rounds(ROUNDS);
    let report = run_adversary(&spec, algo, &mode);
    assert!(
        report.run.safety_ok,
        "{}/{}t/{}: acquisition counter diverged from recorded wins",
        algo.label(),
        threads,
        strength.label()
    );
    Cell { report, threads, bound: 1.0 / threads as f64 }
}

fn run_sim_cell(algo: AlgoKind, nprocs: usize, mode: &ExecMode) -> Cell {
    let mut spec = AdversarySpec::new(nprocs, 80);
    spec.strength = AdvStrength::Targeted;
    spec.heap_words = 1 << 25;
    let report = run_adversary(&spec, algo, mode);
    assert!(report.run.safety_ok, "{}/sim: safety failed", algo.label());
    Cell { report, threads: nprocs, bound: 1.0 / nprocs as f64 }
}

#[allow(clippy::too_many_arguments)]
fn json_cell(
    rows: &mut wfl_bench::Rows,
    backend: &str,
    algo: &str,
    strength: &str,
    cell: &Cell,
) {
    let r = &cell.report;
    let v = r.victim_success();
    let vt = r.victim();
    rows.push(
        &[
            ("backend", backend.to_string()),
            ("algo", algo.to_string()),
            ("strength", strength.to_string()),
        ],
        &[
            ("threads", cell.threads.to_string()),
            ("bound", format!("{:.6}", cell.bound)),
            ("victim_rate", format!("{:.6}", v.rate())),
            ("victim_lb", format!("{:.6}", cell.victim_lb())),
            ("victim_wins", v.successes.to_string()),
            ("victim_attempts", v.trials.to_string()),
            ("jain_index", format!("{:.6}", r.jain_rates())),
            ("victim_max_stretch", vt.max_stretch.to_string()),
            ("victim_latency_p50", vt.latency.percentile(0.5).to_string()),
            ("victim_latency_p99", vt.latency.percentile(0.99).to_string()),
            ("competitor_attempts", (r.run.attempts - v.trials).to_string()),
            ("contested", (r.run.attempts > v.trials).to_string()),
        ],
        &r.run.metrics(),
    );
}

fn print_cell(algo: &str, strength: &str, cell: &Cell) {
    let r = &cell.report;
    let v = r.victim_success();
    let comp = r.run.attempts - v.trials;
    row(&[
        format!("{algo} x{}", cell.threads),
        strength.to_string(),
        // An uncontested victim proves nothing about the bound: on few
        // cores the adversary's reaction window can be narrower than a
        // scheduler timeslice, so no competitor ever fires. The marker
        // (and the JSON `contested` field) keeps such cells honest.
        if comp == 0 {
            format!("{:.3} (uncontested)", v.rate())
        } else {
            format!("{:.3} (lb {:.3})", v.rate(), cell.victim_lb())
        },
        format!("{:.3}", cell.bound),
        format!("{:.3}", r.jain_rates()),
        r.victim().max_stretch.to_string(),
        comp.to_string(),
        r.run.epochs.to_string(),
    ]);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = Duration::from_millis(if smoke { 150 } else { 200 });
    // The measurement sweep never asks the OS for more threads than the
    // hardware can co-schedule (one slot reserved for the adversary
    // controller): oversubscribed cells measure the kernel scheduler, not
    // the algorithm's fairness bound. `clamp_threads` warns when it bites.
    let thread_counts: Vec<usize> = {
        let mut v: Vec<usize> = [2usize, 4, 8]
            .iter()
            .map(|&t| clamp_threads(t, 1, "e15 adversary sweep"))
            .collect();
        v.dedup();
        v
    };
    let algos: &[&str] =
        if smoke { &["wfl", "naive"] } else { &["wfl", "wfl-unknown", "naive", "tsp"] };
    let strengths: &[AdvStrength] = if smoke {
        &[AdvStrength::Calm, AdvStrength::Flood]
    } else {
        &[AdvStrength::Calm, AdvStrength::Targeted, AdvStrength::Flood]
    };

    println!("# E15: fairness under the adaptive player adversary (smoke = {smoke})");
    println!(
        "(victim attempts in epochs of {ROUNDS}, think {PERIOD}; every cell is also a \
         mutual-exclusion check)"
    );
    println!();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"e15_fairness\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"bound_model\": \"1/(kappa*L), kappa = threads, L = 1\",");
    let _ = writeln!(json, "  \"rounds_per_epoch\": {ROUNDS},");
    let mut rows = wfl_bench::Rows::new();

    // --- real backend: algorithms x threads x strength ---
    println!("## real threads");
    header(&[
        "cell", "adversary", "victim rate", "bound 1/(kL)", "jain", "max stretch",
        "comp attempts", "epochs",
    ]);
    let mut wfl_bound_ok = true;
    // Gate (d): total delay overruns over every wfl cell, real and sim.
    let mut wfl_overruns = 0u64;
    for &threads in &thread_counts {
        for &algo_name in algos {
            for &strength in strengths {
                let cell = run_real_cell(algo_of(algo_name, threads), threads, strength, budget);
                print_cell(algo_name, strength.label(), &cell);
                // Gate (a): the theorem bound, with a 40% tolerance for
                // hardware noise (the guarantee is a floor, not a target).
                if algo_name == "wfl" {
                    wfl_bound_ok &= cell.victim_lb() >= cell.bound * 0.6;
                    wfl_overruns += cell.report.run.delay_overruns;
                }
                json_cell(&mut rows, "real", algo_name, strength.label(), &cell);
            }
        }
    }
    println!();

    // --- deterministic simulator block: exact, reproducible contention ---
    println!("## simulator (deterministic targeted adversary, 4 processes)");
    header(&[
        "cell", "adversary", "victim rate", "bound 1/(kL)", "jain", "max stretch",
        "comp attempts", "epochs",
    ]);
    let sim_mode = ExecMode::sim(SchedKind::RoundRobin, 300_000_000);
    let sim_wfl = run_sim_cell(algo_of("wfl", 4), 4, &sim_mode);
    let sim_naive = run_sim_cell(algo_of("naive", 4), 4, &sim_mode);
    wfl_overruns += sim_wfl.report.run.delay_overruns;
    print_cell("wfl", "targeted", &sim_wfl);
    print_cell("naive", "targeted", &sim_naive);
    json_cell(&mut rows, "sim", "wfl", "targeted", &sim_wfl);
    json_cell(&mut rows, "sim", "naive", "targeted", &sim_naive);
    println!();

    // Gate (b): deterministic — identical numbers on every machine. The
    // wfl victim holds the exact bound; naive's fairness index collapses
    // well below wfl's (its competitors livelock unevenly).
    let sim_wfl_holds = sim_wfl.victim_rate() >= sim_wfl.bound;
    let sim_naive_collapses =
        sim_naive.report.jain_rates() + 0.2 <= sim_wfl.report.jain_rates();

    // Gate (c): on real hardware the naive victim shows a degradation
    // marker wfl provably cannot: a whole-epoch starvation burst (a
    // competitor preempted mid-hold walls off the lock: max stretch >=
    // one epoch) or a measurable rate dip. Re-run a few times — the
    // marker is a hardware event, not a constant.
    let mut naive_degrades = false;
    let mut naive_worst_rate = 1.0f64;
    let mut naive_worst_stretch = 0u64;
    for _ in 0..3 {
        // Deliberately NOT clamped: this probe oversubscribes on purpose —
        // the degradation marker it hunts (a competitor preempted mid-hold
        // walling off the lock) *is* a preemption artifact, and forcing
        // preemption is the whole point of asking for 8 threads.
        let cell = run_real_cell(algo_of("naive", 8), 8, AdvStrength::Calm, budget.max(Duration::from_millis(250)));
        let (rate, stretch) = (cell.victim_rate(), cell.report.victim().max_stretch);
        naive_worst_rate = naive_worst_rate.min(rate);
        naive_worst_stretch = naive_worst_stretch.max(stretch);
        if stretch >= ROUNDS as u64 || rate < 0.98 {
            naive_degrades = true;
            break;
        }
    }

    println!("wfl victim bound (real, all cells):     {}", verdict(wfl_bound_ok));
    println!(
        "wfl victim bound (sim, exact):          {} ({:.3} >= {:.3})",
        verdict(sim_wfl_holds),
        sim_wfl.victim_rate(),
        sim_wfl.bound
    );
    println!(
        "naive fairness collapse (sim, exact):   {} (jain {:.3} vs wfl {:.3})",
        verdict(sim_naive_collapses),
        sim_naive.report.jain_rates(),
        sim_wfl.report.jain_rates()
    );
    println!(
        "naive degradation marker (real):        {} (worst rate {:.3}, max stretch {})",
        verdict(naive_degrades),
        naive_worst_rate,
        naive_worst_stretch
    );
    let wfl_no_overrun = wfl_overruns == 0;
    println!(
        "wfl delay overruns (real + sim):        {} ({wfl_overruns})",
        verdict(wfl_no_overrun)
    );

    if let Some(path) = wfl_bench::parse_trace(&std::env::args().collect::<Vec<_>>()) {
        let cell = run_sim_cell(algo_of("wfl", 4), 4, &sim_mode.with_recorder());
        let r = &cell.report.run;
        let snap = r.trace.as_ref().expect("recorded runs return a trace");
        let meta = [
            ("bench", "e15_fairness".to_string()),
            ("backend", "sim".to_string()),
            ("algo", "wfl".to_string()),
            ("strength", "targeted".to_string()),
            ("threads", "4".to_string()),
        ];
        wfl_bench::write_trace(&path, snap, &r.metrics(), &meta);
    }

    json.push_str("  \"results\": ");
    json.push_str(&rows.finish());
    json.push_str(",\n");
    let _ = writeln!(json, "  \"gates\": {{");
    let _ = writeln!(json, "    \"wfl_bound_real\": {wfl_bound_ok},");
    let _ = writeln!(json, "    \"wfl_bound_sim\": {sim_wfl_holds},");
    let _ = writeln!(json, "    \"naive_jain_collapse_sim\": {sim_naive_collapses},");
    let _ = writeln!(json, "    \"naive_degrades_real\": {naive_degrades},");
    let _ = writeln!(json, "    \"wfl_no_delay_overrun\": {wfl_no_overrun}");
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_fairness.json", &json).expect("write BENCH_fairness.json");
    println!();
    println!("wrote BENCH_fairness.json");

    if smoke {
        assert!(wfl_bound_ok, "wfl victim success fell below the paper bound minus tolerance");
        assert!(sim_wfl_holds, "wfl victim rate below 1/C_p in the deterministic sim cell");
        assert!(
            sim_naive_collapses,
            "naive fairness index failed to collapse below wfl's in the deterministic sim cell"
        );
        assert!(
            naive_degrades,
            "naive victim showed no degradation marker on the real backend \
             (worst rate {naive_worst_rate:.3}, max stretch {naive_worst_stretch})"
        );
        assert!(
            wfl_no_overrun,
            "{wfl_overruns} wfl attempts overran their delay budget: the fairness claim is void"
        );
        println!("smoke gates passed");
    }
}
