//! E17 — delegation showdown: flat combining and CCSynch against wfl's
//! combining fast path.
//!
//! Delegation (request combining) is the *other* modern answer to the
//! oversubscribed regime the paper targets: publish your critical section,
//! let one combiner run a batch. It buys very low coherence traffic on the
//! hot path — and gives up exactly what the paper refuses to give up:
//! **wait-freedom** (a frozen combiner wedges every pending request) and
//! per-attempt **fairness guarantees**. wfl's combining fast path
//! ([`LockConfig::combine`]) takes the batching idea without the
//! structural cost: an ordinary tryLock *winner* claims compatible pending
//! descriptors and runs them before releasing, so batching is
//! opportunistic, losers are never parked behind a combiner, and a frozen
//! winner's batch is helpable like any other decided attempt.
//!
//! Two measurement blocks over the five-way roster
//! {wfl, wfl+combine, fc, ccsynch, blocking-cohort}:
//!
//! * **closed-loop** (e13-style, real threads, sweep to 16t on the full
//!   run): every thread re-arrives immediately on a small contended lock
//!   pool. Reports wins/s, the Jain fairness index over per-process wins,
//!   the combined-win share, and the combine batch-size histogram.
//! * **overload** (e16-style, deterministic sim + wall-clock real arms):
//!   per-round deadline SLOs with periodically frozen processes. The key
//!   claim, gated in `--smoke`: under freezes fc and ccsynch **lose
//!   wait-freedom** — their combiner is a single point of failure, so
//!   pending requests blow their deadline budgets spinning on it (aborts
//!   appear and abort p99 reaches the SLO; fc additionally collapses in
//!   aggregate goodput below wfl+combine's faulted/fault-free ratio, while
//!   ccsynch's slack queue keeps aggregate throughput up and individual
//!   attempts stall past their SLO) — while wfl+combine keeps
//!   zero blown deadlines and >= 0.8x of its fault-free goodput:
//!   combining never traded away wait-freedom.
//!
//! Emits `BENCH_delegation.json`.
//! Usage: `e17_delegation [--smoke] [--algos a,b,c] [--trace out.json]`
//!   --algos : narrow the roster to the named algorithms.
//!   --trace : export the recorded faulted wfl+combine sim cell as
//!             Chrome/Perfetto `trace_event` JSON (plus a
//!             `<path>.metrics.json` sidecar).
//!   --smoke : CI-sized cells, and the run **gates**:
//!     (a) wfl+combine actually combines under sim contention (nonempty
//!         batch histogram) and stays safe doing it;
//!     (b) a faulted combining cell replays deterministically, flight
//!         recorder trace included;
//!     (c) wfl+combine keeps wait-freedom under injected freezes (zero
//!         aborts, >= 0.8x fault-free goodput); fc and ccsynch lose it
//!         (faulted aborts appear with p99 >= the SLO), and fc's
//!         faulted/fault-free ratio also falls below 0.9x of wfl+combine's
//!         (ccsynch's frozen combiner costs its SLO tail, not aggregate
//!         goodput);
//!     (d) abort latency p99 <= 2x the armed SLO on combining cells with a
//!         meaningful abort population;
//!     (e) closed-loop throughput: wfl+combine >= 0.9x plain wfl at the
//!         top of the sweep everywhere, and >= 1.0x where
//!         `available_parallelism > 1` (on a single hardware thread the
//!         contention combining exploits cannot fully manifest).

use std::fmt::Write as _;
use std::time::Duration;
use wfl_bench::{header, row, verdict};
use wfl_fairness::jain_index;
use wfl_obs::MetricsSnapshot;
use wfl_runtime::real::{FaultSpec, RealConfig};
use wfl_runtime::{available_parallelism, clamp_threads};
use wfl_workloads::harness::{
    run_random_conflict, AlgoKind, Backend, ExecMode, HarnessReport, SchedKind, SimSpec,
};

const SEED: u64 = 1312;
/// Best-of repeats for the timed closed-loop cells (least-noise estimate
/// on a shared machine; every repeat is safety-checked).
const REPEATS: usize = 3;

/// Deadline an unobstructed attempt meets comfortably (the e16 SLO shape:
/// wfl's per-attempt cost scales with kappa^2 = threads^2), but that a
/// contender pinned behind a frozen process blows.
fn slo(threads: usize) -> u64 {
    1_400 * (threads * threads) as u64
}

/// Sim fault window (the e16 sizing): each `period`-slot window freezes a
/// deterministically chosen victim for its first `quantum` global slots —
/// long enough that a survivor pinned behind the victim burns 1.5x its SLO
/// in own steps before the thaw.
fn fault_window(threads: usize) -> (u64, u64) {
    let quantum = 3 * threads as u64 * slo(threads) / 2;
    (3 * quantum / 2, quantum)
}

/// Rounds per process for the sim overload cells; per-round costs differ
/// by ~100x across the roster (see e16), so spans are per-algorithm.
fn overload_rounds(algo: AlgoKind, smoke: bool) -> usize {
    let r = match algo {
        AlgoKind::Wfl { .. } => 300,
        _ => 600,
    };
    if smoke { r } else { (2 * r).min(4_000) }
}

/// The five contenders of the showdown, optionally narrowed by `--algos`.
/// Plain wfl runs **with** delays so it differs from wfl+combine in
/// exactly one bit: [`LockConfig::combine`].
fn roster(threads: usize, filter: Option<&Vec<String>>) -> Vec<AlgoKind> {
    let all = vec![
        AlgoKind::wfl(threads.max(2)),
        AlgoKind::Wfl { kappa: threads.max(2), delays: true, helping: true, combine: true },
        AlgoKind::FlatCombining,
        AlgoKind::CcSynch,
        AlgoKind::BlockingCohort,
    ];
    wfl_bench::retain_algos(all, |k| k.label(), filter)
}

/// The schedule family for a sim cell: the E16 families, so every cell
/// replays against the E16 corpus.
fn sched_for(faulted: bool, threads: usize) -> SchedKind {
    let (period, quantum) = fault_window(threads);
    if faulted {
        SchedKind::RandomFaults { period, quantum }
    } else {
        SchedKind::Random
    }
}

struct Cell {
    report: HarnessReport,
    /// Wins per 1k own steps spent across all attempts (sim cells).
    goodput: f64,
    /// Wins per wall second (real cells).
    wins_per_sec: f64,
    /// Jain fairness index over per-process win counts.
    jain: f64,
    /// `combined_wins / wins` (0 when nothing won).
    combined_share: f64,
}

impl Cell {
    fn from_report(report: HarnessReport) -> Cell {
        let steps_total = report.steps.sum() as f64;
        let goodput =
            if steps_total > 0.0 { 1000.0 * report.wins as f64 / steps_total } else { 0.0 };
        let wins_per_sec = report.wins_per_sec().unwrap_or(0.0);
        let per_pid: Vec<f64> = report.per_pid.iter().map(|&(w, _)| w as f64).collect();
        let jain = jain_index(&per_pid);
        let combined_share = if report.wins > 0 {
            report.combined_wins as f64 / report.wins as f64
        } else {
            0.0
        };
        Cell { report, goodput, wins_per_sec, jain, combined_share }
    }
}

/// Closed-loop conflict shape: a deliberately small lock pool (deep queues
/// at high thread counts — the regime delegation was invented for), one
/// lock per attempt, non-trivial critical sections, zero think time.
fn closed_loop_spec(threads: usize, attempts: usize) -> SimSpec {
    let mut spec = SimSpec::new(threads, attempts, 2.max(threads / 4), 1);
    spec.seed = SEED;
    spec.think_max = 0;
    spec.cs_work = 400;
    spec.heap_words = 1 << 23;
    spec
}

/// Overload conflict shape (the e16 cell): one of `threads` locks per
/// attempt, so a frozen victim nearly always strands a held lock.
fn overload_spec(threads: usize, attempts: usize) -> SimSpec {
    let mut spec = SimSpec::new(threads, attempts, threads, 1);
    spec.seed = SEED;
    spec.think_max = 0;
    spec.cs_work = 400;
    spec.heap_words = 1 << 23;
    spec
}

fn run_sim_overload(
    algo: AlgoKind,
    threads: usize,
    attempts: usize,
    faulted: bool,
    record: bool,
) -> Cell {
    let spec = overload_spec(threads, attempts);
    let mut mode = ExecMode::sim(sched_for(faulted, threads), 2_000_000_000)
        .with_deadline_steps(slo(threads));
    if record {
        mode = mode.with_recorder();
    }
    let r = run_random_conflict(&spec, algo, &mode);
    assert!(
        r.safety_ok,
        "{}/{threads}t/sim/faults {faulted}: safety audit failed",
        algo.label()
    );
    Cell::from_report(r)
}

fn run_closed_loop(algo: AlgoKind, threads: usize, attempts: usize) -> Cell {
    let spec = closed_loop_spec(threads, attempts);
    let mut best: Option<Cell> = None;
    for _ in 0..REPEATS {
        let r = run_random_conflict(&spec, algo, &ExecMode::real());
        assert!(r.safety_ok, "{}/{threads}t/closed-loop: safety audit failed", algo.label());
        let c = Cell::from_report(r);
        best = Some(match best {
            Some(b) if b.wins_per_sec > c.wins_per_sec => b,
            _ => c,
        });
    }
    best.expect("at least one repeat")
}

fn run_real_fault(algo: AlgoKind, threads: usize, attempts: usize, faulted: bool) -> Cell {
    let spec = overload_spec(threads, attempts);
    let cfg = if faulted {
        RealConfig::fast().with_faults(FaultSpec {
            period: Duration::from_millis(4),
            quantum: Duration::from_millis(2),
            seed: SEED,
        })
    } else {
        RealConfig::fast()
    };
    let mode = ExecMode::new(Backend::Real { run_for: None, cfg }).with_deadline_steps(slo(threads));
    let r = run_random_conflict(&spec, algo, &mode);
    assert!(
        r.safety_ok,
        "{}/{threads}t/real/faults {faulted}: safety audit failed",
        algo.label()
    );
    Cell::from_report(r)
}

/// One JSON row: experiment-specific fields (the abort p99 is the uniform
/// block's `abort_p99_steps`), then the uniform metrics block.
#[allow(clippy::too_many_arguments)]
fn json_cell(
    rows: &mut wfl_bench::Rows,
    block: &str,
    backend: &str,
    algo: &str,
    threads: usize,
    faulted: bool,
    c: &Cell,
) {
    let r = &c.report;
    rows.push(
        &[
            ("block", block.to_string()),
            ("backend", backend.to_string()),
            ("algo", algo.to_string()),
        ],
        &[
            ("threads", threads.to_string()),
            ("faulted", faulted.to_string()),
            ("combined_share", format!("{:.4}", c.combined_share)),
            ("combine_batches", r.combine_batch.count().to_string()),
            ("combine_batch_mean", format!("{:.3}", r.combine_batch.mean())),
            ("combine_batch_max", r.combine_batch.max().to_string()),
            // Batch size (peers per combining winner) -> batches; sizes
            // stay below 64, where the histogram is exact.
            ("combine_batch_hist", MetricsSnapshot::hist_json(&r.combine_batch)),
            ("goodput_wins_per_kstep", format!("{:.4}", c.goodput)),
            ("jain", format!("{:.4}", c.jain)),
        ],
        &r.metrics(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let algo_filter = wfl_bench::parse_algos(&args);
    let avail = available_parallelism();
    let thread_counts: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8, 16] };
    let top_threads = *thread_counts.last().unwrap();
    let cl_attempts = if smoke { 150 } else { 300 };
    // The overload arm stays at the calibrated 3-proc cell in both modes
    // (full mode doubles its rounds instead): the wait-freedom gate's
    // goodput-ratio leg is shape-sensitive — at 4+ procs a freeze
    // *discounts contention* for the survivors (§2.6), pushing every
    // faulted/fault-free ratio above 1 and burying the delegation
    // collapse that the 3-proc single-hot-lock shape exposes. The
    // closed-loop sweep is what scales with `--smoke` off.
    let fault_threads = 3;

    println!("# E17: delegation showdown — fc/ccsynch vs wfl's combining fast path (smoke = {smoke})");
    println!(
        "(closed loop: 1 of max(2, threads/4) locks per attempt, 400-step critical sections, \
         zero think time, best of {REPEATS}; overload: e16 fault windows + SLO deadlines; \
         available_parallelism {avail})"
    );
    println!();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"e17_delegation\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"available_parallelism\": {avail},");
    let mut rows = wfl_bench::Rows::new();
    let mut gates_ok = true;

    // --- gate (a): combining fires under deterministic sim contention ---
    // Every process hammers one lock under the random family; some winner
    // must find claimable ACTIVE peers. This cell is also the
    // checked-in batch histogram's canonical source: fully deterministic.
    {
        let mut spec = closed_loop_spec(4, if smoke { 120 } else { 240 });
        spec.nlocks = 1;
        let mode = ExecMode::sim(SchedKind::Random, 2_000_000_000);
        let combine = AlgoKind::Wfl { kappa: 4, delays: true, helping: true, combine: true };
        let r = run_random_conflict(&spec, combine, &mode);
        assert!(r.safety_ok, "sim contention cell: safety audit failed");
        let c = Cell::from_report(r);
        println!(
            "## sim contention cell (4 procs, 1 lock): {} combined wins / {} wins, \
             {} batches (mean {:.2}, max {}) {}",
            c.report.combined_wins,
            c.report.wins,
            c.report.combine_batch.count(),
            c.report.combine_batch.mean(),
            c.report.combine_batch.max(),
            verdict(!c.report.combine_batch.is_empty())
        );
        gates_ok &= !c.report.combine_batch.is_empty();
        json_cell(&mut rows, "contention", "sim", "wfl+combine", 4, false, &c);
    }
    println!();

    // --- sim overload block: the wait-freedom showdown, and gates (b),
    // (c), (d) ---
    let (fp, fq) = fault_window(fault_threads);
    println!();
    println!(
        "## sim overload, {fault_threads} procs (SLO {} own steps, freeze {fq} of every {fp} slots)",
        slo(fault_threads)
    );
    header(&[
        "algo", "faults", "goodput/kstep", "wins/att", "aborts", "combined", "abort p99", "jain",
    ]);
    let mut combine_ratio = 0.0f64;
    let mut ratios: Vec<(AlgoKind, f64, u64, u64)> = Vec::new();
    for algo in roster(fault_threads, algo_filter.as_ref()) {
        let mut pair = [0.0f64; 2];
        let mut faulted_aborts = 0u64;
        let mut faulted_p99 = 0u64;
        for faulted in [false, true] {
            let c =
                run_sim_overload(algo, fault_threads, overload_rounds(algo, smoke), faulted, false);
            pair[faulted as usize] = c.goodput;
            let p99 = c.report.abort_steps.percentile(0.99);
            if faulted {
                faulted_aborts = c.report.aborts;
                faulted_p99 = p99;
            }
            row(&[
                algo.label().to_string(),
                if faulted { "inject".into() } else { "-".into() },
                format!("{:.3}", c.goodput),
                format!("{}/{}", c.report.wins, c.report.attempts),
                format!("{}", c.report.aborts),
                format!("{}", c.report.combined_wins),
                format!("{p99}"),
                format!("{:.3}", c.jain),
            ]);
            // Gate (d): combining keeps the abort SLO honest.
            if matches!(algo, AlgoKind::Wfl { combine: true, .. }) && c.report.aborts >= 20 {
                let ok = p99 <= 2 * slo(fault_threads);
                if !ok {
                    println!(
                        "GATE abort-latency: wfl+combine faults={faulted}: p99 {p99} > 2x SLO"
                    );
                }
                gates_ok &= ok;
            }
            json_cell(&mut rows, "overload", "sim", algo.label(), fault_threads, faulted, &c);
        }
        let ratio = if pair[0] > 0.0 { pair[1] / pair[0] } else { 0.0 };
        if matches!(algo, AlgoKind::Wfl { combine: true, .. }) {
            combine_ratio = ratio;
        }
        ratios.push((algo, ratio, faulted_aborts, faulted_p99));
    }
    println!();
    // Gate (c): the headline claim — freezes cost delegation its
    // wait-freedom (requests pinned behind the frozen combiner blow their
    // SLO) while wfl+combine's batches stay helpable and nobody aborts.
    // fc additionally collapses in aggregate goodput; ccsynch's queue
    // absorbs the freeze in aggregate (the literature's robustness story)
    // but its *individual* attempts stall past the deadline all the same,
    // which is exactly the guarantee the paper refuses to give up. So the
    // aggregate-ratio clause gates fc only; both must show the SLO tail.
    let budget = slo(fault_threads);
    for (algo, ratio, faulted_aborts, faulted_p99) in &ratios {
        match algo {
            AlgoKind::Wfl { combine: true, .. } => {
                let ok = *ratio >= 0.8 && *faulted_aborts == 0;
                println!(
                    "wfl+combine under freezes: goodput ratio {ratio:.3}, \
                     {faulted_aborts} blown deadlines {}",
                    verdict(ok)
                );
                gates_ok &= ok;
            }
            AlgoKind::FlatCombining | AlgoKind::CcSynch if combine_ratio > 0.0 => {
                let collapses = matches!(algo, AlgoKind::FlatCombining);
                let lost_wf = *faulted_aborts > 0
                    && *faulted_p99 >= budget
                    && (!collapses || *ratio < 0.9 * combine_ratio);
                let ratio_clause = if collapses {
                    format!(", ratio < 0.9 x wfl+combine {combine_ratio:.3}")
                } else {
                    String::new()
                };
                println!(
                    "{} under freezes: goodput ratio {ratio:.3}, {faulted_aborts} blown \
                     deadlines, abort p99 {faulted_p99}; wait-freedom lost (aborts > 0, \
                     p99 >= SLO {budget}{ratio_clause}): {}",
                    algo.label(),
                    verdict(lost_wf)
                );
                gates_ok &= lost_wf;
            }
            _ => {
                println!("{} faulted/fault-free goodput: {ratio:.3}", algo.label());
            }
        }
    }

    // Gate (b): a faulted combining cell replays exactly —
    // including its full flight-recorder event sequence (both replays run
    // with the recorder on).
    {
        let kappa = fault_threads.max(2);
        let combine = AlgoKind::Wfl { kappa, delays: true, helping: true, combine: true };
        let a = run_sim_overload(combine, fault_threads, 60, true, true);
        let b = run_sim_overload(combine, fault_threads, 60, true, true);
        let replay_ok = a.report.wins == b.report.wins
            && a.report.aborts == b.report.aborts
            && a.report.rescues == b.report.rescues
            && a.report.combined_wins == b.report.combined_wins
            && a.report.give_up == b.report.give_up
            && a.report.trace == b.report.trace
            && a.report.trace.as_ref().is_some_and(|t| t.total_events() > 0);
        println!("faulted combining replay determinism (incl. trace): {}", verdict(replay_ok));
        gates_ok &= replay_ok;

        // --trace: export the recorded faulted combining cell.
        if let Some(path) = wfl_bench::parse_trace(&args) {
            let meta = [
                ("bench", "e17_delegation".to_string()),
                ("block", "overload".to_string()),
                ("backend", "sim".to_string()),
                ("algo", combine.label().to_string()),
                ("threads", fault_threads.to_string()),
                ("faulted", "true".to_string()),
                ("seed", SEED.to_string()),
            ];
            let snap = a.report.trace.as_ref().expect("recorded run carries a trace");
            let stats = wfl_bench::write_trace(&path, snap, &a.report.metrics(), &meta);
            assert!(stats.attempts > 0, "traced cell shows no attempt spans");
            assert!(stats.fault_windows > 0, "traced faulted cell shows no fault windows");
        }
    }

    // --- closed-loop block: the throughput sweep, and gate (e) ---
    println!();
    println!("## closed loop, real threads (sweep {thread_counts:?}, {cl_attempts} attempts/thread)");
    header(&["algo", "threads", "wins/s", "combined share", "batches", "jain"]);
    let mut wfl_top = 0.0f64;
    let mut combine_top = 0.0f64;
    for &threads in thread_counts {
        for algo in roster(threads, algo_filter.as_ref()) {
            let c = run_closed_loop(algo, threads, cl_attempts);
            if threads == top_threads {
                match algo {
                    AlgoKind::Wfl { combine: false, .. } => wfl_top = c.wins_per_sec,
                    AlgoKind::Wfl { combine: true, .. } => combine_top = c.wins_per_sec,
                    _ => {}
                }
            }
            row(&[
                algo.label().to_string(),
                threads.to_string(),
                format!("{:.0}", c.wins_per_sec),
                format!("{:.3}", c.combined_share),
                format!("{}", c.report.combine_batch.count()),
                format!("{:.3}", c.jain),
            ]);
            json_cell(&mut rows, "closed_loop", "real", algo.label(), threads, false, &c);
        }
    }
    println!();
    if wfl_top > 0.0 && combine_top > 0.0 {
        let ratio = combine_top / wfl_top;
        // The strict half is armed only off a single hardware thread, like
        // E13's layout gate: serial execution hides the contention the
        // fast path feeds on, so 1-core CI gets the tolerance bound.
        let (bound, armed) = if avail > 1 { (1.0, "strict") } else { (0.9, "tolerance") };
        println!(
            "closed-loop top-of-sweep ({top_threads}t): wfl+combine / wfl = {ratio:.3} \
             (gate {armed}: >= {bound}) {}",
            verdict(ratio >= bound)
        );
        gates_ok &= ratio >= bound;
    }

    // --- real fault arm: the same freeze story on hardware (safety-gated
    // only; timing ratios on a shared machine are reported, not asserted) ---
    let real_threads = clamp_threads(fault_threads, 1, "e17 real fault block");
    let real_attempts = if smoke { 60 } else { 150 };
    println!();
    println!("## real threads, {real_threads} procs, wall-clock injector (2ms stall / 4ms)");
    header(&["algo", "faults", "wins/att", "aborts", "combined", "wall ms"]);
    for algo in roster(real_threads, algo_filter.as_ref()) {
        for faulted in [false, true] {
            let c = run_real_fault(algo, real_threads, real_attempts, faulted);
            row(&[
                algo.label().to_string(),
                if faulted { "inject".into() } else { "-".into() },
                format!("{}/{}", c.report.wins, c.report.attempts),
                format!("{}", c.report.aborts),
                format!("{}", c.report.combined_wins),
                format!("{:.1}", c.report.wall.expect("real run").as_secs_f64() * 1e3),
            ]);
            json_cell(&mut rows, "overload", "real", algo.label(), real_threads, faulted, &c);
        }
    }
    println!();

    json.push_str("  \"results\": ");
    json.push_str(&rows.finish());
    json.push_str(",\n");
    let _ = writeln!(json, "  \"gates_ok\": {gates_ok}");
    json.push_str("}\n");
    std::fs::write("BENCH_delegation.json", &json).expect("write BENCH_delegation.json");
    println!("wrote BENCH_delegation.json");

    if smoke {
        assert!(gates_ok, "E17 smoke gates failed (see GATE lines above)");
        println!("E17 smoke gates: all ok");
    }
}
