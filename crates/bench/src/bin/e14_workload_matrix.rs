//! E14 — the workload matrix: every workload × every algorithm × thread
//! counts, on **both** execution backends of the unified harness
//! (deterministic simulator and free-running real threads).
//!
//! Every cell runs its workload's built-in safety check — lock counters,
//! meal counters, money conservation, list snapshots, graph update
//! counters, all derived from the recorded per-attempt outcomes — so this
//! binary is simultaneously a benchmark sweep and a mutual-exclusion
//! test matrix. A safety violation in any cell aborts the run.
//!
//! Emits `BENCH_workloads.json` with one record per cell (including each
//! cell's `epochs` and `heap_high_water`, so the JSON tracks arena
//! pressure across the perf trajectory).
//!
//! Usage: `e14_workload_matrix [--smoke] [--soak] [--algos a,b,c] [--trace out.json]`
//!   --smoke : CI-sized matrix (1–2 threads, tiny attempt counts, short
//!             timed budget) so the real-threads harness path cannot rot.
//!             The smoke matrix runs the **extended roster** — the five
//!             standard kinds plus wfl+combine, blocking-cohort, fc and
//!             ccsynch — so every algorithm the harness can instantiate is
//!             safety-checked on every workload in CI.
//!   --algos : narrow the roster to the named algorithms (any label of
//!             the extended roster, `wfl-nodelay` included).
//!   --trace : export one recorded deterministic random-conflict wfl-nodelay sim
//!             cell as Chrome/Perfetto `trace_event` JSON (plus a
//!             `<path>.metrics.json` sidecar; standard matrix only).
//!   --soak  : the **multi-epoch soak** matrix instead of the standard one:
//!             timed real cells with a deliberately small heap and short
//!             epoch batches, so every cell crosses several quiescent
//!             resets (heap rewind + tag rewind + re-root). Each cell must
//!             complete >= 3 epochs, run for its full wall budget (within
//!             10%), and pass every safety check aggregated across epochs.
//!             Sim cells run the same lifecycle deterministically. Emits
//!             `BENCH_soak.json`.

use std::time::Duration;
use wfl_workloads::harness::{
    run_bank, run_graph, run_list, run_philosophers, run_random_conflict, AlgoKind, Backend,
    ExecMode, HarnessReport, SchedKind, SimSpec,
};

#[derive(Clone, Copy)]
struct MatrixParams {
    thread_counts: &'static [usize],
    /// Attempt/round counts per process per workload.
    conflict_attempts: usize,
    phil_attempts: usize,
    bank_rounds: usize,
    list_keys: usize,
    graph_rounds: usize,
    /// Scheduled-phase budget for sim cells.
    sim_steps: u64,
    /// Wall-clock budget for timed real cells (attempt caps usually finish
    /// first; the budget is the backstop).
    real_budget: Duration,
    heap_words: usize,
}

const FULL: MatrixParams = MatrixParams {
    thread_counts: &[2, 4, 8],
    conflict_attempts: 400,
    phil_attempts: 400,
    bank_rounds: 400,
    list_keys: 24,
    graph_rounds: 400,
    sim_steps: 600_000_000,
    real_budget: Duration::from_millis(900),
    heap_words: 1 << 24,
};

const SMOKE: MatrixParams = MatrixParams {
    thread_counts: &[1, 2],
    conflict_attempts: 40,
    phil_attempts: 40,
    bank_rounds: 40,
    list_keys: 6,
    graph_rounds: 40,
    sim_steps: 200_000_000,
    real_budget: Duration::from_millis(500),
    heap_words: 1 << 22,
};

/// Soak sizing: the heap is deliberately small and the epoch batches short,
/// so the wall budget forces many quiescent resets. `rounds` caps a single
/// epoch (the timed run keeps opening epochs until the deadline); the sim
/// leg runs `sim_total_rounds` split into the same epoch length.
#[derive(Clone, Copy)]
struct SoakParams {
    thread_counts: &'static [usize],
    real_budget: Duration,
    epoch_rounds: usize,
    list_epoch_keys: usize,
    sim_total_rounds: usize,
    sim_steps: u64,
    heap_words: usize,
}

const FULL_SOAK: SoakParams = SoakParams {
    thread_counts: &[2, 4, 8],
    real_budget: Duration::from_millis(800),
    epoch_rounds: 48,
    list_epoch_keys: 12,
    sim_total_rounds: 96,
    sim_steps: 600_000_000,
    heap_words: 1 << 21,
};

const SMOKE_SOAK: SoakParams = SoakParams {
    thread_counts: &[2],
    real_budget: Duration::from_millis(300),
    epoch_rounds: 24,
    list_epoch_keys: 6,
    sim_total_rounds: 48,
    sim_steps: 200_000_000,
    heap_words: 1 << 20,
};

const WORKLOADS: [&str; 5] = ["random_conflict", "philosophers", "bank", "list", "graph"];

/// The matrix's algorithm set. Its first wfl is `wfl-nodelay`, the
/// paper's lock without the `T0`/`T1` delays: the delays are the counted
/// worst-case budget, spent as local steps on every attempt (346 of the
/// 448 steps per win on wflbench's `disjoint` workload), and the matrix is
/// about safety coverage and the throughput of the locking machinery
/// itself. The `extended` roster (the `--smoke` matrix, so CI exercises it
/// on every workload) adds the delayed `wfl+combine` fast path, the cohort
/// spin discipline and both delegation baselines; `--algos` narrows
/// either roster.
fn algos(threads: usize, extended: bool, filter: Option<&Vec<String>>) -> Vec<AlgoKind> {
    let mut roster = vec![
        AlgoKind::Wfl { kappa: threads.max(2), delays: false, helping: true, combine: false },
        AlgoKind::WflUnknown,
        AlgoKind::Tsp,
        AlgoKind::Blocking,
        AlgoKind::Naive,
    ];
    if extended || filter.is_some() {
        roster.extend([
            AlgoKind::Wfl { kappa: threads.max(2), delays: true, helping: true, combine: true },
            AlgoKind::BlockingCohort,
            AlgoKind::FlatCombining,
            AlgoKind::CcSynch,
        ]);
    }
    wfl_bench::retain_algos(roster, |k| k.label(), filter)
}

struct CellShape {
    conflict_attempts: usize,
    phil_attempts: usize,
    bank_rounds: usize,
    list_keys: usize,
    graph_rounds: usize,
    heap_words: usize,
}

fn run_cell(
    workload: &str,
    algo: AlgoKind,
    threads: usize,
    p: &CellShape,
    mode: &ExecMode,
) -> HarnessReport {
    let seed = 42;
    match workload {
        "random_conflict" => {
            let mut spec = SimSpec::new(threads, p.conflict_attempts, (2 * threads).max(3), 2);
            spec.seed = seed;
            spec.heap_words = p.heap_words;
            run_random_conflict(&spec, algo, mode)
        }
        "philosophers" => {
            // A table needs >= 2 seats, so `cell_procs` already widened a
            // 1-thread row to a 2-philosopher cell (and the row is labeled
            // with the widened count — a 2-seat table fully contends).
            run_philosophers(threads, p.phil_attempts, seed, algo, p.heap_words, mode)
        }
        "bank" => run_bank(
            threads,
            (threads + 2).max(4),
            p.bank_rounds,
            100,
            seed,
            algo,
            p.heap_words,
            mode,
        ),
        "list" => run_list(threads, p.list_keys, seed, algo, p.heap_words, mode),
        "graph" => run_graph(
            threads,
            (2 * threads).max(4).max(3),
            p.graph_rounds,
            seed,
            algo,
            p.heap_words,
            mode,
        ),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The process count a workload actually runs at for a sweep row —
/// philosophers pin it to the table size, which needs at least 2 seats.
/// Cells are labeled with this count, never the raw row value.
fn cell_procs(workload: &str, threads: usize) -> usize {
    if workload == "philosophers" {
        threads.max(2)
    } else {
        threads
    }
}

fn json_cell(
    rows: &mut wfl_bench::Rows,
    workload: &str,
    algo: AlgoKind,
    threads: usize,
    mode_label: &str,
    r: &HarnessReport,
) {
    let [heap_high_water, lanes] = wfl_bench::heap_fields(r);
    rows.push(
        &[
            ("workload", workload.to_string()),
            ("algo", algo.label().to_string()),
            ("mode", mode_label.to_string()),
        ],
        &[
            ("threads", threads.to_string()),
            heap_high_water,
            lanes,
            ("safety_ok", "true".to_string()),
        ],
        r,
    );
}

fn run_matrix(p: &MatrixParams, smoke: bool) {
    let algo_filter = wfl_bench::parse_algos(&std::env::args().collect::<Vec<_>>());
    println!("# E14: workload matrix — algos x workloads x threads, sim + real");
    println!("(every cell doubles as a mutual-exclusion test; smoke = {smoke})");
    println!();

    let mut rows = wfl_bench::Rows::new();

    let shape = CellShape {
        conflict_attempts: p.conflict_attempts,
        phil_attempts: p.phil_attempts,
        bank_rounds: p.bank_rounds,
        list_keys: p.list_keys,
        graph_rounds: p.graph_rounds,
        heap_words: p.heap_words,
    };

    let mut cells = 0u64;
    for workload in WORKLOADS {
        wfl_bench::header(&["cell", "mode", "attempts", "wins", "success", "p99 steps", "wall (s)", "safety"]);
        for &row_threads in p.thread_counts {
            let threads = cell_procs(workload, row_threads);
            if threads != row_threads && p.thread_counts.contains(&threads) {
                continue; // widened cell already covered by its own row
            }
            for algo in algos(threads, smoke, algo_filter.as_ref()) {
                let modes = [
                    ExecMode::sim(SchedKind::Random, p.sim_steps),
                    ExecMode::real_timed(p.real_budget),
                ];
                for mode in &modes {
                    let r = run_cell(workload, algo, threads, &shape, mode);
                    assert!(
                        r.safety_ok,
                        "SAFETY VIOLATION: {workload}/{}/{}t/{}",
                        algo.label(),
                        threads,
                        mode.label()
                    );
                    cells += 1;
                    let wall = r.wall.map_or(0.0, |w| w.as_secs_f64());
                    wfl_bench::row(&[
                        format!("{workload}/{}/{}t", algo.label(), threads),
                        mode.label().to_string(),
                        r.attempts.to_string(),
                        r.wins.to_string(),
                        format!("{:.3}", r.success().rate()),
                        r.steps.percentile(0.99).to_string(),
                        format!("{wall:.4}"),
                        "ok".to_string(),
                    ]);
                    json_cell(&mut rows, workload, algo, threads, mode.label(), &r);
                }
            }
        }
        println!();
    }
    println!("all {cells} cells passed their safety checks");
    let mut doc = wfl_bench::Doc::new("e14_workload_matrix", smoke);
    doc.rows("cells", rows).field("cells_total", cells);
    doc.write("BENCH_workloads.json");

    // --trace: export one recorded deterministic cell (random-conflict,
    // wfl-nodelay, top of the thread sweep, sim backend).
    if let Some(path) = wfl_bench::parse_trace(&std::env::args().collect::<Vec<_>>()) {
        let threads = *p.thread_counts.last().unwrap();
        let algo = AlgoKind::Wfl { kappa: threads.max(2), delays: false, helping: true, combine: false };
        let mode = ExecMode::sim(SchedKind::Random, p.sim_steps).with_recorder();
        let r = run_cell("random_conflict", algo, threads, &shape, &mode);
        assert!(r.safety_ok, "traced cell failed its safety check");
        let meta = [
            ("bench", "e14_workload_matrix".to_string()),
            ("workload", "random_conflict".to_string()),
            ("algo", algo.label().to_string()),
            ("mode", "sim".to_string()),
            ("threads", threads.to_string()),
        ];
        wfl_bench::write_trace(&path, &r, &meta);
    }
}

fn run_soak(p: &SoakParams, smoke: bool) {
    let algo_filter = wfl_bench::parse_algos(&std::env::args().collect::<Vec<_>>());
    println!("# E14 --soak: multi-epoch soak — quiescent resets under wall-clock pressure");
    println!(
        "(heap {} words, {} rounds/epoch, real budget {:?}; every real cell must cross >= 3 epochs; smoke = {smoke})",
        p.heap_words, p.epoch_rounds, p.real_budget
    );
    println!();

    let mut rows = wfl_bench::Rows::new();

    // In soak cells the per-workload round counts are the *epoch* batch
    // size; timed real cells keep opening epochs until the deadline.
    let shape = CellShape {
        conflict_attempts: p.epoch_rounds,
        phil_attempts: p.epoch_rounds,
        bank_rounds: p.epoch_rounds,
        list_keys: p.list_epoch_keys,
        graph_rounds: p.epoch_rounds,
        heap_words: p.heap_words,
    };
    // The sim leg runs a fixed multi-epoch total with the same batch size,
    // so the epoch-crossing path is also exercised deterministically.
    let sim_shape = CellShape {
        conflict_attempts: p.sim_total_rounds,
        phil_attempts: p.sim_total_rounds,
        bank_rounds: p.sim_total_rounds,
        list_keys: 2 * p.list_epoch_keys,
        graph_rounds: p.sim_total_rounds,
        heap_words: p.heap_words,
    };

    let mut cells = 0u64;
    for workload in WORKLOADS {
        wfl_bench::header(&["cell", "mode", "attempts", "wins", "epochs", "high water", "wall (s)", "safety"]);
        for &row_threads in p.thread_counts {
            let threads = cell_procs(workload, row_threads);
            if threads != row_threads && p.thread_counts.contains(&threads) {
                continue;
            }
            for algo in algos(threads, false, algo_filter.as_ref()) {
                // The list workload uses a smaller epoch (each round may
                // draw up to 64 retry tags, so its batch must stay well
                // inside the per-process tag space).
                let epoch_len = if workload == "list" { p.list_epoch_keys } else { p.epoch_rounds };
                let modes = [
                    (
                        ExecMode::sim(SchedKind::Random, p.sim_steps).with_epoch_rounds(epoch_len),
                        &sim_shape,
                    ),
                    (
                        ExecMode::real_timed(p.real_budget).with_epoch_rounds(epoch_len),
                        &shape,
                    ),
                ];
                for (mode, cell_shape) in &modes {
                    let r = run_cell(workload, algo, threads, cell_shape, mode);
                    let cell = format!("{workload}/{}/{}t/{}", algo.label(), threads, mode.label());
                    assert!(r.safety_ok, "SAFETY VIOLATION across epochs: {cell}");
                    if let Backend::Real { run_for: Some(budget), .. } = mode.backend {
                        // The acceptance criteria of the epoch lifecycle:
                        // several boundaries crossed, the full wall budget
                        // used (within 10% plus scheduling slack), the
                        // arena never grew past its small capacity.
                        assert!(r.epochs >= 3, "{cell}: only {} epochs", r.epochs);
                        let wall = r.wall.expect("real cells report wall");
                        let lo = budget.mul_f64(0.9);
                        let hi = budget + budget.mul_f64(0.10).max(Duration::from_millis(250));
                        assert!(
                            wall >= lo && wall <= hi,
                            "{cell}: wall {wall:?} not within 10% of requested {budget:?}"
                        );
                    } else {
                        assert!(r.epochs >= 2, "{cell}: sim soak must cross an epoch boundary");
                    }
                    assert!(
                        r.heap_high_water <= p.heap_words,
                        "{cell}: high water {} exceeds the arena",
                        r.heap_high_water
                    );
                    cells += 1;
                    let wall = r.wall.map_or(0.0, |w| w.as_secs_f64());
                    wfl_bench::row(&[
                        cell,
                        mode.label().to_string(),
                        r.attempts.to_string(),
                        r.wins.to_string(),
                        r.epochs.to_string(),
                        r.heap_high_water.to_string(),
                        format!("{wall:.4}"),
                        "ok".to_string(),
                    ]);
                    json_cell(&mut rows, workload, algo, threads, mode.label(), &r);
                }
            }
        }
        println!();
    }
    println!("all {cells} soak cells crossed their epoch boundaries safely");
    let mut doc = wfl_bench::Doc::new("e14_workload_matrix_soak", smoke);
    doc.field("heap_words", p.heap_words)
        .field("epoch_rounds", p.epoch_rounds)
        .field("real_budget_secs", format!("{:.3}", p.real_budget.as_secs_f64()))
        .rows("cells", rows)
        .field("cells_total", cells);
    doc.write("BENCH_soak.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let soak = std::env::args().any(|a| a == "--soak");
    if soak {
        run_soak(if smoke { &SMOKE_SOAK } else { &FULL_SOAK }, smoke);
    } else {
        run_matrix(if smoke { &SMOKE } else { &FULL }, smoke);
    }
}
