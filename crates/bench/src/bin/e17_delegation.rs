//! E17 — delegation showdown: flat combining and CCSynch against wfl's
//! combining fast path.
//!
//! Delegation (request combining) is the *other* modern answer to the
//! oversubscribed regime the paper targets: publish your critical section,
//! let one combiner run a batch. It buys very low coherence traffic on the
//! hot path — and gives up exactly what the paper refuses to give up:
//! **wait-freedom** (a frozen combiner wedges every pending request) and
//! per-attempt **fairness guarantees**. wfl's combining fast path
//! ([`wfl_core::LockConfig::combine`]) takes the batching idea without the
//! structural cost: an ordinary tryLock *winner* claims compatible pending
//! descriptors and runs them before releasing, so batching is
//! opportunistic, losers are never parked behind a combiner, and a frozen
//! winner's batch is helpable like any other decided attempt.
//!
//! Two measurement blocks:
//!
//! * **contention** (deterministic sim): four wfl+combine processes on
//!   one lock. It shows that the winners actually find pending peers to
//!   batch, and it is the checked-in batch histogram's canonical source.
//! * **closed-loop** (e13-style, real threads, sweep to 16t on the full
//!   run) over the five-way roster {wfl, wfl+combine, fc, ccsynch,
//!   blocking-cohort}: every thread re-arrives immediately on a small
//!   contended lock pool. Reports wins/s, the Jain fairness index over
//!   per-process wins, the combined-win share, and the combine batch-size
//!   histogram.
//!
//! The overload half of the showdown — per-round deadline SLOs with
//! periodically frozen processes, where fc and ccsynch **lose
//! wait-freedom** and wfl+combine keeps it — runs in E16's matrix, which
//! holds the whole roster (`BENCH_overload.json`).
//!
//! Emits `BENCH_delegation.json`.
//! Usage: `e17_delegation [--smoke] [--algos a,b,c]`
//!   --algos : narrow the roster to the named algorithms.
//!   --smoke : CI-sized cells, and the run **gates**:
//!     (a) wfl+combine actually combines under sim contention (nonempty
//!         batch histogram) and stays safe doing it;
//!     (b) closed-loop throughput: wfl+combine >= 0.9x plain wfl at the
//!         top of the sweep everywhere, and >= 1.0x where
//!         `available_parallelism > 1` (on a single hardware thread the
//!         contention combining exploits cannot fully manifest);
//!     (c) no wfl or wfl+combine cell reports a delay overrun (the
//!         fairness precondition).
//!
//! The faulted combining replay, the wait-freedom showdown under freezes
//! and the combining abort-latency bound are E16's gates (d), (e) and
//! (b).

use wfl_bench::{combined_share, combining_fields, goodput, header, jain_wins, row, verdict};
use wfl_runtime::available_parallelism;
use wfl_workloads::harness::{run_random_conflict, AlgoKind, ExecMode, HarnessReport, SchedKind, SimSpec};

const SEED: u64 = 1312;
/// Best-of repeats for the timed closed-loop cells (least-noise estimate
/// on a shared machine; every repeat is safety-checked).
const REPEATS: usize = 3;

/// The five contenders of the showdown, optionally narrowed by `--algos`.
/// Plain wfl runs **with** delays so it differs from wfl+combine in
/// exactly one bit: [`wfl_core::LockConfig::combine`].
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

fn run_closed_loop(algo: AlgoKind, threads: usize, attempts: usize) -> HarnessReport {
    let spec = closed_loop_spec(threads, attempts);
    let mut best: Option<HarnessReport> = None;
    for _ in 0..REPEATS {
        let r = run_random_conflict(&spec, algo, &ExecMode::real());
        assert!(r.safety_ok, "{}/{threads}t/closed-loop: safety audit failed", algo.label());
        best = Some(wfl_bench::faster(best, r));
    }
    best.expect("at least one repeat")
}

/// One JSON row: experiment-specific fields, then the uniform metrics
/// block. `faulted` is always false: the faulted cells are E16's.
fn json_cell(
    rows: &mut wfl_bench::Rows,
    block: &str,
    backend: &str,
    algo: AlgoKind,
    threads: usize,
    r: &HarnessReport,
) {
    let mut fields = vec![("threads", threads.to_string()), ("faulted", false.to_string())];
    fields.extend(combining_fields(r));
    fields.push(("goodput_wins_per_kstep", format!("{:.4}", goodput(r))));
    rows.push(
        &[
            ("block", block.to_string()),
            ("backend", backend.to_string()),
            ("algo", algo.label().to_string()),
        ],
        &fields,
        r,
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

    println!("# E17: delegation showdown — fc/ccsynch vs wfl's combining fast path (smoke = {smoke})");
    println!(
        "(closed loop: 1 of max(2, threads/4) locks per attempt, 400-step critical sections, \
         zero think time, best of {REPEATS}; the overload half runs in E16; \
         available_parallelism {avail})"
    );
    println!();

    let mut rows = wfl_bench::Rows::new();
    let mut gates_ok = true;
    // Gate (c)'s tally: delay overruns over every wfl / wfl+combine cell.
    let mut wfl_overruns = 0u64;

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
        println!(
            "## sim contention cell (4 procs, 1 lock): {} combined wins / {} wins, \
             {} batches (mean {:.2}, max {}) {}",
            r.combined_wins,
            r.wins,
            r.combine_batch.count(),
            r.combine_batch.mean(),
            r.combine_batch.max(),
            verdict(!r.combine_batch.is_empty())
        );
        gates_ok &= !r.combine_batch.is_empty();
        wfl_overruns += r.delay_overruns;
        json_cell(&mut rows, "contention", "sim", combine, 4, &r);
    }
    println!();

    // --- closed-loop block: the throughput sweep, and gate (b) ---
    println!("## closed loop, real threads (sweep {thread_counts:?}, {cl_attempts} attempts/thread)");
    header(&["algo", "threads", "wins/s", "combined share", "batches", "jain"]);
    let mut wfl_top = 0.0f64;
    let mut combine_top = 0.0f64;
    for &threads in thread_counts {
        for algo in roster(threads, algo_filter.as_ref()) {
            let r = run_closed_loop(algo, threads, cl_attempts);
            let wins_per_sec = r.wins_per_sec().unwrap_or(0.0);
            if threads == top_threads {
                match algo {
                    AlgoKind::Wfl { combine: false, .. } => wfl_top = wins_per_sec,
                    AlgoKind::Wfl { combine: true, .. } => combine_top = wins_per_sec,
                    _ => {}
                }
            }
            if matches!(algo, AlgoKind::Wfl { .. }) {
                wfl_overruns += r.delay_overruns;
            }
            row(&[
                algo.label().to_string(),
                threads.to_string(),
                format!("{wins_per_sec:.0}"),
                format!("{:.3}", combined_share(&r)),
                format!("{}", r.combine_batch.count()),
                format!("{:.3}", jain_wins(&r)),
            ]);
            json_cell(&mut rows, "closed_loop", "real", algo, threads, &r);
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

    // Gate (c): an attempt that overran its delay budget voids the
    // fairness claim the wfl cells stand for.
    println!("wfl delay overruns (sim + real): {wfl_overruns} {}", verdict(wfl_overruns == 0));
    gates_ok &= wfl_overruns == 0;
    println!();

    let mut doc = wfl_bench::Doc::new("e17_delegation", smoke);
    doc.field("available_parallelism", avail).rows("results", rows).field("gates_ok", gates_ok);
    doc.write("BENCH_delegation.json");

    if smoke {
        assert!(gates_ok, "E17 smoke gates failed (see GATE lines above)");
        println!("E17 smoke gates: all ok");
    }
}
