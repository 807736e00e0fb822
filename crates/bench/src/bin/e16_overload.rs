//! E16 — graceful degradation under overload: abortable deadline tryLocks
//! with injected holder stalls.
//!
//! The scenario the abort layer exists for: a closed-loop system (every
//! thread re-arrives the moment its last attempt ends — the random-conflict
//! workload with zero think time) where lock holders are periodically
//! **frozen mid-critical-section** by a fault injector, and every attempt
//! carries a per-round deadline SLO ([`ExecMode::with_deadline_steps`]).
//!
//! What graceful degradation means, measurably:
//!
//! * **goodput** — successful acquisitions per 1k own steps *spent*. The
//!   per-step normalization isolates wasted work: a stalled process spends
//!   no steps, so pure capacity loss does not move the metric; only steps
//!   burned on attempts that then fail do.
//! * **abort latency** — own steps from round start to bailing out, p50/p99
//!   over aborted attempts only ([`HarnessReport::abort_steps`]). An abort
//!   layer that honors its SLO keeps p99 within a small factor of the armed
//!   budget; one that overstays (a poll hole) shows up as a fat tail.
//! * **abandoned-attempt helping rate** — `rescues / aborts`: how often a
//!   competitor's helping completed an attempt its owner had already given
//!   up on. This is the paper's helping mechanism observed from the abort
//!   side: the descriptor an aborter leaves behind stays fully helpable.
//!
//! wfl degrades gracefully on both axes: helping routes around a frozen
//! holder (competitors complete its critical section and move on), so
//! goodput under faults stays close to fault-free. The blocking baseline
//! collapses: contenders spin uselessly against the frozen holder until
//! their deadlines expire, burning steps with no wins.
//!
//! The matrix runs every extended algorithm but naive: the paper's locks
//! (wfl, wfl-unknown), tsp, both blocking disciplines, and the delegation
//! showdown's contenders (wfl+combine, flat combining, CC-Synch). Under
//! freezes the delegation baselines **lose wait-freedom** — their
//! combiner is a single point of failure, so pending requests blow their
//! deadline budgets spinning on it — while wfl+combine, whose batches stay
//! helpable, blows none (DESIGN §2.7; E17 reports the closed-loop half of
//! that comparison).
//!
//! The sim block drives the deterministic fault scheduler
//! ([`SchedKind::RandomFaults`] — replayable, so the gates are stable);
//! the real-threads block arms the wall-clock injector
//! ([`FaultSpec`]) as an end-to-end check of the same path on hardware.
//!
//! Emits `BENCH_overload.json`.
//! Usage: `e16_overload [--smoke] [--algos a,b,c] [--trace out.json]`
//!   --algos : narrow the matrix to the named algorithms (any
//!             [`AlgoKind::all_extended`] label, naive included); gates
//!             that compare against a filtered-out algorithm are skipped.
//!   --trace : export the recorded faulted deadline-armed wfl replay cell
//!             as Chrome/Perfetto `trace_event` JSON at the given path
//!             (openable in ui.perfetto.dev), with a
//!             `<path>.metrics.json` sidecar; the document is
//!             parse-validated before it is written.
//!   --smoke : CI-sized cells, and the run **gates**:
//!     (a) wfl goodput under faults stays ≥ 0.8× its fault-free goodput
//!         at the SLO deadline;
//!     (b) abort latency p99 ≤ 2× the armed deadline budget on every
//!         sim cell at the SLO with a meaningful abort population;
//!     (c) the blocking baseline collapses: its faulted/fault-free
//!         goodput ratio falls measurably below wfl's;
//!     (d) every run's safety audit passes (aborted and rescued attempts
//!         never corrupt holder sequences), and two faulted cells replay
//!         exactly, flight-recorder trace included: deadline-armed wfl at
//!         the tight budget, and wfl+combine at the SLO;
//!     (e) at 3 processes, wfl+combine keeps wait-freedom under freezes
//!         (zero aborts at the SLO, ≥ 0.8× fault-free goodput) while fc
//!         and ccsynch lose it (faulted aborts with p99 ≥ the SLO), and
//!         fc's faulted/fault-free ratio also falls below 0.9× of
//!         wfl+combine's (ccsynch's frozen combiner costs its SLO tail,
//!         not aggregate goodput);
//!     (f) no wfl or wfl+combine cell, sim or real, reports a delay
//!         overrun (the fairness precondition).

use std::time::Duration;
use wfl_bench::{combining_fields, goodput, header, row, verdict};
use wfl_runtime::clamp_threads;
use wfl_runtime::real::{FaultSpec, RealConfig};
use wfl_workloads::harness::{
    run_random_conflict, AlgoKind, Backend, ExecMode, HarnessReport, SchedKind, SimSpec,
};

const SEED: u64 = 1312;

/// Deadline that bites mid-attempt: below wfl's mandatory pre-decision
/// delay stall (`T0`, over 900 own steps at one lock per attempt with
/// this padded critical section; both scale with kappa^2 = threads^2), so
/// every armed wfl attempt aborts at the first post-stall poll point — the
/// saturated column that measures the abort path itself rather than the
/// workload.
fn tight(threads: usize) -> u64 {
    75 * (threads * threads) as u64
}

/// Deadline an unobstructed attempt meets comfortably — 2.5x to 3x a
/// fault-free wfl attempt (`T0 + T1`, under 570 * kappa^2 own steps here)
/// — but that a
/// contender pinned behind a frozen holder blows: each fault window denies
/// the victim's lock for 1.5x this many own steps of every survivor.
fn slo(threads: usize) -> u64 {
    1_400 * (threads * threads) as u64
}

/// Sim fault window: in each `period`-slot window the victim is frozen for
/// the window's first `quantum` **global** slots ([`SchedKind::RandomFaults`]
/// counts wall slots, not victim slots), during which a surviving process
/// receives about `quantum / threads` own steps. The quantum is sized so
/// that share is 1.5x the SLO: a blocking contender spinning against a
/// frozen holder blows its deadline with slack before the holder thaws.
/// The period leaves a third of each window fault-free so holders also make
/// progress and the run crosses many windows.
fn fault_window(threads: usize) -> (u64, u64) {
    let quantum = 3 * threads as u64 * slo(threads) / 2;
    (3 * quantum / 2, quantum)
}

/// Rounds per process, per algorithm: per-round costs differ by ~100x
/// (wfl pays its kappa^2-scaled delay stalls every attempt; blocking wins
/// in tens of steps), so equal round counts would give the fast baselines
/// runs too short to even cross one fault window. These spans put every
/// cell at a comparable number of scheduled slots — many windows each —
/// while keeping the simulated-step bill CI-sized.
fn rounds_for(algo: AlgoKind, smoke: bool) -> usize {
    let r = match algo {
        AlgoKind::Wfl { .. } => 300,
        AlgoKind::WflUnknown => 330,
        AlgoKind::Tsp => 600,
        AlgoKind::Blocking | AlgoKind::BlockingCohort | AlgoKind::Naive => 600,
        // The combiner applies requests in tens of steps; contenders mostly
        // spin-wait (uncounted), so delegation rounds are blocking-cheap.
        AlgoKind::FlatCombining | AlgoKind::CcSynch => 600,
    };
    // The tag space caps an epoch at 4095 rounds per process.
    if smoke { r } else { (2 * r).min(4_000) }
}

/// Every extended algorithm but naive, optionally narrowed by `--algos`.
/// (Naive retries are the E8/E14 story; under deadlines it reduces to
/// tsp-without-wins, so the matrix runs it only when `--algos` names it.)
/// The order puts wfl before blocking and wfl+combine before fc and
/// ccsynch, the yardsticks their gates compare against.
fn algos(threads: usize, filter: Option<&Vec<String>>) -> Vec<AlgoKind> {
    let roster = AlgoKind::all_extended(threads)
        .into_iter()
        .filter(|&k| k != AlgoKind::Naive || filter.is_some())
        .collect();
    wfl_bench::retain_algos(roster, |k| k.label(), filter)
}

/// The process count of the wait-freedom gate's cells. The goodput-ratio
/// leg is shape-sensitive: at 4+ processes a freeze *discounts
/// contention* for the survivors (DESIGN §2.6), pushing every
/// faulted/fault-free ratio above 1 and burying the delegation collapse
/// that the 3-process shape exposes.
const WAIT_FREEDOM_PROCS: usize = 3;

/// The abandoned-attempt helping rate, `rescues / aborts` (0 when
/// nothing aborted).
fn help_rate(r: &HarnessReport) -> f64 {
    if r.aborts > 0 { r.rescues as f64 / r.aborts as f64 } else { 0.0 }
}

fn conflict_spec(threads: usize, attempts: usize) -> SimSpec {
    // One lock per attempt over `threads` locks, with long critical
    // sections: every process is mid-critical-section most of its steps
    // (high holder utilization), while fault-free cross-process contention
    // stays light. That shape makes the injector bite — a frozen victim
    // nearly always strands a held lock — without handing the fault arm a
    // contention discount on the surviving processes' rounds.
    let mut spec = SimSpec::new(threads, attempts, threads, 1);
    spec.seed = SEED;
    spec.think_max = 0; // closed loop: re-arrive immediately (overload)
    // Non-trivial critical section: the holder computes for 400 steps with
    // its locks held. This is what the fault injector needs to bite — a
    // frozen victim is then almost always mid-critical-section, and what
    // helping is for: competitors re-execute the padded thunk of a decided
    // attempt instead of waiting out the freeze.
    spec.cs_work = 400;
    spec.heap_words = 1 << 23;
    spec
}

fn run_sim_cell(
    algo: AlgoKind,
    threads: usize,
    attempts: usize,
    deadline: Option<u64>,
    faulted: bool,
    record: bool,
) -> HarnessReport {
    let spec = conflict_spec(threads, attempts);
    let (p, q) = fault_window(threads);
    let sched = if faulted {
        SchedKind::RandomFaults { period: p, quantum: q }
    } else {
        SchedKind::Random
    };
    let mut mode = ExecMode::sim(sched, 2_000_000_000);
    if let Some(d) = deadline {
        mode = mode.with_deadline_steps(d);
    }
    if record {
        mode = mode.with_recorder();
    }
    let r = run_random_conflict(&spec, algo, &mode);
    assert!(
        r.safety_ok,
        "{}/{threads}t/deadline {deadline:?}/faults {faulted}: safety audit failed",
        algo.label()
    );
    r
}

fn run_real_cell(algo: AlgoKind, threads: usize, attempts: usize, deadline: u64, faulted: bool) -> HarnessReport {
    let spec = conflict_spec(threads, attempts);
    let cfg = if faulted {
        RealConfig::fast().with_faults(FaultSpec {
            period: Duration::from_millis(4),
            quantum: Duration::from_millis(2),
            seed: SEED,
        })
    } else {
        RealConfig::fast()
    };
    let mode = ExecMode::new(Backend::Real { run_for: None, cfg }).with_deadline_steps(deadline);
    let r = run_random_conflict(&spec, algo, &mode);
    assert!(
        r.safety_ok,
        "{}/{threads}t/real/faults {faulted}: safety audit failed",
        algo.label()
    );
    r
}

/// One JSON row: experiment-specific fields (the abort p99 is the uniform
/// block's `abort_p99_steps`), then the uniform metrics block.
#[allow(clippy::too_many_arguments)]
fn json_cell(
    rows: &mut wfl_bench::Rows,
    backend: &str,
    algo: &str,
    threads: usize,
    deadline: Option<u64>,
    faulted: bool,
    r: &HarnessReport,
) {
    let mut fields = vec![
        ("threads", threads.to_string()),
        ("deadline_steps", deadline.map_or("null".to_string(), |d| d.to_string())),
        ("faulted", faulted.to_string()),
        ("goodput_wins_per_kstep", format!("{:.4}", goodput(r))),
        ("abort_p50", r.abort_steps.percentile(0.50).to_string()),
        ("help_rate", format!("{:.4}", help_rate(r))),
    ];
    fields.extend(combining_fields(r));
    rows.push(&[("backend", backend.to_string()), ("algo", algo.to_string())], &fields, r);
}

fn fmt_deadline(d: Option<u64>) -> String {
    d.map_or("none".into(), |d| d.to_string())
}

/// Runs a faulted, recorded sim cell twice: both runs must agree on
/// every outcome tally and on the full flight-recorder event sequence
/// (same seed, bit-identical trace). Returns the verdict and the first
/// run.
fn replays_exactly(algo: AlgoKind, threads: usize, deadline: u64) -> (bool, HarnessReport) {
    let ra = run_sim_cell(algo, threads, 60, Some(deadline), true, true);
    let rb = run_sim_cell(algo, threads, 60, Some(deadline), true, true);
    let events = ra.trace.as_ref().map_or(0, |t| t.total_events());
    let ok = ra.wins == rb.wins
        && ra.aborts == rb.aborts
        && ra.rescues == rb.rescues
        && ra.combined_wins == rb.combined_wins
        && ra.give_up == rb.give_up
        && ra.trace == rb.trace
        && events > 0;
    println!(
        "faulted {} replay determinism at deadline {deadline}, trace included ({events} events): {}",
        algo.label(),
        verdict(ok)
    );
    (ok, ra)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let algo_filter = wfl_bench::parse_algos(&args);
    let thread_counts: &[usize] = if smoke { &[3] } else { &[3, 4] };

    println!("# E16: overload — deadline SLOs x injected holder stalls (smoke = {smoke})");
    println!(
        "(closed-loop random-conflict, 400-step critical sections, 1 of <threads> locks \
         per attempt; sim faults: freeze a random victim for 1.5 x threads x SLO slots \
         of each window)"
    );
    println!();

    let mut rows = wfl_bench::Rows::new();

    // --- sim block: the deterministic overload matrix, and the gates ---
    let mut gates_ok = true;
    // Gate (f)'s tally: delay overruns over every wfl / wfl+combine cell.
    let mut wfl_overruns = 0u64;
    for &threads in thread_counts {
        let (tight_d, slo_d) = (tight(threads), slo(threads));
        // No-deadline cells are omitted: with zero aborts they are
        // step-identical to the SLO column, which doubles as the baseline.
        let deadlines = [Some(tight_d), Some(slo_d)];
        println!("## sim, {threads} procs (tight {tight_d}, SLO {slo_d} own steps)");
        header(&[
            "algo", "deadline", "faults", "goodput/kstep", "wins/att", "aborts",
            "abort p50/p99", "help rate", "combined",
        ]);
        // The faulted/fault-free goodput ratios at the SLO of wfl and of
        // wfl+combine — the yardsticks of the blocking collapse gate and
        // of the delegation wait-freedom gate.
        let mut wfl_ratio = 0.0f64;
        let mut combine_ratio = 0.0f64;
        for algo in algos(threads, algo_filter.as_ref()) {
            // (fault-free, faulted) goodput at the SLO deadline, for ratios,
            // and the faulted SLO cell's aborts and abort p99.
            let mut slo_pair = [0.0f64; 2];
            let (mut faulted_aborts, mut faulted_p99) = (0u64, 0u64);
            for deadline in deadlines {
                for faulted in [false, true] {
                    let r = run_sim_cell(
                        algo, threads, rounds_for(algo, smoke), deadline, faulted, false,
                    );
                    let p99 = r.abort_steps.percentile(0.99);
                    if deadline == Some(slo_d) {
                        slo_pair[faulted as usize] = goodput(&r);
                        if faulted {
                            (faulted_aborts, faulted_p99) = (r.aborts, p99);
                        }
                    }
                    if matches!(algo, AlgoKind::Wfl { .. }) {
                        wfl_overruns += r.delay_overruns;
                    }
                    row(&[
                        algo.label().to_string(),
                        fmt_deadline(deadline),
                        if faulted { "inject".into() } else { "-".into() },
                        format!("{:.3}", goodput(&r)),
                        format!("{}/{}", r.wins, r.attempts),
                        format!("{}", r.aborts),
                        format!("{}/{p99}", r.abort_steps.percentile(0.50)),
                        format!("{:.2}", help_rate(&r)),
                        format!("{}", r.combined_wins),
                    ]);
                    json_cell(&mut rows, "sim", algo.label(), threads, deadline, faulted, &r);
                    // Gate (b): the SLO is honored — aborts bail out within
                    // 2x the armed budget. Gated at the SLO only: a budget
                    // below one attempt's mandatory reveal stall (the TIGHT
                    // column) saturates at the first post-stall poll point
                    // by design, and tiny abort populations are noise.
                    if deadline == Some(slo_d) && r.aborts >= 20 {
                        let ok = p99 <= 2 * slo_d;
                        if !ok {
                            println!(
                                "GATE abort-latency: {}/{threads}t faults={faulted}: \
                                 p99 {p99} > 2x SLO",
                                algo.label(),
                            );
                        }
                        gates_ok &= ok;
                    }
                }
            }
            // Gates (a), (c) and (e): degradation ratios at the SLO deadline.
            let ratio = if slo_pair[0] > 0.0 { slo_pair[1] / slo_pair[0] } else { 0.0 };
            let wait_freedom_cell = threads == WAIT_FREEDOM_PROCS;
            println!();
            match algo {
                AlgoKind::Wfl { combine: false, .. } => {
                    wfl_ratio = ratio;
                    println!(
                        "wfl faulted/fault-free goodput at SLO {slo_d}: {ratio:.3} {}",
                        verdict(ratio >= 0.8)
                    );
                    gates_ok &= ratio >= 0.8;
                }
                // Gate (e), wfl+combine's half: combining never traded
                // away wait-freedom — its batches stay helpable under
                // freezes, so nobody blows the SLO.
                AlgoKind::Wfl { combine: true, .. } if wait_freedom_cell => {
                    combine_ratio = ratio;
                    let ok = ratio >= 0.8 && faulted_aborts == 0;
                    println!(
                        "wfl+combine under freezes at SLO {slo_d}: goodput ratio {ratio:.3}, \
                         {faulted_aborts} blown deadlines {}",
                        verdict(ok)
                    );
                    gates_ok &= ok;
                }
                // The wfl yardstick only exists when the (earlier) wfl rows
                // ran — under an `--algos` filter that drops wfl the
                // collapse gate is skipped rather than compared against 0.
                AlgoKind::Blocking if wfl_ratio > 0.0 => {
                    // The collapse marker: blocking loses a real fraction of
                    // its fault-free goodput (spinning against frozen
                    // holders is wasted work), and keeps measurably less of
                    // it than wfl keeps of its own.
                    let collapsed = ratio < 0.9 && ratio < 0.9 * wfl_ratio;
                    println!(
                        "blocking faulted/fault-free goodput at SLO {slo_d}: {ratio:.3}; \
                         collapse ({ratio:.3} < 0.9 and < 0.9 x wfl {wfl_ratio:.3}): {}",
                        verdict(collapsed)
                    );
                    gates_ok &= collapsed;
                }
                // Gate (e), the delegation half: freezes cost delegation its
                // wait-freedom (requests pinned behind the frozen combiner
                // blow their SLO). fc additionally collapses in aggregate
                // goodput; ccsynch's queue absorbs the freeze in aggregate
                // (the literature's robustness story) but its *individual*
                // attempts stall past the deadline all the same, which is
                // exactly the guarantee the paper refuses to give up. So
                // the aggregate-ratio clause gates fc only; both must show
                // the SLO tail.
                AlgoKind::FlatCombining | AlgoKind::CcSynch
                    if wait_freedom_cell && combine_ratio > 0.0 =>
                {
                    let collapses = algo == AlgoKind::FlatCombining;
                    let lost_wf = faulted_aborts > 0
                        && faulted_p99 >= slo_d
                        && (!collapses || ratio < 0.9 * combine_ratio);
                    let ratio_clause = if collapses {
                        format!(", ratio < 0.9 x wfl+combine {combine_ratio:.3}")
                    } else {
                        String::new()
                    };
                    println!(
                        "{} under freezes at SLO {slo_d}: goodput ratio {ratio:.3}, \
                         {faulted_aborts} blown deadlines, abort p99 {faulted_p99}; \
                         wait-freedom lost (aborts > 0, p99 >= SLO{ratio_clause}): {}",
                        algo.label(),
                        verdict(lost_wf)
                    );
                    gates_ok &= lost_wf;
                }
                _ => {
                    println!(
                        "{} faulted/fault-free goodput at SLO {slo_d}: {ratio:.3}",
                        algo.label()
                    );
                }
            }
            println!();
        }
    }

    // Gate (d): faulted cells are deterministic — byte-identical outcome
    // books and flight-recorder traces on replay: deadline-armed wfl at
    // the tight budget (every attempt aborts or is rescued), and
    // wfl+combine at the SLO (batches under freezes).
    let t0 = thread_counts[0];
    let wfl = AlgoKind::wfl(t0.max(2));
    let (wfl_ok, a) = replays_exactly(wfl, t0, tight(t0));
    let combine = AlgoKind::Wfl { kappa: t0.max(2), delays: true, helping: true, combine: true };
    let (combine_ok, c) = replays_exactly(combine, t0, slo(t0));
    gates_ok &= wfl_ok && combine_ok;
    wfl_overruns += a.delay_overruns + c.delay_overruns;

    // --trace: export the recorded faulted wfl cell as a Chrome/Perfetto
    // trace_event document (plus a metrics sidecar), and parse-validate
    // it before writing — spans must nest, and a faulted deadline-armed
    // cell must show attempts, aborts and fault windows.
    if let Some(path) = wfl_bench::parse_trace(&args) {
        let meta = [
            ("bench", "e16_overload".to_string()),
            ("backend", "sim".to_string()),
            ("algo", wfl.label().to_string()),
            ("threads", t0.to_string()),
            ("deadline_steps", tight(t0).to_string()),
            ("faulted", "true".to_string()),
            ("seed", SEED.to_string()),
        ];
        let stats = wfl_bench::write_trace(&path, &a, &meta);
        assert!(stats.attempts > 0, "traced cell shows no attempt spans");
        assert!(stats.aborts > 0, "traced deadline-armed cell shows no aborts");
        assert!(stats.fault_windows > 0, "traced faulted cell shows no fault windows");
    }

    // --- real block: same path on hardware (safety-gated only; timing
    // ratios on a shared machine are reported, not asserted) ---
    // The wall-clock injector needs its own hardware thread to fire on
    // time: clamp the worker count so workers + injector fit the machine
    // (warns and floors at 2 when it bites — e.g. single-core CI).
    let real_threads = clamp_threads(if smoke { 3 } else { 4 }, 1, "e16 real fault block");
    let real_attempts = if smoke { 60 } else { 300 };
    println!();
    println!("## real threads, {real_threads} procs, wall-clock injector (2ms stall / 4ms)");
    header(&["algo", "faults", "wins/att", "aborts", "rescues", "combined", "wall ms"]);
    for algo in algos(real_threads, algo_filter.as_ref()) {
        for faulted in [false, true] {
            let r = run_real_cell(algo, real_threads, real_attempts, slo(real_threads), faulted);
            if matches!(algo, AlgoKind::Wfl { .. }) {
                wfl_overruns += r.delay_overruns;
            }
            row(&[
                algo.label().to_string(),
                if faulted { "inject".into() } else { "-".into() },
                format!("{}/{}", r.wins, r.attempts),
                format!("{}", r.aborts),
                format!("{}", r.rescues),
                format!("{}", r.combined_wins),
                format!("{:.1}", r.wall.expect("real run").as_secs_f64() * 1e3),
            ]);
            json_cell(
                &mut rows,
                "real",
                algo.label(),
                real_threads,
                Some(slo(real_threads)),
                faulted,
                &r,
            );
        }
    }
    println!();

    // Gate (f): an attempt that overran its delay budget voids the
    // fairness claim the wfl cells stand for.
    println!("wfl delay overruns (sim + real): {wfl_overruns} {}", verdict(wfl_overruns == 0));
    gates_ok &= wfl_overruns == 0;

    let mut doc = wfl_bench::Doc::new("e16_overload", smoke);
    doc.rows("results", rows).field("gates_ok", gates_ok);
    doc.write("BENCH_overload.json");

    if smoke {
        assert!(gates_ok, "E16 smoke gates failed (see GATE lines above)");
        println!("E16 smoke gates: all ok");
    }
}
