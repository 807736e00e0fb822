//! E13 — real-threads scaling on the contention-free hot path
//! ([`wfl_runtime::real::RealConfig::fast`]: batched clock leases, the
//! acquire/release ordering tier, per-process allocation lanes):
//!
//! * **philosophers sweep**: wins/s per algorithm across the thread sweep.
//! * **packed+unified vs padded+sharded** (since PR 8): the historical
//!   memory layout (lock words and active-set slots allocated
//!   back-to-back, one neighborhood) against the cache-line-isolated
//!   layout ([`SpaceLayout`]: one 64B line per hot record, locks grouped
//!   into shard neighborhoods with guard lines), per algorithm — including
//!   the cohort-backoff blocking baseline so the high-thread comparison
//!   measures algorithms, not a spin-loop strawman. The padded+sharded
//!   series also yields each algorithm's **scaling knee**: the first
//!   swept thread count whose marginal goodput per added thread drops
//!   below 50% of the base (lowest-thread-count) slope.
//! * **flight recorder**: wfl-nodelay wins/s with the recorder never enabled,
//!   disabled after a cycle, and enabled, at the top of the sweep.
//!
//! Its wfl is `wfl-nodelay`, the paper's lock without the `T0`/`T1`
//! delays, and every row says so (see [`WFL`] for why).
//!
//! Since PR 2 this binary is a thin client of the **unified workload
//! harness**, so every timed cell also runs its workload's safety check,
//! and the wall clock ends when the bodies do. The default sweep runs past
//! typical physical core counts into oversubscription (every JSON row
//! records `available_parallelism` so oversubscribed cells are
//! distinguishable), prints ops/sec tables, and emits `BENCH_scaling.json`.
//!
//! Usage: `e13_scaling [--smoke] [--threads N,N,...] [--trace out.json]`
//!   --smoke   : CI-sized sweep (2 and 4 threads, small attempt counts).
//!               The smoke run **gates** the layout and the recorder: the
//!               padded+sharded layout must keep >= 0.95x of
//!               packed+unified at the low thread count and strictly beat
//!               it at the top of the sweep, and the flight recorder must
//!               cost <= 3% disabled / <= 10% enabled of wfl-nodelay wins/s at the
//!               top of the sweep. The layout gate judges the 99%
//!               confidence interval of per-repeat ratios: it fails when
//!               the whole interval misses the threshold and prints
//!               "unresolved" when the interval contains it. The strict
//!               layout half and the tight margins arm only where
//!               `available_parallelism > 1`: on a single hardware thread
//!               cross-core cache traffic cannot manifest and identical
//!               binaries measure ±10% apart, so 1-core floors only catch
//!               catastrophic regressions.
//!   --threads : comma-separated sweep list (default 2,4,8,16; smoke 2,4).
//!   --trace   : export one recorded top-of-sweep wfl-nodelay cell as
//!               Chrome/Perfetto `trace_event` JSON (plus a
//!               `<path>.metrics.json` sidecar).

use std::fmt::Write as _;
use wfl_core::SpaceLayout;
use wfl_runtime::stats::Summary;
use wfl_runtime::{available_parallelism, Placement};
use wfl_workloads::harness::{
    run_philosophers, run_random_conflict, AlgoKind, ExecMode, HarnessReport, SimSpec,
};

const REPEATS: usize = 3;

struct Sample {
    /// Successful acquisitions (critical sections run) per second — the
    /// useful-throughput metric; failed attempts are not counted, so a
    /// mode cannot look faster by failing faster.
    ops_per_sec: f64,
    /// Arena pressure: highest usage at any epoch boundary, in words.
    heap_high_water: usize,
    /// The per-lane breakdown (workers first, root lane last), already
    /// compacted to the lanes this run used.
    heap_high_water_lanes: Vec<usize>,
    /// The uniform metrics fold the shared row writer serializes.
    metrics: wfl_obs::MetricsSnapshot,
}

impl Sample {
    fn from_report(r: &HarnessReport) -> Sample {
        let wall = r.wall.expect("real runs report wall time").as_secs_f64();
        Sample {
            ops_per_sec: r.wins as f64 / wall,
            heap_high_water: r.heap_high_water,
            heap_high_water_lanes: r.compact_high_water_lanes(),
            metrics: r.metrics(),
        }
    }

    fn better_of(self, other: Option<Sample>) -> Sample {
        match other {
            Some(b) if b.ops_per_sec > self.ops_per_sec => b,
            _ => self,
        }
    }
}

/// The wfl configuration E13 sweeps and gates on: the paper's lock minus
/// its `T0`/`T1` delays. The delays are the counted worst-case budget
/// (`LockConfig::budget()`), spent as local steps on every attempt — 554
/// of the 664 steps per win on wflbench's `disjoint` workload — so with
/// them on, each cell would mostly time idle padding and bury the
/// shared-memory effects E13 exists to measure (cache layout, flight
/// recorder). The delayed lock's cost is E15–E17's and wflbench's subject.
const WFL: &str = "wfl-nodelay";

/// One timed cell: `threads` philosophers each make `attempts` eating
/// attempts through the unified harness under `exec`. Returns the best of
/// `repeats` runs (least-noise estimate on a shared machine); the
/// harness's meal-count safety check is asserted on every run.
fn run_config(
    algo_name: &str,
    threads: usize,
    attempts: usize,
    repeats: usize,
    exec: ExecMode,
) -> Sample {
    let mut best: Option<Sample> = None;
    for _ in 0..repeats {
        let algo = AlgoKind::from_label(algo_name, 2).expect("validated label");
        let r = run_philosophers(threads, attempts, 42, algo, 1 << 23, &exec);
        assert!(r.safety_ok, "{algo_name}/{threads}t: philosopher meal counters diverged");
        best = Some(Sample::from_report(&r).better_of(best));
    }
    best.expect("at least one repeat")
}

/// One layout cell: the random-conflict workload under an explicit
/// [`SpaceLayout`]. Back-to-back attempts over a lock pool sized at two
/// locks per thread keep per-lock contention low and cross-lock traffic
/// high — exactly the regime where false sharing, not the algorithm,
/// dominates; the layout A/B isolates it.
fn run_layout_cell(
    algo_name: &str,
    layout: SpaceLayout,
    threads: usize,
    attempts: usize,
    repeats: usize,
) -> Sample {
    let mut best: Option<Sample> = None;
    for _ in 0..repeats {
        let mut spec = SimSpec::new(threads, attempts, (2 * threads).max(3), 2);
        spec.seed = 42;
        spec.think_max = 0;
        spec.heap_words = 1 << 23;
        spec.layout = layout;
        let algo = AlgoKind::from_label(algo_name, threads).expect("validated label");
        let r = run_random_conflict(&spec, algo, &ExecMode::real());
        assert!(
            r.safety_ok,
            "random_conflict/{algo_name}/{}/{threads}t: safety check failed",
            layout.label()
        );
        best = Some(Sample::from_report(&r).better_of(best));
    }
    best.expect("at least one repeat")
}

/// The 99% confidence interval, mean ± 2.58·sd/√n, for the mean of
/// per-repeat ratios held in parts per million.
fn ci_99(ratios_ppm: &Summary) -> (f64, f64) {
    let half = 2.58 * ratios_ppm.stddev() / (ratios_ppm.len() as f64).sqrt();
    ((ratios_ppm.mean() - half) / 1e6, (ratios_ppm.mean() + half) / 1e6)
}

/// A smoke gate's verdict on "the ratio reaches `threshold`", given the
/// 99% interval `(lo, hi)` of its per-repeat ratios: it fails only when
/// the whole interval lies below the threshold, and is unresolved — the
/// repeats on this box cannot tell — when the interval contains it.
fn verdict((lo, hi): (f64, f64), threshold: f64) -> &'static str {
    if lo >= threshold {
        "pass"
    } else if hi < threshold {
        "FAIL"
    } else {
        "unresolved"
    }
}

/// The scaling knee of a `(threads, wins/s)` series: the first thread
/// count whose **marginal** goodput per added thread falls below 50% of
/// the base slope (wins/s per thread at the lowest swept count). 0 when
/// the series never kneels inside the sweep.
fn knee_threads(series: &[(usize, f64)]) -> usize {
    let Some(&(t0, ops0)) = series.first() else {
        return 0;
    };
    let base_slope = ops0 / t0 as f64;
    for w in series.windows(2) {
        let (ta, opsa) = w[0];
        let (tb, opsb) = w[1];
        let marginal = (opsb - opsa) / (tb - ta) as f64;
        if marginal < 0.5 * base_slope {
            return tb;
        }
    }
    0
}

fn parse_threads(args: &[String]) -> Option<Vec<usize>> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let list = if let Some(rest) = a.strip_prefix("--threads=") {
            rest.to_string()
        } else if a == "--threads" {
            it.next().expect("--threads needs a comma-separated list").clone()
        } else {
            continue;
        };
        let counts: Vec<usize> = list
            .split(',')
            .map(|t| t.trim().parse().unwrap_or_else(|_| panic!("bad thread count {t:?}")))
            .collect();
        assert!(!counts.is_empty(), "--threads list is empty");
        assert!(counts.iter().all(|&t| t >= 2), "philosophers need >= 2 threads");
        return Some(counts);
    }
    None
}

fn json_lanes(lanes: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, w) in lanes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{w}");
    }
    s.push(']');
    s
}

#[allow(clippy::too_many_arguments)]
fn json_row(
    rows: &mut wfl_bench::Rows,
    workload: &str,
    algo: &str,
    mode: &str,
    layout: &str,
    threads: usize,
    s: &Sample,
) {
    rows.push(
        &[
            ("workload", workload.to_string()),
            ("algo", algo.to_string()),
            ("mode", mode.to_string()),
            ("layout", layout.to_string()),
        ],
        &[
            ("threads", threads.to_string()),
            ("available_parallelism", available_parallelism().to_string()),
            ("ops_per_sec", format!("{:.1}", s.ops_per_sec)),
            ("heap_high_water", s.heap_high_water.to_string()),
            ("heap_high_water_lanes", json_lanes(&s.heap_high_water_lanes)),
        ],
        &s.metrics,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let avail = available_parallelism();
    // Philosophers need a table of >= 2, so the sweep starts at 2 threads;
    // the default full sweep runs past typical core counts into
    // oversubscription on purpose (the knee is the point).
    let thread_counts: Vec<usize> = parse_threads(&args)
        .unwrap_or_else(|| if smoke { vec![2, 4] } else { vec![2, 4, 8, 16] });
    let top_threads = *thread_counts.last().unwrap();
    let phil_attempts = if smoke { 300 } else { 2000 };
    let conflict_attempts = if smoke { 400 } else { 2000 };
    // `--algos` narrows (or, with other labels, replaces) both rosters;
    // requested names must be `AlgoKind` labels.
    let algo_filter = wfl_bench::parse_algos(&args);
    for n in algo_filter.iter().flatten() {
        assert!(AlgoKind::from_label(n, 2).is_some(), "--algos: unknown algorithm {n:?}");
    }
    let pick = |defaults: &[&'static str]| -> Vec<String> {
        match &algo_filter {
            Some(names) => names.clone(),
            None => defaults.iter().map(|s| s.to_string()).collect(),
        }
    };
    let algos = pick(&[WFL, "tsp", "naive"]);
    let layout_algos = pick(&[WFL, "tsp", "naive", "blocking", "blocking-cohort"]);
    println!("# E13: real-threads scaling — philosophers sweep and layout A/B cells (smoke = {smoke})");
    println!(
        "(unified harness; philosophers {phil_attempts} attempts/thread, random-conflict \
         {conflict_attempts} attempts/thread, best of {REPEATS}; threads {thread_counts:?}, \
         available_parallelism {avail})"
    );
    println!();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"e13_scaling\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"available_parallelism\": {avail},");
    let _ = writeln!(json, "  \"attempts_per_thread\": {phil_attempts},");
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    let mut rows = wfl_bench::Rows::new();

    // --- philosophers sweep (fast hot path) ---
    for algo in &algos {
        let algo = algo.as_str();
        wfl_bench::header(&["threads", "wins/s"]);
        for &threads in &thread_counts {
            let s = run_config(algo, threads, phil_attempts, REPEATS, ExecMode::real());
            wfl_bench::row(&[format!("{algo} x{threads}"), format!("{:.0}", s.ops_per_sec)]);
            json_row(&mut rows, "philosophers", algo, "fast", "padded+sharded", threads, &s);
        }
        println!();
    }

    // The smoke gates compare millisecond-scale runs on a shared CI
    // runner: take the best of more repeats there so a single noisy
    // neighbor on one side cannot fake a regression.
    let gate_repeats = if smoke { 7 } else { REPEATS };

    // --- packed+unified vs padded+sharded, per algorithm ---
    println!("## layout: packed+unified vs padded+sharded (random-conflict)");
    // Long cells: the layout effect is a few
    // percent, so full runs stretch each cell (still under the 4095
    // rounds/process tag-space cap of a single epoch) to push scheduler
    // noise below it.
    // Smoke cells still need enough length to gate on: a 400-attempt cell
    // lasts ~1.5ms at these rates, and single-core scheduling noise alone
    // can breach a 5% floor at that duration.
    let layout_attempts = if smoke { 2000 } else { 4000 };
    // Best-of-9 in full runs: with cells this short, the quantity of
    // interest is each layout's noise-free ceiling, and the max of more
    // repeats converges to it from below.
    let layout_repeats = if smoke { gate_repeats } else { 9 };
    let packed_unified = SpaceLayout::packed_unified();
    let padded_sharded = SpaceLayout::default();
    let mut layout_speedup_at_max = 0.0f64;
    let mut knees: Vec<(&str, usize)> = Vec::new();
    for algo in &layout_algos {
        let algo = algo.as_str();
        wfl_bench::header(&["threads", "packed+unified", "padded+sharded", "speedup"]);
        let mut padded_series: Vec<(usize, f64)> = Vec::new();
        for &threads in &thread_counts {
            // Interleave the two layouts with alternating order instead of
            // running each as one block: this box's throughput drifts ±10%
            // at the ~10ms scale, and each cell touches a fresh 64MB
            // arena, so both drift windows and within-pair position bias
            // land on whichever layout runs second. The speedup ratio is
            // taken over aggregate Σwins/Σwall per layout (the whole
            // gate's drift profile), while the best single samples still
            // feed the JSON rows. The smoke gate judges the per-repeat
            // ratios, whose spread is the drift.
            let mut packed: Option<Sample> = None;
            let mut padded: Option<Sample> = None;
            let mut packed_tot = (0u64, 0f64);
            let mut padded_tot = (0u64, 0f64);
            let mut ratios_ppm = Summary::new();
            for i in 0..layout_repeats {
                let one = |layout, tot: &mut (u64, f64), best: &mut Option<Sample>| {
                    let s = run_layout_cell(algo, layout, threads, layout_attempts, 1);
                    let rate = s.ops_per_sec;
                    tot.0 += s.metrics.wins;
                    tot.1 += s.metrics.wall_secs.expect("real runs report wall time");
                    *best = Some(s.better_of(best.take()));
                    rate
                };
                let (packed_rate, padded_rate) = if i % 2 == 0 {
                    let packed_rate = one(packed_unified, &mut packed_tot, &mut packed);
                    (packed_rate, one(padded_sharded, &mut padded_tot, &mut padded))
                } else {
                    let padded_rate = one(padded_sharded, &mut padded_tot, &mut padded);
                    (one(packed_unified, &mut packed_tot, &mut packed), padded_rate)
                };
                ratios_ppm.push((padded_rate / packed_rate * 1e6).round() as u64);
            }
            let (packed, padded) = (packed.unwrap(), padded.unwrap());
            let speedup = (padded_tot.0 as f64 / padded_tot.1) / (packed_tot.0 as f64 / packed_tot.1);
            padded_series.push((threads, padded.ops_per_sec));
            if algo == WFL && threads == top_threads {
                layout_speedup_at_max = speedup;
            }
            wfl_bench::row(&[
                format!("{algo} x{threads}"),
                format!("{:.0}", packed.ops_per_sec),
                format!("{:.0}", padded.ops_per_sec),
                format!("{speedup:.2}x"),
            ]);
            for (layout, s) in [(&packed_unified, &packed), (&padded_sharded, &padded)] {
                json_row(&mut rows, "random_conflict", algo, "fast", &layout.label(), threads, s);
            }
            if algo == WFL {
                // The off-diagonal cells: which half of the layout change
                // carries the win?
                for layout in [
                    SpaceLayout { placement: Placement::Padded, shards: 1 },
                    SpaceLayout { placement: Placement::Packed, shards: 0 },
                ] {
                    let s = run_layout_cell(algo, layout, threads, layout_attempts, REPEATS);
                    json_row(&mut rows, "random_conflict", algo, "fast", &layout.label(), threads, &s);
                }
            }
            if smoke && algo == WFL {
                // The layout gate. Floor everywhere: padded+sharded must
                // never cost more than 5% of packed+unified. On a single
                // multiplexed core the measured gap between IDENTICAL
                // configurations is ±10%+ (drift, stalls, per-cell
                // 64MB-arena page luck), so there the floor only arms
                // against catastrophic regressions. Small multi-core VMs
                // drift almost as much between repeats, so the gate judges
                // the 99% interval of the per-repeat ratios: it fails when
                // the repeats agree on a regression and reports
                // "unresolved" when they cannot tell.
                let interval = ci_99(&ratios_ppm);
                let floor = if avail > 1 { 0.95 } else { 0.80 };
                let floor_verdict = verdict(interval, floor);
                println!(
                    "layout floor at {threads} threads: per-repeat ratio 99% interval \
                     [{:.3}, {:.3}] vs floor {floor} (aggregate {speedup:.3}): {floor_verdict}",
                    interval.0, interval.1
                );
                assert!(
                    floor_verdict != "FAIL",
                    "padded+sharded regresses below {floor}x at {threads} threads: \
                     per-repeat ratio 99% interval [{:.3}, {:.3}]",
                    interval.0,
                    interval.1
                );
                // Strictly better at the top of the sweep — but only where
                // more than one hardware thread exists: with every thread
                // multiplexed onto one core, cross-core cache-line traffic
                // (the thing the layout removes) cannot manifest, and the
                // comparison is a coin flip.
                if threads == top_threads {
                    if avail > 1 {
                        let ahead_verdict = verdict(interval, 1.0);
                        println!(
                            "layout strictly ahead at {threads} threads: per-repeat ratio \
                             99% interval [{:.3}, {:.3}] vs 1.0: {ahead_verdict}",
                            interval.0, interval.1
                        );
                        assert!(
                            ahead_verdict != "FAIL",
                            "padded+sharded not ahead at the top of the sweep \
                             ({threads} threads): per-repeat ratio 99% interval \
                             [{:.3}, {:.3}]",
                            interval.0,
                            interval.1
                        );
                    } else {
                        println!(
                            "(skipping strict top-of-sweep layout gate: \
                             available_parallelism = 1)"
                        );
                    }
                }
            }
        }
        let knee = knee_threads(&padded_series);
        knees.push((algo, knee));
        if knee == 0 {
            println!("{algo}: no scaling knee inside the sweep");
        } else {
            println!("{algo}: scaling knee at {knee} threads");
        }
        println!();
    }

    // --- flight-recorder overhead at the top of the sweep ---
    println!("## flight recorder: overhead at {top_threads} threads ({WFL} philosophers)");
    wfl_bench::header(&["config", "wins/s", "vs baseline"]);
    // Overhead ratios need longer cells than the scaling sweep (at ~1M
    // wins/s a 300-attempt smoke cell lasts ~1ms and timer noise alone
    // breaches a 3% gate) and a drift-immune estimator: this box is a
    // single virtualized core whose throughput drifts ±10% at the
    // ~10ms scale, so both best-of-N-vs-best-of-N and per-round paired
    // ratios measure the drift, not the recorder (a cell pair cannot
    // share a drift window the size of one cell). What does average the
    // drift out is total aggregate throughput: interleave the three
    // configs round-robin and ratio Σwins/Σwall per config across every
    // round — each config's denominator then samples the whole gate's
    // drift profile instead of one window of it. The first baseline
    // covers the never-enabled cold state; after it the recorder is
    // cycled once so "disabled" cells measure the steady disabled state
    // (rings touched, flag cleared).
    // gate_attempts is capped by the 4095 rounds/process tag space of a
    // single epoch.
    let gate_attempts = phil_attempts.max(4000);
    let gate_rounds = gate_repeats.max(12);
    // Per config (baseline, disabled, enabled): best sample for the JSON
    // rows and (Σ wins, Σ wall seconds) for the gated aggregate.
    let mut best: [Option<Sample>; 3] = [None, None, None];
    let mut totals = [(0u64, 0f64); 3];
    let run_cfg = |cfg: usize, best: &mut [Option<Sample>; 3], totals: &mut [(u64, f64); 3]| {
        // Config 2 records; the caller cycles the global recorder to
        // prepare the "steady disabled" state of config 1.
        let exec = if cfg == 2 { ExecMode::real().with_recorder() } else { ExecMode::real() };
        let s = run_config(WFL, top_threads, gate_attempts, 1, exec);
        totals[cfg].0 += s.metrics.wins;
        totals[cfg].1 += s.metrics.wall_secs.expect("real runs report wall time");
        best[cfg] = Some(s.better_of(best[cfg].take()));
    };
    // Round 0 in fixed order: the baseline cell covers the never-enabled
    // cold state, then the recorder is cycled once so every "disabled"
    // cell measures the steady disabled state (rings touched, flag
    // cleared).
    run_cfg(0, &mut best, &mut totals);
    wfl_obs::rec::enable();
    wfl_obs::rec::disable();
    run_cfg(1, &mut best, &mut totals);
    run_cfg(2, &mut best, &mut totals);
    // Later rounds rotate the order so every config samples every
    // within-round position equally (each cell touches a fresh 64MB
    // arena, so later positions in a round systematically pay more
    // reclaim than the first).
    const ROTATIONS: [[usize; 3]; 3] = [[0, 1, 2], [1, 2, 0], [2, 0, 1]];
    for round in 1..gate_rounds {
        for &cfg in &ROTATIONS[round % 3] {
            run_cfg(cfg, &mut best, &mut totals);
        }
    }
    let [baseline, disabled, enabled] = best.map(|s| s.unwrap());
    let agg = |(wins, wall): (u64, f64)| wins as f64 / wall;
    let rec_disabled_ratio = agg(totals[1]) / agg(totals[0]);
    let rec_enabled_ratio = agg(totals[2]) / agg(totals[0]);
    for (name, s, ratio) in [
        ("baseline", &baseline, 1.0),
        ("rec_disabled", &disabled, rec_disabled_ratio),
        ("rec_enabled", &enabled, rec_enabled_ratio),
    ] {
        wfl_bench::row(&[
            name.to_string(),
            format!("{:.0}", s.ops_per_sec),
            format!("{ratio:.2}x"),
        ]);
        json_row(
            &mut rows,
            "philosophers",
            WFL,
            &format!("fast+{name}"),
            "padded+sharded",
            top_threads,
            s,
        );
    }
    println!();
    // --trace: export one recorded top-of-sweep wfl-nodelay philosophers cell.
    if let Some(path) = wfl_bench::parse_trace(&args) {
        let exec = ExecMode::real().with_recorder();
        let algo = AlgoKind::from_label(WFL, 2).expect("WFL is a label");
        let r = run_philosophers(top_threads, phil_attempts, 42, algo, 1 << 23, &exec);
        assert!(r.safety_ok, "traced cell: philosopher meal counters diverged");
        let meta = [
            ("bench", "e13_scaling".to_string()),
            ("workload", "philosophers".to_string()),
            ("algo", WFL.to_string()),
            ("mode", "fast".to_string()),
            ("threads", top_threads.to_string()),
        ];
        let snap = r.trace.as_ref().expect("recorded run carries a trace");
        wfl_bench::write_trace(&path, snap, &r.metrics(), &meta);
    }
    if smoke {
        // The observability gates: recording must be effectively free when
        // off and cheap when on, on the interleaved aggregate ratios. The
        // tight margins (<=3% disabled, <=10% enabled) arm only where more
        // than one hardware thread exists: on a single multiplexed core
        // the measured gap between IDENTICAL binaries is ±10%+, so there
        // the floors only catch the disabled path growing real work (a
        // lock, an allocation, a syscall — an order-of-magnitude hit, not
        // a marginal one).
        let (disabled_floor, enabled_floor) = if avail > 1 { (0.97, 0.90) } else { (0.85, 0.80) };
        if avail == 1 {
            println!("(single hardware thread: recorder overhead floors relaxed to catastrophic-only)");
        }
        assert!(
            rec_disabled_ratio >= disabled_floor,
            "disabled flight recorder costs too much {WFL} wins/s at {top_threads} threads: \
             aggregate ratio {rec_disabled_ratio:.3} < {disabled_floor}"
        );
        assert!(
            rec_enabled_ratio >= enabled_floor,
            "enabled flight recorder costs too much {WFL} wins/s at {top_threads} threads: \
             aggregate ratio {rec_enabled_ratio:.3} < {enabled_floor}"
        );
    }

    json.push_str("  \"results\": ");
    json.push_str(&rows.finish());
    json.push_str(",\n");
    let _ = writeln!(json, "  \"recorder_disabled_over_baseline\": {rec_disabled_ratio:.3},");
    let _ = writeln!(json, "  \"recorder_enabled_over_baseline\": {rec_enabled_ratio:.3},");
    let _ = writeln!(
        json,
        "  \"padded_sharded_over_packed_unified_at_max_threads\": {layout_speedup_at_max:.3},"
    );
    json.push_str("  \"knee_threads\": {");
    for (i, (algo, knee)) in knees.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{algo}\": {knee}");
    }
    json.push_str("}\n");
    json.push_str("}\n");

    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("{WFL} padded+sharded/packed+unified at {top_threads} threads: {layout_speedup_at_max:.2}x");
    println!("wrote BENCH_scaling.json");
}
