//! `wflbench`: a closed-loop benchmark of the wait-free lock.
//!
//! Two worker threads send requests back to back; each request is one
//! `wfl_core::lock_and_run_until` call running a bench-owned critical
//! section. One invocation measures one workload:
//!
//! ```text
//! wflbench --workload <disjoint|hot|wide> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! wflbench --compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` re-runs the
//! workload with the flight recorder and the benchmark's spans on, times
//! the isolation ladder, and reports the per-layer metrics. Every
//! invocation checks its oracles and exits nonzero if one fails. Each
//! metric prints as `workload metric value unit`; the last line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See README.md for the definitions.

mod closed_loop;
mod compare;
mod ladder;
mod stats;
mod trace;
mod workload;

use closed_loop::{RunOpts, RunResult, WorkerStats};
use std::time::Duration;
use trace::Phases;
use wfl_runtime::stats::Bernoulli;
use workload::{Workload, KAPPA, WORKERS};

const USAGE: &str = "usage: wflbench --workload <disjoint|hot|wide> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
       wflbench --compare A.json B.json [--bounds BENCHMARK.json]";

/// Runs per untraced invocation, each with its own set-up: `setup_s` is
/// the median of these set-ups and `wins_per_s` the median of their rates.
const RUNS: usize = 8;
/// Shares of a traced invocation's time: two untraced and two traced runs
/// (interleaved), then the ladder.
const TRACE_RUN_SHARE: f64 = 0.175;
const LADDER_SHARE: f64 = 0.3;
/// z of the 99% Wilson lower bound on each worker's attempt success rate.
const WILSON_Z: f64 = 2.58;
/// `ladder.residual_share` above this is flagged.
const RESIDUAL_FLAG: f64 = 0.15;
/// `--smoke`: a one-second invocation.
const SMOKE_SECS: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one invocation reports.
#[derive(Debug, Default)]
struct Outcome {
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Printed beside them, not part of the JSON line.
    info: Vec<Metric>,
    labels: Vec<(&'static str, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Σ of a worker counter over every worker of `runs`.
fn total(runs: &[RunResult], f: fn(&WorkerStats) -> u64) -> u64 {
    runs.iter().flat_map(|r| &r.workers).map(f).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn mean_us(d: &[Duration]) -> f64 {
    ratio(
        d.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6,
        d.len() as f64,
    )
}

fn rate(r: &RunResult) -> f64 {
    ratio(r.wins() as f64, r.wall.as_secs_f64())
}

/// A distinct input stream per run, all fixed by the invocation's seed.
fn run_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn counts(runs: &[RunResult], outcome: &mut Outcome) {
    outcome.attempted += total(runs, |s| s.requests);
    outcome.failed += total(runs, |s| s.failed);
    outcome
        .failures
        .extend(runs.iter().flat_map(|r| r.failures.iter().cloned()));
}

/// `--trace 0`: [`RUNS`] untraced runs, pooled.
fn measure(w: Workload, seed: u64, secs: f64) -> Outcome {
    let mut runs: Vec<RunResult> = (0..RUNS)
        .map(|i| {
            closed_loop::run(RunOpts::new(
                w,
                run_seed(seed, i),
                secs / RUNS as f64,
                false,
            ))
        })
        .collect();
    let mut out = Outcome::default();
    counts(&runs, &mut out);

    let mut rates: Vec<f64> = runs.iter().map(rate).collect();
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64()).collect();
    let mut samples: Vec<u32> = runs
        .iter_mut()
        .flat_map(|r| r.workers.iter_mut())
        .flat_map(|s| std::mem::take(&mut s.samples))
        .collect();
    let ops = samples.len();
    let (p50, p99) = if samples.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::percentile(&mut samples, 0.50) as f64 / 1e3,
            stats::percentile(&mut samples, 0.99) as f64 / 1e3,
        )
    };
    let (wins, steps, calls, gave_up) = (
        total(&runs, |s| s.wins),
        total(&runs, |s| s.steps),
        total(&runs, |s| s.calls),
        total(&runs, |s| s.gave_up),
    );

    // Thm 6.9: every worker's attempts succeed with probability at least
    // 1/(κL); checked on the Wilson lower bound of its pooled rate.
    let floor = 1.0 / (KAPPA * w.l()) as f64;
    let mut success_min = 1.0f64;
    for pid in 0..WORKERS {
        let b = Bernoulli {
            successes: runs.iter().map(|r| r.workers[pid].wins).sum(),
            trials: runs.iter().map(|r| r.workers[pid].attempts).sum(),
        };
        success_min = success_min.min(b.rate());
        if b.wilson_lower(WILSON_Z) < floor {
            out.failures.push(format!(
                "{}: Thm 6.9: worker {pid} won {} of {} attempts; the Wilson lower bound {:.4} is below 1/(κL) = {floor:.4}",
                w.name(),
                b.successes,
                b.trials,
                b.wilson_lower(WILSON_Z)
            ));
        }
    }

    out.metrics = vec![
        metric("steps_per_win", ratio(steps as f64, wins as f64), "steps"),
        metric("attempt_success_min", success_min, "share"),
        metric(
            "heap_high_water_words",
            runs.iter().map(|r| r.high_water).max().unwrap_or(0) as f64,
            "words",
        ),
        metric("setup_s", stats::median(&mut setups), "s"),
    ];
    // Wall-clock numbers drift with the host's speed (README.md, "Noise"),
    // so they are reported beside the gated metrics: wins_per_s is about
    // WORKERS / (steps_per_win × ns_per_step), the algorithm's cost in own
    // steps times the host's current speed.
    let wall: f64 = runs.iter().map(|r| r.wall.as_secs_f64()).sum();
    out.info = vec![
        metric("wins_per_s", stats::median(&mut rates), "1/s"),
        metric("acquire_p50_us", p50, "us"),
        metric("acquire_p99_us", p99, "us"),
        metric("ops", ops as f64, "count"),
        metric(
            "ns_per_step",
            ratio(wall * 1e9 * WORKERS as f64, steps as f64),
            "ns",
        ),
        metric("fail_share", ratio(gave_up as f64, calls as f64), "share"),
        metric(
            "epochs",
            runs.iter().map(|r| r.epochs).sum::<u64>() as f64,
            "count",
        ),
    ];
    // A workload whose attempts never lost met no competitor: no contention
    // claim may rest on it.
    out.labels.push((
        "contention",
        if success_min == 1.0 {
            "uncontended"
        } else {
            "contended"
        },
    ));
    out
}

/// `--trace 1`: untraced and traced runs interleaved, then the ladder.
fn measure_layers(w: Workload, seed: u64, secs: f64) -> Outcome {
    let run_secs = secs * TRACE_RUN_SHARE;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..2 {
        plain.push(closed_loop::run(RunOpts::new(
            w,
            run_seed(seed, 2 * i),
            run_secs,
            false,
        )));
        traced.push(closed_loop::run(RunOpts::new(
            w,
            run_seed(seed, 2 * i + 1),
            run_secs,
            true,
        )));
    }
    let lad = ladder::run(w, seed, Duration::from_secs_f64(secs * LADDER_SHARE));
    let mut out = Outcome::default();
    counts(&plain, &mut out);
    counts(&traced, &mut out);

    let sum = |runs: &[RunResult], f| total(runs, f) as f64;
    let mut phases = Phases::default();
    for r in &traced {
        phases.merge(&r.phases);
    }
    if phases.overruns > 0 {
        out.failures.push(format!(
            "{}: {} attempts revealed later than T0 after their start (delay overrun: Thm 6.9's precondition fails)",
            w.name(),
            phases.overruns
        ));
    }
    let per_attempt = |x: u64| ratio(x as f64, phases.attempts as f64);
    let reset: Vec<Duration> = plain.iter().flat_map(|r| r.reset.iter().copied()).collect();
    let reroot: Vec<Duration> = plain
        .iter()
        .flat_map(|r| r.reroot.iter().copied())
        .collect();
    let plain_wall: f64 = plain.iter().map(|r| r.wall.as_secs_f64()).sum();
    let traced_wins = sum(&traced, |s| s.wins);
    let traced_requests = sum(&traced, |s| s.requests);
    let median_rate =
        |runs: &[RunResult]| stats::median(&mut runs.iter().map(rate).collect::<Vec<_>>());

    out.metrics = vec![
        metric("runtime.local_step_ns", lad.local_step_ns, "ns"),
        metric("runtime.alloc_ns", lad.alloc_ns, "ns"),
        metric("runtime.read_acq_ns", lad.read_acq_ns, "ns"),
        metric("runtime.cas_sync_ns", lad.cas_sync_ns, "ns"),
        metric("runtime.epoch_reset_us", mean_us(&reset), "us"),
        metric(
            "runtime.epochs_per_s",
            ratio(
                plain.iter().map(|r| r.epochs).sum::<u64>() as f64,
                plain_wall,
            ),
            "1/s",
        ),
        metric(
            "runtime.barrier_wait_share",
            ratio(
                plain
                    .iter()
                    .flat_map(|r| &r.workers)
                    .map(|s| s.parked.as_secs_f64())
                    .sum(),
                plain
                    .iter()
                    .flat_map(|r| &r.workers)
                    .map(|s| s.wall.as_secs_f64())
                    .sum(),
            ),
            "share",
        ),
        metric(
            "activeset.insert_remove_ns.k2",
            lad.insert_remove_ns[0],
            "ns",
        ),
        metric(
            "activeset.insert_remove_ns.k8",
            lad.insert_remove_ns[1],
            "ns",
        ),
        metric("activeset.get_set_ns.k2", lad.get_set_ns[0], "ns"),
        metric("activeset.get_set_ns.k8", lad.get_set_ns[1], "ns"),
        metric("idem.read_ns", lad.idem_read_ns, "ns"),
        metric("idem.write_ns", lad.idem_write_ns, "ns"),
        metric(
            "idem.thunk_ns",
            ratio(
                traced.iter().map(|r| r.thunk_ns).sum::<u64>() as f64,
                traced.iter().map(|r| r.thunk_runs).sum::<u64>() as f64,
            ),
            "ns",
        ),
        metric(
            "idem.thunk_runs_per_win",
            ratio(
                traced.iter().map(|r| r.thunk_runs).sum::<u64>() as f64,
                traced_wins,
            ),
            "count",
        ),
        metric("core.attempt_ns", lad.attempt_ns, "ns"),
        metric("core.attempt_nodelay_ns", lad.attempt_nodelay_ns, "ns"),
        metric("core.pad_share", lad.pad_share(), "share"),
        metric("core.reroot_us", mean_us(&reroot), "us"),
        metric(
            "core.op_self_ns",
            ratio(sum(&traced, |s| s.self_ns), traced_requests),
            "ns",
        ),
        metric("core.help_steps", per_attempt(phases.help), "steps"),
        metric("core.reveal_steps", per_attempt(phases.reveal), "steps"),
        metric("core.settle_steps", per_attempt(phases.settle), "steps"),
        metric("core.tail_steps", per_attempt(phases.tail), "steps"),
        metric(
            "core.helped_per_attempt",
            per_attempt(phases.helped),
            "count",
        ),
        metric(
            "core.attempts_per_op",
            ratio(sum(&plain, |s| s.attempts), sum(&plain, |s| s.requests)),
            "count",
        ),
        metric(
            "core.aborts_per_op",
            ratio(phases.aborts as f64, traced_requests),
            "count",
        ),
        metric(
            "obs.trace_overhead",
            ratio(median_rate(&plain), median_rate(&traced)),
            "ratio",
        ),
        metric("ladder.residual_share", lad.residual_share(), "share"),
    ];
    // The phase split against the untraced cost per win: the phases cover
    // every attempt from its start event, so they miss only the descriptor
    // and frame creation before it and the backoff between attempts.
    let phase_steps_per_win = ratio(phases.total() as f64, traced_wins);
    let steps_per_win = ratio(sum(&plain, |s| s.steps), sum(&plain, |s| s.wins));
    out.info = vec![
        metric("core.pad_steps", lad.pad_steps() as f64, "steps"),
        metric("core.delay_overruns", phases.overruns as f64, "count"),
        metric(
            "reconcile.phase_steps_per_win",
            phase_steps_per_win,
            "steps",
        ),
        metric("reconcile.steps_per_win", steps_per_win, "steps"),
        metric(
            "reconcile.phase_share",
            ratio(phase_steps_per_win, steps_per_win),
            "share",
        ),
    ];
    if lad.residual_share() > RESIDUAL_FLAG {
        out.labels.push(("ladder", "residual_above_15pct"));
    }
    out
}

#[derive(Debug)]
enum Cmd {
    Run {
        workload: Workload,
        seed: u64,
        secs: f64,
        trace: bool,
        out: Option<String>,
    },
    Compare {
        a: String,
        b: String,
        bounds: String,
    },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (mut workload, mut seed, mut secs, mut trace, mut out) = (None, 1u64, 20.0f64, false, None);
    let (mut compare, mut bounds) = (None, "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                secs = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => out = Some(value()?),
            "--smoke" => secs = SMOKE_SECS,
            "--compare" => compare = Some((value()?, value()?)),
            "--bounds" => bounds = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (compare, workload) {
        (Some((a, b)), None) => Ok(Cmd::Compare { a, b, bounds }),
        (None, Some(workload)) => Ok(Cmd::Run {
            workload,
            seed,
            secs,
            trace,
            out,
        }),
        (Some(_), Some(_)) => Err("--compare takes no --workload".to_string()),
        (None, None) => Err("--workload is required".to_string()),
    }
}

/// The final line: one JSON object the way the benchmark's callers read it.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn run(workload: Workload, seed: u64, secs: f64, trace: bool, out_path: Option<String>) -> i32 {
    let o = if trace {
        measure_layers(workload, seed, secs)
    } else {
        measure(workload, seed, secs)
    };
    let w = workload.name();
    for m in o.info.iter().chain(&o.metrics) {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &o.labels {
        println!("{w} label {k}={v} -");
    }
    for f in &o.failures {
        eprintln!("wflbench: ORACLE FAILED: {f}");
    }
    let correct = o.correct();
    if let Some(path) = out_path {
        let run = compare::Run {
            workload: w.to_string(),
            seed,
            trace,
            correct,
            metrics: o
                .info
                .iter()
                .chain(&o.metrics)
                .map(|m| (m.name.to_string(), m.value))
                .collect(),
        };
        if let Err(e) = compare::append(&path, &run) {
            eprintln!("wflbench: --out: {e}");
            return 1;
        }
    }
    println!("{}", result_line(&o));
    i32::from(!correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Cmd::Run {
            workload,
            seed,
            secs,
            trace,
            out,
        }) => run(workload, seed, secs, trace, out),
        Ok(Cmd::Compare { a, b, bounds }) => {
            let loaded = (|| {
                let rules = compare::rules(
                    &std::fs::read_to_string(&bounds).map_err(|e| format!("{bounds}: {e}"))?,
                )?;
                Ok::<_, String>((compare::load(&a)?, compare::load(&b)?, rules))
            })();
            match loaded {
                Ok((a, b, rules)) => {
                    print!("{}", compare::report(&a, &b, &rules));
                    0
                }
                Err(e) => {
                    eprintln!("wflbench: {e}");
                    2
                }
            }
        }
        Err(e) => {
            eprintln!("wflbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use wfl_obs::JsonValue;

    /// The flight recorder is process-global: runs must not overlap.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Metric names of one section of the repository's BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn assert_reports(o: &Outcome, section: &str, w: Workload) {
        assert!(o.failures.is_empty(), "{}: {:?}", w.name(), o.failures);
        assert_eq!(o.failed, 0, "{}", w.name());
        let names: Vec<String> = o.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(
            names,
            declared(section),
            "{}: metrics must match BENCHMARK.json",
            w.name()
        );
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(JsonValue::parse(&result_line(o)).is_ok());
    }

    #[test]
    fn smoke_runs_every_workload_with_its_oracles() {
        let _g = serial();
        for w in Workload::ALL {
            let o = measure(w, 3, SMOKE_SECS);
            assert_reports(&o, "end_to_end", w);
            for m in &o.metrics {
                assert!(m.value > 0.0, "{} {} is never 0", w.name(), m.name);
            }
        }
    }

    #[test]
    fn traced_smoke_reports_every_per_layer_metric() {
        let _g = serial();
        for w in Workload::ALL {
            assert_reports(&measure_layers(w, 3, SMOKE_SECS), "per_layer", w);
        }
    }

    #[test]
    fn every_boundary_re_roots_the_lock_space() {
        // Tiny batches cross many boundaries; a lock space or cell left
        // below the rewind mark would dangle after the first one.
        let _g = serial();
        for w in Workload::ALL {
            let mut opts = RunOpts::new(w, 5, 0.2, false);
            opts.batch_attempts = 8;
            let r = closed_loop::run(opts);
            assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            assert!(r.epochs >= 20, "{}: only {} epochs", w.name(), r.epochs);
            assert!(r.wins() > 0);
        }
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        match parse(&args("--workload hot --seed 9 --seconds 2.5 --trace 1")).unwrap() {
            Cmd::Run {
                workload,
                seed,
                secs,
                trace,
                out,
            } => {
                assert_eq!(
                    (workload, seed, secs, trace, out),
                    (Workload::Hot, 9, 2.5, true, None)
                );
            }
            c => panic!("{c:?}"),
        }
        assert!(matches!(
            parse(&args("--compare a.json b.json")).unwrap(),
            Cmd::Compare { .. }
        ));
        for bad in [
            "",
            "--workload cold",
            "--workload hot --trace 2",
            "--workload hot --seconds -1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
