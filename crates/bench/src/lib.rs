//! Shared utilities for the experiment binaries (E1–E17).
//!
//! Each binary regenerates one theorem-validation table; see `DESIGN.md`
//! §3 for the experiment index.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use wfl_core::GiveUp;
use wfl_obs::{escape, FixedHistogram, BUCKETS};
use wfl_runtime::stats::Bernoulli;
use wfl_workloads::harness::HarnessReport;
use wfl_workloads::telemetry::jain_index;

mod snapshot;

/// Prints a markdown table header.
pub fn header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!("|{}|", cols.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats a success estimate as `rate (lower-bound)` using the Wilson
/// 99% lower bound.
pub fn fmt_success(b: &Bernoulli) -> String {
    format!("{:.3} (lb {:.3})", b.rate(), b.wilson_lower(2.58))
}

/// Verdict marker for bound checks.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

/// Accumulates the `"results"` array of a `BENCH_*.json` document — the
/// one row serializer every experiment binary (E13–E17) feeds.
///
/// Each row is one object: the caller's string `context` fields
/// (workload/algo/backend labels), its pre-rendered `raw` JSON fields
/// (experiment-specific numbers, arrays, nested objects), and then the
/// **uniform metrics block** rendered straight from the run's
/// [`HarnessReport`] — counters, per-reason `give_up` tallies, step
/// percentiles (within 1/32 of exact), and the `steps_per_sec` /
/// `wins_per_sec` rates derived from its wall clock (JSON `null` on sim
/// rows, which have none). The uniform block is what makes every row
/// comparable across experiments.
#[derive(Default)]
pub struct Rows {
    body: String,
    count: usize,
}

impl Rows {
    pub fn new() -> Rows {
        Rows::default()
    }

    /// Appends one row. `context` values are escaped as JSON strings;
    /// `raw` values are embedded verbatim (the caller renders numbers,
    /// bools, arrays, objects).
    pub fn push(&mut self, context: &[(&str, String)], raw: &[(&str, String)], r: &HarnessReport) {
        if self.count > 0 {
            self.body.push_str(",\n");
        }
        self.count += 1;
        self.body.push_str("    {");
        let mut sep = "";
        for (k, v) in context {
            let _ = write!(self.body, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
            sep = ", ";
        }
        for (k, v) in raw {
            let _ = write!(self.body, "{sep}\"{}\": {v}", escape(k));
            sep = ", ";
        }
        let opt = |v: Option<f64>, prec: usize| v.map_or("null".to_string(), |x| format!("{x:.prec$}"));
        let _ = write!(
            self.body,
            "{sep}\"attempts\": {}, \"wins\": {}, \"success_rate\": {:.4}, \"aborts\": {}, \
             \"rescues\": {}, \"combined_wins\": {}, \"delay_overruns\": {}, \"epochs\": {}, \
             \"give_up\": {}, \
             \"steps_mean\": {:.1}, \"steps_p50\": {}, \"steps_p99\": {}, \
             \"abort_p99_steps\": {}, \"wall_secs\": {}, \"steps_per_sec\": {}, \
             \"wins_per_sec\": {}}}",
            r.attempts,
            r.wins,
            r.success().rate(),
            r.aborts,
            r.rescues,
            r.combined_wins,
            r.delay_overruns,
            r.epochs,
            give_up_json(r),
            r.steps.mean(),
            r.steps.percentile(0.50),
            r.steps.percentile(0.99),
            r.abort_steps.percentile(0.99),
            opt(wall_secs(r), 6),
            opt(steps_per_sec(r), 1),
            opt(r.wins_per_sec(), 1),
        );
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The accumulated array, formatted to sit after a `"results": ` key
    /// at the historical indentation.
    fn finish(self) -> String {
        if self.count == 0 {
            return "[]".to_string();
        }
        format!("[\n{}\n  ]", self.body)
    }
}

/// The envelope of one `BENCH_*.json` file: `bench` and `smoke` first,
/// then each field in the order it is added (the rows array among them,
/// via [`Doc::rows`]), written to disk by [`Doc::write`].
pub struct Doc {
    json: String,
}

impl Doc {
    /// Opens a document with its `bench` and `smoke` header fields.
    pub fn new(bench: &str, smoke: bool) -> Doc {
        let mut doc = Doc { json: "{\n".to_string() };
        doc.field("bench", format!("\"{}\"", escape(bench))).field("smoke", smoke);
        doc
    }

    /// Appends one top-level field; `value` is embedded verbatim as JSON.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Doc {
        // Every field but the first follows a separator.
        if self.json.len() > "{\n".len() {
            self.json.push_str(",\n");
        }
        let _ = write!(self.json, "  \"{}\": {value}", escape(key));
        self
    }

    /// Appends the rows array under `key` (`results`, or `cells` in E14).
    pub fn rows(&mut self, key: &str, rows: Rows) -> &mut Doc {
        self.field(key, rows.finish())
    }

    /// The closed document.
    fn finish(self) -> String {
        self.json + "\n}\n"
    }

    /// Closes the document, writes it to `path` and prints `wrote <path>`.
    pub fn write(self, path: &str) {
        std::fs::write(path, self.finish()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// The run's wall clock in seconds (real runs only), floored away from 0.
fn wall_secs(r: &HarnessReport) -> Option<f64> {
    r.wall.map(|w| w.as_secs_f64().max(1e-12))
}

/// Total own steps per wall second (real runs only): the calibration that
/// converts step-denominated deadlines into wall time.
fn steps_per_sec(r: &HarnessReport) -> Option<f64> {
    wall_secs(r).map(|w| r.steps.sum() as f64 / w)
}

/// The give-up tallies as a JSON object under their stable labels, e.g.
/// `{"stop": 0, "tags": 0, "heap_low": 0, "deadline": 12, "attempts": 0}`.
fn give_up_json(r: &HarnessReport) -> String {
    let body: Vec<String> =
        GiveUp::all().iter().map(|g| format!("\"{}\": {}", g.label(), r.give_up[g.index()])).collect();
    format!("{{{}}}", body.join(", "))
}

/// A histogram as a sparse JSON object keyed by bucket lower edge
/// (below 64 the key is the value itself).
fn hist_json(h: &FixedHistogram) -> String {
    let body: Vec<String> = (0..BUCKETS)
        .filter(|&i| h.bucket_count(i) > 0)
        .map(|i| format!("\"{}\": {}", FixedHistogram::bucket_lo(i), h.bucket_count(i)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Keeps the faster of two timed runs by [`HarnessReport::wins_per_sec`]
/// (a tie goes to `r`): the best-of-N estimate E13 and E17 report on a
/// shared machine.
pub fn faster(best: Option<HarnessReport>, r: HarnessReport) -> HarnessReport {
    match best {
        Some(b) if b.wins_per_sec() > r.wins_per_sec() => b,
        _ => r,
    }
}

/// Wins per 1k own steps spent across all attempts (0 when no step was
/// spent): the per-step goodput of E16/E17, which a stalled process does
/// not move, only steps burned on attempts that then fail.
pub fn goodput(r: &HarnessReport) -> f64 {
    let steps = r.steps.sum() as f64;
    if steps > 0.0 { 1000.0 * r.wins as f64 / steps } else { 0.0 }
}

/// The Jain fairness index over per-process win counts.
pub fn jain_wins(r: &HarnessReport) -> f64 {
    jain_index(&r.per_pid.iter().map(|&(w, _)| w as f64).collect::<Vec<_>>())
}

/// `combined_wins / wins` (0 when nothing won).
pub fn combined_share(r: &HarnessReport) -> f64 {
    if r.wins > 0 { r.combined_wins as f64 / r.wins as f64 } else { 0.0 }
}

/// The combining and fairness fields of an E16/E17 row: the combined-win
/// share, the batch-size histogram (peers per combining winner, exact
/// below 64) with its count, mean and max, and the Jain index over
/// per-process wins.
pub fn combining_fields(r: &HarnessReport) -> [(&'static str, String); 6] {
    [
        ("combined_share", format!("{:.4}", combined_share(r))),
        ("combine_batches", r.combine_batch.count().to_string()),
        ("combine_batch_mean", format!("{:.3}", r.combine_batch.mean())),
        ("combine_batch_max", r.combine_batch.max().to_string()),
        ("combine_batch_hist", hist_json(&r.combine_batch)),
        ("jain", format!("{:.4}", jain_wins(r))),
    ]
}

/// The arena fields of an E13/E14 row: the heap high water in words and
/// its per-lane breakdown ([`HarnessReport::compact_high_water_lanes`]:
/// workers first, root lane last) as a JSON array.
pub fn heap_fields(r: &HarnessReport) -> [(&'static str, String); 2] {
    let lanes: Vec<String> = r.compact_high_water_lanes().iter().map(|w| w.to_string()).collect();
    [
        ("heap_high_water", r.heap_high_water.to_string()),
        ("heap_high_water_lanes", format!("[{}]", lanes.join(", "))),
    ]
}

/// Writes a recorded run's flight-recorder trace (`report.trace`) as a
/// Chrome/Perfetto `trace_event` document at `path` (openable in
/// ui.perfetto.dev) plus a `<path>.metrics.json` sidecar rendered from the
/// same report, parse-validating the document before anything touches
/// disk. `meta` pairs become the trace's process name, per-span args, and
/// the sidecar's context fields. Returns the validator's counts for the
/// caller's presence assertions.
///
/// # Panics
/// Panics if the run was not recorded (`report.trace` is `None`).
pub fn write_trace(path: &str, report: &HarnessReport, meta: &[(&str, String)]) -> wfl_obs::perfetto::TraceStats {
    let snap = report.trace.as_ref().expect("a traced run must be recorded");
    let doc = wfl_obs::perfetto::export(snap, meta);
    let stats = wfl_obs::perfetto::validate(&doc)
        .unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
    std::fs::write(path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let sidecar = format!("{path}.metrics.json");
    std::fs::write(&sidecar, snapshot::sidecar_json(report, meta))
        .unwrap_or_else(|e| panic!("write {sidecar}: {e}"));
    println!(
        "wrote {path} ({} spans, {} instants, {} tracks) and {sidecar}",
        stats.complete_spans, stats.instants, stats.tracks
    );
    stats
}

/// Parses a `--trace out.json` (or `--trace=out.json`) flag: the path the
/// experiment writes its Perfetto trace to, if tracing was requested.
pub fn parse_trace(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(rest) = a.strip_prefix("--trace=") {
            return Some(rest.to_string());
        }
        if a == "--trace" {
            return Some(it.next().expect("--trace needs an output path").clone());
        }
    }
    None
}

/// Parses an `--algos a,b,c` (or `--algos=a,b,c`) filter flag into the
/// requested label list, if present. Labels are matched against each
/// binary's roster by [`retain_algos`].
pub fn parse_algos(args: &[String]) -> Option<Vec<String>> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let list = if let Some(rest) = a.strip_prefix("--algos=") {
            rest.to_string()
        } else if a == "--algos" {
            it.next().expect("--algos needs a comma-separated list").clone()
        } else {
            continue;
        };
        let names: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        assert!(!names.is_empty(), "--algos list is empty");
        return Some(names);
    }
    None
}

/// Applies an `--algos` filter to a labeled roster: keeps roster order,
/// panics on a requested label the roster does not know (typos must not
/// silently produce an empty sweep). `None` keeps the full roster.
pub fn retain_algos<T>(
    roster: Vec<T>,
    label: impl Fn(&T) -> &str,
    filter: Option<&Vec<String>>,
) -> Vec<T> {
    let Some(names) = filter else { return roster };
    for n in names {
        assert!(
            roster.iter().any(|t| label(t) == n),
            "--algos: unknown algorithm {n:?} (known: {})",
            roster.iter().map(|t| label(t).to_string()).collect::<Vec<_>>().join(", ")
        );
    }
    roster.into_iter().filter(|t| names.iter().any(|n| n == label(t))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_success_shows_rate_and_bound() {
        let mut b = Bernoulli::default();
        for i in 0..100 {
            b.record(i % 2 == 0);
        }
        let s = fmt_success(&b);
        assert!(s.starts_with("0.500"));
        assert!(s.contains("lb"));
    }

    #[test]
    fn verdict_strings() {
        assert_eq!(verdict(true), "ok");
        assert_eq!(verdict(false), "VIOLATED");
    }

    /// A run with every uniform field nonzero: give-ups, aborts, combined
    /// wins, two step samples and a wall clock.
    pub(crate) fn fixture() -> HarnessReport {
        let mut r = HarnessReport {
            attempts: 10,
            wins: 7,
            aborts: 2,
            rescues: 1,
            combined_wins: 2,
            delay_overruns: 2,
            epochs: 3,
            per_pid: vec![(4, 5), (3, 5)],
            safety_ok: true,
            wall: Some(std::time::Duration::from_millis(250)),
            ..HarnessReport::default()
        };
        r.give_up[GiveUp::Stop.index()] = 1;
        r.give_up[GiveUp::Deadline.index()] = 2;
        r.steps.record(10);
        r.steps.record(4000);
        r.abort_steps.record(512);
        r
    }

    /// The expected strings are the bytes the previous serializers (a
    /// per-run snapshot type feeding the row writer, and a hand-written
    /// envelope per binary) produced for the same run: the row and the
    /// document formats are pinned, keys, order and number formatting
    /// included.
    #[test]
    fn rows_render_the_uniform_metrics_block() {
        use wfl_obs::JsonValue;
        let r = fixture();
        let sim = HarnessReport::default();
        let context = [("algo", "wf\"l".to_string())];
        let raw = [("threads", "4".to_string()), ("faulted", "true".to_string())];
        let row = r#"    {"algo": "wf\"l", "threads": 4, "faulted": true, "attempts": 10, "wins": 7, "success_rate": 0.7000, "aborts": 2, "rescues": 1, "combined_wins": 2, "delay_overruns": 2, "epochs": 3, "give_up": {"stop": 1, "tags": 0, "heap_low": 0, "deadline": 2, "attempts": 0}, "steps_mean": 2005.0, "steps_p50": 10, "steps_p99": 4000, "abort_p99_steps": 512, "wall_secs": 0.250000, "steps_per_sec": 16040.0, "wins_per_sec": 28.0}"#;
        let sim_row = r#"    {"attempts": 0, "wins": 0, "success_rate": 0.0000, "aborts": 0, "rescues": 0, "combined_wins": 0, "delay_overruns": 0, "epochs": 0, "give_up": {"stop": 0, "tags": 0, "heap_low": 0, "deadline": 0, "attempts": 0}, "steps_mean": 0.0, "steps_p50": 0, "steps_p99": 0, "abort_p99_steps": 0, "wall_secs": null, "steps_per_sec": null, "wins_per_sec": null}"#;

        // The row.
        let mut one = Rows::new();
        assert!(one.is_empty());
        one.push(&context, &raw, &r);
        assert_eq!(one.finish(), format!("[\n{row}\n  ]"));
        assert_eq!(Rows::new().finish(), "[]");

        // A two-row document with header and trailing fields.
        let mut rows = Rows::new();
        rows.push(&context, &raw, &r);
        rows.push(&[], &[], &sim);
        assert_eq!(rows.len(), 2);
        let mut doc = Doc::new("e17_delegation", true);
        doc.field("available_parallelism", 2).rows("results", rows);
        doc.field("cells_total", 2).field("gates_ok", true);
        assert_eq!(
            doc.finish(),
            format!(
                "{{\n  \"bench\": \"e17_delegation\",\n  \"smoke\": true,\n  \
                 \"available_parallelism\": 2,\n  \"results\": [\n{row},\n{sim_row}\n  ],\n  \
                 \"cells_total\": 2,\n  \"gates_ok\": true\n}}\n"
            )
        );

        // The rows parse, and carry the run's numbers.
        let mut rows = Rows::new();
        rows.push(&context, &raw, &r);
        rows.push(&[], &[], &sim);
        let v = JsonValue::parse(&format!("{{\n  \"results\": {}\n}}", rows.finish())).expect("rows must parse");
        let arr = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("algo").unwrap().as_str(), Some("wf\"l"));
        assert_eq!(arr[0].get("threads").unwrap().as_num(), Some(4.0));
        assert_eq!(arr[0].get("give_up").unwrap().get("stop").unwrap().as_num(), Some(1.0));
        assert_eq!(arr[0].get("steps_per_sec").unwrap().as_num(), Some(16040.0));
        assert_eq!(arr[0].get("steps_p99").unwrap().as_num(), Some(4000.0));
        assert_eq!(arr[0].get("delay_overruns").unwrap().as_num(), Some(2.0));
        // Sim-style rows carry the same fields with null rates.
        assert_eq!(arr[1].get("wall_secs"), Some(&JsonValue::Null));
        assert_eq!(arr[1].get("steps_per_sec"), Some(&JsonValue::Null));
    }

    #[test]
    fn trace_flag_parses_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_trace(&args(&["bench", "--smoke"])), None);
        assert_eq!(parse_trace(&args(&["bench", "--trace", "t.json"])), Some("t.json".into()));
        assert_eq!(parse_trace(&args(&["bench", "--trace=out/t.json"])), Some("out/t.json".into()));
    }

    #[test]
    fn algos_flag_parses_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_algos(&args(&["bench", "--smoke"])), None);
        assert_eq!(
            parse_algos(&args(&["bench", "--algos", "wfl, fc"])),
            Some(vec!["wfl".to_string(), "fc".to_string()])
        );
        assert_eq!(
            parse_algos(&args(&["bench", "--algos=ccsynch"])),
            Some(vec!["ccsynch".to_string()])
        );
    }

    #[test]
    fn retain_algos_filters_in_roster_order() {
        let roster = vec!["wfl", "fc", "ccsynch"];
        let filter = Some(vec!["ccsynch".to_string(), "wfl".to_string()]);
        assert_eq!(retain_algos(roster.clone(), |s| s, filter.as_ref()), vec!["wfl", "ccsynch"]);
        assert_eq!(retain_algos(roster.clone(), |s| s, None), roster);
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn retain_algos_rejects_typos() {
        let filter = Some(vec!["wlf".to_string()]);
        retain_algos(vec!["wfl"], |s| s, filter.as_ref());
    }
}
