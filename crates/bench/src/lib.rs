//! Shared utilities for the experiment binaries (E1–E13).
//!
//! Each binary regenerates one theorem-validation table; see `DESIGN.md`
//! §3 for the experiment index.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use wfl_obs::{escape, MetricsSnapshot};
use wfl_runtime::stats::Bernoulli;

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
/// one row serializer every experiment binary (E13–E17) feeds, replacing
/// the per-binary hand-rolled writers.
///
/// Each row is one object: the caller's string `context` fields
/// (workload/algo/backend labels), its pre-rendered `raw` JSON fields
/// (experiment-specific numbers, arrays, nested objects), and then the
/// **uniform metrics block** rendered from a [`MetricsSnapshot`] —
/// counters, per-reason `give_up` tallies, step percentiles (within
/// 1/32 of exact), and the calibrated `steps_per_sec` / `wins_per_sec`
/// rates (JSON `null` on sim rows, which have no wall clock). The
/// uniform block is what makes every row comparable across experiments.
#[derive(Default)]
pub struct Rows {
    body: String,
    first: bool,
    count: usize,
}

impl Rows {
    pub fn new() -> Rows {
        Rows { body: String::new(), first: true, count: 0 }
    }

    /// Appends one row. `context` values are escaped as JSON strings;
    /// `raw` values are embedded verbatim (the caller renders numbers,
    /// bools, arrays, objects).
    pub fn push(&mut self, context: &[(&str, String)], raw: &[(&str, String)], m: &MetricsSnapshot) {
        if !self.first {
            self.body.push_str(",\n");
        }
        self.first = false;
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
        self.body.push_str(sep);
        self.body.push_str(&metrics_fields(m));
        self.body.push('}');
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
    pub fn finish(self) -> String {
        if self.count == 0 {
            return "[]".to_string();
        }
        format!("[\n{}\n  ]", self.body)
    }
}

/// The uniform metrics block of one row (no braces; the row serializer
/// splices it after the caller's fields).
fn metrics_fields(m: &MetricsSnapshot) -> String {
    let opt = |v: Option<f64>, prec: usize| v.map_or("null".to_string(), |x| format!("{x:.prec$}"));
    format!(
        "\"attempts\": {}, \"wins\": {}, \"success_rate\": {:.4}, \"aborts\": {}, \
         \"rescues\": {}, \"combined_wins\": {}, \"delay_overruns\": {}, \"epochs\": {}, \
         \"give_up\": {}, \
         \"steps_mean\": {:.1}, \"steps_p50\": {}, \"steps_p99\": {}, \
         \"abort_p99_steps\": {}, \"wall_secs\": {}, \"steps_per_sec\": {}, \
         \"wins_per_sec\": {}",
        m.attempts,
        m.wins,
        m.success_rate(),
        m.aborts,
        m.rescues,
        m.combined_wins,
        m.delay_overruns,
        m.epochs,
        m.give_up_json(),
        m.steps.mean(),
        m.steps.percentile(0.50),
        m.steps.percentile(0.99),
        m.abort_steps.percentile(0.99),
        opt(m.wall_secs, 6),
        opt(m.steps_per_sec, 1),
        opt(m.wins_per_sec, 1),
    )
}

/// Writes a flight-recorder snapshot as a Chrome/Perfetto `trace_event`
/// document at `path` (openable in ui.perfetto.dev) plus a
/// `<path>.metrics.json` sidecar, parse-validating the document before
/// anything touches disk. `meta` pairs become the trace's process name,
/// per-span args, and the sidecar's context fields. Returns the
/// validator's counts for the caller's presence assertions.
pub fn write_trace(
    path: &str,
    snap: &wfl_obs::TraceSnapshot,
    metrics: &MetricsSnapshot,
    meta: &[(&str, String)],
) -> wfl_obs::perfetto::TraceStats {
    let doc = wfl_obs::perfetto::export(snap, meta);
    let stats = wfl_obs::perfetto::validate(&doc)
        .unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
    std::fs::write(path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let sidecar = format!("{path}.metrics.json");
    std::fs::write(&sidecar, metrics.to_json(meta))
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

    #[test]
    fn rows_render_the_uniform_metrics_block() {
        let mut rows = Rows::new();
        assert!(rows.is_empty());
        let mut m = MetricsSnapshot {
            attempts: 4,
            wins: 3,
            delay_overruns: 2,
            epochs: 1,
            give_up: vec![("stop", 1), ("deadline", 0)],
            wall_secs: Some(0.5),
            steps_per_sec: Some(2000.0),
            wins_per_sec: Some(6.0),
            ..Default::default()
        };
        m.steps.record(8);
        rows.push(
            &[("algo", "wf\"l".to_string())],
            &[("threads", "4".to_string()), ("faulted", "true".to_string())],
            &m,
        );
        rows.push(&[], &[], &MetricsSnapshot::default());
        assert_eq!(rows.len(), 2);
        let doc = format!("{{\n  \"results\": {}\n}}", rows.finish());
        let v = wfl_obs::JsonValue::parse(&doc).expect("rows must parse");
        let arr = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("algo").unwrap().as_str(), Some("wf\"l"));
        assert_eq!(arr[0].get("threads").unwrap().as_num(), Some(4.0));
        assert_eq!(arr[0].get("give_up").unwrap().get("stop").unwrap().as_num(), Some(1.0));
        assert_eq!(arr[0].get("steps_per_sec").unwrap().as_num(), Some(2000.0));
        assert_eq!(arr[0].get("steps_p99").unwrap().as_num(), Some(8.0));
        assert_eq!(arr[0].get("delay_overruns").unwrap().as_num(), Some(2.0));
        // Sim-style rows carry the same fields with null rates.
        assert_eq!(arr[1].get("wall_secs"), Some(&wfl_obs::JsonValue::Null));
        assert_eq!(arr[1].get("steps_per_sec"), Some(&wfl_obs::JsonValue::Null));
        assert_eq!(Rows::new().finish(), "[]");
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
