//! Run records (`--out`) and their comparison (`--compare`).
//!
//! A record file holds `{"runs": [...]}`; each run is one invocation's
//! workload, seed, trace flag, verdict and metrics. `--out` appends to the
//! file, so one file collects a set of runs of one build, and `--compare`
//! sets the runs of two builds against each other, metric by metric and
//! workload by workload.

use crate::stats::{median, quartiles};
use std::fmt::Write as _;
use wfl_obs::{escape, JsonValue};

/// One invocation's record.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{}\": {v}", escape(k));
        }
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"metrics\": {{{m}}}}}",
            escape(&self.workload),
            self.seed,
            u8::from(self.trace),
            self.correct
        )
    }

    fn from_json(v: &JsonValue) -> Result<Run, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run without \"{k}\""));
        let metrics = match field("metrics")? {
            JsonValue::Obj(members) => members
                .iter()
                .map(|(k, v)| {
                    v.as_num()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("metric {k} is not a number"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("\"metrics\" is not an object".to_string()),
        };
        Ok(Run {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            seed: field("seed")?.as_num().ok_or("seed is not a number")? as u64,
            trace: field("trace")?.as_num() == Some(1.0),
            correct: field("correct")? == &JsonValue::Bool(true),
            metrics,
        })
    }
}

/// Reads a record file's runs (an absent file has none).
pub fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    runs.iter()
        .map(Run::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))
}

/// Appends `run` to the record file at `path`.
pub fn append(path: &str, run: &Run) -> Result<(), String> {
    let mut runs = load(path)?;
    runs.push(run.clone());
    let body: Vec<String> = runs
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    std::fs::write(
        path,
        format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", body.join(",\n")),
    )
    .map_err(|e| format!("{path}: {e}"))
}

/// A metric's direction and regression bound, from BENCHMARK.json.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline median; `None` for a metric without a bound,
    /// which is then judged against the baseline's own spread.
    pub bound: Option<f64>,
}

/// Reported metrics that BENCHMARK.json does not gate: the wall-clock
/// numbers, judged against the baseline's spread, and `fail_share`, for
/// which any increase is a regression.
const UNGATED: [(&str, bool, Option<f64>); 5] = [
    ("wins_per_s", true, None),
    ("acquire_p50_us", false, None),
    ("acquire_p99_us", false, None),
    ("ns_per_step", false, None),
    ("fail_share", false, Some(0.0)),
];

/// The rules of every end-to-end and per-layer metric in a BENCHMARK.json,
/// plus the [`UNGATED`] ones.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = JsonValue::parse(benchmark_json)?;
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in doc
            .get(section)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("no \"{section}\" array"))?
        {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(JsonValue::as_str)
                .ok_or(format!("{name}: no \"better\""))?;
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(JsonValue::as_num)
                        .ok_or(format!("{name}: no \"bound\""))?,
                )
            } else {
                None
            };
            out.push(Rule {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            });
        }
    }
    out.extend(UNGATED.iter().map(|&(name, higher_is_better, bound)| Rule {
        name: name.to_string(),
        higher_is_better,
        bound,
    }));
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartile distance of `v` (0 for fewer than two values).
fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let q = quartiles(v);
    q[2] - q[0]
}

/// Judges runs `b` (the change) against runs `a` (the baseline):
/// * worse — b's median is worse than a's by more than the bound;
/// * better — b's median beats a's by more than a's quartile distance;
/// * unresolved — either side's quartile distance is wider than the bound,
///   unless every run of b beats (or loses to) every run of a;
/// * unchanged — otherwise.
pub fn classify(a: &[f64], b: &[f64], higher_is_better: bool, bound: Option<f64>) -> Verdict {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let gain = sign * (mb - ma);
    let (sa, sb) = (spread(a), spread(b));
    let limit = bound.map_or(sa, |s| s * ma.abs());
    let beats = |x: f64, y: f64| sign * (y - x) > 0.0;
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if sa > limit || sb > limit {
        return if all_better {
            Verdict::Better
        } else if all_worse && -gain > limit {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > limit {
        Verdict::Worse
    } else if gain > sa && gain > 0.0 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Prints one line per (workload, metric) present in both record files.
pub fn report(a: &[Run], b: &[Run], rules: &[Rule]) -> String {
    let mut out =
        String::from("workload metric median_a median_b change spread_a spread_b verdict\n");
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        for rule in rules {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| {
                        r.metrics
                            .iter()
                            .find(|(k, _)| *k == rule.name)
                            .map(|(_, v)| *v)
                    })
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let share = |x: f64| if ma == 0.0 { 0.0 } else { 100.0 * x / ma.abs() };
            let _ = writeln!(
                out,
                "{w} {} {ma} {mb} {:+.2}% {:.2}% {:.2}% {}",
                rule.name,
                share(mb - ma),
                share(spread(&va)),
                share(spread(&vb)),
                classify(&va, &vb, rule.higher_is_better, rule.bound).label()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_applies_bound_spread_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within a 10% bound, tighter than the spread: unchanged.
        assert_eq!(
            classify(&a, &[100.2, 99.8, 100.1], true, Some(0.1)),
            Verdict::Unchanged
        );
        // 20% lower throughput is worse; 20% lower latency is better.
        let low = [80.0, 81.0, 79.0];
        assert_eq!(classify(&a, &low, true, Some(0.1)), Verdict::Worse);
        assert_eq!(classify(&a, &low, false, Some(0.1)), Verdict::Better);
        // A spread wider than the bound leaves an overlapping change open.
        let noisy = [60.0, 140.0, 95.0, 105.0];
        assert_eq!(classify(&a, &noisy, true, Some(0.1)), Verdict::Unresolved);
        // Bound 0: any increase of a lower-is-better share is worse.
        assert_eq!(
            classify(&[0.0, 0.0, 0.0], &[0.01, 0.01, 0.01], false, Some(0.0)),
            Verdict::Worse
        );
        // Deterministic counts: any move beyond the (zero) spread counts.
        assert_eq!(
            classify(&[3201.0; 3], &[3200.0; 3], false, None),
            Verdict::Better
        );
        assert_eq!(
            classify(&[3201.0; 3], &[3201.0; 3], false, None),
            Verdict::Unchanged
        );
    }

    #[test]
    fn records_round_trip_through_the_file_format() {
        let run = Run {
            workload: "hot".into(),
            seed: 7,
            trace: false,
            correct: true,
            metrics: vec![
                ("wins_per_s".into(), 12345.678),
                ("steps_per_win".into(), 481.0),
            ],
        };
        let back = Run::from_json(&JsonValue::parse(&run.to_json()).unwrap()).unwrap();
        assert_eq!(back.workload, "hot");
        assert_eq!((back.seed, back.trace, back.correct), (7, false, true));
        assert_eq!(back.metrics, run.metrics);
    }
}
