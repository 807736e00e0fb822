//! The per-run metrics snapshot: the standalone `<trace>.metrics.json`
//! sidecar [`write_trace`](crate::write_trace) writes beside a
//! flight-recorder trace, rendered straight from the run's
//! [`HarnessReport`].

use crate::{give_up_json, hist_json, steps_per_sec, wall_secs};
use std::fmt::Write as _;
use wfl_obs::escape;
use wfl_workloads::harness::HarnessReport;

/// The run as the standalone metrics sidecar: `context` pairs
/// (bench/algo/threads...) as string fields, then the counters, the
/// give-up tallies, both step histograms in full, and the wall-clock
/// rates (`null` on sim runs).
pub(crate) fn sidecar_json(r: &HarnessReport, context: &[(&str, String)]) -> String {
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.3}"));
    let mut out = String::from("{\n");
    for (k, v) in context {
        let _ = writeln!(out, "  \"{}\": \"{}\",", escape(k), escape(v));
    }
    let _ = writeln!(out, "  \"attempts\": {},", r.attempts);
    let _ = writeln!(out, "  \"wins\": {},", r.wins);
    let _ = writeln!(out, "  \"success_rate\": {:.4},", r.success().rate());
    let _ = writeln!(out, "  \"aborts\": {},", r.aborts);
    let _ = writeln!(out, "  \"rescues\": {},", r.rescues);
    let _ = writeln!(out, "  \"combined_wins\": {},", r.combined_wins);
    let _ = writeln!(out, "  \"delay_overruns\": {},", r.delay_overruns);
    let _ = writeln!(out, "  \"epochs\": {},", r.epochs);
    let _ = writeln!(out, "  \"give_up\": {},", give_up_json(r));
    let _ = writeln!(
        out,
        "  \"steps\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \
         \"max\": {}, \"buckets\": {}}},",
        r.steps.count(),
        r.steps.mean(),
        r.steps.percentile(0.50),
        r.steps.percentile(0.99),
        r.steps.max(),
        hist_json(&r.steps)
    );
    let _ = writeln!(
        out,
        "  \"abort_steps\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": {}}},",
        r.abort_steps.count(),
        r.abort_steps.percentile(0.50),
        r.abort_steps.percentile(0.99),
        hist_json(&r.abort_steps)
    );
    let _ = writeln!(out, "  \"wall_secs\": {},", opt(wall_secs(r)));
    let _ = writeln!(out, "  \"steps_per_sec\": {},", opt(steps_per_sec(r)));
    let _ = writeln!(out, "  \"wins_per_sec\": {}", opt(r.wins_per_sec()));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fixture;
    use wfl_obs::JsonValue;

    /// The expected strings are the bytes the previous per-run snapshot
    /// type's `to_json` produced for the same run: keys, order and number
    /// formatting are pinned.
    #[test]
    fn snapshot_serializes_to_parseable_json() {
        let r = fixture();
        let meta = [("algo", "wfl".to_string()), ("backend", "sim".to_string())];
        let sidecar = sidecar_json(&r, &meta);
        assert_eq!(
            sidecar,
            r#"{
  "algo": "wfl",
  "backend": "sim",
  "attempts": 10,
  "wins": 7,
  "success_rate": 0.7000,
  "aborts": 2,
  "rescues": 1,
  "combined_wins": 2,
  "delay_overruns": 2,
  "epochs": 3,
  "give_up": {"stop": 1, "tags": 0, "heap_low": 0, "deadline": 2, "attempts": 0},
  "steps": {"count": 2, "mean": 2005.0, "p50": 10, "p99": 4000, "max": 4000, "buckets": {"10": 1, "3968": 1}},
  "abort_steps": {"count": 1, "p50": 512, "p99": 512, "buckets": {"512": 1}},
  "wall_secs": 0.250,
  "steps_per_sec": 16040.000,
  "wins_per_sec": 28.000
}"#
        );
        // A sim run (no wall clock) serializes its rates as nulls.
        let sim_sidecar = sidecar_json(&HarnessReport::default(), &[]);
        assert_eq!(
            sim_sidecar,
            r#"{
  "attempts": 0,
  "wins": 0,
  "success_rate": 0.0000,
  "aborts": 0,
  "rescues": 0,
  "combined_wins": 0,
  "delay_overruns": 0,
  "epochs": 0,
  "give_up": {"stop": 0, "tags": 0, "heap_low": 0, "deadline": 0, "attempts": 0},
  "steps": {"count": 0, "mean": 0.0, "p50": 0, "p99": 0, "max": 0, "buckets": {}},
  "abort_steps": {"count": 0, "p50": 0, "p99": 0, "buckets": {}},
  "wall_secs": null,
  "steps_per_sec": null,
  "wins_per_sec": null
}"#
        );

        // Both parse, and carry the run's numbers.
        let v = JsonValue::parse(&sidecar).expect("snapshot JSON parses");
        assert_eq!(v.get("algo").unwrap().as_str(), Some("wfl"));
        assert_eq!(v.get("attempts").unwrap().as_num(), Some(10.0));
        assert_eq!(v.get("delay_overruns").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("give_up").unwrap().get("deadline").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("steps").unwrap().get("count").unwrap().as_num(), Some(2.0));
        assert!(v.get("steps").unwrap().get("buckets").unwrap().get("10").is_some());
        assert_eq!(v.get("steps_per_sec").unwrap().as_num(), Some(16040.0));
        let v = JsonValue::parse(&sim_sidecar).unwrap();
        assert_eq!(v.get("wall_secs"), Some(&JsonValue::Null));
        assert_eq!(v.get("success_rate").unwrap().as_num(), Some(0.0));
    }
}
