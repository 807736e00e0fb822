//! E2 — Theorem 6.1: steps per tryLock attempt are `O(κ²L²T)`, sweep L.
//!
//! κ = 4 processes; each attempt takes L locks drawn from 2·L locks, with
//! the critical section touching all of them (so T = 2L grows with L as in
//! real multi-lock transactions — the pure-L exponent is measured against
//! the combined L²·T = 2L³... the table reports both the raw slope and the
//! slope after normalizing out T).

use wfl_bench::{header, row, verdict};
use wfl_runtime::stats::loglog_slope;
use wfl_workloads::harness::{run_random_conflict, AlgoKind, ExecMode, SchedKind, SimSpec};

fn main() {
    println!("# E2: steps per attempt vs L (kappa=4, T=2L, delays off => real work)");
    header(&["L", "attempts", "mean steps", "p99 steps", "max steps", "mean/T (normalized)"]);
    let mut raw = Vec::new();
    let mut normalized = Vec::new();
    for &l in &[1usize, 2, 4, 8] {
        let mut spec = SimSpec::new(4, 50, 2 * l, l);
        spec.seed = 23;
        spec.heap_words = 1 << 25;
        let algo = AlgoKind::Wfl { kappa: 4, delays: false, helping: true };
        let r = run_random_conflict(&spec, algo, &ExecMode::sim(SchedKind::Random, 400_000_000));
        assert!(r.safety_ok, "safety violated at L={l}");
        let t = (2 * l) as f64;
        raw.push((l as f64, r.steps.mean()));
        normalized.push((l as f64, r.steps.mean() / t));
        row(&[
            l.to_string(),
            r.attempts.to_string(),
            format!("{:.1}", r.steps.mean()),
            r.steps.percentile(0.99).to_string(),
            r.steps.max().to_string(),
            format!("{:.1}", r.steps.mean() / t),
        ]);
    }
    let slope_raw = loglog_slope(&raw);
    let slope_norm = loglog_slope(&normalized);
    println!();
    println!("raw slope vs L (includes T=2L growth): {slope_raw:.2}");
    println!(
        "T-normalized slope vs L: {slope_norm:.2} (theorem allows <= 2) ... {}",
        verdict(slope_norm <= 2.3)
    );
}
