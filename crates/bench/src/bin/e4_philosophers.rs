//! E4 — §1 headline: dining philosophers eat with probability ≥ 1/4 per
//! attempt in O(1) steps, **independent of the table size**.
//!
//! κ = L = 2 regardless of n, so both the success bound and the step
//! bound are constants; the table verifies that neither degrades as n
//! grows (the key qualitative difference from O(n) deterministic
//! helping).

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_workloads::harness::{run_philosophers, AlgoKind, ExecMode, SchedKind};

fn main() {
    println!("# E4: dining philosophers — success >= 1/4, steps independent of n");
    header(&["n", "attempts", "success (99% lb)", "mean steps", "max steps", "min meals/phil", ">= 1/4"]);
    let mut all_ok = true;
    let mut step_means = Vec::new();
    for &n in &[3usize, 8, 32, 64] {
        let algo = AlgoKind::wfl(2);
        let r = run_philosophers(n, 60, 41, algo, 1 << 25, &ExecMode::sim(SchedKind::Random, 600_000_000));
        assert!(r.safety_ok, "meal counters diverged at n={n}");
        let ok = r.success().wilson_lower(2.58) >= 0.25;
        all_ok &= ok;
        step_means.push(r.steps.mean());
        let min_meals = r.per_pid.iter().map(|&(w, _)| w).min().unwrap_or(0);
        row(&[
            n.to_string(),
            r.attempts.to_string(),
            fmt_success(&r.success()),
            format!("{:.1}", r.steps.mean()),
            r.steps.max().to_string(),
            min_meals.to_string(),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    let spread = step_means.iter().cloned().fold(f64::MIN, f64::max)
        / step_means.iter().cloned().fold(f64::MAX, f64::min);
    println!("step-count spread across n: {spread:.2}x (O(1) claim: stays near 1)");
    println!("success bound 1/4 at every n: {}", verdict(all_ok));
}
