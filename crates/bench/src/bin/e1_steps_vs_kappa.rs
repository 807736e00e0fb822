//! E1 — Theorem 6.1: steps per tryLock attempt are `O(κ²L²T)`.
//!
//! Sweep the contention bound κ (processes all contending on the same two
//! locks) with L = 2 and T = 4 fixed; measure the *actual work* per
//! attempt (delays disabled, so the measurement is the algorithm's real
//! step count, not the delay padding) and fit the log-log slope in κ.
//! The theorem predicts an exponent of at most 2; with delays enabled the
//! attempt length is exactly `T0 + T1 = Θ(κ²L²T)` by construction, and
//! the worst attempt measured here must fit under that budget
//! (`LockConfig::step_bound`, counted from the code, DESIGN.md §1.7).

use wfl_bench::{header, row, verdict};
use wfl_core::LockConfig;
use wfl_runtime::stats::loglog_slope;
use wfl_workloads::harness::{run_random_conflict, AlgoKind, ExecMode, SchedKind, SimSpec};

fn main() {
    println!("# E1: steps per attempt vs kappa (L=2, T=4, delays off => real work)");
    header(&["kappa", "attempts", "mean steps", "p99 steps", "max steps", "budget T0+T1"]);
    let mut points = Vec::new();
    let mut within_budget = true;
    for &kappa in &[2usize, 4, 8, 16] {
        let mut spec = SimSpec::new(kappa, 60, 2, 2);
        spec.seed = 17;
        spec.think_max = 8;
        spec.heap_words = 1 << 25;
        let algo = AlgoKind::Wfl { kappa, delays: false, helping: true };
        let r = run_random_conflict(&spec, algo, &ExecMode::sim(SchedKind::Random, 400_000_000));
        assert!(r.safety_ok, "safety violated at kappa={kappa}");
        points.push((kappa as f64, r.steps.mean()));
        // The final status read after the end-of-attempt stall is the `+ 1`.
        let budget = LockConfig::new(kappa, 2, 4).step_bound() + 1;
        within_budget &= r.steps.max() <= budget;
        row(&[
            kappa.to_string(),
            r.attempts.to_string(),
            format!("{:.1}", r.steps.mean()),
            r.steps.percentile(0.99).to_string(),
            r.steps.max().to_string(),
            budget.to_string(),
        ]);
    }
    let slope = loglog_slope(&points);
    println!();
    println!(
        "log-log slope of mean steps vs kappa: {slope:.2} (theorem allows <= 2) ... {}",
        verdict(slope <= 2.3)
    );
    println!("every attempt's real work within T0 + T1 ... {}", verdict(within_budget));
    assert!(within_budget, "an attempt's real work exceeded the delay budget");
}
