//! E3 — Theorem 6.9: each attempt succeeds with probability ≥ `1/C_p`
//! (≥ `1/(κL)`).
//!
//! Grid over (κ, L): κ processes all contending on the *same* L locks, so
//! the point contention of each lock is exactly κ and `C_p = κL`. Delays
//! are enabled (they are part of the fairness mechanism); the Wilson 99%
//! lower bound of the measured rate is compared against `1/(κL)`. A delay
//! overrun voids the theorem's precondition, so the binary exits nonzero
//! if any row misses the bound or reports an overrun.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_workloads::harness::{run_random_conflict, AlgoKind, ExecMode, SchedKind, SimSpec};

fn main() {
    println!("# E3: per-attempt success probability vs the 1/(kappa*L) bound");
    header(&[
        "kappa",
        "L",
        "attempts",
        "success rate (99% lb)",
        "bound 1/(kL)",
        "delay overruns",
        "bound held",
    ]);
    let mut all_ok = true;
    for &(kappa, l) in &[(2usize, 1usize), (2, 2), (4, 1), (4, 2), (8, 1)] {
        let mut spec = SimSpec::new(kappa, 150, l, l); // nlocks = L: everyone takes all locks
        spec.seed = 31;
        spec.think_max = 32;
        spec.heap_words = 1 << 25;
        let algo = AlgoKind::wfl(kappa);
        let r = run_random_conflict(&spec, algo, &ExecMode::sim(SchedKind::Random, 2_000_000_000));
        assert!(r.safety_ok, "safety violated at kappa={kappa} L={l}");
        let bound = 1.0 / (kappa * l) as f64;
        let ok = r.success().wilson_lower(2.58) >= bound && r.delay_overruns == 0;
        all_ok &= ok;
        row(&[
            kappa.to_string(),
            l.to_string(),
            r.attempts.to_string(),
            fmt_success(&r.success()),
            format!("{bound:.3}"),
            r.delay_overruns.to_string(),
            verdict(ok).to_string(),
        ]);
    }
    println!();
    println!("Theorem 6.9 fairness bound: {}", verdict(all_ok));
    assert!(all_ok, "a row missed the Theorem 6.9 bound or overran a delay");
}
