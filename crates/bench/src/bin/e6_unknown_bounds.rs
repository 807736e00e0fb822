//! E6 — Theorem 6.10: the unknown-bounds variant (§6.2) succeeds with
//! probability ≥ `1/(C_p · log(κLT))`, without knowing κ, L or T.
//!
//! Same contention grid as E3, run under both the known-bounds algorithm
//! and the §6.2 variant; the table compares measured rates against both
//! bounds. Also reports the E6b ablation note: the conservative
//! self-eliminate-on-TBD rule's cost shows up as the gap between the two
//! algorithms' rates under skewed schedules.
//!
//! Exits nonzero on a safety violation or when any row's Wilson 99% lower
//! bound on the unknown-bounds rate falls below Theorem 6.10's bound.

use wfl_bench::{fmt_success, header, row, verdict};
use wfl_workloads::harness::{run_random_conflict, AlgoKind, ExecMode, SchedKind, SimSpec};

fn main() {
    println!("# E6: unknown-bounds variant vs Theorem 6.10 bound");
    header(&[
        "kappa",
        "L",
        "sched",
        "known rate",
        "unknown rate",
        "bound 1/(kL log(kLT))",
        "bound held",
    ]);
    let mut all_ok = true;
    for &(kappa, l) in &[(2usize, 1usize), (2, 2), (4, 1)] {
        for sched in [SchedKind::Random, SchedKind::WeightedRamp] {
            let mut spec = SimSpec::new(kappa, 120, l, l);
            spec.seed = 67;
            spec.think_max = 32;
            spec.heap_words = 1 << 25;
            let mode = ExecMode::sim(sched, 2_000_000_000);
            let algo = AlgoKind::wfl(kappa);
            let known = run_random_conflict(&spec, algo, &mode);
            let unknown = run_random_conflict(&spec, AlgoKind::WflUnknown, &mode);
            assert!(known.safety_ok && unknown.safety_ok, "safety violated");
            let t = 2 * l;
            let log_factor = ((kappa * l * t) as f64).ln().max(1.0);
            let bound = 1.0 / ((kappa * l) as f64 * log_factor);
            let ok = unknown.success().wilson_lower(2.58) >= bound;
            all_ok &= ok;
            row(&[
                kappa.to_string(),
                l.to_string(),
                format!("{sched:?}"),
                fmt_success(&known.success()),
                fmt_success(&unknown.success()),
                format!("{bound:.3}"),
                verdict(ok).to_string(),
            ]);
        }
    }
    println!();
    println!("Theorem 6.10 bound: {}", verdict(all_ok));
    println!("(E6b) the known-vs-unknown rate gap under WeightedRamp reflects the");
    println!("conservative self-eliminate-on-TBD reconstruction (DESIGN.md §1.6).");
    assert!(all_ok, "a row missed the Theorem 6.10 bound");
}
