//! Dining philosophers — the paper's running example (§1).
//!
//! Each philosopher's eating attempt is a tryLock on its two chopsticks.
//! With the paper's algorithm, every attempt succeeds with probability at
//! least 1/4 (κ = L = 2) and takes O(1) steps, independent of the number
//! of philosophers — no philosopher can starve, even if its neighbor is
//! stalled forever.
//!
//! Run with: `cargo run --release --example dining_philosophers`

use wait_free_locks::workloads::harness::{run_philosophers, AlgoKind, ExecMode, SchedKind};

fn main() {
    println!("n philosophers | attempts | success rate | mean steps | max steps | fair share");
    println!("---------------|----------|--------------|------------|-----------|-----------");
    for n in [3usize, 5, 8, 16] {
        let algo = AlgoKind::wfl(2);
        let mode = ExecMode::sim(SchedKind::Random, 600_000_000);
        let report = run_philosophers(n, 40, 7, algo, 1 << 24, &mode);
        assert!(report.safety_ok, "meal counters diverged");
        let min_wins = report.per_pid.iter().map(|&(w, _)| w).min().unwrap_or(0);
        println!(
            "{:>14} | {:>8} | {:>11.3} | {:>10.1} | {:>9} | every philosopher ate >= {} times",
            n,
            report.attempts,
            report.success().rate(),
            report.steps.mean(),
            report.steps.max(),
            min_wins,
        );
    }
    println!();
    println!("Theorem 1.1 (special case): success probability >= 1/4 per attempt,");
    println!("step counts independent of n — compare the rows above.");
}
