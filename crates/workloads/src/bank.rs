//! Bank transfers: the classic multi-lock workload with a global
//! conservation invariant.
//!
//! A transfer locks the two account locks, and its critical section moves
//! money if the source balance suffices. Whatever the interleaving, the
//! sum of all balances must be conserved and no balance may go negative —
//! any mutual-exclusion or idempotence failure shows up as a violation.

use crate::algo::{AlgoKind, AlgoSpec};
use crate::driver::{drive_epochs, EpochWorkload, ExecMode};
use crate::outcomes::{HarnessReport, Outcomes};
use std::sync::Mutex;
use wfl_baselines::{AttemptOutcome, LockAlgo};
use wfl_core::{LockId, Scratch, TryLockRequest};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_runtime::rng::Pcg;
use wfl_runtime::{Addr, Ctx, Heap};

/// The transfer critical section: `if bal[from] >= amt { bal[from] -= amt;
/// bal[to] += amt }` (2 reads + up to 2 writes).
pub struct TransferThunk;

impl Thunk for TransferThunk {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let from = Addr::from_word(run.arg(0));
        let to = Addr::from_word(run.arg(1));
        let amt = run.arg(2) as u32;
        let b_from = run.read(from);
        let b_to = run.read(to);
        if b_from >= amt {
            run.write(from, b_from - amt);
            run.write(to, b_to + amt);
        }
    }
    fn max_ops(&self) -> usize {
        4
    }
}

/// A bank of `n` accounts, each protected by its own lock (lock id =
/// account id).
#[derive(Debug, Clone, Copy)]
pub struct Bank {
    /// Number of accounts.
    pub n: usize,
    /// Base address of the balances (tagged cells).
    pub balances: Addr,
    /// The registered transfer thunk.
    pub transfer: ThunkId,
}

impl Bank {
    /// Allocates `n` accounts with `initial` balance each.
    pub fn create_root(heap: &Heap, registry: &mut Registry, n: usize, initial: u32) -> Bank {
        Bank::re_root(heap, n, initial, registry.register(TransferThunk))
    }

    /// (Re-)allocates the accounts against a pre-registered transfer thunk
    /// — the epoch-lifecycle hook (thunks register once per run, heap
    /// roots are re-created after every quiescent reset).
    pub fn re_root(heap: &Heap, n: usize, initial: u32, transfer: ThunkId) -> Bank {
        assert!(n >= 2, "need at least two accounts");
        let balances = heap.alloc_root(n);
        for i in 0..n {
            heap.poke(balances.off(i as u32), cell::untagged(initial));
        }
        Bank { n, balances, transfer }
    }

    /// One transfer attempt of `amt` from account `a` to account `b`.
    ///
    /// # Panics
    /// Panics if `a == b` (a transfer needs two distinct accounts).
    #[allow(clippy::too_many_arguments)]
    pub fn attempt_transfer<A: LockAlgo + ?Sized>(
        &self,
        ctx: &Ctx<'_>,
        algo: &A,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        a: usize,
        b: usize,
        amt: u32,
    ) -> wfl_baselines::AttemptOutcome {
        assert_ne!(a, b, "transfer needs two distinct accounts");
        let locks = [LockId(a as u32), LockId(b as u32)];
        let args = [
            self.balances.off(a as u32).to_word(),
            self.balances.off(b as u32).to_word(),
            amt as u64,
        ];
        let req = TryLockRequest { locks: &locks, thunk: self.transfer, args: &args };
        algo.attempt(ctx, tags, scratch, &req)
    }

    /// The sum of all balances (uncounted inspection).
    pub fn total(&self, heap: &Heap) -> u64 {
        (0..self.n).map(|i| cell::value(heap.peek(self.balances.off(i as u32))) as u64).sum()
    }

    /// One account's balance (uncounted inspection).
    pub fn balance(&self, heap: &Heap, i: usize) -> u32 {
        cell::value(heap.peek(self.balances.off(i as u32)))
    }
}

/// History op code recorded by [`run_bank_recorded`] for a winning
/// transfer. Numerically equal to `wfl_lincheck::regular::MS_INSERT`: a won
/// transfer "inserts" its unique token, so a set-regularity pass against a
/// final getSet synthesized from the *heap-recorded* outcomes cross-checks
/// the real-mode history pipeline against the outcome recording.
pub const BANK_HIST_WIN: u32 = 20;
/// History op code for a losing transfer attempt (ignored by the
/// set-regularity checker; recorded so the event stream covers every
/// attempt).
pub const BANK_HIST_LOSS: u32 = 99;

/// The unique history token for the bank attempt `(pid, global round)`.
pub fn bank_history_token(pid: usize, round: usize) -> u64 {
    ((pid as u64 + 1) << 32) | (round as u64 + 1)
}

/// The bank workload behind the epoch hooks.
struct BankWl {
    accounts: usize,
    initial: u32,
    seed: u64,
    transfer: ThunkId,
    /// Record invoke/respond history events for global rounds below this
    /// bound (0 = off; [`run_bank_recorded`] sets it to the first
    /// epoch's length).
    record_rounds: usize,
    /// Tokens of heap-recorded wins among the recorded rounds, collected at
    /// the epoch boundary (the cross-check oracle).
    win_tokens: Mutex<Vec<u64>>,
}

impl EpochWorkload for BankWl {
    type Roots = Bank;
    type Local = ();

    fn re_root(&self, heap: &Heap, _epoch: usize) -> Bank {
        Bank::re_root(heap, self.accounts, self.initial, self.transfer)
    }

    fn local(&self, _ctx: &Ctx<'_>, _roots: &Bank) {}

    fn round(
        &self,
        ctx: &Ctx<'_>,
        bank: &Bank,
        _local: &mut (),
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        _slot: usize,
    ) -> AttemptOutcome {
        let mut rng = Pcg::new(self.seed ^ 0xBA2C, ((pid as u64) << 32) | round as u64);
        let a = rng.below(self.accounts as u64) as usize;
        let mut b = rng.below(self.accounts as u64 - 1) as usize;
        if b >= a {
            b += 1;
        }
        let amt = 1 + rng.below(30) as u32;
        let out = bank.attempt_transfer(ctx, algo, tags, scratch, a, b, amt);
        if round < self.record_rounds {
            // Bracket the *known outcome* right after the attempt (a
            // linearization-point-style recording: the transfer has taken
            // effect by now, and the token interval precedes any later
            // audit event). Won attempts are set-regularity inserts;
            // losses use an opcode the checker ignores.
            let op = if out.won { BANK_HIST_WIN } else { BANK_HIST_LOSS };
            ctx.invoke(op, bank_history_token(pid, round), 0);
            ctx.respond(out.won as u64, vec![]);
        }
        let think = ctx.rand_below(16);
        for _ in 0..think {
            ctx.local_step();
        }
        out
    }

    fn check(&self, heap: &Heap, bank: &Bank, rec: &Outcomes) -> (HarnessReport, bool) {
        let mut tokens = Vec::new();
        let report = rec.aggregate(heap, |pid, round| {
            if round < self.record_rounds {
                tokens.push(bank_history_token(pid, round));
            }
        });
        if !tokens.is_empty() {
            self.win_tokens.lock().unwrap().extend(tokens);
        }
        // Conservation: any mutual-exclusion or idempotence failure moves
        // money (schedule-independent, so no win reconstruction needed).
        let safe = bank.total(heap) == (self.accounts as u64) * (self.initial as u64);
        (report, safe)
    }
}

/// Runs the bank-transfer workload on either backend: `nprocs` processes
/// each make up to `rounds` two-account transfers per epoch with
/// deterministic `(seed, pid, round)` account/amount choices. Safety check
/// (every epoch): the sum of all balances equals the initial total
/// (conservation — any mutual-exclusion or idempotence failure moves
/// money).
#[allow(clippy::too_many_arguments)]
pub fn run_bank(
    nprocs: usize,
    accounts: usize,
    rounds: usize,
    initial: u32,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    run_bank_inner(nprocs, accounts, rounds, initial, seed, algo, heap_words, mode, false).0
}

/// Like [`run_bank`], but records a history of the **first epoch**'s
/// transfer attempts (invoke/respond events with [`BANK_HIST_WIN`] /
/// [`BANK_HIST_LOSS`] opcodes) and returns the [`bank_history_token`]s of
/// the first epoch's heap-recorded wins alongside the report. Feed the
/// history plus a synthetic final getSet built from the tokens to
/// `wfl_lincheck::regular` to cross-check the real-mode history pipeline
/// (use [`wfl_runtime::real::RealConfig::precise`] so event timestamps
/// are globally ordered).
#[allow(clippy::too_many_arguments)]
pub fn run_bank_recorded(
    nprocs: usize,
    accounts: usize,
    rounds: usize,
    initial: u32,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> (HarnessReport, Vec<u64>) {
    run_bank_inner(nprocs, accounts, rounds, initial, seed, algo, heap_words, mode, true)
}

#[allow(clippy::too_many_arguments)]
fn run_bank_inner(
    nprocs: usize,
    accounts: usize,
    rounds: usize,
    initial: u32,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
    record_first_epoch: bool,
) -> (HarnessReport, Vec<u64>) {
    assert!(accounts >= 2);
    let mut registry = Registry::new();
    let transfer = registry.register(TransferThunk);
    let heap = Heap::new(heap_words);
    let aspec = AlgoSpec::new(algo, accounts, nprocs, 2, 4, &registry);
    let wl = BankWl {
        accounts,
        initial,
        seed,
        transfer,
        record_rounds: if record_first_epoch { mode.epoch_len(rounds) } else { 0 },
        win_tokens: Mutex::new(Vec::new()),
    };
    let report = drive_epochs(&heap, &registry, aspec, nprocs, seed, rounds, mode, &wl);
    let tokens = wl.win_tokens.into_inner().unwrap();
    (report, tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_baselines::WflKnown;
    use wfl_core::{LockConfig, LockSpace};
    use wfl_runtime::schedule::{Bursty, SeededRandom};
    use wfl_runtime::sim::SimBuilder;

    fn run_bank(nprocs: usize, accounts: usize, rounds: usize, seed: u64, bursty: bool) {
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 22);
        let bank = Bank::create_root(&heap, &mut registry, accounts, 100);
        let space = LockSpace::create_root(&heap, accounts, nprocs);
        let algo = WflKnown {
            space: &space,
            registry: &registry,
            cfg: LockConfig::new(nprocs, 2, 4).without_delays(),
        };
        let initial_total = bank.total(&heap);
        let (algo_ref, bank_ref) = (&algo, &bank);
        let mut builder = SimBuilder::new(&heap, nprocs).seed(seed).max_steps(100_000_000);
        builder = if bursty {
            builder.schedule(Bursty::new(nprocs, 30, seed))
        } else {
            builder.schedule(SeededRandom::new(nprocs, seed))
        };
        let report = builder
            .spawn_all(|pid| {
                move |ctx: &Ctx| {
                    let mut tags = TagSource::new(pid);
                    let mut scratch = Scratch::new();
                    for _ in 0..rounds {
                        let a = ctx.rand_below(accounts as u64) as usize;
                        let mut b = ctx.rand_below(accounts as u64) as usize;
                        if b == a {
                            b = (b + 1) % accounts;
                        }
                        let amt = 1 + ctx.rand_below(30) as u32;
                        bank_ref.attempt_transfer(ctx, algo_ref, &mut tags, &mut scratch, a, b, amt);
                    }
                }
            })
            .run();
        report.assert_clean();
        assert_eq!(bank.total(&heap), initial_total, "seed {seed}: money not conserved");
    }

    #[test]
    fn money_is_conserved_random_schedules() {
        for seed in 0..8 {
            run_bank(3, 4, 6, seed, false);
        }
    }

    #[test]
    fn money_is_conserved_bursty_schedules() {
        for seed in 0..8 {
            run_bank(4, 3, 5, 100 + seed, true);
        }
    }

    #[test]
    fn insufficient_funds_leave_balances_untouched() {
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 20);
        let bank = Bank::create_root(&heap, &mut registry, 2, 10);
        let space = LockSpace::create_root(&heap, 2, 1);
        let algo = WflKnown {
            space: &space,
            registry: &registry,
            cfg: LockConfig::new(1, 2, 4).without_delays(),
        };
        let (algo_ref, bank_ref) = (&algo, &bank);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let out = bank_ref.attempt_transfer(ctx, algo_ref, &mut tags, &mut scratch, 0, 1, 50);
                assert!(out.won, "uncontended attempt must win");
            })
            .run();
        report.assert_clean();
        assert_eq!(bank.balance(&heap, 0), 10, "guard must block the overdraft");
        assert_eq!(bank.balance(&heap, 1), 10);
    }
}
