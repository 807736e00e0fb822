//! Lock algorithm configuration: the paper's bounds `κ`, `L`, `T` and the
//! delay budgets `T0`/`T1` derived from them.

use crate::descriptor::Desc;
use wfl_activeset::{get_set_steps, insert_max_steps, remove_max_steps};
use wfl_idem::{body_steps, Frame, HELP_FIXED_STEPS};

/// Configuration of the known-bounds lock algorithm (§6).
///
/// The paper fixes every attempt's timing: the reveal step comes exactly
/// `T0` own steps after the attempt starts, and the attempt ends exactly
/// `T1` steps after that, with `T0 = Θ(κ²L²T)` and `T1 = Θ(κLT)`. Fairness
/// (Theorem 6.9) needs only that each phase's real work fits under its
/// delay. The delays here are that work's worst case, counted path by path
/// from the code ([`DelayBudget`]). An attempt whose work still overruns a
/// delay (a thunk taking more steps than it declares, or more than `κ`
/// attempts on a lock) reports a *delay overrun* in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockConfig {
    /// `κ`: maximum point contention on any single lock.
    pub kappa: usize,
    /// `L`: maximum number of locks per tryLock attempt.
    pub l_max: usize,
    /// `T`: maximum number of shared operations in a critical section. A
    /// request also carries at most `T + 1` argument words.
    pub t_max: usize,
    /// Worst-case own steps of one critical-section body: at least the
    /// [`wfl_idem::Thunk::max_steps`] of every thunk run under this
    /// configuration. Defaults to [`wfl_idem::body_steps`]`(T)`.
    pub cs_steps: u64,
    /// Paper delays enabled (disable only for the E11 ablation).
    pub delays: bool,
    /// Pre-insert helping phase enabled (disable only for the E12
    /// ablation).
    pub helping: bool,
    /// Combining fast path enabled (E17): a winner scans its locks' active
    /// sets for still-active competitors whose lock sets are covered by
    /// its own and executes their thunks in a batch before releasing. Off by default — combining changes the counted
    /// step sequence, so recorded sim schedules replay identically unless
    /// the schedule family opts in.
    pub combine: bool,
}

/// The worst-case own steps of each phase of a tryLock attempt, counted
/// from [`crate::try_locks`] and the primitives it calls.
///
/// `κ` bounds the attempts present on a lock at once. So before inserting,
/// an attempt finds at most `κ - 1` others in each of its locks' active
/// sets; after inserting, at most `κ` members, itself included. A
/// competitor's locks outside the attempt's own set can hold `κ` each.
/// Every member may need its thunk helped at the full
/// [`LockConfig::cs_steps`]: a member can win after an earlier member's
/// thunk completes, while the same scan is still running. The exception
/// is the descriptor a run is running, a helped competitor or the
/// attempt itself: the run skips its own entry in every member list, so
/// a lock of `m` members is charged `m - 1`, and its thunk is charged one
/// full help, at the run's last celebrate. Combining
/// ([`LockConfig::combine`]) is not in `T1`: a winner whose combining
/// claims a peer ends [`DelayBudget::combine_slack`] later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBudget {
    /// Frame and descriptor creation and the fairness-probe publication.
    pub create: u64,
    /// The helping phase: every lock's revealed members, each run to
    /// completion (0 when helping is ablated).
    pub help: u64,
    /// multiInsert up to the reveal: the flag clear and one insert per
    /// lock.
    pub insert: u64,
    /// The priority draw and its reveal write.
    pub reveal: u64,
    /// `run(p)`: compete on every lock, decide and celebrate. A post-reveal
    /// abort (eliminate, status read, celebrate) costs less.
    pub settle: u64,
    /// multiRemove and the probe clear.
    pub remove: u64,
    /// With [`LockConfig::combine`], how much longer than `T0 + T1` an
    /// attempt runs once its combining claims a peer: the room a claiming
    /// winner gets for its claims, `L·(celebrate - 3)`, where a celebrate
    /// is a full thunk help. 0 without combining.
    pub combine_slack: u64,
    /// A combining settle pass ([`LockConfig::combine`]) over the
    /// attempt's locks. A winner starts one only while it and the
    /// multiRemove fit before the attempt's end.
    pub combine_pass: u64,
    /// A combining claim: the claim CAS and the claimed thunk. A winner
    /// claims only while the claim and the multiRemove fit before
    /// `T0 + T1 + combine_slack`, so no attempt runs past that.
    pub combine_claim: u64,
}

impl DelayBudget {
    /// `T0`: own steps from attempt start to the reveal stall's target.
    pub fn t0(&self) -> u64 {
        self.create + self.help + self.insert
    }

    /// `T1`: own steps from the reveal stall's target to the end of an
    /// attempt that claims no combining peer.
    pub fn t1(&self) -> u64 {
        self.reveal + self.settle + self.remove
    }
}

impl LockConfig {
    /// A configuration whose critical sections take at most
    /// [`wfl_idem::body_steps`]`(t_max)` steps.
    ///
    /// # Panics
    /// Panics if any bound is zero.
    pub fn new(kappa: usize, l_max: usize, t_max: usize) -> LockConfig {
        assert!(kappa > 0 && l_max > 0 && t_max > 0, "bounds must be positive");
        LockConfig {
            kappa,
            l_max,
            t_max,
            cs_steps: body_steps(t_max),
            delays: true,
            helping: true,
            combine: false,
        }
    }

    /// Raises the critical-section step budget to `cs_steps`, for thunks
    /// whose bodies take local steps or read extra arguments (their
    /// [`wfl_idem::Thunk::max_steps`]).
    pub fn with_cs_steps(mut self, cs_steps: u64) -> LockConfig {
        self.cs_steps = self.cs_steps.max(cs_steps);
        self
    }

    /// Each phase's worst-case own steps under these bounds.
    pub fn budget(&self) -> DelayBudget {
        let (k, l) = (self.kappa as u64, self.l_max as u64);
        let others = k - 1;
        // celebrateIfWon: status and frame reads, then Frame::help.
        let celebrate = 2 + HELP_FIXED_STEPS + self.cs_steps;
        // One member in run(): its status, both priorities, an eliminate.
        let member = 4 + celebrate;
        // getSet, then the flag filter's priority read per member.
        let revealed = |m: u64| get_set_steps(m as usize) + m;
        // One lock in run(): its id, its members, the run's status, then
        // each member but the run's own descriptor, which it skips:
        //
        // 1. The own entry decides nothing: its priorities are equal.
        // 2. Its celebrate adds nothing. Every run ends with decide and a
        //    celebrate of its own descriptor; a mid-scan one ran the body
        //    only if that descriptor was already WON or COMBINED, and then
        //    mutual exclusion leaves no other member of the lock won but
        //    incomplete, so no later member waits on it.
        // 3. m - 1 members bound every lock. A run's descriptor missing
        //    from a revealed list has begun its multiRemove, whose flag
        //    clear follows its status leaving ACTIVE; so the status read
        //    after the getSet skips the members, and the lock costs
        //    1 + revealed(m) + 1.
        //
        // So every descriptor a run runs, a helped competitor or the
        // attempt itself, is charged one full help: its last celebrate.
        // At κ = 1 no other member exists.
        let lock = |m: u64| 1 + revealed(m) + 1 + m.saturating_sub(1) * member;
        // run(): lock-count and snapshot reads, the locks, decide, celebrate.
        let run = |locks: u64| 2 + locks + 1 + celebrate;
        // A helped competitor q shares the lock it was found on, where this
        // attempt is not yet a member, and may hold L - 1 others.
        let helped = run(lock(others) + (l - 1) * lock(k));
        // Per member of a settle pass: a status read, the cover check
        // (lock count and up to L lock ids), an eliminate, a re-read.
        let pass = l * (revealed(k) + k * (4 + l));
        let help = if self.helping { l * (revealed(others) + others * helped) } else { 0 };
        DelayBudget {
            create: Frame::create_steps(self.t_max + 1) + Desc::create_steps(self.l_max) + 1,
            help,
            insert: 1 + l * insert_max_steps(self.kappa),
            reveal: 2,
            // The attempt is a member of each of its own locks, so the
            // same count holds for run(p).
            settle: run(l * lock(k)),
            remove: 1 + l * remove_max_steps(self.kappa) + 1,
            combine_slack: if self.combine { l * (celebrate - 3) } else { 0 },
            combine_pass: pass,
            combine_claim: 1 + celebrate,
        }
    }

    /// `T0`: the fixed number of own steps from attempt start to the
    /// reveal step ([`DelayBudget::t0`]).
    pub fn t0(&self) -> u64 {
        self.budget().t0()
    }

    /// `T1`: the fixed number of own steps from the reveal step to the end
    /// of the attempt ([`DelayBudget::t1`]).
    pub fn t1(&self) -> u64 {
        self.budget().t1()
    }

    /// The per-attempt step bound of Theorem 6.1: with delays enabled every
    /// attempt takes exactly `T0 + T1` own steps, plus one final status
    /// read (an abort returns earlier). An attempt whose combining claims
    /// a peer takes [`DelayBudget::combine_slack`] more.
    pub fn step_bound(&self) -> u64 {
        let b = self.budget();
        b.t0() + b.t1() + b.combine_slack
    }

    /// Disables the fixed delays (E11 ablation). The algorithm remains
    /// safe (mutual exclusion holds) but the fairness bound is forfeited.
    pub fn without_delays(mut self) -> LockConfig {
        self.delays = false;
        self
    }

    /// Enables the combining fast path (E17): winners batch-execute
    /// compatible pending thunks before releasing, and a winner that does
    /// ends [`DelayBudget::combine_slack`] later. Safe for mutual
    /// exclusion and exactly-once (the grant is a one-shot status CAS,
    /// arbitrating against `eliminate`/`decide` like any helper), but it
    /// perturbs step counts, so only opt in where determinism against
    /// previously recorded schedules is not required.
    pub fn with_combining(mut self) -> LockConfig {
        self.combine = true;
        self
    }

    /// Disables the pre-insert helping phase (E12 ablation). Mutual
    /// exclusion still holds but both the fairness argument and the
    /// bounded-steps-under-stall property are forfeited.
    pub fn without_helping(mut self) -> LockConfig {
        self.helping = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_matches_a_hand_count() {
        // κ = 2, L = 2, T = 4: a body of 4 operations at 5 steps and 5
        // argument reads; helping it costs 5 more, celebrating it 2 more.
        let cfg = LockConfig::new(2, 2, 4);
        assert_eq!(cfg.cs_steps, 25);
        let celebrate = 2 + 5 + 25;
        let member = 4 + celebrate;
        // A lock is charged every member but the run's own descriptor.
        // With one member (the run's own): id, getSet (1 + 2), one
        // priority, the run's status; with two: getSet (1 + 4), two
        // priorities, the status and the other member.
        let (lock1, lock2) = (1 + 4 + 1, 1 + 7 + 1 + member);
        // A run's own thunk is charged one full help, at its last
        // celebrate. That holds for a helped competitor and for the
        // attempt itself.
        let helped = 2 + lock1 + lock2 + 1 + celebrate;
        let b = cfg.budget();
        assert_eq!(b.create, (4 + 5) + (3 + 2) + 1);
        assert_eq!(b.help, 2 * (4 + helped));
        assert_eq!(b.help, 180);
        // An insert claims one of 2 slots (≤ 4 steps) and climbs 2 levels
        // twice at ≤ 7 steps per pass.
        assert_eq!(b.insert, 1 + 2 * (4 + 28));
        assert_eq!(b.settle, 2 + 2 * lock2 + 1 + celebrate);
        assert_eq!(b.settle, 125);
        assert_eq!(b.remove, 1 + 2 * (1 + 28) + 1);
        assert_eq!(b.combine_slack, 0);
        assert_eq!((b.t0(), b.t1()), (260, 187));
        assert_eq!(cfg.step_bound(), 447);
        // A pass over 2 locks of 2 members: getSet, flag filter, and per
        // member status, cover check, eliminate, re-read. A claim: the
        // CAS and the claimed thunk.
        assert_eq!(b.combine_pass, 2 * (7 + 2 * 6));
        assert_eq!(b.combine_claim, 1 + celebrate);
        // Combining leaves T0 and T1 as they are; an attempt that claims
        // a peer gets L full helps less a 3-step repeat each of room.
        let slack = 2 * (celebrate - 3);
        let combining = cfg.with_combining();
        assert_eq!(combining.budget(), DelayBudget { combine_slack: slack, ..b });
        assert_eq!((combining.budget().t1(), slack), (187, 58));
        assert_eq!(combining.step_bound(), 505);
        assert_eq!(cfg.without_helping().budget().help, 0);
        // At κ = 1 a run's lock holds no other member.
        assert_eq!(LockConfig::new(1, 2, 4).budget().settle, 2 + 2 * lock1 + 1 + celebrate);
    }

    #[test]
    fn budget_grows_as_the_paper_bounds() {
        // T0 = Θ(κ²L²T) and T1 = Θ(κLT): doubling κ or L roughly
        // quadruples the helping phase and doubles the settle phase.
        let base = LockConfig::new(4, 4, 8).budget();
        for (cfg, t0_factor, t1_factor) in [
            (LockConfig::new(8, 4, 8), 3.5, 1.8),
            (LockConfig::new(4, 8, 8), 3.5, 1.8),
        ] {
            let b = cfg.budget();
            assert!(b.help as f64 >= t0_factor * base.help as f64, "{cfg:?}");
            assert!(b.settle as f64 >= t1_factor * base.settle as f64, "{cfg:?}");
        }
        // Both phases are affine in T with a positive slope: every thunk
        // help costs `cs_steps = body_steps(T)`, and nothing else depends
        // on T.
        let at = |t| LockConfig::new(4, 4, t).budget();
        let (b1, b2, b3) = (at(8), at(16), at(24));
        for phase in [|b: &DelayBudget| b.help, |b: &DelayBudget| b.settle] {
            let step = phase(&b2) - phase(&b1);
            assert!(step > 0);
            assert_eq!(phase(&b3) - phase(&b2), step);
        }
    }

    #[test]
    fn cs_steps_only_ever_rises() {
        let cfg = LockConfig::new(3, 2, 5);
        assert_eq!(cfg.with_cs_steps(1).cs_steps, cfg.cs_steps);
        let heavy = cfg.with_cs_steps(500);
        assert_eq!(heavy.cs_steps, 500);
        assert!(heavy.t0() > cfg.t0() && heavy.t1() > cfg.t1());
    }

    #[test]
    fn ablation_builders() {
        let cfg = LockConfig::new(2, 2, 2);
        assert!(cfg.delays && cfg.helping && !cfg.combine);
        assert!(!cfg.without_delays().delays);
        assert!(!cfg.without_helping().helping);
        assert!(cfg.with_combining().combine);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_rejected() {
        LockConfig::new(0, 1, 1);
    }
}
