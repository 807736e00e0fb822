//! The binary event record and its kind vocabulary.
//!
//! One event is four words: kind, the emitting process's logical-clock
//! reading (`Ctx::now`), its own-step counter (`Ctx::steps`), and one
//! kind-specific argument word. Phase step-splits are *derived*, not
//! stored: each phase-boundary event carries the step counter at the
//! boundary, so `help = HelpDone.steps - AttemptStart.steps` and so on —
//! the recorder never does arithmetic on the hot path.

/// What an [`Event`] marks. Discriminants are stable (they appear in
/// drained snapshots and exported traces); append, never renumber.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A tryLock attempt began (descriptor created). `arg` = lock count.
    AttemptStart = 1,
    /// The pre-insert helping phase finished (every conflicting decided
    /// descriptor was helped to completion). `arg` = locks helped.
    HelpDone = 2,
    /// The descriptor is inserted and revealed (the `T0` stall, the
    /// multiInsert, and the priority reveal are all behind). `arg` = 0.
    RevealDone = 3,
    /// The compete/settle phase decided the attempt (eliminate or decide
    /// CAS resolved). `arg` = 1 if this attempt won its locks, else 0.
    SettleDone = 4,
    /// The attempt returned. `arg` = [`AttemptOutcomeBits`].
    AttemptEnd = 5,
    /// The attempt aborted. `arg` = abort reason index (the stable
    /// `AbortReason` encoding: 0 deadline, 1 stop), `| 1 << 8` when the
    /// abort happened after the reveal (the elimination-race window).
    Abort = 6,
    /// An abandoned attempt turned out to have been completed by a
    /// helper (a rescued win). `arg` = 0.
    Rescue = 7,
    /// A combining winner claimed a compatible pending peer descriptor
    /// (wfl fast path). `arg` = the claimed peer's descriptor item word.
    CombineClaim = 8,
    /// A retry loop gave up. `arg` = the stable `GiveUp` reason index.
    GiveUp = 9,
    /// An epoch boundary was crossed (quiescent reset). `arg` = the epoch
    /// number just closed. Emitted on the leader's own ring in real mode
    /// (the control ring may be mid-write by the fault injector thread);
    /// the sim host, which has no pid, uses the control ring with
    /// `now` 0.
    EpochBarrier = 10,
    /// A fault-injection window opened. `arg` = victim pid. Emitted on
    /// the control ring ([`crate::CTRL_PID`]).
    FaultStart = 11,
    /// The matching fault window closed. `arg` = victim pid.
    FaultEnd = 12,
    /// A delegation combiner (fc scan / ccsynch queue walk) started its
    /// stint. `arg` = 0.
    CombinerEnter = 13,
    /// The combiner applied one published request. `arg` = the owner pid
    /// (flat combining) or the request node's address word (ccsynch).
    CombinerApply = 14,
    /// The combiner's stint ended. `arg` = requests applied.
    CombinerExit = 15,
}

impl EventKind {
    /// Decodes a stored discriminant; `None` for unknown words (a
    /// corrupted or future-version ring).
    pub fn from_u64(v: u64) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::AttemptStart,
            2 => EventKind::HelpDone,
            3 => EventKind::RevealDone,
            4 => EventKind::SettleDone,
            5 => EventKind::AttemptEnd,
            6 => EventKind::Abort,
            7 => EventKind::Rescue,
            8 => EventKind::CombineClaim,
            9 => EventKind::GiveUp,
            10 => EventKind::EpochBarrier,
            11 => EventKind::FaultStart,
            12 => EventKind::FaultEnd,
            13 => EventKind::CombinerEnter,
            14 => EventKind::CombinerApply,
            15 => EventKind::CombinerExit,
            _ => return None,
        })
    }

    /// Stable display name (used in postmortem dumps and trace export).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::AttemptStart => "attempt_start",
            EventKind::HelpDone => "help_done",
            EventKind::RevealDone => "reveal_done",
            EventKind::SettleDone => "settle_done",
            EventKind::AttemptEnd => "attempt_end",
            EventKind::Abort => "abort",
            EventKind::Rescue => "rescue",
            EventKind::CombineClaim => "combine_claim",
            EventKind::GiveUp => "give_up",
            EventKind::EpochBarrier => "epoch_barrier",
            EventKind::FaultStart => "fault_start",
            EventKind::FaultEnd => "fault_end",
            EventKind::CombinerEnter => "combiner_enter",
            EventKind::CombinerApply => "combiner_apply",
            EventKind::CombinerExit => "combiner_exit",
        }
    }
}

/// Bit layout of one attempt's outcome, shared by every observer: the
/// [`EventKind::AttemptEnd`] argument, and (plus one, so 0 means "not
/// run") the harness outcome book's and the player loop's slot words.
/// `wfl_core::AttemptMetrics::bits` packs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptOutcomeBits(pub u64);

impl AttemptOutcomeBits {
    /// The attempt won its locks: its thunk ran.
    pub const WON: u64 = 1;
    /// The attempt was abandoned mid-flight (deadline or stop flag).
    pub const ABORTED: u64 = 2;
    /// Abandoned, but a helper or combiner had already completed it: a
    /// win, so it implies [`Self::WON`] and [`Self::ABORTED`].
    pub const RESCUED: u64 = 4;
    /// The win was granted by a combining holder: implies [`Self::WON`],
    /// never set with [`Self::RESCUED`].
    pub const COMBINED: u64 = 8;
    /// The attempt's real work overran a delay target (Theorem 6.9 void).
    pub const OVERRUN: u64 = 16;
    /// Every flag above.
    pub const FLAGS: u64 =
        Self::WON | Self::ABORTED | Self::RESCUED | Self::COMBINED | Self::OVERRUN;
    /// The combined-peer count lives above the flag bits. Bits 5–7 stay
    /// free for a word's owner (the outcome book keeps its stop-flag
    /// sample there).
    pub const PEERS_SHIFT: u32 = 8;

    pub fn won(self) -> bool {
        self.0 & Self::WON != 0
    }
    pub fn aborted(self) -> bool {
        self.0 & Self::ABORTED != 0
    }
    pub fn rescued(self) -> bool {
        self.0 & Self::RESCUED != 0
    }
    pub fn combined(self) -> bool {
        self.0 & Self::COMBINED != 0
    }
    pub fn overrun(self) -> bool {
        self.0 & Self::OVERRUN != 0
    }
    pub fn peers(self) -> u64 {
        self.0 >> Self::PEERS_SHIFT
    }

    /// Whether the flags can describe one attempt: `combined ⇒ won`,
    /// `rescued ⇒ won ∧ aborted`, and never `combined ∧ rescued`.
    pub fn consistent(self) -> bool {
        (!self.combined() || self.won())
            && (!self.rescued() || (self.won() && self.aborted()))
            && !(self.combined() && self.rescued())
    }

    /// A compact human label, e.g. `"won"`, `"won+combined(2)"`.
    pub fn describe(self) -> String {
        let mut parts = Vec::new();
        if self.won() {
            parts.push("won".to_string());
        }
        if self.aborted() {
            parts.push("aborted".to_string());
        }
        if self.rescued() {
            parts.push("rescued".to_string());
        }
        if self.combined() {
            parts.push(format!("combined({})", self.peers()));
        }
        if parts.is_empty() {
            parts.push("lost".to_string());
        }
        if self.overrun() {
            parts.push("overrun".to_string());
        }
        parts.join("+")
    }
}

/// One flight-recorder record (see module docs). `now` and `steps` are
/// the emitting process's uncounted clock/step readings at emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub kind: EventKind,
    /// Logical-clock reading of the process's most recent step. In the
    /// simulator this is the deterministic global slot count; on real
    /// threads it is exact (`Precise`) or lease-granular (`Leased`).
    pub now: u64,
    /// The process's own-step counter at emission.
    pub steps: u64,
    /// Kind-specific argument (see [`EventKind`] variants).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_words() {
        for v in 0..=32u64 {
            if let Some(k) = EventKind::from_u64(v) {
                assert_eq!(k as u64, v);
                assert!(!k.label().is_empty());
            }
        }
        assert_eq!(EventKind::from_u64(0), None);
        assert_eq!(EventKind::from_u64(999), None);
    }

    #[test]
    fn outcome_bits_pack_and_unpack() {
        use super::AttemptOutcomeBits as B;
        let b = B(B::WON | B::COMBINED | 3 << B::PEERS_SHIFT);
        assert!(b.won() && !b.aborted() && !b.rescued() && b.combined() && !b.overrun());
        assert_eq!(b.peers(), 3);
        assert_eq!(b.describe(), "won+combined(3)");
        assert_eq!(B(0).describe(), "lost");
        assert_eq!(B(B::WON | B::ABORTED | B::RESCUED).describe(), "won+aborted+rescued");
        assert_eq!(B(B::OVERRUN).describe(), "lost+overrun");
        // Every flag combination round-trips through the word, beside any
        // peer count, and the consistency rule accepts exactly the
        // combinations an attempt can report.
        for flags in 0..=B::FLAGS {
            for peers in [0, 1, 7, 1 << 20] {
                let b = B(flags | peers << B::PEERS_SHIFT);
                let back = (b.won() as u64 * B::WON)
                    | (b.aborted() as u64 * B::ABORTED)
                    | (b.rescued() as u64 * B::RESCUED)
                    | (b.combined() as u64 * B::COMBINED)
                    | (b.overrun() as u64 * B::OVERRUN);
                assert_eq!((back, b.peers()), (flags, peers), "flags {flags:#b}");
            }
            let (won, aborted) = (flags & B::WON != 0, flags & B::ABORTED != 0);
            let (rescued, combined) = (flags & B::RESCUED != 0, flags & B::COMBINED != 0);
            let legal = match (rescued, combined) {
                (false, false) => true,
                (true, false) => won && aborted,
                (false, true) => won,
                (true, true) => false,
            };
            assert_eq!(B(flags).consistent(), legal, "flags {flags:#b}");
        }
    }
}
