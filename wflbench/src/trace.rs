//! Folds the flight recorder's attempt events into the per-attempt phase
//! split. Each phase-boundary event carries the process's own-step counter,
//! so the phases of one attempt add up exactly to its span from
//! `AttemptStart` to `AttemptEnd`:
//!
//! * help   = `HelpDone − AttemptStart` (helping revealed competitors);
//! * reveal = `RevealDone − HelpDone` (multiInsert, the `T0` stall, the
//!   priority reveal);
//! * settle = `SettleDone − RevealDone` (compete, decide, run the thunk);
//! * tail   = `AttemptEnd − SettleDone` (multiRemove, the `T1` pad).
//!
//! An aborted attempt lacks the later boundaries; its remaining steps all
//! land in the tail.

use wfl_obs::{EventKind, TraceSnapshot};

/// Steps between the `T0` stall target and the `RevealDone` stamp: the
/// priority draw and its reveal write.
const REVEAL_STEPS: u64 = 2;

#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub attempts: u64,
    pub help: u64,
    pub reveal: u64,
    pub settle: u64,
    pub tail: u64,
    /// Competitors helped in the helping phase.
    pub helped: u64,
    pub aborts: u64,
    /// Attempts whose reveal came later than `T0 + REVEAL_STEPS` after
    /// their start: real work overran the delay, voiding Thm 6.9.
    pub overruns: u64,
}

/// One attempt in flight while folding.
struct Open {
    last: u64,
    start: u64,
    help: u64,
    reveal: u64,
    settle: u64,
}

impl Phases {
    /// Folds one quiescent drain of the recorder. A ring that wrapped has
    /// lost events, which is reported as a failure of epoch `epoch`.
    pub fn fold(
        &mut self,
        snap: &TraceSnapshot,
        t0: u64,
        epoch: u64,
        workload: &str,
        failures: &mut Vec<String>,
    ) {
        for (pid, lost) in &snap.dropped {
            failures.push(format!(
                "{workload}: epoch {epoch}: recorder ring {pid} wrapped, losing {lost} events"
            ));
        }
        for (_, events) in &snap.per_pid {
            let mut open: Option<Open> = None;
            for e in events {
                match (e.kind, open.as_mut()) {
                    (EventKind::AttemptStart, _) => {
                        open = Some(Open {
                            last: e.steps,
                            start: e.steps,
                            help: 0,
                            reveal: 0,
                            settle: 0,
                        });
                    }
                    (EventKind::HelpDone, Some(o)) => {
                        o.help = e.steps - o.last;
                        o.last = e.steps;
                        self.helped += e.arg;
                    }
                    (EventKind::RevealDone, Some(o)) => {
                        o.reveal = e.steps - o.last;
                        o.last = e.steps;
                        if e.steps - o.start > t0 + REVEAL_STEPS {
                            self.overruns += 1;
                        }
                    }
                    (EventKind::SettleDone, Some(o)) => {
                        o.settle = e.steps - o.last;
                        o.last = e.steps;
                    }
                    (EventKind::AttemptEnd, Some(o)) => {
                        self.attempts += 1;
                        self.help += o.help;
                        self.reveal += o.reveal;
                        self.settle += o.settle;
                        self.tail += e.steps - o.last;
                        open = None;
                    }
                    (EventKind::Abort, _) => self.aborts += 1,
                    _ => {}
                }
            }
        }
    }

    /// Σ phase steps over all folded attempts.
    pub fn total(&self) -> u64 {
        self.help + self.reveal + self.settle + self.tail
    }

    pub fn merge(&mut self, o: &Phases) {
        self.attempts += o.attempts;
        self.help += o.help;
        self.reveal += o.reveal;
        self.settle += o.settle;
        self.tail += o.tail;
        self.helped += o.helped;
        self.aborts += o.aborts;
        self.overruns += o.overruns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_obs::Event;

    fn ev(kind: EventKind, steps: u64, arg: u64) -> Event {
        Event {
            kind,
            now: 0,
            steps,
            arg,
        }
    }

    #[test]
    fn phases_add_up_to_the_attempt_span_and_flag_late_reveals() {
        let snap = TraceSnapshot {
            per_pid: vec![(
                0,
                vec![
                    ev(EventKind::AttemptStart, 10, 1),
                    ev(EventKind::HelpDone, 13, 1),
                    ev(EventKind::RevealDone, 110, 0),
                    ev(EventKind::SettleDone, 120, 1),
                    ev(EventKind::AttemptEnd, 200, 1),
                    // Aborted before the reveal: everything after the help
                    // phase is tail.
                    ev(EventKind::AttemptStart, 300, 1),
                    ev(EventKind::HelpDone, 302, 0),
                    ev(EventKind::Abort, 350, 0),
                    ev(EventKind::AttemptEnd, 351, 0),
                ],
            )],
            dropped: vec![],
        };
        let mut p = Phases::default();
        let mut failures = Vec::new();
        p.fold(&snap, 100, 0, "test", &mut failures);
        assert!(failures.is_empty());
        assert_eq!(p.attempts, 2);
        assert_eq!(p.total(), (200 - 10) + (351 - 300));
        assert_eq!((p.help, p.reveal, p.settle), (3 + 2, 97, 10));
        assert_eq!((p.helped, p.aborts, p.overruns), (1, 1, 0));

        let late = TraceSnapshot {
            per_pid: vec![(
                1,
                vec![
                    ev(EventKind::AttemptStart, 0, 1),
                    ev(EventKind::RevealDone, 103, 0),
                ],
            )],
            dropped: vec![(1, 5)],
        };
        p.fold(&late, 100, 7, "test", &mut failures);
        assert_eq!(p.overruns, 1);
        assert_eq!(failures.len(), 1, "a wrapped ring is a failure");
        assert!(failures[0].contains("epoch 7"));
    }
}
