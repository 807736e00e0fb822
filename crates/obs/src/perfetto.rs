//! Chrome/Perfetto `trace_event` export of a drained [`TraceSnapshot`],
//! plus a structural validator for the emitted JSON (CI parse-validates
//! every uploaded trace with it).
//!
//! The exported document is the legacy JSON trace format both
//! chrome://tracing and ui.perfetto.dev open directly: one *thread
//! track* per process ring (plus a control track for fault windows),
//! complete events (`"ph": "X"`) for attempts, their phases and combiner
//! stints, and instant events (`"ph": "i"`) for aborts, rescues,
//! give-ups, combine claims and epoch barriers. Timestamps are the
//! events' logical-clock readings interpreted as microseconds: wall-less
//! but order-exact in sim, lease-granular on real threads — the shapes
//! and nesting are what the viewer is for, not wall durations.

use crate::event::{AttemptOutcomeBits, Event, EventKind};
use crate::json::{escape, JsonValue};
use crate::rec::{TraceSnapshot, CTRL_PID};
use std::fmt::Write as _;

/// Span names of the attempt phases, in order. Derived from the
/// phase-boundary events' step counters; each is emitted as a child of
/// its `"attempt"` span.
pub const PHASES: [&str; 4] = ["help", "stall+reveal", "settle", "finish"];

/// One emitted `trace_event` line.
fn line(out: &mut String, body: &str) {
    if !out.is_empty() {
        out.push_str(",\n");
    }
    out.push_str("    ");
    out.push_str(body);
}

fn complete(
    out: &mut String,
    name: &str,
    tid: usize,
    ts: u64,
    dur: u64,
    args: &str,
) {
    line(
        out,
        &format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {ts}, \"dur\": {dur}, \
             \"pid\": 1, \"tid\": {tid}, \"args\": {{{args}}}}}",
            escape(name)
        ),
    );
}

fn instant(out: &mut String, name: &str, tid: usize, ts: u64, args: &str) {
    line(
        out,
        &format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts}, \
             \"pid\": 1, \"tid\": {tid}, \"args\": {{{args}}}}}",
            escape(name)
        ),
    );
}

fn thread_name(out: &mut String, tid: usize, name: &str) {
    line(
        out,
        &format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(name)
        ),
    );
}

/// In-flight attempt state while walking one ring.
#[derive(Default)]
struct OpenAttempt {
    start_now: u64,
    start_steps: u64,
    locks: u64,
    /// `now` at each crossed phase boundary (help, reveal, settle).
    marks: [Option<u64>; 3],
}

/// Renders a snapshot as a Chrome `trace_event` JSON document. `meta`
/// pairs (algo, backend, seed, ...) become the process name and are
/// attached as args to every attempt span.
pub fn export(snap: &TraceSnapshot, meta: &[(&str, String)]) -> String {
    let mut events = String::new();
    let pname = meta
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    line(
        &mut events,
        &format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(&pname)
        ),
    );
    let meta_args = meta
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join(", ");

    for (pid, evs) in &snap.per_pid {
        let tid = *pid;
        if tid == CTRL_PID {
            thread_name(&mut events, tid, "ctrl (injector/scheduler)");
            export_ctrl(&mut events, tid, evs);
            continue;
        }
        thread_name(&mut events, tid, &format!("pid {tid}"));
        export_pid(&mut events, tid, evs, &meta_args);
    }

    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    out.push_str(&events);
    out.push_str("\n  ]\n}\n");
    out
}

/// Walks one process ring, emitting attempt spans with phase children
/// and instants for the point events.
fn export_pid(out: &mut String, tid: usize, evs: &[Event], meta_args: &str) {
    let mut open: Option<OpenAttempt> = None;
    let mut combiner_open: Option<(u64, u64)> = None; // (now, steps)
    for e in evs {
        match e.kind {
            EventKind::AttemptStart => {
                // A start with one already open means the previous
                // attempt's end fell off the ring; drop the orphan.
                open = Some(OpenAttempt {
                    start_now: e.now,
                    start_steps: e.steps,
                    locks: e.arg,
                    marks: [None; 3],
                });
            }
            EventKind::HelpDone | EventKind::RevealDone | EventKind::SettleDone => {
                if let Some(a) = open.as_mut() {
                    let i = match e.kind {
                        EventKind::HelpDone => 0,
                        EventKind::RevealDone => 1,
                        _ => 2,
                    };
                    a.marks[i] = Some(e.now);
                }
            }
            EventKind::AttemptEnd => {
                if let Some(a) = open.take() {
                    let outcome = AttemptOutcomeBits(e.arg);
                    let args = format!(
                        "{meta_args}{}\"outcome\": \"{}\", \"locks\": {}, \"steps\": {}",
                        if meta_args.is_empty() { "" } else { ", " },
                        outcome.describe(),
                        a.locks,
                        e.steps.saturating_sub(a.start_steps)
                    );
                    complete(
                        out,
                        "attempt",
                        tid,
                        a.start_now,
                        e.now.saturating_sub(a.start_now),
                        &args,
                    );
                    // Phase children: each crossed boundary closes the
                    // span that started at the previous boundary.
                    let mut prev = a.start_now;
                    let bounds =
                        [a.marks[0], a.marks[1], a.marks[2], Some(e.now)];
                    for (name, bound) in PHASES.iter().zip(bounds) {
                        if let Some(b) = bound {
                            complete(
                                out,
                                name,
                                tid,
                                prev,
                                b.saturating_sub(prev),
                                "",
                            );
                            prev = b;
                        }
                    }
                }
            }
            EventKind::Abort => {
                let post_reveal = e.arg >> 8 != 0;
                instant(
                    out,
                    "abort",
                    tid,
                    e.now,
                    &format!(
                        "\"reason\": {}, \"post_reveal\": {post_reveal}",
                        e.arg & 0xff
                    ),
                );
            }
            EventKind::Rescue => instant(out, "rescue", tid, e.now, ""),
            EventKind::GiveUp => {
                instant(out, "give_up", tid, e.now, &format!("\"reason\": {}", e.arg))
            }
            EventKind::CombineClaim => {
                instant(out, "combine_claim", tid, e.now, &format!("\"peer\": {}", e.arg))
            }
            EventKind::EpochBarrier => {
                instant(out, "epoch_barrier", tid, e.now, &format!("\"epoch\": {}", e.arg))
            }
            EventKind::CombinerEnter => combiner_open = Some((e.now, e.steps)),
            EventKind::CombinerApply => {
                instant(out, "combiner_apply", tid, e.now, &format!("\"owner\": {}", e.arg))
            }
            EventKind::CombinerExit => {
                if let Some((start, start_steps)) = combiner_open.take() {
                    complete(
                        out,
                        "combiner",
                        tid,
                        start,
                        e.now.saturating_sub(start),
                        &format!(
                            "\"applied\": {}, \"steps\": {}",
                            e.arg,
                            e.steps.saturating_sub(start_steps)
                        ),
                    );
                }
            }
            // Fault windows belong to the control ring; one leaking onto
            // a pid ring is rendered as an instant rather than dropped.
            EventKind::FaultStart | EventKind::FaultEnd => {
                instant(out, e.kind.label(), tid, e.now, &format!("\"victim\": {}", e.arg))
            }
        }
    }
}

/// The control ring: matched fault windows become spans, stragglers
/// instants.
fn export_ctrl(out: &mut String, tid: usize, evs: &[Event]) {
    let mut open: Option<(u64, u64)> = None; // (now, victim)
    for e in evs {
        match e.kind {
            EventKind::FaultStart => {
                if let Some((start, victim)) = open.take() {
                    // Unclosed predecessor (the run stopped mid-window or
                    // the end event wrapped away): keep it visible.
                    instant(out, "fault_start", tid, start, &format!("\"victim\": {victim}"));
                }
                open = Some((e.now, e.arg));
            }
            EventKind::FaultEnd => {
                if let Some((start, victim)) = open.take() {
                    complete(
                        out,
                        "fault_window",
                        tid,
                        start,
                        e.now.saturating_sub(start),
                        &format!("\"victim\": {victim}"),
                    );
                } else {
                    instant(out, "fault_end", tid, e.now, &format!("\"victim\": {}", e.arg));
                }
            }
            EventKind::EpochBarrier => {
                instant(out, "epoch_barrier", tid, e.now, &format!("\"epoch\": {}", e.arg))
            }
            other => instant(out, other.label(), tid, e.now, &format!("\"arg\": {}", e.arg)),
        }
    }
    if let Some((start, victim)) = open {
        instant(out, "fault_start", tid, start, &format!("\"victim\": {victim}"));
    }
}

/// What [`validate`] found in a trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Complete (`"X"`) events.
    pub complete_spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// `"attempt"` spans.
    pub attempts: usize,
    /// `"abort"` instants.
    pub aborts: usize,
    /// Fault windows (spans or unmatched-start instants).
    pub fault_windows: usize,
    /// Distinct thread tracks carrying events.
    pub tracks: usize,
}

/// Parses an exported document and checks its structure: every event
/// carries the required fields, spans on each track nest properly
/// (contained or disjoint, never partially overlapping), and every
/// phase span sits inside an `"attempt"` span. Returns counts for the
/// caller's presence assertions (e.g. "a faulted traced cell must
/// contain abort and fault-window events").
pub fn validate(doc: &str) -> Result<TraceStats, String> {
    let v = JsonValue::parse(doc)?;
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stats = TraceStats::default();
    // (pid, tid) -> [(ts, end, name)]
    type Span = (f64, f64, String);
    let mut tracks: Vec<((u64, u64), Vec<Span>)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        if ph == "M" {
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let pid = e.get("pid").and_then(JsonValue::as_num).ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = e.get("tid").and_then(JsonValue::as_num).ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        let key = (pid, tid);
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                stats.complete_spans += 1;
                match name.as_str() {
                    "attempt" => stats.attempts += 1,
                    "fault_window" => stats.fault_windows += 1,
                    _ => {}
                }
                let track = match tracks.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, t)) => t,
                    None => {
                        tracks.push((key, Vec::new()));
                        &mut tracks.last_mut().unwrap().1
                    }
                };
                track.push((ts, ts + dur, name));
            }
            "i" | "I" => {
                stats.instants += 1;
                match name.as_str() {
                    "abort" => stats.aborts += 1,
                    "fault_start" => stats.fault_windows += 1,
                    _ => {}
                }
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    stats.tracks = tracks.len();
    for ((pid, tid), mut spans) in tracks {
        // Sort outermost-first so containment shows up as a stack
        // discipline: starts ascending, longer spans first on ties.
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64, String)> = Vec::new();
        for (start, end, name) in spans {
            while let Some(top) = stack.last() {
                if top.1 <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if end > top.1 {
                    return Err(format!(
                        "track {pid}/{tid}: span {name:?} [{start}, {end}] partially \
                         overlaps {:?} [{}, {}]",
                        top.2, top.0, top.1
                    ));
                }
            }
            if PHASES.contains(&name.as_str()) {
                let inside_attempt = stack.iter().any(|(_, _, n)| n == "attempt");
                if !inside_attempt {
                    return Err(format!(
                        "track {pid}/{tid}: phase span {name:?} at {start} outside any attempt"
                    ));
                }
            }
            stack.push((start, end, name));
        }
    }
    Ok(stats)
}

/// Convenience: a one-line summary for bench logs.
pub fn describe(stats: &TraceStats) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{} spans ({} attempts, {} fault windows), {} instants ({} aborts), {} tracks",
        stats.complete_spans,
        stats.attempts,
        stats.fault_windows,
        stats.instants,
        stats.aborts,
        stats.tracks
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptOutcomeBits, Event, EventKind};
    use crate::rec::TraceSnapshot;

    fn ev(kind: EventKind, now: u64, steps: u64, arg: u64) -> Event {
        Event { kind, now, steps, arg }
    }

    fn sample_snapshot() -> TraceSnapshot {
        TraceSnapshot {
            per_pid: vec![
                (
                    0,
                    vec![
                        ev(EventKind::AttemptStart, 10, 100, 2),
                        ev(EventKind::HelpDone, 14, 104, 1),
                        ev(EventKind::RevealDone, 30, 120, 0),
                        ev(EventKind::SettleDone, 34, 124, 1),
                        ev(
                            EventKind::AttemptEnd,
                            40,
                            130,
                            AttemptOutcomeBits::WON,
                        ),
                        ev(EventKind::AttemptStart, 50, 140, 1),
                        ev(EventKind::Abort, 55, 145, 0),
                        ev(
                            EventKind::AttemptEnd,
                            56,
                            146,
                            AttemptOutcomeBits::ABORTED,
                        ),
                    ],
                ),
                (
                    1,
                    vec![
                        ev(EventKind::CombinerEnter, 12, 80, 0),
                        ev(EventKind::CombinerApply, 15, 83, 0),
                        ev(EventKind::CombinerExit, 20, 88, 1),
                        ev(EventKind::GiveUp, 25, 93, 3),
                    ],
                ),
                (
                    CTRL_PID,
                    vec![
                        ev(EventKind::FaultStart, 5, 0, 1),
                        ev(EventKind::FaultEnd, 22, 0, 1),
                        ev(EventKind::FaultStart, 60, 0, 0),
                    ],
                ),
            ],
            dropped: vec![],
        }
    }

    #[test]
    fn export_produces_valid_nesting_and_counts() {
        let doc = export(&sample_snapshot(), &[("algo", "wfl".into()), ("backend", "sim".into())]);
        let stats = validate(&doc).expect("exported trace validates");
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.aborts, 1);
        assert_eq!(stats.fault_windows, 2, "one matched window + one unmatched start");
        assert!(stats.complete_spans >= 7, "attempts + phases + combiner stint");
        assert!(stats.tracks >= 2);
        assert!(doc.contains("\"outcome\": \"won\""));
        assert!(doc.contains("\"algo\": \"wfl\""));
        assert!(!describe(&stats).is_empty());
    }

    #[test]
    fn validate_rejects_partial_overlap_and_orphan_phases() {
        let overlapping = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0, "args": {}},
            {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 0, "args": {}}
        ]}"#;
        assert!(validate(overlapping).unwrap_err().contains("partially overlaps"));
        let orphan = r#"{"traceEvents": [
            {"name": "help", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0, "args": {}}
        ]}"#;
        assert!(validate(orphan).unwrap_err().contains("outside any attempt"));
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
    }

    #[test]
    fn incomplete_attempts_are_dropped_not_mangled() {
        let snap = TraceSnapshot {
            per_pid: vec![(0, vec![ev(EventKind::AttemptStart, 10, 100, 1)])],
            dropped: vec![],
        };
        let doc = export(&snap, &[]);
        let stats = validate(&doc).unwrap();
        assert_eq!(stats.attempts, 0, "unclosed attempt emits no span");
    }
}
