//! Exhaustive schedule test for the idempotent operations.
//!
//! A depth-first search drives `schedule::FromSeq` over every interleaving
//! of a few helpers with at most [`MAX_PREEMPTIONS`] preemptions (switches
//! away from a process that has not finished). Each execution checks:
//!
//! * exactly-once effect: the cells end as one sequential run leaves them;
//! * agreement: every helper that runs an operation gets the same result;
//! * per-operation cost: each helper's own steps for each operation stay
//!   within [`READ_MAX_STEPS`] (read) or [`OP_MAX_STEPS`] (write, cas),
//!   under every interleaving rather than only in solo runs.
//!
//! Two reductions keep the search small without losing an execution:
//!
//! * helpers of the same thunks are interchangeable (operations never use
//!   the pid), so among processes that have not started yet the search
//!   tries only the lowest pid of each kind;
//! * between a help's first step (the completed-flag read) and its first
//!   operation, a helper only reads frame words fixed before publication.
//!   Those reads commute with every step, so a preemption among them is
//!   the same execution as one just before the first operation, and the
//!   search only preempts there.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use wfl_idem::{cell, tag::op_tag, Frame, IdemRun, Registry, TagSource, Thunk, OP_MAX_STEPS, READ_MAX_STEPS};
use wfl_runtime::schedule::FromSeq;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Addr, Ctx, Heap};

const MAX_PREEMPTIONS: usize = 3;
/// Schedule slots each process gets once the search stops branching: more
/// than any process here takes, so it runs to completion.
const RUN_OUT: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Cas,
}

/// One helper's view of one operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    pid: usize,
    /// Which frame (a number passed as an argument) and which operation.
    at: (u64, usize),
    kind: Kind,
    result: u64,
    steps: u64,
}

/// What the processes of one execution record, in uncounted code.
#[derive(Debug, Default)]
struct Records {
    ops: Vec<Op>,
    /// `(pid, own steps before a help)`.
    helps: Vec<(usize, u64)>,
    /// `(pid, own steps before a body's first operation)`.
    bodies: Vec<(usize, u64)>,
}

type Shared = Arc<Mutex<Records>>;

/// Marks the start of a thunk body's operations (its argument reads done).
fn body_start(run: &IdemRun<'_, '_>, records: &Shared) {
    let ctx = run.ctx();
    records.lock().unwrap().bodies.push((ctx.pid(), ctx.steps()));
}

/// Runs one operation, recording what it returns and costs.
fn observed(
    run: &mut IdemRun<'_, '_>,
    records: &Shared,
    at: (u64, usize),
    kind: Kind,
    op: impl FnOnce(&mut IdemRun<'_, '_>) -> u64,
) -> u64 {
    let ctx = run.ctx();
    let before = ctx.steps();
    let result = op(run);
    let steps = ctx.steps() - before;
    records.lock().unwrap().ops.push(Op { pid: ctx.pid(), at, kind, result, steps });
    result
}

/// `v = read(x); write(x, v + 1)`, with arguments `[x, frame]`.
struct Incr(Shared);
impl Thunk for Incr {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let x = Addr::from_word(run.arg(0));
        let frame = run.arg(1);
        body_start(run, &self.0);
        let v = observed(run, &self.0, (frame, 0), Kind::Read, |r| r.read(x) as u64) as u32;
        observed(run, &self.0, (frame, 1), Kind::Write, |r| {
            r.write(x, v + 1);
            0
        });
    }
    fn max_ops(&self) -> usize {
        2
    }
}

/// `cas(c, expected, new)`, with arguments `[c, expected, new]`.
struct Cas(Shared);
impl Thunk for Cas {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let c = Addr::from_word(run.arg(0));
        let (expected, new) = (run.arg(1) as u32, run.arg(2) as u32);
        body_start(run, &self.0);
        observed(run, &self.0, (0, 0), Kind::Cas, |r| r.cas(c, expected, new) as u64);
    }
    fn max_ops(&self) -> usize {
        1
    }
    fn max_steps(&self) -> u64 {
        // Three argument reads: one more than the default allows.
        wfl_idem::body_steps(1) + 1
    }
}

/// One process's own steps in an execution, and which of them commute with
/// every step (no preemption point before them).
struct Steps {
    total: u64,
    quiet: Vec<Range<u64>>,
}

/// Depth-first search over the interleavings of `kinds.len()` processes
/// (process `p` interchangeable with the others of kind `kinds[p]`) with
/// at most [`MAX_PREEMPTIONS`] preemptions. `run` executes and checks one
/// schedule. Returns the executions explored.
fn explore(kinds: &[usize], mut run: impl FnMut(&[usize]) -> Vec<Steps>) -> usize {
    let n = kinds.len();
    let mut executions = 0;
    let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
    while let Some((prefix, preemptions)) = stack.pop() {
        // Past the prefix, run the last process to completion, then the
        // others in pid order: no further preemption.
        let mut seq = prefix.clone();
        let last = prefix.last().copied();
        for p in last.into_iter().chain((0..n).filter(|&p| Some(p) != last)) {
            seq.extend(std::iter::repeat_n(p, RUN_OUT));
        }
        let steps = run(&seq);
        executions += 1;
        // The steps actually taken: a slot granted to a finished process is
        // wasted.
        let mut taken = vec![0u64; n];
        let executed: Vec<usize> = seq
            .iter()
            .copied()
            .filter(|&p| {
                let runs = taken[p] < steps[p].total;
                taken[p] += u64::from(runs);
                runs
            })
            .collect();
        assert_eq!(executed[..prefix.len()], prefix[..], "the prefix must replay exactly");
        // Branch at every position past the prefix.
        let mut taken = vec![0u64; n];
        for &p in &prefix {
            taken[p] += 1;
        }
        for j in prefix.len()..executed.len() {
            let unfinished = |p: usize| taken[p] < steps[p].total;
            let running = j.checked_sub(1).map(|i| executed[i]).filter(|&p| unfinished(p));
            let quiet = running.is_some_and(|p| steps[p].quiet.iter().any(|r| r.contains(&taken[p])));
            let cost = preemptions + usize::from(running.is_some());
            if !quiet && cost <= MAX_PREEMPTIONS {
                let mut fresh_kinds = Vec::new();
                for q in (0..n).filter(|&q| unfinished(q)) {
                    if taken[q] == 0 {
                        if fresh_kinds.contains(&kinds[q]) {
                            continue;
                        }
                        fresh_kinds.push(kinds[q]);
                    }
                    if q != executed[j] {
                        let mut child = executed[..j].to_vec();
                        child.push(q);
                        stack.push((child, cost));
                    }
                }
            }
            taken[executed[j]] += 1;
        }
    }
    executions
}

/// Runs one schedule in which process `p` helps `helpers[p]` in order, and
/// checks agreement and per-operation cost. Returns each process's steps.
fn run_helpers(
    heap: &Heap,
    registry: &Registry,
    records: &Shared,
    helpers: &[Vec<Frame>],
    seq: &[usize],
) -> Vec<Steps> {
    let report = SimBuilder::new(heap, helpers.len())
        .schedule(FromSeq::new(seq.to_vec(), false))
        .max_steps(seq.len() as u64)
        .spawn_all(|pid| {
            let frames = helpers[pid].clone();
            move |ctx: &Ctx| {
                for frame in frames {
                    records.lock().unwrap().helps.push((pid, ctx.steps()));
                    frame.help(ctx, registry);
                }
            }
        })
        .run();
    report.assert_clean();
    assert!(report.completed, "schedule {seq:?} left a helper unfinished");

    let records = records.lock().unwrap();
    let mut results: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    for &Op { pid, at, kind, result, steps } in &records.ops {
        let bound = if kind == Kind::Read { READ_MAX_STEPS } else { OP_MAX_STEPS };
        assert!(steps <= bound, "pid {pid} took {steps} steps for {kind:?} {at:?}; schedule {seq:?}");
        let agreed = *results.entry(at).or_insert(result);
        assert_eq!(result, agreed, "pid {pid} disagrees on {kind:?} {at:?}; schedule {seq:?}");
    }
    (0..helpers.len())
        .map(|pid| {
            let helps: Vec<u64> = records.helps.iter().filter(|h| h.0 == pid).map(|h| h.1).collect();
            let quiet = records
                .bodies
                .iter()
                .filter(|b| b.0 == pid)
                .map(|&(_, ops_start)| {
                    let help_start = helps.iter().copied().filter(|&h| h < ops_start).max().unwrap();
                    help_start + 1..ops_start
                })
                .collect();
            Steps { total: report.steps[pid], quiet }
        })
        .collect()
}

/// `helpers` processes all help one increment of a cell holding 7.
fn incr_helpers(helpers: usize) -> usize {
    explore(&vec![0; helpers], |seq| {
        let records = Shared::default();
        let mut registry = Registry::new();
        let incr = registry.register(Incr(records.clone()));
        let heap = Heap::new(1 << 10);
        let x = heap.alloc_root(1);
        heap.poke(x, cell::untagged(7));
        let base = TagSource::new(0).next_base();
        let frame = Frame::create_root(&heap, &registry, incr, base, &[x.to_word(), 0]);
        let steps = run_helpers(&heap, &registry, &records, &vec![vec![frame]; helpers], seq);
        assert_eq!(heap.peek(x), cell::pack(op_tag(base, 1), 8), "exactly one increment; schedule {seq:?}");
        let reads_ok = records.lock().unwrap().ops.iter().all(|o| o.kind != Kind::Read || o.result == 7);
        assert!(reads_ok, "schedule {seq:?}");
        steps
    })
}

/// `helpers` processes all help `cas(c, 0, 5)` on a cell holding `init`.
fn cas_helpers(helpers: usize, init: u32) -> usize {
    explore(&vec![0; helpers], |seq| {
        let records = Shared::default();
        let mut registry = Registry::new();
        let cas = registry.register(Cas(records.clone()));
        let heap = Heap::new(1 << 10);
        let c = heap.alloc_root(1);
        heap.poke(c, cell::untagged(init));
        let base = TagSource::new(0).next_base();
        let frame = Frame::create_root(&heap, &registry, cas, base, &[c.to_word(), 0, 5]);
        let steps = run_helpers(&heap, &registry, &records, &vec![vec![frame]; helpers], seq);
        let success = init == 0;
        let expected = if success { cell::pack(op_tag(base, 0), 5) } else { cell::untagged(init) };
        assert_eq!(heap.peek(c), expected, "schedule {seq:?}");
        let results_ok = records.lock().unwrap().ops.iter().all(|o| o.result == u64::from(success));
        assert!(results_ok, "schedule {seq:?}");
        steps
    })
}

#[test]
fn read_then_write_with_two_and_three_helpers() {
    assert!(incr_helpers(2) > 50);
    assert!(incr_helpers(3) > 500);
}

#[test]
fn cas_success_with_two_and_three_helpers() {
    assert!(cas_helpers(2, 0) > 50);
    assert!(cas_helpers(3, 0) > 500);
}

#[test]
fn cas_failure_with_two_and_three_helpers() {
    assert!(cas_helpers(2, 3) > 50);
    assert!(cas_helpers(3, 3) > 500);
}

/// The seed-106 shape: two processes help an increment of `x`; a third
/// helps it too and then helps a later increment of the same cell, as the
/// next lock holder would. A helper that stalls across the first
/// increment's completion and the later write must not apply its stale
/// operation.
#[test]
fn stale_helper_across_a_later_thunk_write() {
    let executions = explore(&[0, 1], |seq| {
        let records = Shared::default();
        let mut registry = Registry::new();
        let incr = registry.register(Incr(records.clone()));
        let heap = Heap::new(1 << 10);
        let x = heap.alloc_root(1);
        heap.poke(x, cell::untagged(7));
        let mut tags = TagSource::new(0);
        let first = Frame::create_root(&heap, &registry, incr, tags.next_base(), &[x.to_word(), 0]);
        let later_base = tags.next_base();
        let later = Frame::create_root(&heap, &registry, incr, later_base, &[x.to_word(), 1]);
        let helpers = [vec![first], vec![first, later]];
        let steps = run_helpers(&heap, &registry, &records, &helpers, seq);
        assert_eq!(heap.peek(x), cell::pack(op_tag(later_base, 1), 9), "two increments; schedule {seq:?}");
        // Frame f's read sees 7 + f: the later one sees the first's write.
        let reads_ok = records.lock().unwrap().ops.iter().all(|o| o.kind != Kind::Read || o.result == 7 + o.at.0);
        assert!(reads_ok, "schedule {seq:?}");
        steps
    });
    assert!(executions > 1000, "explored only {executions} executions");
}
