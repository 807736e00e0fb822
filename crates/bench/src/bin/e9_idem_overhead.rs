//! E9 — Theorem 4.2: the idempotence construction has constant-factor
//! overhead per operation.
//!
//! A thunk of k writes is executed (a) raw and (b) through the idempotent
//! log, solo. Both totals include a fixed frame cost, so their ratio is
//! not flat in k; the constant factor is the *marginal* cost per write,
//! `(idem(k2) - idem(k1)) / (k2 - k1)`, which must equal
//! [`wfl_idem::OP_MAX_STEPS`] between every pair of consecutive k (a solo
//! write takes its worst case). The binary exits nonzero otherwise. The
//! helped case (4 concurrent helpers) shows the *combined* work is shared.

use wfl_bench::{header, row, verdict};
use wfl_idem::{cell, Frame, IdemRun, Registry, TagSource, Thunk, OP_MAX_STEPS};
use wfl_runtime::schedule::SeededRandom;
use wfl_runtime::sim::SimBuilder;
use wfl_runtime::{Addr, Ctx, Heap};

struct ManyWrites(usize);
impl Thunk for ManyWrites {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let base = Addr::from_word(run.arg(0));
        for i in 0..self.0 {
            run.write(base.off(i as u32), i as u32 + 1);
        }
    }
    fn max_ops(&self) -> usize {
        self.0
    }
}

fn steps_for(k: usize, raw: bool) -> u64 {
    let mut registry = Registry::new();
    let id = registry.register(ManyWrites(k));
    let heap = Heap::new(1 << 20);
    let base = heap.alloc_root(k);
    let mut tags = TagSource::new(0);
    let frame = Frame::create_root(&heap, &registry, id, tags.next_base(), &[base.to_word()]);
    let reg = &registry;
    let report = SimBuilder::new(&heap, 1)
        .spawn(move |ctx: &Ctx| {
            if raw {
                frame.run_raw(ctx, reg);
            } else {
                frame.help(ctx, reg);
            }
        })
        .run();
    report.assert_clean();
    for i in 0..k {
        assert_eq!(cell::value(heap.peek(base.off(i as u32))), i as u32 + 1);
    }
    report.steps[0]
}

fn helped_steps(k: usize, helpers: usize) -> u64 {
    let mut registry = Registry::new();
    let id = registry.register(ManyWrites(k));
    let heap = Heap::new(1 << 22);
    let base = heap.alloc_root(k);
    let mut tags = TagSource::new(0);
    let frame = Frame::create_root(&heap, &registry, id, tags.next_base(), &[base.to_word()]);
    let reg = &registry;
    let report = SimBuilder::new(&heap, helpers)
        .schedule(SeededRandom::new(helpers, k as u64))
        .spawn_all(|_pid| move |ctx: &Ctx| frame.help(ctx, reg))
        .run();
    report.assert_clean();
    report.steps.iter().sum()
}

fn main() {
    println!("# E9: idempotence overhead (Theorem 4.2: constant factor)");
    header(&["k ops", "raw steps", "idem steps (solo)", "raw per write", "idem per write", "combined steps (4 helpers)"]);
    let mut prev: Option<(usize, u64, u64)> = None;
    let mut exact = true;
    for &k in &[1usize, 4, 16, 64, 128] {
        let raw = steps_for(k, true);
        let idem = steps_for(k, false);
        let helped = helped_steps(k, 4);
        // Marginal steps per write since the previous k.
        let (raw_per, idem_per) = match prev {
            Some((k0, raw0, idem0)) => {
                let dk = (k - k0) as f64;
                exact &= idem - idem0 == OP_MAX_STEPS * (k - k0) as u64;
                (format!("{:.2}", (raw - raw0) as f64 / dk), format!("{:.2}", (idem - idem0) as f64 / dk))
            }
            None => ("-".to_string(), "-".to_string()),
        };
        prev = Some((k, raw, idem));
        row(&[k.to_string(), raw.to_string(), idem.to_string(), raw_per, idem_per, helped.to_string()]);
    }
    println!();
    println!(
        "marginal idem steps per write == OP_MAX_STEPS ({OP_MAX_STEPS}) at every k ... {}",
        verdict(exact)
    );
    assert!(exact, "the marginal cost of an idempotent write is not OP_MAX_STEPS");
}
