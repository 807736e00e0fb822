//! Integration tests of the sharded allocation lanes (DESIGN.md §1.1.2).
//!
//! Three angles:
//!
//! 1. A **proptest** over lane counts × slab sizes × allocation-size
//!    streams, with every lane allocating concurrently from real threads:
//!    returned regions must be pairwise disjoint, sub-slab allocations must
//!    never straddle a slab boundary, and multi-slab grabs must start
//!    slab-aligned.
//! 2. An `Addr::to_word` / `Addr::from_word` roundtrip property.
//! 3. A **multi-epoch real-threads run** asserting that the quiescent
//!    barrier rewinds every lane — cursor (identical addresses re-issued
//!    every epoch), usage counter, and the per-lane high-water accounting.

use proptest::prelude::*;
use std::sync::Mutex;
use wait_free_locks::runtime::epoch::run_epoch_worker;
use wait_free_locks::{
    run_threads_epochs, Addr, Ctx, EpochState, EpochSync, Heap, RealConfig,
};

/// SplitMix-style size stream so each (seed, lane) thread draws a
/// reproducible but well-mixed allocation-size sequence.
fn size_stream(seed: u64, lane: usize, i: usize, max: usize) -> usize {
    let mut z = seed ^ ((lane as u64) << 32) ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    1 + (z ^ (z >> 31)) as usize % max
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Concurrent allocations across lanes never overlap and sub-slab
    /// allocations never straddle a slab boundary, for any lane count,
    /// slab size, and size stream (sizes range past the slab size so
    /// multi-slab grabs are exercised too).
    #[test]
    fn concurrent_lane_allocations_are_disjoint_and_slab_confined(
        nprocs in 1usize..7,
        slab_exp in 3u32..7,
        allocs in 8usize..60,
        seed in 0u64..10_000,
    ) {
        let slab_words = 1usize << slab_exp; // 8..=64: always a line multiple
        let heap = Heap::with_lanes(1 << 17, nprocs, slab_words);
        prop_assert_eq!(heap.slab_words(), slab_words);
        let regions: Vec<Mutex<Vec<(usize, usize)>>> =
            (0..nprocs).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for (lane, out) in regions.iter().enumerate() {
                let heap = &heap;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(allocs);
                    for i in 0..allocs {
                        let n = size_stream(seed, lane, i, slab_words + 3);
                        let a = heap.alloc(lane, n).expect("arena sized generously");
                        local.push((a.0 as usize, n));
                    }
                    *out.lock().unwrap() = local;
                });
            }
        });
        let mut all: Vec<(usize, usize)> = Vec::new();
        for m in &regions {
            all.extend(m.lock().unwrap().iter().copied());
        }
        all.sort_unstable();
        for w in all.windows(2) {
            prop_assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "regions overlap: {:?} then {:?}", w[0], w[1]
            );
        }
        for &(base, n) in &all {
            if n <= slab_words {
                prop_assert_eq!(
                    base / slab_words,
                    (base + n - 1) / slab_words,
                    "sub-slab allocation [{}, {}) straddles a slab boundary", base, base + n
                );
            } else {
                prop_assert_eq!(base % slab_words, 0, "multi-slab grab not slab-aligned");
            }
        }
    }

    /// `Addr::to_word` / `Addr::from_word` roundtrip over the whole 32-bit
    /// address range, and nullness survives the packing.
    #[test]
    fn addr_word_roundtrip(w in 0u64..(u32::MAX as u64 + 1)) {
        let a = Addr::from_word(w);
        prop_assert_eq!(a.to_word(), w);
        prop_assert_eq!(Addr::from_word(a.to_word()), a);
        prop_assert_eq!(a.is_null(), w == 0);
    }
}

/// The quiescent barrier rewinds **every** lane: the leader observes the
/// exact per-lane usage at each boundary, the reset returns each lane to
/// its baseline, re-issued addresses are identical in every epoch (cursor
/// rewind), and the per-lane high-water marks equal one epoch's usage.
#[test]
fn quiescent_barrier_rewinds_every_lane_cursor_and_high_water() {
    const NPROCS: usize = 4;
    const EPOCHS: u64 = 5;
    let heap = Heap::with_lanes(1 << 14, NPROCS, 32);
    let persistent = heap.alloc_root(2);
    heap.poke(persistent, 0x5eed);
    let state = EpochState::new(&heap);
    let sync = EpochSync::new(NPROCS);
    let used_at_mark = heap.used();
    let baseline: Vec<usize> = (0..heap.lane_count()).map(|l| heap.lane_used(l)).collect();
    // Per-pid record of (first, second) allocation addresses per epoch:
    // contiguity of the pair proves the second came from the same slab.
    let first_addrs: Vec<Mutex<Vec<(u64, u64)>>> =
        (0..NPROCS).map(|_| Mutex::new(Vec::new())).collect();

    let report = run_threads_epochs(&heap, NPROCS, 9, None, RealConfig::fast(), &state, &sync, |pid| {
        let (sync, state, baseline, first_addrs) = (&sync, &state, &baseline, &first_addrs);
        move |ctx: &Ctx| {
            run_epoch_worker(
                ctx,
                sync,
                |ctx, _epoch| {
                    // Two sub-slab records (sizes distinct per lane) and a
                    // multi-slab grab, so both rewind paths are covered.
                    let a = ctx.alloc(2 + pid);
                    let b = ctx.alloc(1);
                    first_addrs[pid].lock().unwrap().push((a.to_word(), b.to_word()));
                    ctx.write(a, pid as u64 + 1);
                    let big = ctx.alloc(40);
                    ctx.write(big.off(39), 7);
                },
                |ctx, epoch| {
                    let heap = ctx.heap();
                    // Leader at quiescence: the usage of every worker lane
                    // is exactly this epoch's allocations.
                    for p in 0..NPROCS {
                        assert_eq!(
                            heap.lane_used(p),
                            3 + p + 40,
                            "epoch {epoch}: lane {p} usage drifted"
                        );
                    }
                    if epoch < EPOCHS - 1 {
                        state.advance(heap);
                        // The reset returned every lane (workers AND root)
                        // to its baseline usage, and the whole footprint to
                        // the mark.
                        for (l, &b) in baseline.iter().enumerate() {
                            assert_eq!(heap.lane_used(l), b, "epoch {epoch}: lane {l} not rewound");
                        }
                        assert_eq!(heap.used(), used_at_mark, "epoch {epoch}: footprint not rewound");
                        true
                    } else {
                        state.finish(heap);
                        false
                    }
                },
            );
        }
    });
    report.assert_clean();
    assert_eq!(report.epochs, EPOCHS);
    assert_eq!(heap.peek(persistent), 0x5eed, "pre-mark roots survive every rewind");

    // Fresh-slab handoffs race across lanes in real mode (addresses vary
    // run to run), but every epoch's pair must be slab-aligned and
    // contiguous — the lane bumped inside its own freshly-taken slab.
    let slab = heap.slab_words() as u64;
    for (pid, slots) in first_addrs.iter().enumerate() {
        let addrs = slots.lock().unwrap();
        assert_eq!(addrs.len(), EPOCHS as usize, "pid {pid} missed an epoch");
        for &(a, b) in addrs.iter() {
            assert_eq!(a % slab, 0, "pid {pid}: fresh lane slab not slab-aligned");
            assert_eq!(b, a + 2 + pid as u64, "pid {pid}: intra-slab bump not contiguous");
        }
    }

    // Per-lane high water: exactly one epoch's usage per worker lane, the
    // persistent root words on the root lane, nothing anywhere else.
    let lanes = state.high_water_lanes();
    for (p, &w) in lanes[..NPROCS].iter().enumerate() {
        assert_eq!(w, 3 + p + 40, "lane {p} high water");
    }
    assert_eq!(lanes[heap.root_lane()], 2, "root lane high water = persistent root");
    let expected_total: usize = (0..NPROCS).map(|p| 3 + p + 40).sum::<usize>() + 2;
    assert_eq!(state.high_water(), expected_total);
}

/// In the simulator, lane assignment (lane = pid) and the gate-serialized
/// slab handoffs make allocation fully deterministic: across a quiescent
/// rewind, a replayed epoch re-issues **identical addresses** in every
/// lane, and identical runs produce identical heap fingerprints.
#[test]
fn sim_epochs_reissue_identical_addresses_after_rewind() {
    use wait_free_locks::{SeededRandom, SimBuilder};

    let run = || {
        let heap = Heap::with_lanes(1 << 14, 8, 32);
        let state = EpochState::new(&heap);
        let addrs: Vec<Mutex<Vec<u64>>> = (0..3).map(|_| Mutex::new(Vec::new())).collect();
        for epoch in 0..4u64 {
            let addrs = &addrs;
            let report = SimBuilder::new(&heap, 3)
                .seed(11)
                .schedule(SeededRandom::new(3, 77)) // same schedule every epoch
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        for i in 0..5u32 {
                            let a = ctx.alloc(1 + (pid + i as usize) % 4);
                            addrs[pid].lock().unwrap().push(a.to_word());
                            ctx.write(a, (epoch << 8) | i as u64);
                        }
                    }
                })
                .run();
            report.assert_clean();
            state.advance(&heap);
        }
        let per_pid: Vec<Vec<u64>> =
            addrs.iter().map(|m| m.lock().unwrap().clone()).collect();
        (per_pid, heap.fingerprint())
    };

    let (addrs_a, fp_a) = run();
    let (addrs_b, fp_b) = run();
    assert_eq!(fp_a, fp_b, "identical sim runs must produce identical heaps");
    assert_eq!(addrs_a, addrs_b, "identical sim runs must allocate identically");
    for (pid, seq) in addrs_a.iter().enumerate() {
        assert_eq!(seq.len(), 20, "pid {pid}: 5 allocations x 4 epochs");
        let (first, rest) = (&seq[..5], &seq[5..]);
        for (e, chunk) in rest.chunks(5).enumerate() {
            assert_eq!(
                chunk, first,
                "pid {pid}: epoch {} re-issued different addresses after the rewind",
                e + 1
            );
        }
    }
}
