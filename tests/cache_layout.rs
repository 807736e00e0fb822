//! Integration tests for the cache-layout work (padded placement +
//! lock-neighborhood sharding, DESIGN.md §1.3):
//!
//! 1. A **proptest** that shard routing is a stable pure function of the
//!    lock id: rebuilding the map, copying it, or re-rooting the heap
//!    never changes where an id routes, and the shards always tile the id
//!    space contiguously.
//! 2. Layout is **pure address arithmetic**: a deterministic sim replay
//!    (same seed, same schedule) produces an identical report under all
//!    four placement x sharding combinations, across epoch re-rootings.
//! 3. The safety audits hold on the **sharded** active set over
//!    multi-epoch real-mode histories: set regularity on the bank
//!    workload's recorded transfers, holder exclusivity on the adversary's
//!    recorded holder sequences — both against a lock space the default
//!    layout actually splits into several shards.

use proptest::prelude::*;
use wait_free_locks::activeset::{create_sharded_roots, ShardMap};
use wait_free_locks::fairness::{run_adversary, AdvStrength, AdversarySpec};
use wait_free_locks::lincheck::holders::assert_holder_exclusive;
use wait_free_locks::lincheck::regular::{assert_set_regular, MS_GETSET, MS_INSERT};
use wait_free_locks::runtime::Event;
use wait_free_locks::workloads::harness::{
    run_bank_recorded, run_random_conflict, AlgoKind, Backend, ExecMode, SchedKind, SimSpec,
    BANK_HIST_WIN,
};
use wait_free_locks::{Heap, Placement, RealConfig, SpaceLayout};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Shard routing consults no runtime state: the map built from
    /// `(nsets, nshards)` routes every id the same way on every rebuild,
    /// the routes tile `0..nsets` contiguously and monotonically, and
    /// allocating the sets — then rewinding the heap and allocating them
    /// again, as the epoch leader does — reproduces both the map and the
    /// exact set base addresses.
    #[test]
    fn shard_routing_is_a_stable_pure_function_of_the_lock_id(
        nsets in 1usize..96,
        nshards in 1usize..12,
    ) {
        let map = ShardMap::new(nsets, nshards);
        let routes: Vec<usize> = (0..nsets).map(|id| map.shard_of(id)).collect();
        let rebuilt = ShardMap::new(nsets, nshards);
        let routes2: Vec<usize> = (0..nsets).map(|id| rebuilt.shard_of(id)).collect();
        prop_assert_eq!(&routes, &routes2, "rebuilding the map changed routing");

        // Contiguous monotone tiling: shard indices start at 0, step by at
        // most 1, end at nshards-1, and agree with the member ranges.
        prop_assert_eq!(routes[0], 0);
        prop_assert_eq!(*routes.last().unwrap(), map.nshards() - 1);
        for w in routes.windows(2) {
            prop_assert!(w[1] == w[0] || w[1] == w[0] + 1, "routing skipped a shard");
        }
        for s in 0..map.nshards() {
            for id in map.members(s) {
                prop_assert_eq!(routes[id], s, "members({}) disagrees with shard_of", s);
            }
        }

        // Epoch re-rooting: same creation sequence after a quiescent
        // rewind => byte-identical geometry.
        let heap = Heap::new(1 << 20);
        let mark = heap.mark();
        let (built, sets) = create_sharded_roots(&heap, nsets, 2, Placement::Padded, nshards);
        prop_assert_eq!(built, map, "create_sharded_roots changed the routing map");
        prop_assert_eq!(sets.len(), nsets);
        let bases: Vec<u32> = sets.iter().map(|s| s.base().0).collect();
        heap.reset_to_quiescent(&mark);
        let (again, sets2) = create_sharded_roots(&heap, nsets, 2, Placement::Padded, nshards);
        prop_assert_eq!(again, map);
        let bases2: Vec<u32> = sets2.iter().map(|s| s.base().0).collect();
        prop_assert_eq!(bases, bases2, "re-rooting moved the sharded sets");
    }
}

/// Layout is invisible to the step-counted execution: the same seeded sim
/// (with epoch re-rootings in the middle) produces an identical report
/// under all four placement x sharding combinations.
#[test]
fn sim_replay_is_layout_invariant_across_epochs() {
    let layouts = [
        SpaceLayout::packed_unified(),
        SpaceLayout { placement: Placement::Packed, shards: 0 },
        SpaceLayout { placement: Placement::Padded, shards: 1 },
        SpaceLayout::default(),
    ];
    let mut baseline = None;
    for layout in layouts {
        let mut spec = SimSpec::new(4, 24, 6, 2);
        spec.seed = 99;
        spec.layout = layout;
        let mode = ExecMode::sim(SchedKind::Bursty(13), 400_000_000).with_epoch_rounds(7);
        let algo = AlgoKind::wfl(4);
        let r = run_random_conflict(&spec, algo, &mode);
        assert!(r.safety_ok, "{}: counter invariant broken", layout.label());
        assert_eq!(r.epochs, 4, "24 rounds at 7/epoch");
        let fingerprint = (r.attempts, r.wins, r.aborts, r.per_pid.clone());
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(b) => {
                assert_eq!(&fingerprint, b, "layout {} diverged from the replay", layout.label())
            }
        }
    }
}

/// Set regularity on the sharded active set, from a real-threads history:
/// the bank run crosses several epoch re-rootings of a lock space the
/// default layout splits into 4 shards; the recorded epoch's history plus
/// a final getSet synthesized from the heap-recorded outcomes must pass
/// the Theorem 5.1 checker.
#[test]
fn sharded_bank_real_history_is_set_regular() {
    const ACCOUNTS: usize = 16;
    let layout = SpaceLayout::default();
    assert!(
        layout.shards_for(ACCOUNTS) > 1,
        "the audit must run against a genuinely sharded space"
    );

    // Globally ordered event timestamps for the checker's real-time
    // precedence.
    let mode = ExecMode::new(Backend::Real { run_for: None, cfg: RealConfig::precise() })
        .with_epoch_rounds(6);
    let algo = AlgoKind::Wfl { kappa: 3, delays: false, helping: true, combine: false };
    let (r, win_tokens) = run_bank_recorded(3, ACCOUNTS, 18, 100, 23, algo, 1 << 22, &mode);
    assert!(r.safety_ok, "bank conservation failed on the sharded layout");
    assert_eq!(r.epochs, 3, "the run must cross multiple epoch re-rootings");
    assert_eq!(r.attempts, 54);

    assert_eq!(BANK_HIST_WIN, MS_INSERT, "harness opcode must match the checker's");
    let wins = r.history.events.iter().filter(|e| e.op == BANK_HIST_WIN).count();
    assert_eq!(wins, win_tokens.len(), "history wins != heap-recorded wins");
    assert!(wins > 0, "some transfer must have won in the recorded epoch");

    let mut set = win_tokens;
    set.sort_unstable();
    let t_end = r.history.events.iter().map(|e| e.response).max().unwrap_or(0);
    let mut history = r.history.clone();
    history.events.push(Event {
        pid: 0,
        op: MS_GETSET,
        a: 0,
        b: 0,
        result: 0,
        result_set: set,
        invoke: t_end + 1,
        response: t_end + 2,
    });
    assert_set_regular(&history);
}

/// Holder exclusivity on the sharded active set: the adversary's recorded
/// real-mode run contests a rotating lock inside an 8-lock (2-shard)
/// space across three epochs; every per-lock holder sequence must be
/// consistent with the recorded attempt history.
#[test]
fn sharded_adversary_holder_sequences_are_exclusive() {
    let mut spec = AdversarySpec::new(3, 24);
    spec.nlocks = 8;
    assert!(
        SpaceLayout::default().shards_for(spec.nlocks) > 1,
        "the audit must run against a genuinely sharded space"
    );
    spec.strength = AdvStrength::Flood;
    spec.victim_period = 30;
    spec.seed = 17;
    spec.record = true;
    let mode = ExecMode::new(Backend::Real { run_for: None, cfg: RealConfig::precise() })
        .with_epoch_rounds(8);
    let r = run_adversary(&spec, AlgoKind::wfl(3), &mode);
    assert!(r.run.safety_ok, "per-epoch win counters diverged on the sharded layout");
    assert_eq!(r.run.epochs, 3, "24 rounds at 8/epoch");
    assert_eq!(r.holder_logs.len(), 3, "one holder log per recorded epoch");
    assert!(!r.run.history.is_empty(), "recorded epochs must produce attempt events");
    let total_log: usize = r.holder_logs.iter().map(|(_, t)| t.len()).sum();
    assert_eq!(total_log as u64, r.run.wins, "every win appends exactly one holder");
    assert_holder_exclusive(&r.run.history, &r.holder_logs);
}
