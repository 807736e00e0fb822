//! The harness's algorithm registry: which lock algorithms an experiment
//! can name ([`AlgoKind`]), how one is instantiated on a heap for an epoch
//! ([`AlgoSpec`], [`AlgoInstance`]), and the same hook for external
//! drivers ([`AlgoHandle`]).

use wfl_baselines::{BlockingMode, BlockingTpl, LockAlgo, NaiveTryLock, TspLock, WflKnown, WflUnknown};
use wfl_core::{LockConfig, LockSpace, SpaceLayout};
use wfl_delegation::{CcSynch, FcLock};
use wfl_idem::Registry;
use wfl_runtime::Heap;

/// Algorithms the harness can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// The paper's known-bounds algorithm (§6). `kappa` is the contention
    /// bound used for the delays (active sets are always sized at the
    /// process count, which is a valid upper bound). The three switches
    /// are [`LockConfig`]'s; only `delays && helping && !combine` is the
    /// lock whose fairness bound Theorem 6.9 proves.
    Wfl {
        /// Contention bound κ for the delay formulas.
        kappa: usize,
        /// Fixed delays enabled (the E11 ablation and the wall-clock
        /// matrices turn them off).
        delays: bool,
        /// Helping phase enabled (disable only for the E12 ablation).
        helping: bool,
        /// The combining fast path ([`LockConfig::combine`]): a winner
        /// batches compatible pending requests before releasing.
        /// Wait-freedom and the fairness bound are untouched — combining
        /// only adds extra-early grants.
        combine: bool,
    },
    /// The §6.2 unknown-bounds variant.
    WflUnknown,
    /// Turek–Shasha–Prakash-style lock-free locks (always succeed).
    Tsp,
    /// Blocking ordered two-phase locking (always succeeds outside of
    /// cooperative shutdown; blocks under crashes).
    Blocking,
    /// Blocking two-phase locking with the cohort/backoff spin discipline
    /// (TTAS + bounded exponential backoff, per Fissile Locks): the honest
    /// blocking comparison point at 16–64 threads, where the naked spin is
    /// a coherence-traffic strawman.
    BlockingCohort,
    /// No-helping tryLock (may fail; never blocks).
    Naive,
    /// Flat combining (Hendler et al.): publication array + combiner lock.
    FlatCombining,
    /// CCSynch (Fatourou & Kallimanis): swap-based combining queue.
    CcSynch,
}

/// [`AlgoKind::Wfl`] labels, indexed by [`wfl_index`].
const WFL_LABELS: [&str; 8] = [
    "wfl",
    "wfl-nodelay",
    "wfl-nohelp",
    "wfl-nodelay-nohelp",
    "wfl+combine",
    "wfl-nodelay+combine",
    "wfl-nohelp+combine",
    "wfl-nodelay-nohelp+combine",
];

/// One bit per switch that departs from the paper's lock.
fn wfl_index(delays: bool, helping: bool, combine: bool) -> usize {
    usize::from(!delays) | usize::from(!helping) << 1 | usize::from(combine) << 2
}

impl AlgoKind {
    /// The paper's lock: delays and helping on, no combining.
    pub fn wfl(kappa: usize) -> AlgoKind {
        AlgoKind::Wfl { kappa, delays: true, helping: true, combine: false }
    }

    /// Short name for tables and JSON. A wfl label names every switch that
    /// departs from the paper's lock, so plain `wfl` is always that lock.
    pub fn label(&self) -> &'static str {
        match *self {
            AlgoKind::Wfl { delays, helping, combine, .. } => {
                WFL_LABELS[wfl_index(delays, helping, combine)]
            }
            AlgoKind::WflUnknown => "wfl-unknown",
            AlgoKind::Tsp => "tsp",
            AlgoKind::Blocking => "blocking",
            AlgoKind::BlockingCohort => "blocking-cohort",
            AlgoKind::Naive => "naive",
            AlgoKind::FlatCombining => "fc",
            AlgoKind::CcSynch => "ccsynch",
        }
    }

    /// The five kinds with default wfl parameters (κ = `nprocs`).
    pub fn all(nprocs: usize) -> [AlgoKind; 5] {
        [
            AlgoKind::wfl(nprocs.max(2)),
            AlgoKind::WflUnknown,
            AlgoKind::Tsp,
            AlgoKind::Blocking,
            AlgoKind::Naive,
        ]
    }

    /// Every kind the harness can run: [`AlgoKind::all`] plus the cohort
    /// spin discipline, the combining fast path, and both delegation
    /// baselines (the E14 extended matrix / E17 roster).
    pub fn all_extended(nprocs: usize) -> [AlgoKind; 9] {
        let [wfl, unknown, tsp, blocking, naive] = Self::all(nprocs);
        [
            wfl,
            AlgoKind::Wfl { kappa: nprocs.max(2), delays: true, helping: true, combine: true },
            unknown,
            tsp,
            blocking,
            AlgoKind::BlockingCohort,
            naive,
            AlgoKind::FlatCombining,
            AlgoKind::CcSynch,
        ]
    }

    /// Parses any [`AlgoKind::label`] back into a kind with default
    /// parameters (κ = `nprocs`) — the `--algos` filter flags.
    pub fn from_label(name: &str, nprocs: usize) -> Option<AlgoKind> {
        let kappa = nprocs.max(2);
        let wfl = (0..WFL_LABELS.len()).map(|i| AlgoKind::Wfl {
            kappa,
            delays: i & 1 == 0,
            helping: i & 2 == 0,
            combine: i & 4 != 0,
        });
        wfl.chain(Self::all_extended(nprocs)).find(|k| k.label() == name)
    }
}

/// Everything needed to (re-)create the algorithm under test on a fresh
/// heap: kind, lock-space shape, memory layout, and the known-bounds
/// configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlgoSpec {
    pub(crate) kind: AlgoKind,
    pub(crate) nlocks: usize,
    /// Active-set size; also the delegation baselines' publication-record
    /// count.
    pub(crate) aset: usize,
    pub(crate) layout: SpaceLayout,
    /// Read only by [`AlgoKind::Wfl`].
    pub(crate) cfg: LockConfig,
}

impl AlgoSpec {
    /// The spec for `nprocs` processes on `nlocks` locks in the default
    /// layout: active sets (and delegation records) sized `nprocs.max(2)`,
    /// and wfl's delays sized for `l_max` locks and `t_max` thunk ops per
    /// attempt, with a critical-section budget covering every registered
    /// thunk.
    pub(crate) fn new(
        kind: AlgoKind,
        nlocks: usize,
        nprocs: usize,
        l_max: usize,
        t_max: usize,
        registry: &Registry,
    ) -> AlgoSpec {
        let aset = nprocs.max(2);
        let (kappa, delays, helping, combine) = match kind {
            AlgoKind::Wfl { kappa, delays, helping, combine } => (kappa, delays, helping, combine),
            _ => (aset, true, true, false),
        };
        let mut cfg = LockConfig::new(kappa.max(1), l_max, t_max).with_cs_steps(registry.max_steps());
        cfg.delays = delays;
        cfg.helping = helping;
        cfg.combine = combine;
        AlgoSpec { kind, nlocks, aset, layout: SpaceLayout::default(), cfg }
    }
}

/// The per-epoch heap instantiation of an [`AlgoSpec`]: owns the on-heap
/// lock records (or the lock-word arrays of the baselines) so the epoch
/// boundary can drop and re-create them wholesale.
pub(crate) enum AlgoInstance<'reg> {
    Wfl { space: LockSpace, cfg: LockConfig },
    Unknown { space: LockSpace },
    Tsp(TspLock<'reg>),
    Blocking(BlockingTpl<'reg>),
    Naive(NaiveTryLock<'reg>),
    Fc(FcLock<'reg>),
    Cc(CcSynch<'reg>),
}

impl<'reg> AlgoInstance<'reg> {
    pub(crate) fn create(heap: &Heap, registry: &'reg Registry, spec: &AlgoSpec) -> AlgoInstance<'reg> {
        let layout = spec.layout;
        match spec.kind {
            AlgoKind::Wfl { .. } => AlgoInstance::Wfl {
                space: LockSpace::create_root_with(heap, spec.nlocks, spec.aset, layout),
                cfg: spec.cfg,
            },
            AlgoKind::WflUnknown => AlgoInstance::Unknown {
                space: LockSpace::create_root_with(heap, spec.nlocks, spec.aset, layout),
            },
            AlgoKind::Tsp => AlgoInstance::Tsp(TspLock::create_root_placed(
                heap,
                registry,
                spec.nlocks,
                layout.placement,
            )),
            AlgoKind::Blocking => AlgoInstance::Blocking(BlockingTpl::create_root_placed(
                heap,
                registry,
                spec.nlocks,
                layout.placement,
            )),
            AlgoKind::BlockingCohort => AlgoInstance::Blocking(
                BlockingTpl::create_root_placed(heap, registry, spec.nlocks, layout.placement)
                    .with_mode(BlockingMode::Cohort),
            ),
            AlgoKind::Naive => AlgoInstance::Naive(NaiveTryLock::create_root_placed(
                heap,
                registry,
                spec.nlocks,
                layout.placement,
            )),
            // The delegation baselines size their per-process publication
            // records by the process count; `aset` is exactly
            // `nprocs.max(2)` everywhere they run.
            AlgoKind::FlatCombining => AlgoInstance::Fc(FcLock::create_root_placed(
                heap,
                registry,
                spec.aset,
                layout.placement,
            )),
            AlgoKind::CcSynch => AlgoInstance::Cc(CcSynch::create_root_placed(
                heap,
                registry,
                spec.aset,
                layout.placement,
            )),
        }
    }

    /// Lends the instance as a `&dyn LockAlgo` (the paper's algorithms
    /// borrow the space per call; the baselines are the algo themselves).
    pub(crate) fn with<R>(&self, registry: &Registry, f: impl FnOnce(&dyn LockAlgo) -> R) -> R {
        match self {
            AlgoInstance::Wfl { space, cfg } => f(&WflKnown { space, registry, cfg: *cfg }),
            AlgoInstance::Unknown { space } => f(&WflUnknown { space, registry }),
            AlgoInstance::Tsp(a) => f(a),
            AlgoInstance::Blocking(a) => f(a),
            AlgoInstance::Naive(a) => f(a),
            AlgoInstance::Fc(a) => f(a),
            AlgoInstance::Cc(a) => f(a),
        }
    }
}

/// A harness hook for drivers that do not run on the epoch driver:
/// (re-)creates any [`AlgoKind`] on a heap and lends it as a
/// `&dyn LockAlgo`, with the same κ defaulting and active-set sizing as
/// the epoch driver's own instances. The adversary's sim arm (the E7
/// construction, see [`crate::adversary`]) and the parity test that
/// rebuilds it by hand use it.
pub struct AlgoHandle<'reg> {
    registry: &'reg Registry,
    instance: AlgoInstance<'reg>,
}

impl<'reg> AlgoHandle<'reg> {
    /// Creates the algorithm's heap roots (lock records / lock-word
    /// arrays). `nprocs` is the κ default and active-set size; `l_max` /
    /// `t_max` bound the known-bounds delay formulas.
    pub fn create(
        heap: &Heap,
        registry: &'reg Registry,
        kind: AlgoKind,
        nlocks: usize,
        nprocs: usize,
        l_max: usize,
        t_max: usize,
    ) -> AlgoHandle<'reg> {
        let spec = AlgoSpec::new(kind, nlocks, nprocs, l_max, t_max, registry);
        AlgoHandle { registry, instance: AlgoInstance::create(heap, registry, &spec) }
    }

    /// Lends the instance as a `&dyn LockAlgo`.
    pub fn with<R>(&self, f: impl FnOnce(&dyn LockAlgo) -> R) -> R {
        self.instance.with(self.registry, f)
    }
}
