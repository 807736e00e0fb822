//! The thunk registry: maps thunk ids (stored in shared-memory frames) to
//! executable Rust code.
//!
//! The paper models a thunk as "a pointer to code left inside the lock" that
//! any process can execute. In Rust the executable part lives outside the
//! word heap in a [`Registry`] shared by all processes; the per-instance
//! state (arguments and the idempotence log) lives in the heap frame. A
//! thunk's control flow must be deterministic given its arguments and the
//! *logged* results of its shared operations — then every helper replays
//! the identical operation sequence, which is what makes the per-operation
//! log sound.

use crate::run::IdemRun;

/// Identifier of a registered thunk (stored in frames as a `u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThunkId(pub u32);

/// A critical-section body, executable idempotently by any number of
/// helpers.
///
/// Implementations must:
/// * perform **all** shared-memory accesses through the [`IdemRun`] methods;
/// * have control flow that depends only on the run's arguments and the
///   values returned by those methods;
/// * perform at most [`Thunk::max_ops`] shared operations.
pub trait Thunk: Send + Sync {
    /// Executes (or helps execute) one instance of the thunk.
    fn run(&self, run: &mut IdemRun<'_, '_>);

    /// Upper bound on the number of `IdemRun` operations a run performs
    /// (the paper's `T`, which also sizes the frame's log).
    fn max_ops(&self) -> usize;

    /// Upper bound on the own steps one run of the body takes: its
    /// operations, argument reads and local steps. The default,
    /// [`body_steps`]`(max_ops)`, covers a body that reads at most
    /// `max_ops + 1` arguments and takes no local steps; any other body
    /// must override it. [`crate::Frame::help`] checks the bound in debug
    /// builds, and the lock's delay budgets are derived from it.
    fn max_steps(&self) -> u64 {
        body_steps(self.max_ops())
    }
}

/// The default [`Thunk::max_steps`] for a body of `ops` operations: each
/// at its worst case ([`crate::run::OP_MAX_STEPS`]), plus `ops + 1`
/// one-step argument reads.
pub const fn body_steps(ops: usize) -> u64 {
    ops as u64 * crate::run::OP_MAX_STEPS + ops as u64 + 1
}

/// An immutable collection of registered thunks, shared by all processes.
#[derive(Default)]
pub struct Registry {
    thunks: Vec<Box<dyn Thunk>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("thunks", &self.thunks.len()).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a thunk, returning its id. Registration happens during
    /// setup, before processes run.
    ///
    /// # Panics
    /// Panics if the thunk declares more than [`crate::tag::MAX_OPS`]
    /// operations (the tag layout reserves 8 bits for the op index).
    pub fn register(&mut self, thunk: impl Thunk + 'static) -> ThunkId {
        assert!(
            thunk.max_ops() <= crate::tag::MAX_OPS,
            "thunk declares {} ops; the log supports at most {}",
            thunk.max_ops(),
            crate::tag::MAX_OPS
        );
        let id = ThunkId(self.thunks.len() as u32);
        self.thunks.push(Box::new(thunk));
        id
    }

    /// Looks up a thunk by id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this registry.
    pub fn get(&self, id: ThunkId) -> &dyn Thunk {
        self.thunks
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown thunk id {}", id.0))
            .as_ref()
    }

    /// The largest [`Thunk::max_steps`] of any registered thunk (0 when
    /// empty): the critical-section step budget that covers them all.
    pub fn max_steps(&self) -> u64 {
        self.thunks.iter().map(|t| t.max_steps()).max().unwrap_or(0)
    }

    /// Number of registered thunks.
    pub fn len(&self) -> usize {
        self.thunks.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.thunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Thunk for Nop {
        fn run(&self, _run: &mut IdemRun<'_, '_>) {}
        fn max_ops(&self) -> usize {
            0
        }
    }

    #[test]
    fn register_and_get() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        let a = r.register(Nop);
        let b = r.register(Nop);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).max_ops(), 0);
    }

    struct TooBig;
    impl Thunk for TooBig {
        fn run(&self, _run: &mut IdemRun<'_, '_>) {}
        fn max_ops(&self) -> usize {
            crate::tag::MAX_OPS + 1
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_thunk_rejected() {
        Registry::new().register(TooBig);
    }
}
