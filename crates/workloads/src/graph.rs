//! GraphLab-style local vertex updates (§1's graph-processing use case).
//!
//! A fixed undirected graph; updating vertex `v` locks `{v} ∪ N(v)` and
//! recomputes `val[v]` from the neighbor values — e.g. one round of
//! "make me one greater than my minimum neighbor". Lock id = vertex id,
//! so `L = deg(v) + 1` and the point contention on a vertex's lock is
//! bounded by the size of its 2-hop neighborhood among concurrent
//! updaters.

use crate::algo::{AlgoKind, AlgoSpec};
use crate::driver::{drive_epochs, EpochWorkload, ExecMode};
use crate::outcomes::{HarnessReport, Outcomes};
use wfl_baselines::LockAlgo;
use wfl_core::{AttemptMetrics, LockId, Scratch, TryLockRequest};
use wfl_idem::{cell, IdemRun, Registry, TagSource, Thunk, ThunkId};
use wfl_runtime::rng::Pcg;
use wfl_runtime::{Addr, Ctx, Heap};

/// The update critical section: `val[v] = min(val[u] for u in N(v)) + 1`
/// (reads each neighbor, one write), plus one read-modify-write on the
/// vertex's update counter. The counter is written only while holding `v`'s
/// lock, so two concurrent relaxations of the same vertex racing on it is a
/// mutual-exclusion violation — this is what lets the harness check graph
/// runs the same way it checks counter workloads.
pub struct RelaxThunk {
    /// Maximum degree in the graph (bounds the op count).
    pub max_degree: usize,
}

impl Thunk for RelaxThunk {
    fn run(&self, run: &mut IdemRun<'_, '_>) {
        let deg = run.arg(0) as usize;
        let target = Addr::from_word(run.arg(1));
        let count = Addr::from_word(run.arg(2));
        let mut min = u32::MAX;
        for i in 0..deg {
            let nb = Addr::from_word(run.arg(3 + i));
            min = min.min(run.read(nb));
        }
        run.write(target, min.saturating_add(1));
        let c = run.read(count);
        run.write(count, c + 1);
    }
    fn max_ops(&self) -> usize {
        self.max_degree + 3
    }
}

/// A fixed undirected graph whose vertices carry values and locks.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Adjacency lists (symmetric).
    pub adj: Vec<Vec<u32>>,
    /// Base address of the per-vertex values (tagged cells).
    pub values: Addr,
    /// Base address of the per-vertex update counters (tagged cells),
    /// each protected by its vertex's lock.
    pub counts: Addr,
    /// The registered relax thunk.
    pub relax: ThunkId,
}

impl Graph {
    /// Builds a ring of `n` vertices (degree 2) with initial values.
    pub fn ring(heap: &Heap, registry: &mut Registry, n: usize, init: &[u32]) -> Graph {
        Self::ring_rooted(heap, n, init, registry.register(RelaxThunk { max_degree: 2 }))
    }

    /// Ring topology against a pre-registered relax thunk (must have been
    /// registered with `max_degree >= 2`) — the epoch-lifecycle hook
    /// (thunks register once per run, heap roots are re-created after
    /// every quiescent reset).
    pub fn ring_rooted(heap: &Heap, n: usize, init: &[u32], relax: ThunkId) -> Graph {
        assert!(n >= 3, "a ring needs at least 3 vertices");
        assert_eq!(init.len(), n);
        let adj: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| vec![(v + n as u32 - 1) % n as u32, (v + 1) % n as u32])
            .collect();
        Self::with_adj_rooted(heap, adj, init, relax)
    }

    /// Builds a 2-D grid graph of `rows × cols` vertices (degree ≤ 4).
    pub fn grid(heap: &Heap, registry: &mut Registry, rows: usize, cols: usize, init: &[u32]) -> Graph {
        assert!(rows >= 1 && cols >= 2);
        let n = rows * cols;
        assert_eq!(init.len(), n);
        let mut adj = vec![Vec::new(); n];
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    adj[v].push((v + 1) as u32);
                    adj[v + 1].push(v as u32);
                }
                if r + 1 < rows {
                    adj[v].push((v + cols) as u32);
                    adj[v + cols].push(v as u32);
                }
            }
        }
        Self::with_adj(heap, registry, adj, init)
    }

    /// Builds a graph from explicit (symmetric) adjacency lists.
    pub fn with_adj(heap: &Heap, registry: &mut Registry, adj: Vec<Vec<u32>>, init: &[u32]) -> Graph {
        let max_degree = adj.iter().map(Vec::len).max().unwrap_or(0);
        let relax = registry.register(RelaxThunk { max_degree });
        Self::with_adj_rooted(heap, adj, init, relax)
    }

    /// Adjacency-list topology against a pre-registered relax thunk (its
    /// `max_degree` must cover this graph's maximum degree).
    pub fn with_adj_rooted(heap: &Heap, adj: Vec<Vec<u32>>, init: &[u32], relax: ThunkId) -> Graph {
        let n = adj.len();
        let values = heap.alloc_root(n);
        let counts = heap.alloc_root(n);
        for (i, &v) in init.iter().enumerate() {
            heap.poke(values.off(i as u32), cell::untagged(v));
        }
        Graph { adj, values, counts, relax }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// The lock set for updating vertex `v`: `{v} ∪ N(v)`, sorted.
    pub fn lock_set(&self, v: usize) -> Vec<LockId> {
        let mut ids: Vec<u32> = std::iter::once(v as u32).chain(self.adj[v].iter().copied()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(LockId).collect()
    }

    /// Fills `args` with the relax-thunk arguments for vertex `v` (the
    /// layout [`RelaxThunk`] decodes). Exposed so drivers can pre-build
    /// request buffers outside their hot loop.
    pub fn relax_args(&self, v: usize, args: &mut Vec<u64>) {
        args.clear();
        args.push(self.adj[v].len() as u64);
        args.push(self.values.off(v as u32).to_word());
        args.push(self.counts.off(v as u32).to_word());
        args.extend(self.adj[v].iter().map(|&u| self.values.off(u).to_word()));
    }

    /// One relax attempt on vertex `v` under `algo`.
    pub fn attempt_relax<A: LockAlgo + ?Sized>(
        &self,
        ctx: &Ctx<'_>,
        algo: &A,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        v: usize,
    ) -> AttemptMetrics {
        let locks = self.lock_set(v);
        let mut args = Vec::new();
        self.relax_args(v, &mut args);
        let req = TryLockRequest { locks: &locks, thunk: self.relax, args: &args };
        algo.attempt(ctx, tags, scratch, &req)
    }

    /// Value of vertex `v` (uncounted inspection).
    pub fn value(&self, heap: &Heap, v: usize) -> u32 {
        cell::value(heap.peek(self.values.off(v as u32)))
    }

    /// Number of successful relaxations of vertex `v` (uncounted
    /// inspection of the lock-protected update counter).
    pub fn updates(&self, heap: &Heap, v: usize) -> u32 {
        cell::value(heap.peek(self.counts.off(v as u32)))
    }
}

/// The graph workload behind the epoch hooks.
struct GraphWl {
    vertices: usize,
    seed: u64,
    relax: ThunkId,
    init: Vec<u32>,
}

impl GraphWl {
    fn vertex_of(&self, pid: usize, round: usize) -> usize {
        Pcg::new(self.seed ^ 0x62AF, ((pid as u64) << 32) | round as u64)
            .below(self.vertices as u64) as usize
    }
}

impl EpochWorkload for GraphWl {
    type Roots = Graph;
    /// Pre-built per-vertex request buffers (the ring is small; attempts
    /// stay allocation-free inside the epoch).
    type Local = Vec<(Vec<LockId>, Vec<u64>)>;

    fn re_root(&self, heap: &Heap, _epoch: usize) -> Graph {
        Graph::ring_rooted(heap, self.vertices, &self.init, self.relax)
    }

    fn local(&self, _ctx: &Ctx<'_>, graph: &Graph) -> Self::Local {
        (0..self.vertices)
            .map(|v| {
                let mut args = Vec::new();
                graph.relax_args(v, &mut args);
                (graph.lock_set(v), args)
            })
            .collect()
    }

    fn round(
        &self,
        ctx: &Ctx<'_>,
        graph: &Graph,
        reqs: &mut Self::Local,
        algo: &dyn LockAlgo,
        tags: &mut TagSource,
        scratch: &mut Scratch,
        pid: usize,
        round: usize,
        _slot: usize,
    ) -> AttemptMetrics {
        let (locks, args) = &reqs[self.vertex_of(pid, round)];
        let req = TryLockRequest { locks, thunk: graph.relax, args };
        algo.attempt(ctx, tags, scratch, &req)
    }

    fn check(&self, heap: &Heap, graph: &Graph, rec: &Outcomes) -> (HarnessReport, bool) {
        let mut expected = vec![0u64; self.vertices];
        let report = rec.aggregate(heap, |pid, round| {
            expected[self.vertex_of(pid, round)] += 1;
        });
        let safe = (0..self.vertices).all(|v| graph.updates(heap, v) as u64 == expected[v]);
        (report, safe)
    }
}

/// Runs the graph workload on either backend: a ring of `vertices`, each
/// process making up to `rounds` relax attempts per epoch on deterministic
/// `(seed, pid, round)` vertices (`L = 3`: the vertex and both neighbors).
/// Safety check (every epoch): every vertex's lock-protected update counter
/// equals the number of recorded wins targeting it.
#[allow(clippy::too_many_arguments)]
pub fn run_graph(
    nprocs: usize,
    vertices: usize,
    rounds: usize,
    seed: u64,
    algo: AlgoKind,
    heap_words: usize,
    mode: &ExecMode,
) -> HarnessReport {
    assert!(vertices >= 3);
    let mut registry = Registry::new();
    let relax = registry.register(RelaxThunk { max_degree: 2 });
    let heap = Heap::new(heap_words);
    let aspec = AlgoSpec::new(algo, vertices, nprocs, 3, 5, &registry);
    let wl = GraphWl { vertices, seed, relax, init: vec![1u32; vertices] };
    drive_epochs(&heap, &registry, aspec, nprocs, seed, rounds, mode, &wl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfl_baselines::WflKnown;
    use wfl_core::{LockConfig, LockSpace};
    use wfl_runtime::schedule::SeededRandom;
    use wfl_runtime::sim::SimBuilder;

    #[test]
    fn ring_and_grid_shapes() {
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 12);
        let g = Graph::ring(&heap, &mut registry, 5, &[0; 5]);
        assert_eq!(g.len(), 5);
        assert_eq!(g.lock_set(0), vec![LockId(0), LockId(1), LockId(4)]);
        let g2 = Graph::grid(&heap, &mut registry, 2, 3, &[0; 6]);
        assert_eq!(g2.adj[0], vec![1, 3]);
        assert_eq!(g2.adj[4].len(), 3);
    }

    #[test]
    fn single_relax_takes_min_plus_one() {
        let mut registry = Registry::new();
        let heap = Heap::new(1 << 20);
        let g = Graph::ring(&heap, &mut registry, 4, &[10, 0, 10, 3]);
        let space = LockSpace::create_root(&heap, 4, 2);
        let algo = WflKnown {
            space: &space,
            registry: &registry,
            cfg: LockConfig::new(2, 3, 5).without_delays(),
        };
        let (g_ref, a_ref) = (&g, &algo);
        let report = SimBuilder::new(&heap, 1)
            .spawn(move |ctx: &Ctx| {
                let mut tags = TagSource::new(0);
                let mut scratch = Scratch::new();
                let out = g_ref.attempt_relax(ctx, a_ref, &mut tags, &mut scratch, 0);
                assert!(out.won);
            })
            .run();
        report.assert_clean();
        // N(0) = {1, 3} with values {0, 3}: min+1 = 1.
        assert_eq!(g.value(&heap, 0), 1);
        assert_eq!(g.updates(&heap, 0), 1, "update counter tracks the successful relax");
        assert_eq!(g.updates(&heap, 1), 0);
    }

    #[test]
    fn concurrent_relaxations_preserve_invariant() {
        // After any number of successful relaxations, every updated vertex
        // value equals (some past min of its neighbors) + 1 and is
        // therefore at most (max initial value + rounds). A lost-update or
        // overlap bug breaks determinism of the counter-style invariant:
        // final values must be reproducible per seed (determinism) and
        // bounded.
        for seed in 0..6 {
            let mut registry = Registry::new();
            let heap = Heap::new(1 << 22);
            let n = 6;
            let init = vec![5u32; n];
            let g = Graph::ring(&heap, &mut registry, n, &init);
            let space = LockSpace::create_root(&heap, n, 4);
            let algo = WflKnown {
                space: &space,
                registry: &registry,
                cfg: LockConfig::new(4, 3, 5).without_delays(),
            };
            let wins = heap.alloc_root(n);
            let (g_ref, a_ref) = (&g, &algo);
            let report = SimBuilder::new(&heap, 3)
                .schedule(SeededRandom::new(3, seed))
                .max_steps(100_000_000)
                .spawn_all(|pid| {
                    move |ctx: &Ctx| {
                        let mut tags = TagSource::new(pid);
                        let mut scratch = Scratch::new();
                        for round in 0..4 {
                            let v = (pid * 2 + round) % 6;
                            if g_ref.attempt_relax(ctx, a_ref, &mut tags, &mut scratch, v).won {
                                // Tally wins per vertex with counted CAS
                                // (vertices are shared across processes).
                                loop {
                                    let w = ctx.read(wins.off(v as u32));
                                    if ctx.cas_bool(wins.off(v as u32), w, w + 1) {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                })
                .run();
            report.assert_clean();
            for v in 0..n {
                let val = g.value(&heap, v);
                assert!(val <= 5 + 12, "seed {seed}: vertex {v} value {val} out of range");
                assert_eq!(
                    g.updates(&heap, v) as u64,
                    heap.peek(wins.off(v as u32)),
                    "seed {seed}: vertex {v} update counter diverged from wins"
                );
            }
        }
    }
}
