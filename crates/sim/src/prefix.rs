//! Prefix-sharing batched simulation: the `PrefixForest`.
//!
//! Tomography batches are pathologically redundant: every upstream variant
//! is the *same* fragment circuit plus a ≤2-gate basis-rotation suffix, and
//! downstream variants for `K ≥ 2` cuts share preparation prefixes in a
//! 6-ary trie. A naive batched backend still pays `O(V · G)` gate
//! applications for `V` variants of a `G`-gate fragment. This module pays
//! `O(G + Σ suffix)` instead:
//!
//! ```text
//!            root (|0…0>)
//!             │  fragment gates (simulated ONCE)
//!             ▼
//!        [fragment]  ── job: Z setting (no rotation)
//!          ├── [H]        ── job: X setting
//!          └── [Sdg, H]   ── job: Y setting
//! ```
//!
//! Circuits are grouped into a compressed trie (one per width), keyed by
//! structural instruction-prefix hashes ([`Circuit::prefix_hash_chain`])
//! with equality confirmation on every matched instruction, so a 64-bit
//! collision can never merge different circuits. Simulation walks the trie
//! once: each node's instruction segment is applied to a single state,
//! which is cloned ("forked") only at branch points. Every node that
//! terminates at least one circuit hands its final state to the caller
//! *once* — all jobs ending there share the state (and, in the backends,
//! one CDF sampling table).
//!
//! Parallelism is a cost decision. Sibling subtrees get threads of their
//! own only when at least two of them carry an estimated work (the
//! subtree's gate count, stored per node at build time, times the state's
//! [`ForkState::gate_cost`]) of at least one thread spawn. Otherwise they
//! run in order on the current thread, and the cores stay with the
//! simulator's own parallel kernels (state vectors at ≥ 14 qubits). Inside
//! a fanned-out subtree those kernels run sequentially: the rayon stub
//! never nests.
//!
//! Determinism: forking is a bit-exact clone and every instruction is
//! applied in the same order as a per-circuit simulation, so leaf states
//! are bit-identical to `StateVector::from_circuit` / a sequential density
//! evolution — the property the backends' batched-equals-sequential
//! contract rests on.

use qcut_circuit::circuit::{Circuit, Instruction};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A simulation state that can be evolved instruction-by-instruction and
/// forked (cloned) at trie branch points.
///
/// Implementations must make `clone` bit-exact and `apply` deterministic
/// for a given state, so that prefix-shared evolution reproduces a
/// per-circuit simulation bit for bit.
pub trait ForkState: Clone + Send + Sync {
    /// Applies one instruction in place.
    fn apply(&mut self, inst: &Instruction);

    /// Estimated cost of one [`ForkState::apply`] on a `num_qubits`-wide
    /// state, in amplitude updates: `2^n` for a pure state. Mixed-state
    /// implementations return `4^n`. The walk multiplies it by a subtree's
    /// gate count to decide whether the subtree is worth a thread.
    fn gate_cost(num_qubits: usize) -> u64 {
        pow2(num_qubits)
    }
}

/// `2^exp`, saturating at `u64::MAX`.
fn pow2(exp: usize) -> u64 {
    if exp < 64 {
        1 << exp
    } else {
        u64::MAX
    }
}

impl ForkState for crate::statevector::StateVector {
    fn apply(&mut self, inst: &Instruction) {
        self.apply_instruction(inst);
    }
}

impl ForkState for crate::density::DensityMatrix {
    fn apply(&mut self, inst: &Instruction) {
        self.apply_instruction(inst);
    }

    fn gate_cost(num_qubits: usize) -> u64 {
        pow2(2 * num_qubits)
    }
}

/// Estimated work (in [`ForkState::gate_cost`] units) a subtree must carry
/// before it gets a thread of its own. A two-way split through the rayon
/// stub spawns one scoped thread; on a 2-vCPU x86-64 VM that costs about
/// 50 µs, while one amplitude update costs about 4 ns (state vector, 8–12
/// qubits) to 9–13 ns (density matrix, one fused noisy gate of the
/// `ibm_7q` preset at 4–7 qubits; about 30 ns at 3 qubits, where composing
/// the gate's superoperator weighs more). 16K updates is 65–210 µs of
/// work: at least one spawn's worth.
const SPAWN_WORK: u64 = 1 << 14;

/// One trie node: a maximal shared instruction segment.
///
/// The segment is stored as a range into an *exemplar* circuit rather than
/// cloned instructions — invariant: the concatenated segments on the path
/// from the root to this node equal `exemplar.instructions()[..end]`, so
/// edges can be compared against any inserted circuit positionally.
#[derive(Debug)]
struct Node {
    /// Width of every circuit below this node.
    width: usize,
    /// Index (into the forest's circuit list) of the circuit spelling this
    /// node's segment.
    exemplar: usize,
    /// Segment start within the exemplar's instruction list.
    start: usize,
    /// Segment end (exclusive); the root of each width group has
    /// `start == end == 0`.
    end: usize,
    /// Child nodes, in first-insertion order.
    children: Vec<usize>,
    /// Circuits (by forest index) whose instruction list ends exactly at
    /// this node.
    jobs: Vec<usize>,
    /// Gate applications of this node's segment plus all its descendants'
    /// (set once the forest is built).
    subtree_gates: u64,
}

/// Summary of a forest's sharing economics — the planner-side prefix
/// metadata surfaced in reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixProfile {
    /// Circuits inserted into the forest.
    pub circuits: usize,
    /// Trie nodes, including one root per distinct width.
    pub nodes: usize,
    /// Nodes at which at least one circuit terminates (distinct circuits —
    /// each gets one final state and one sampling table).
    pub terminal_nodes: usize,
    /// Gate applications a per-circuit simulation would perform
    /// (`Σ len(circuit)`).
    pub gates_naive: u64,
    /// Gate applications the shared walk performs (`Σ segment lengths`).
    pub gates_shared: u64,
}

impl PrefixProfile {
    /// Gate applications eliminated by sharing.
    pub fn gates_saved(&self) -> u64 {
        self.gates_naive - self.gates_shared
    }

    /// `naive / shared` work ratio (1.0 when nothing is shared).
    pub fn sharing_factor(&self) -> f64 {
        if self.gates_shared == 0 {
            1.0
        } else {
            self.gates_naive as f64 / self.gates_shared as f64
        }
    }
}

/// A compressed trie over a batch of circuits, grouping shared instruction
/// prefixes so each is simulated exactly once. See the module docs.
#[derive(Debug)]
pub struct PrefixForest<'c> {
    circuits: Vec<&'c Circuit>,
    /// Per-circuit incremental structural hashes (`chains[i][p]`
    /// fingerprints circuit `i`'s first `p` instructions).
    chains: Vec<Vec<u64>>,
    nodes: Vec<Node>,
    /// Root node per distinct width, in first-appearance order.
    roots: Vec<usize>,
}

impl<'c> PrefixForest<'c> {
    /// Builds the forest over `circuits` (insertion order is preserved in
    /// [`PrefixForest::dfs_job_order`] for already-trie-local input).
    pub fn build(circuits: &[&'c Circuit]) -> Self {
        let mut forest = PrefixForest {
            circuits: circuits.to_vec(),
            chains: circuits.iter().map(|c| c.prefix_hash_chain()).collect(),
            nodes: Vec::new(),
            roots: Vec::new(),
        };
        for j in 0..forest.circuits.len() {
            forest.insert(j);
        }
        // Children follow their parent in pre-order, so the reverse visits
        // every child before its parent.
        for n in forest.preorder().into_iter().rev() {
            let node = &forest.nodes[n];
            let below: u64 = node
                .children
                .iter()
                .map(|&c| forest.nodes[c].subtree_gates)
                .sum();
            forest.nodes[n].subtree_gates = (node.end - node.start) as u64 + below;
        }
        forest
    }

    /// Node indices in trie DFS pre-order, roots in first-appearance order
    /// and children in first-insertion order.
    fn preorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<usize> = self.roots.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend(self.nodes[n].children.iter().rev().copied());
        }
        order
    }

    /// Inserts circuit `j`, splitting edges at divergence points.
    fn insert(&mut self, j: usize) {
        let width = self.circuits[j].num_qubits();
        let root = match self
            .roots
            .iter()
            .copied()
            .find(|&r| self.nodes[r].width == width)
        {
            Some(r) => r,
            None => {
                let r = self.push_node(width, j, 0, 0);
                self.roots.push(r);
                r
            }
        };

        let total = self.circuits[j].len();
        let mut cur = root;
        let mut pos = 0usize; // instructions of `j` consumed so far
        loop {
            if pos == total {
                self.nodes[cur].jobs.push(j);
                return;
            }
            // Find the child whose segment starts with j's next instruction:
            // hash-keyed lookup, confirmed by instruction equality.
            let next = self.nodes[cur].children.iter().copied().find(|&c| {
                let n = &self.nodes[c];
                self.chains[n.exemplar][pos + 1] == self.chains[j][pos + 1]
                    && self.instruction(n.exemplar, n.start) == self.instruction(j, pos)
            });
            let child = match next {
                Some(c) => c,
                None => {
                    let leaf = self.push_node(width, j, pos, total);
                    self.nodes[leaf].jobs.push(j);
                    self.nodes[cur].children.push(leaf);
                    return;
                }
            };

            // Advance along the child's segment while prefixes agree.
            let (exemplar, seg_start, seg_end) = {
                let n = &self.nodes[child];
                (n.exemplar, n.start, n.end)
            };
            debug_assert_eq!(seg_start, pos, "edge start must equal path length");
            let limit = (seg_end - seg_start).min(total - pos);
            let mut matched = 1usize; // the child-lookup confirmed one
            while matched < limit
                && self.chains[exemplar][pos + matched + 1] == self.chains[j][pos + matched + 1]
                && self.instruction(exemplar, pos + matched) == self.instruction(j, pos + matched)
            {
                matched += 1;
            }

            if matched == seg_end - seg_start {
                // Consumed the whole edge; descend.
                pos += matched;
                cur = child;
                continue;
            }

            // Diverged mid-edge: split the child at the divergence point.
            let mid = self.push_node(width, exemplar, seg_start, seg_start + matched);
            self.nodes[child].start = seg_start + matched;
            self.nodes[mid].children.push(child);
            let slot = self.nodes[cur]
                .children
                .iter()
                .position(|&c| c == child)
                .expect("child listed under its parent");
            self.nodes[cur].children[slot] = mid;

            pos += matched;
            if pos == total {
                self.nodes[mid].jobs.push(j);
            } else {
                let leaf = self.push_node(width, j, pos, total);
                self.nodes[leaf].jobs.push(j);
                self.nodes[mid].children.push(leaf);
            }
            return;
        }
    }

    fn push_node(&mut self, width: usize, exemplar: usize, start: usize, end: usize) -> usize {
        self.nodes.push(Node {
            width,
            exemplar,
            start,
            end,
            children: Vec::new(),
            jobs: Vec::new(),
            subtree_gates: 0,
        });
        self.nodes.len() - 1
    }

    #[inline]
    fn instruction(&self, circuit: usize, idx: usize) -> &Instruction {
        &self.circuits[circuit].instructions()[idx]
    }

    /// Number of circuits in the forest.
    pub fn num_circuits(&self) -> usize {
        self.circuits.len()
    }

    /// Total trie nodes, including one (empty-segment) root per distinct
    /// circuit width. Each non-root node is one distinct maximal shared
    /// prefix segment of the batch.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes at which at least one circuit terminates — the number of
    /// *distinct* circuits, and the number of final states (and sampling
    /// tables) the walk produces.
    pub fn num_terminal_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.jobs.is_empty()).count()
    }

    /// Gate applications the shared walk performs.
    pub fn gates_shared(&self) -> u64 {
        self.nodes.iter().map(|n| (n.end - n.start) as u64).sum()
    }

    /// Gate applications a per-circuit simulation would perform.
    pub fn gates_naive(&self) -> u64 {
        self.circuits.iter().map(|c| c.len() as u64).sum()
    }

    /// The forest's sharing summary.
    pub fn profile(&self) -> PrefixProfile {
        PrefixProfile {
            circuits: self.num_circuits(),
            nodes: self.num_nodes(),
            terminal_nodes: self.num_terminal_nodes(),
            gates_naive: self.gates_naive(),
            gates_shared: self.gates_shared(),
        }
    }

    /// Circuit indices in trie DFS (pre-order) — the trie-locality order
    /// the planner emits jobs in: circuits sharing a prefix are adjacent,
    /// and input that is already trie-local comes back unchanged (children
    /// and jobs keep first-insertion order).
    pub fn dfs_job_order(&self) -> Vec<usize> {
        self.preorder()
            .into_iter()
            .flat_map(|n| self.nodes[n].jobs.iter().copied())
            .collect()
    }

    /// Simulates every circuit with one shared walk.
    ///
    /// `init` builds the root state for a width (e.g.
    /// `StateVector::zero_state`). For every node where at least one
    /// circuit terminates, `visit(&state, members)` is called exactly once
    /// with the node's final state and the indices of all circuits ending
    /// there; it returns one value per member (same order). The walk forks
    /// the state at branch points. Sibling subtrees (or width groups) run
    /// on threads of their own only when at least two of them carry an
    /// estimated work (subtree gates × [`ForkState::gate_cost`]) worth a
    /// thread spawn; otherwise they run in order on the current thread,
    /// which leaves the cores to the simulator's own parallel kernels. The
    /// per-circuit results are returned in input order. Thread scheduling
    /// cannot affect any value handed to `visit`.
    pub fn simulate_with<S, I, V, T>(&self, init: I, visit: V) -> Vec<T>
    where
        S: ForkState,
        I: Fn(usize) -> S + Sync,
        V: Fn(&S, &[usize]) -> Vec<T> + Sync,
        T: Send,
    {
        let walk = Walk {
            forest: self,
            visit,
            reuse: None,
        };
        self.in_job_order(walk.roots(&init))
    }

    /// [`PrefixForest::simulate_with`] with cross-batch fork-state reuse —
    /// the warm-start cache's tier 2.
    ///
    /// Before applying a node's instruction segment the walk asks `cache`
    /// for the state at the segment's *end* (keyed by the
    /// [`Circuit::prefix_hash_chain`] link, confirmed by instruction
    /// equality); a hit replaces the incoming state and skips the segment's
    /// gate applications. On a miss the freshly evolved state is exported
    /// back into the cache if the cache admits it
    /// ([`ForkStateCache::admits`]), so a later batch — in this run or a later
    /// `CutExecutor::run` of a sweep — resumes from the deepest prefix any
    /// earlier walk has already evolved and re-simulates only divergent
    /// suffixes.
    ///
    /// Determinism: a cached state is bit-identical to what re-applying the
    /// (equality-confirmed) prefix to the init state would produce, so
    /// results are bit-identical to [`PrefixForest::simulate_with`].
    ///
    /// A `cache` lock poisoned by a panic elsewhere is recovered rather
    /// than propagated: none of [`ForkStateCache::lookup`],
    /// [`ForkStateCache::admits`] and [`ForkStateCache::store`] can panic
    /// between two of its mutations (they bump the clock, clone and move
    /// states, and edit the map or the sighted set), so the recovered cache
    /// is consistent.
    pub fn simulate_with_reuse<S, I, V, T>(
        &self,
        init: I,
        visit: V,
        cache: &Mutex<ForkStateCache<S>>,
    ) -> (Vec<T>, ReuseStats)
    where
        S: ForkState,
        I: Fn(usize) -> S + Sync,
        V: Fn(&S, &[usize]) -> Vec<T> + Sync,
        T: Send,
    {
        let stats = AtomicReuseStats::default();
        let walk = Walk {
            forest: self,
            visit,
            reuse: Some((cache, &stats)),
        };
        let values = self.in_job_order(walk.roots(&init));
        (values, stats.snapshot())
    }

    /// Orders the walk's `(circuit, value)` pairs by circuit index. Every
    /// circuit terminates at exactly one node, so the indices are exactly
    /// `0..num_circuits`.
    fn in_job_order<T>(&self, mut pairs: Vec<(usize, T)>) -> Vec<T> {
        assert_eq!(
            pairs.len(),
            self.circuits.len(),
            "every circuit terminates at exactly one node"
        );
        pairs.sort_unstable_by_key(|&(j, _)| j);
        debug_assert!(pairs.iter().enumerate().all(|(i, &(j, _))| i == j));
        pairs.into_iter().map(|(_, v)| v).collect()
    }

    /// Estimated work of the subtree under node `idx`.
    fn subtree_work<S: ForkState>(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        node.subtree_gates.saturating_mul(S::gate_cost(node.width))
    }

    /// Whether sibling subtrees `nodes` are worth spreading over threads:
    /// at least two of them carry a spawn's worth of work.
    fn worth_fanning_out<S: ForkState>(&self, nodes: &[usize]) -> bool {
        nodes
            .iter()
            .filter(|&&n| self.subtree_work::<S>(n) >= SPAWN_WORK)
            .take(2)
            .count()
            == 2
    }
}

/// One simulation walk over a forest: the visitor and, for
/// [`PrefixForest::simulate_with_reuse`], the fork-state cache and its
/// counters.
struct Walk<'f, 'c, S, V> {
    forest: &'f PrefixForest<'c>,
    visit: V,
    reuse: Option<(&'f Mutex<ForkStateCache<S>>, &'f AtomicReuseStats)>,
}

impl<S, V> Walk<'_, '_, S, V>
where
    S: ForkState,
{
    /// Walks every width group from its `init` state, returning the
    /// `(circuit, value)` pairs in trie DFS order.
    fn roots<I, T>(&self, init: &I) -> Vec<(usize, T)>
    where
        I: Fn(usize) -> S + Sync,
        V: Fn(&S, &[usize]) -> Vec<T> + Sync,
        T: Send,
    {
        let forest = self.forest;
        let mut out = Vec::with_capacity(forest.circuits.len());
        if forest.worth_fanning_out::<S>(&forest.roots) {
            self.fan_out(&forest.roots, |r| init(forest.nodes[r].width), &mut out);
        } else {
            for &r in &forest.roots {
                self.node(r, init(forest.nodes[r].width), &mut out);
            }
        }
        out
    }

    /// Evolves `state` through node `idx`'s segment, visits the circuits
    /// ending there, and walks its children, appending `(circuit, value)`
    /// pairs to `out` in DFS order.
    fn node<T>(&self, idx: usize, mut state: S, out: &mut Vec<(usize, T)>)
    where
        V: Fn(&S, &[usize]) -> Vec<T> + Sync,
        T: Send,
    {
        let forest = self.forest;
        let node = &forest.nodes[idx];
        let segment = &forest.circuits[node.exemplar].instructions()[node.start..node.end];
        match self.reuse {
            // Width-group roots have empty segments; there is nothing to
            // reuse or export there.
            Some((cache, stats)) if !segment.is_empty() => {
                let link = forest.chains[node.exemplar][node.end];
                let prefix = &forest.circuits[node.exemplar].instructions()[..node.end];
                let hit = cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .lookup(node.width, link, prefix);
                match hit {
                    Some(cached) => {
                        state = cached;
                        stats.states_reused.fetch_add(1, Ordering::Relaxed);
                        stats
                            .gates_skipped
                            .fetch_add(segment.len() as u64, Ordering::Relaxed);
                    }
                    None => {
                        for inst in segment {
                            state.apply(inst);
                        }
                        let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
                        if cache.admits(node.width, link) {
                            cache.store(node.width, link, prefix, state.clone());
                        }
                    }
                }
            }
            _ => {
                for inst in segment {
                    state.apply(inst);
                }
            }
        }
        if !node.jobs.is_empty() {
            let values = (self.visit)(&state, &node.jobs);
            assert_eq!(
                values.len(),
                node.jobs.len(),
                "visit must return one value per terminating circuit"
            );
            out.extend(node.jobs.iter().copied().zip(values));
        }
        match node.children.as_slice() {
            [] => {}
            children if forest.worth_fanning_out::<S>(children) => {
                self.fan_out(children, |_| state.clone(), out);
            }
            // In order on this thread: fork for all but the last child,
            // which takes the state over.
            [forks @ .., last] => {
                for &c in forks {
                    self.node(c, state.clone(), out);
                }
                self.node(*last, state, out);
            }
        }
    }

    /// Walks sibling subtrees `nodes` on threads of their own, each from
    /// `start(node)`, appending their pairs to `out` in sibling order.
    fn fan_out<T>(
        &self,
        nodes: &[usize],
        start: impl Fn(usize) -> S + Sync,
        out: &mut Vec<(usize, T)>,
    ) where
        V: Fn(&S, &[usize]) -> Vec<T> + Sync,
        T: Send,
    {
        let parts: Vec<Vec<(usize, T)>> = nodes
            .par_iter()
            .map(|&n| {
                let mut part = Vec::new();
                self.node(n, start(n), &mut part);
                part
            })
            .collect();
        out.extend(parts.into_iter().flatten());
    }
}

/// Reuse counters from one [`PrefixForest::simulate_with_reuse`] walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Trie segments whose end state was served from the cache.
    pub states_reused: u64,
    /// Gate applications those hits skipped.
    pub gates_skipped: u64,
}

#[derive(Default)]
struct AtomicReuseStats {
    states_reused: AtomicU64,
    gates_skipped: AtomicU64,
}

impl AtomicReuseStats {
    fn snapshot(&self) -> ReuseStats {
        ReuseStats {
            states_reused: self.states_reused.load(Ordering::Relaxed),
            gates_skipped: self.gates_skipped.load(Ordering::Relaxed),
        }
    }
}

/// One cached fork state: the exact instruction prefix that produced it
/// (hash-collision guard) and LRU bookkeeping.
struct CachedState<S> {
    width: usize,
    prefix: Vec<Instruction>,
    state: S,
    last_used: u64,
}

/// Tier 2 of the warm-start cache: simulator states keyed by
/// [`Circuit::prefix_hash_chain`] links, held in memory and shared across
/// batches (and across runs, via whoever owns the `Mutex`).
///
/// Lookups confirm the full instruction prefix before serving a state —
/// the same hash-plus-equality discipline the forest itself uses — so a
/// 64-bit chain collision can never resume simulation from a wrong state.
/// Capacity is bounded by an entry count; eviction is strictly
/// least-recently-used.
pub struct ForkStateCache<S> {
    entries: std::collections::HashMap<u64, Vec<CachedState<S>>>,
    max_states: usize,
    clock: u64,
    /// The `(width, link)` pairs [`ForkStateCache::admits`] has been asked
    /// about, for a cache built by [`ForkStateCache::admitting_repeats`];
    /// `None` for one that admits every state.
    sighted: Option<std::collections::HashSet<(usize, u64)>>,
}

/// Most `(width, link)` pairs an admit-on-repeat cache remembers; the
/// record is cleared when it fills up.
const SIGHTED_LINKS: usize = 4096;

impl<S> std::fmt::Debug for ForkStateCache<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkStateCache")
            .field("states", &self.len())
            .field("max_states", &self.max_states)
            .finish()
    }
}

impl<S> ForkStateCache<S> {
    /// Empty cache holding at most `max_states` states. It admits every
    /// state a walk exports.
    pub fn new(max_states: usize) -> Self {
        ForkStateCache {
            entries: std::collections::HashMap::new(),
            max_states,
            clock: 0,
            sighted: None,
        }
    }

    /// Empty cache holding at most `max_states` states that admits a
    /// state only the second time a walk evolves its prefix. Traffic that
    /// never repeats a prefix then pays no state copy; a repeated prefix
    /// is evolved twice before the cache serves it.
    pub fn admitting_repeats(max_states: usize) -> Self {
        ForkStateCache {
            sighted: Some(std::collections::HashSet::new()),
            ..ForkStateCache::new(max_states)
        }
    }

    /// Whether a walk that has just evolved the prefix ending at `link`
    /// should export its state. Always true for a cache built by
    /// [`ForkStateCache::new`]. For one built by
    /// [`ForkStateCache::admitting_repeats`], true when an earlier call
    /// named the same `width` and `link`. That record keeps only link
    /// hashes (a collision admits a state early, which costs a copy and
    /// cannot serve a wrong state) and is cleared after 4096 pairs, so a
    /// prefix that returns only after that many others is evolved once more.
    pub fn admits(&mut self, width: usize, link: u64) -> bool {
        let Some(sighted) = &mut self.sighted else {
            return true;
        };
        if sighted.len() >= SIGHTED_LINKS {
            sighted.clear();
        }
        !sighted.insert((width, link))
    }

    /// States currently held.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<S: Clone> ForkStateCache<S> {
    /// Returns (a clone of) the state at the end of `prefix`, if cached.
    /// `link` must be the prefix-hash-chain value at `prefix.len()`; the
    /// stored prefix is compared instruction-by-instruction before the
    /// state is served. Touches LRU recency.
    pub fn lookup(&mut self, width: usize, link: u64, prefix: &[Instruction]) -> Option<S> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self
            .entries
            .get_mut(&link)?
            .iter_mut()
            .find(|s| s.width == width && s.prefix == prefix)?;
        slot.last_used = clock;
        Some(slot.state.clone())
    }

    /// Exports the state at the end of `prefix` into the cache (replacing
    /// any previous state for the same prefix), then evicts the
    /// least-recently-used states above capacity.
    pub fn store(&mut self, width: usize, link: u64, prefix: &[Instruction], state: S) {
        self.clock += 1;
        let clock = self.clock;
        let slots = self.entries.entry(link).or_default();
        if let Some(slot) = slots
            .iter_mut()
            .find(|s| s.width == width && s.prefix == prefix)
        {
            slot.state = state;
            slot.last_used = clock;
        } else {
            slots.push(CachedState {
                width,
                prefix: prefix.to_vec(),
                state,
                last_used: clock,
            });
        }
        while self.len() > self.max_states {
            let oldest = self
                .entries
                .iter()
                .flat_map(|(k, slots)| slots.iter().map(move |s| (*k, s.last_used)))
                .min_by_key(|&(_, used)| used);
            let Some((link, used)) = oldest else { return };
            if let Some(slots) = self.entries.get_mut(&link) {
                slots.retain(|s| s.last_used != used);
                if slots.is_empty() {
                    self.entries.remove(&link);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;

    /// The canonical upstream workload: one fragment, three rotation
    /// suffixes (Z appends nothing, X appends H, Y appends Sdg+H).
    fn upstream_variants() -> Vec<Circuit> {
        let mut fragment = Circuit::new(3);
        fragment.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2);
        let z = fragment.clone();
        let mut x = fragment.clone();
        x.h(2);
        let mut y = fragment.clone();
        y.sdg(2).h(2);
        vec![z, x, y]
    }

    fn simulate_all(circuits: &[Circuit]) -> Vec<StateVector> {
        let refs: Vec<&Circuit> = circuits.iter().collect();
        PrefixForest::build(&refs).simulate_with(StateVector::zero_state, |state, members| {
            members.iter().map(|_| state.clone()).collect()
        })
    }

    #[test]
    fn node_count_equals_distinct_prefix_segments() {
        let variants = upstream_variants();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let forest = PrefixForest::build(&refs);
        // Distinct prefix segments: the shared fragment, the H suffix and
        // the Sdg+H suffix — plus one root for the single width.
        assert_eq!(forest.num_nodes(), 4);
        assert_eq!(forest.num_terminal_nodes(), 3);
        assert_eq!(forest.gates_naive(), (4 + 5 + 6) as u64);
        assert_eq!(forest.gates_shared(), (4 + 1 + 2) as u64);
        assert_eq!(forest.profile().gates_saved(), 8);
    }

    #[test]
    fn identical_circuits_share_one_terminal_node() {
        let c = upstream_variants().remove(0);
        let copies = [c.clone(), c.clone(), c];
        let refs: Vec<&Circuit> = copies.iter().collect();
        let forest = PrefixForest::build(&refs);
        assert_eq!(forest.num_nodes(), 2); // root + one segment
        assert_eq!(forest.num_terminal_nodes(), 1);
        assert_eq!(forest.gates_shared(), 4);
    }

    #[test]
    fn disjoint_circuits_share_nothing() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.x(0);
        let mut c = Circuit::new(3); // different width: own root
        c.h(1);
        let all = [a, b, c];
        let refs: Vec<&Circuit> = all.iter().collect();
        let forest = PrefixForest::build(&refs);
        assert_eq!(forest.num_nodes(), 2 + 3); // two roots + three leaves
        assert_eq!(forest.gates_shared(), forest.gates_naive());
        assert!((forest.profile().sharing_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mid_edge_split_creates_an_interior_node() {
        // b diverges inside a's single segment: [h, cx, s] vs [h, cx, t].
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).s(1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(1);
        let refs = [&a, &b];
        let forest = PrefixForest::build(&refs);
        // root + shared [h, cx] + [s] + [t].
        assert_eq!(forest.num_nodes(), 4);
        assert_eq!(forest.gates_shared(), 4);
        assert_eq!(forest.gates_naive(), 6);
    }

    #[test]
    fn circuit_that_is_a_prefix_of_another_terminates_mid_path() {
        let variants = upstream_variants();
        // variants[0] (the bare fragment) is a strict prefix of variants[1].
        let pair = vec![variants[1].clone(), variants[0].clone()];
        let refs: Vec<&Circuit> = pair.iter().collect();
        let forest = PrefixForest::build(&refs);
        assert_eq!(forest.num_terminal_nodes(), 2);
        let states = simulate_all(&pair);
        assert_eq!(states[0], StateVector::from_circuit(&pair[0]));
        assert_eq!(states[1], StateVector::from_circuit(&pair[1]));
    }

    #[test]
    fn empty_circuits_terminate_at_the_root() {
        let all = vec![Circuit::new(2), Circuit::new(2)];
        let refs: Vec<&Circuit> = all.iter().collect();
        let forest = PrefixForest::build(&refs);
        assert_eq!(forest.num_nodes(), 1);
        assert_eq!(forest.num_terminal_nodes(), 1);
        let states = simulate_all(&all);
        assert_eq!(states[0], StateVector::zero_state(2));
    }

    #[test]
    fn shared_simulation_is_bit_identical_to_per_circuit_simulation() {
        use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
        let mut batch = Vec::new();
        for seed in 0..4 {
            let base = random_circuit(4, RandomCircuitConfig::default(), seed);
            batch.push(base.clone());
            let mut rotated = base.clone();
            rotated.h(3);
            batch.push(rotated);
            let mut deeper = base;
            deeper.sdg(3).h(3).cx(0, 3);
            batch.push(deeper);
        }
        let states = simulate_all(&batch);
        for (i, c) in batch.iter().enumerate() {
            let reference = StateVector::from_circuit(c);
            assert_eq!(
                states[i].amplitudes(),
                reference.amplitudes(),
                "circuit {i} diverged from its per-circuit simulation"
            );
        }
    }

    /// A shared random fragment plus three branches of 1, 2 and 3 gates.
    fn branched_batch(width: usize) -> Vec<Circuit> {
        use qcut_circuit::random::{random_circuit, RandomCircuitConfig};
        let base = random_circuit(width, RandomCircuitConfig::default(), 11);
        let last = width - 1;
        let mut x = base.clone();
        x.h(last);
        let mut y = base.clone();
        y.sdg(last).h(last);
        let mut deeper = base.clone();
        deeper.x(0).cx(0, last).h(0);
        vec![base, x, y, deeper]
    }

    /// The children of the batch's one branch point (the shared fragment).
    fn branch_children<'f>(forest: &'f PrefixForest<'_>) -> &'f [usize] {
        let fragment = forest.nodes[forest.roots[0]].children[0];
        &forest.nodes[fragment].children
    }

    #[test]
    fn heavy_branches_fan_out_and_stay_bit_identical() {
        let batch = branched_batch(15);
        let refs: Vec<&Circuit> = batch.iter().collect();
        let forest = PrefixForest::build(&refs);
        assert!(forest.worth_fanning_out::<StateVector>(branch_children(&forest)));
        assert_eq!(forest.gates_shared(), batch[0].len() as u64 + 1 + 2 + 3);
        assert_eq!(
            forest.nodes[forest.roots[0]].subtree_gates,
            forest.gates_shared()
        );
        let states = simulate_all(&batch);
        let cache = Mutex::new(ForkStateCache::new(16));
        let (reused, _) = forest.simulate_with_reuse(
            StateVector::zero_state,
            |state, members| members.iter().map(|_| state.clone()).collect(),
            &cache,
        );
        for (i, c) in batch.iter().enumerate() {
            let reference = StateVector::from_circuit(c);
            assert_eq!(
                states[i].amplitudes(),
                reference.amplitudes(),
                "circuit {i}"
            );
            assert_eq!(
                reused[i].amplitudes(),
                reference.amplitudes(),
                "circuit {i}"
            );
        }
    }

    #[test]
    fn light_branches_walk_in_order_and_stay_bit_identical() {
        use crate::density::DensityMatrix;
        let batch = branched_batch(4);
        let refs: Vec<&Circuit> = batch.iter().collect();
        let forest = PrefixForest::build(&refs);
        assert!(!forest.worth_fanning_out::<DensityMatrix>(branch_children(&forest)));
        assert_eq!(forest.gates_shared(), batch[0].len() as u64 + 1 + 2 + 3);
        let states = forest.simulate_with(DensityMatrix::zero_state, |state, members| {
            members.iter().map(|_| state.clone()).collect()
        });
        for (i, c) in batch.iter().enumerate() {
            let mut reference = DensityMatrix::zero_state(4);
            reference.apply_circuit(c);
            assert_eq!(states[i], reference, "circuit {i}");
        }
    }

    #[test]
    fn density_matrices_cost_the_square_of_state_vectors() {
        use crate::density::DensityMatrix;
        assert_eq!(StateVector::gate_cost(7), 1 << 7);
        assert_eq!(DensityMatrix::gate_cost(7), 1 << 14);
        assert_eq!(DensityMatrix::gate_cost(40), u64::MAX);
    }

    #[test]
    fn dfs_order_is_identity_on_trie_local_input() {
        let variants = upstream_variants();
        let refs: Vec<&Circuit> = variants.iter().collect();
        assert_eq!(PrefixForest::build(&refs).dfs_job_order(), vec![0, 1, 2]);
    }

    #[test]
    fn dfs_order_regroups_interleaved_batches() {
        // Interleave two prefix families; DFS clusters them.
        let variants = upstream_variants();
        let mut other = Circuit::new(3);
        other.x(0).x(1).x(2);
        let batch = [&variants[0], &other, &variants[1], &variants[2]];
        let order = PrefixForest::build(&batch).dfs_job_order();
        assert_eq!(order, vec![0, 2, 3, 1]);
    }

    #[test]
    fn density_states_walk_the_same_forest() {
        use crate::density::DensityMatrix;
        let variants = upstream_variants();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let probs = PrefixForest::build(&refs).simulate_with(
            DensityMatrix::zero_state,
            |state: &DensityMatrix, members| {
                members.iter().map(|_| state.probabilities()).collect()
            },
        );
        for (i, c) in variants.iter().enumerate() {
            let mut reference = DensityMatrix::zero_state(3);
            reference.apply_circuit(c);
            assert_eq!(probs[i], reference.probabilities(), "circuit {i}");
        }
    }

    #[test]
    fn visit_runs_once_per_terminal_node() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = upstream_variants().remove(0);
        let copies = [c.clone(), c.clone(), c];
        let refs: Vec<&Circuit> = copies.iter().collect();
        let calls = AtomicUsize::new(0);
        let states = PrefixForest::build(&refs).simulate_with(
            StateVector::zero_state,
            |state: &StateVector, members| {
                calls.fetch_add(1, Ordering::Relaxed);
                members.iter().map(|_| state.probability(0)).collect()
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(states.len(), 3);
        assert_eq!(states[0], states[2]);
    }

    #[test]
    fn reuse_walk_is_bit_identical_to_the_plain_walk() {
        let variants = upstream_variants();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let forest = PrefixForest::build(&refs);
        let plain = forest.simulate_with(StateVector::zero_state, |state, members| {
            members.iter().map(|_| state.clone()).collect()
        });
        let cache = Mutex::new(ForkStateCache::new(64));
        // Cold pass: every segment is a miss but gets exported.
        let (cold, cold_stats) = forest.simulate_with_reuse(
            StateVector::zero_state,
            |state, members| members.iter().map(|_| state.clone()).collect(),
            &cache,
        );
        assert_eq!(cold_stats.states_reused, 0);
        assert!(!cache.lock().expect("lock").is_empty());
        // Warm pass over the same batch: every segment is a hit.
        let (warm, warm_stats) = forest.simulate_with_reuse(
            StateVector::zero_state,
            |state, members| members.iter().map(|_| state.clone()).collect(),
            &cache,
        );
        assert_eq!(warm_stats.states_reused as usize, forest.num_nodes() - 1);
        assert_eq!(warm_stats.gates_skipped, forest.gates_shared());
        for i in 0..variants.len() {
            assert_eq!(plain[i], cold[i], "cold pass diverged on circuit {i}");
            assert_eq!(plain[i], warm[i], "warm pass diverged on circuit {i}");
        }
    }

    #[test]
    fn reuse_crosses_forests_when_only_the_suffix_changes() {
        // Two "sweep points": same fragment, different final rotation.
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2);
        let mut point_a = base.clone();
        point_a.rz(0.1, 2);
        let mut point_b = base.clone();
        point_b.rz(0.2, 2);

        let cache = Mutex::new(ForkStateCache::new(64));
        let refs_a = [&point_a];
        let (states_a, stats_a) = PrefixForest::build(&refs_a).simulate_with_reuse(
            StateVector::zero_state,
            |state: &StateVector, members| members.iter().map(|_| state.clone()).collect(),
            &cache,
        );
        assert_eq!(stats_a.states_reused, 0);

        // The second point's forest is a different trie (one circuit, one
        // segment), but its prefix states were exported by the first walk…
        // except the full-length one, which includes the divergent suffix.
        // Reuse therefore kicks in only at shared *segment ends*; build the
        // batch with both circuits so the shared fragment is its own node.
        let refs_ab = [&point_a, &point_b];
        let (states_ab, stats_ab) = PrefixForest::build(&refs_ab).simulate_with_reuse(
            StateVector::zero_state,
            |state: &StateVector, members| members.iter().map(|_| state.clone()).collect(),
            &cache,
        );
        assert!(
            stats_ab.states_reused >= 1,
            "the full point_a prefix state must be served from the first walk"
        );
        assert_eq!(states_a[0], states_ab[0], "cross-forest reuse is bit-exact");
        let mut reference = StateVector::zero_state(3);
        for inst in point_b.instructions() {
            reference.apply(inst);
        }
        assert_eq!(states_ab[1], reference, "unrelated suffix still exact");
    }

    #[test]
    fn admit_on_repeat_cache_stores_a_prefix_on_its_second_walk() {
        let variants = upstream_variants();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let forest = PrefixForest::build(&refs);
        let plain = forest.simulate_with(StateVector::zero_state, |state, members| {
            members.iter().map(|_| state.clone()).collect()
        });
        let cache = Mutex::new(ForkStateCache::admitting_repeats(64));
        let walk = || {
            forest.simulate_with_reuse(
                StateVector::zero_state,
                |state: &StateVector, members| members.iter().map(|_| state.clone()).collect(),
                &cache,
            )
        };
        // First walk: every segment is sighted, none stored.
        let (first, first_stats) = walk();
        assert_eq!(first_stats.states_reused, 0);
        assert!(cache.lock().expect("lock").is_empty());
        // Second walk: every segment misses again and is now stored.
        let (second, second_stats) = walk();
        assert_eq!(second_stats.states_reused, 0);
        assert_eq!(cache.lock().expect("lock").len(), forest.num_nodes() - 1);
        // Third walk: every segment is a hit.
        let (third, third_stats) = walk();
        assert_eq!(third_stats.states_reused as usize, forest.num_nodes() - 1);
        for (i, want) in plain.iter().enumerate() {
            assert_eq!(&first[i], want, "first walk diverged on circuit {i}");
            assert_eq!(&second[i], want, "second walk diverged on circuit {i}");
            assert_eq!(&third[i], want, "third walk diverged on circuit {i}");
        }
    }

    #[test]
    fn fork_state_cache_confirms_prefix_equality() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut cache: ForkStateCache<StateVector> = ForkStateCache::new(8);
        let link = a.prefix_hash_chain()[2];
        let mut state = StateVector::zero_state(2);
        for inst in a.instructions() {
            state.apply(inst);
        }
        cache.store(2, link, a.instructions(), state);
        // Same link, different claimed prefix: must miss.
        let mut b = Circuit::new(2);
        b.h(0).cx(1, 0);
        assert!(cache.lookup(2, link, b.instructions()).is_none());
        assert!(cache.lookup(2, link, a.instructions()).is_some());
    }

    #[test]
    fn fork_state_cache_evicts_least_recently_used() {
        let mut cache: ForkStateCache<u32> = ForkStateCache::new(2);
        let inst = |t: f64| vec![Instruction::new(qcut_circuit::gate::Gate::Rz(t), vec![0])];
        let (pa, pb, pc) = (inst(0.1), inst(0.2), inst(0.3));
        cache.store(1, 10, &pa, 1);
        cache.store(1, 20, &pb, 2);
        assert!(cache.lookup(1, 10, &pa).is_some()); // touch A; B is now LRU
        cache.store(1, 30, &pc, 3);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, 20, &pb).is_none(), "LRU state evicted");
        assert!(cache.lookup(1, 10, &pa).is_some());
        assert!(cache.lookup(1, 30, &pc).is_some());
    }
}
