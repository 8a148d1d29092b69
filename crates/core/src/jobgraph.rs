//! The JobGraph execution engine: one batched, deduplicating job-planning
//! layer that every backend execution in the workspace routes through.
//!
//! The paper's contribution is cutting the *number of subcircuit
//! executions* (neglecting basis elements shrinks `6^{K_r} 4^{K_g}`
//! variants); this module extends the same economy to the execution layer
//! itself. Callers register jobs as `(circuit, consumer, shots)` triples;
//! the graph keys each circuit by its [structural
//! hash](qcut_circuit::circuit::Circuit::structural_hash) so that
//! structurally identical subcircuits — across tomography settings, across
//! pipeline stages (online detection feeding the main gather), or across
//! reconstruction terms — become a single node. Execution then submits
//! one batch per backend member per retry round, and each node's counts
//! are fanned back out to every consumer that asked for them.
//!
//! ```text
//! add_job(c, consumer, shots)  ──┐
//! add_job(c', consumer', shots) ─┼─▶ nodes (unique circuits, hash-keyed)
//! seed_counts(c, counts)  ───────┘        │
//!                                         ▼ assign_members: node → member
//!                                           (a bare backend is member 0)
//!                                         ▼ execute_with, per retry round:
//!                     one batch per member over `max(shots) − cached`,
//!                     then transient failures fail over to a sibling
//!                                         ▼ fan-out
//!                    GraphRun: counts per consumer, delivering member
//!                    per node, dedup + per-member accounting
//! ```
//!
//! Determinism contract: nodes execute in insertion order within each
//! member, so on a seed-deterministic backend a single-member pool is
//! bit-identical to its bare backend, a parallel `execute` (each batch
//! through [`Backend::run_batch_stats`]) to a sequential one (job by job
//! through [`Backend::run`]), and (absent duplicates) both to the
//! pre-engine per-job submission order. The equivalence tests in
//! `tests/integration_jobgraph.rs` and `tests/integration_pool.rs` pin
//! this down.
//!
//! # Example
//!
//! Two consumers of one circuit share a single execution at the larger
//! budget, and both receive the full merged histogram:
//!
//! ```
//! use qcut_circuit::circuit::Circuit;
//! use qcut_core::jobgraph::{Channel, JobGraph};
//! use qcut_device::ideal::IdealBackend;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let mut graph = JobGraph::new();
//! graph.add_job(bell.clone(), (Channel::UpstreamMeas, 0), 500);
//! graph.add_job(bell, (Channel::UpstreamMeas, 1), 800); // dedups
//!
//! let run = graph.execute(&IdealBackend::new(1), true).unwrap();
//! assert_eq!(run.stats.jobs_planned, 2);
//! assert_eq!(run.stats.jobs_executed, 1);   // one node serves both
//! assert_eq!(run.stats.shots_executed, 800); // max budget, executed once
//! assert_eq!(run.stats.shots_saved, 500);
//! let counts = run.counts(&(Channel::UpstreamMeas, 0)).unwrap();
//! assert_eq!(counts.total(), 800); // never less data than requested
//! ```

use crate::retry::RetryPolicy;
use qcut_circuit::circuit::Circuit;
use qcut_device::backend::{Backend, BackendError, BatchRun, BatchStats, JobSpec};
use qcut_device::pool::BackendPool;
use qcut_sim::counts::Counts;
use qcut_sim::prefix::{PrefixForest, PrefixProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Logical result channel a job's counts are delivered to. Together with a
/// dense per-channel key (see [`crate::basis::encode_meas`] and friends)
/// this identifies one consumer of execution results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Channel {
    /// Upstream fragment measured in a basis setting (key: `encode_meas`).
    UpstreamMeas,
    /// Downstream fragment under a preparation setting of the run's
    /// scheme (key: the setting's state indices, cut 0 least significant
    /// — `encode_prep` for eigenstates).
    DownstreamPrep,
    /// Online golden detection batch (key: `encode_meas` of the setting).
    Detection,
    /// Uncut reference execution (key: caller-chosen, usually 0).
    Uncut,
}

/// Consumer identity: which channel, and which setting within it.
pub type ConsumerKey = (Channel, u64);

/// One unique circuit in the graph plus everyone who wants its counts.
#[derive(Debug, Clone)]
struct JobNode {
    circuit: Circuit,
    /// `circuit.structural_hash()`, computed once by [`JobGraph::add_job`].
    hash: u64,
    consumers: Vec<(ConsumerKey, u64)>,
    /// Counts already available without executing anything (seeded from an
    /// earlier stage, e.g. online-detection batches, or the warm-start
    /// cache).
    cached: Option<Counts>,
    /// How many of the `cached` shots came from the *cross-run* warm-start
    /// cache (vs in-process seeding) — attributed to `cache_shots_reused`
    /// rather than `shots_saved` in the accounting.
    cache_seeded: u64,
}

impl JobNode {
    /// Shots this node must deliver to satisfy its hungriest consumer.
    fn required_shots(&self) -> u64 {
        self.consumers.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    fn cached_shots(&self) -> u64 {
        self.cached.as_ref().map(|c| c.total()).unwrap_or(0)
    }
}

/// Dedup and batching accounting for one [`JobGraph::execute`] call.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Jobs registered by callers (one per `add_job`).
    pub jobs_planned: usize,
    /// Unique jobs actually submitted to the backend (`≤ jobs_planned`).
    pub jobs_executed: usize,
    /// Shots requested across all planned jobs.
    pub shots_requested: u64,
    /// Shots actually executed on the backend.
    pub shots_executed: u64,
    /// Shots that in-process reuse saved: structural dedup plus seeding
    /// from earlier stages of the *same* run (detection batches, the
    /// adaptive pilot round). Excludes warm-start cache reuse, which is
    /// attributed to `cache_shots_reused`; the exact split is
    /// `shots_requested = shots_executed + shots_saved + cache_shots_reused`.
    pub shots_saved: u64,
    /// Nodes whose histogram was served (at least partly) from the
    /// warm-start cache.
    pub cache_hits: u64,
    /// Shots served from warm-start cache entries instead of executing.
    pub cache_shots_reused: u64,
    /// Fork states served from the backend's tier-2 state cache (0 when
    /// the backend has none attached).
    pub states_reused: u64,
    /// Gate applications the backend performed simulating the batch
    /// (shared circuit prefixes counted once on prefix-sharing backends).
    pub gates_applied: u64,
    /// Gate applications a per-job simulation would have performed minus
    /// `gates_applied`: what prefix sharing saved (0 on non-sharing paths).
    pub gates_saved: u64,
    /// Sum of simulated device durations over executed jobs — including
    /// attempts that failed a per-job timeout (the device time was spent
    /// even though the counts were discarded).
    pub simulated_device_time: Duration,
    /// Host CPU time spent inside backend runs.
    pub host_time: Duration,
    /// Total per-job delivery attempts (`jobs_executed` when nothing was
    /// retried).
    pub attempts: u64,
    /// Job re-submissions after transient faults or timeouts
    /// (`attempts − jobs_executed`).
    pub jobs_retried: u64,
    /// Shots requested from nodes that failed permanently and delivered
    /// nothing. Extends the accounting split to `shots_requested =
    /// shots_executed + shots_saved + cache_shots_reused + shots_lost`.
    pub shots_lost: u64,
    /// Deterministic backoff accounting: the total delay a wall-clock
    /// retry loop would have waited between attempts. Never actually
    /// slept.
    pub backoff_wait: Duration,
    /// Jobs *delivered* by each pool member, indexed by member position
    /// (empty on single-backend runs). A job that failed over counts for
    /// the sibling that actually delivered it.
    pub jobs_per_member: Vec<u64>,
    /// Shots delivered by each pool member (empty on single-backend runs).
    pub shots_per_member: Vec<u64>,
    /// Simulated device time each pool member spent — including attempts
    /// that timed out (the device time was consumed even though the counts
    /// were discarded). The run's sharded wall-clock is the max entry;
    /// empty on single-backend runs.
    pub member_makespan: Vec<Duration>,
    /// Jobs a transiently failing member handed to a healthy sibling that
    /// then delivered them (pool runs only).
    pub jobs_failed_over: u64,
}

impl GraphStats {
    /// How well the pool's members shared the load: Σ member makespans /
    /// max member makespan — `N` when `N` members split the device time
    /// perfectly evenly, `1.0` when one member did everything (and on
    /// single-backend runs, which have no member accounting).
    pub fn pool_parallel_ratio(&self) -> f64 {
        let max = self
            .member_makespan
            .iter()
            .map(Duration::as_secs_f64)
            .fold(0.0f64, f64::max);
        if max > 0.0 {
            let total: f64 = self.member_makespan.iter().map(Duration::as_secs_f64).sum();
            total / max
        } else {
            1.0
        }
    }

    /// Folds another execution's accounting into this one (used to combine
    /// detection rounds with the main gather).
    pub fn absorb(&mut self, other: &GraphStats) {
        self.jobs_planned += other.jobs_planned;
        self.jobs_executed += other.jobs_executed;
        self.shots_requested += other.shots_requested;
        self.shots_executed += other.shots_executed;
        self.shots_saved += other.shots_saved;
        self.cache_hits += other.cache_hits;
        self.cache_shots_reused += other.cache_shots_reused;
        self.states_reused += other.states_reused;
        self.gates_applied += other.gates_applied;
        self.gates_saved += other.gates_saved;
        self.simulated_device_time += other.simulated_device_time;
        self.host_time += other.host_time;
        self.attempts += other.attempts;
        self.jobs_retried += other.jobs_retried;
        self.shots_lost += other.shots_lost;
        self.backoff_wait += other.backoff_wait;
        self.jobs_failed_over += other.jobs_failed_over;
        // Per-member vectors add element-wise; runs against pools of
        // different sizes (or a pooled gather absorbed into a pool-less
        // detection round) widen to the larger member set.
        add_widening(&mut self.jobs_per_member, &other.jobs_per_member);
        add_widening(&mut self.shots_per_member, &other.shots_per_member);
        add_widening(&mut self.member_makespan, &other.member_makespan);
    }
}

/// Adds `from` into `into` element-wise, widening `into` with zeros.
fn add_widening<T: Copy + Default + std::ops::AddAssign>(into: &mut Vec<T>, from: &[T]) {
    if into.len() < from.len() {
        into.resize(from.len(), T::default());
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// One node that failed permanently: its retries (if any) were exhausted
/// or its error was deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFailure {
    /// Node index in graph insertion order.
    pub node: usize,
    /// Every consumer this node was serving — i.e. which basis settings
    /// lost their data.
    pub consumers: Vec<ConsumerKey>,
    /// The error of the final attempt.
    pub error: BackendError,
    /// Delivery attempts made before giving up.
    pub attempts: u32,
    /// Shots this node's consumers requested and never received.
    pub shots_lost: u64,
}

/// A graph execution with permanent node failures: the typed error names
/// the failed nodes *and* carries the salvage — every sibling that did
/// succeed, with full accounting — so callers never lose delivered data
/// to an unrelated node's failure.
#[derive(Debug)]
pub struct GraphFailure {
    /// Permanently failed nodes, in graph insertion order.
    pub failures: Vec<NodeFailure>,
    /// The surviving run: counts for every consumer whose node succeeded,
    /// plus the full [`GraphStats`] (including the failures' accounting).
    pub salvage: GraphRun,
}

impl GraphFailure {
    /// The first failed node's error (the conventional cause for
    /// `std::error::Error::source`).
    pub fn first_error(&self) -> Option<&BackendError> {
        self.failures.first().map(|f| &f.error)
    }

    /// Consumer keys that did receive counts (the salvage state).
    pub fn succeeded(&self) -> Vec<ConsumerKey> {
        let mut keys: Vec<ConsumerKey> = self.salvage.counts.keys().copied().collect();
        keys.sort();
        keys
    }
}

impl fmt::Display for GraphFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self
            .failures
            .first()
            .map(|n| n.error.to_string())
            .unwrap_or_else(|| "unknown".to_string());
        write!(
            f,
            "{} node(s) failed permanently (first: node {} after {} attempt(s): {first}); \
             salvaged {} consumer(s), lost {} shot(s)",
            self.failures.len(),
            self.failures.first().map(|n| n.node).unwrap_or(0),
            self.failures.first().map(|n| n.attempts).unwrap_or(0),
            self.salvage.counts.len(),
            self.salvage.stats.shots_lost,
        )
    }
}

impl std::error::Error for GraphFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.first_error()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Results of one graph execution: per-consumer counts plus accounting.
#[derive(Debug)]
pub struct GraphRun {
    counts: HashMap<ConsumerKey, Counts>,
    delivered_by: Vec<Option<usize>>,
    /// Batching/dedup accounting.
    pub stats: GraphStats,
}

impl GraphRun {
    /// Counts delivered to one consumer.
    pub fn counts(&self, key: &ConsumerKey) -> Option<&Counts> {
        self.counts.get(key)
    }

    /// The member that delivered node `node`'s fresh shots (node index in
    /// graph insertion order; member 0 is a bare backend itself). A node
    /// that failed over reports the sibling that measured it, not its
    /// assigned member. `None` when the node executed nothing — fully
    /// served by seeded counts — or failed permanently.
    pub fn delivered_by(&self, node: usize) -> Option<usize> {
        self.delivered_by.get(node).copied().flatten()
    }

    /// Drains every consumer of `channel` into a key → counts map. The
    /// delivered histogram totals are the *realized* per-setting shots —
    /// ≥ a consumer's requested budget when deduplicated nodes merged to a
    /// larger max budget or seeded counts topped a node up
    /// ([`crate::execution::FragmentData::from_counts`] derives the
    /// realized schedule from exactly these totals).
    pub fn take_channel(&mut self, channel: Channel) -> HashMap<u64, Counts> {
        self.counts
            .extract_if(|&(c, _), _| c == channel)
            .map(|((_, key), counts)| (key, counts))
            .collect()
    }
}

/// A batched, deduplicating execution plan over one backend submission.
#[derive(Debug, Clone)]
pub struct JobGraph {
    nodes: Vec<JobNode>,
    /// Structural hash → node indices with that hash (collision chain).
    index: HashMap<u64, Vec<usize>>,
    dedup: bool,
    jobs_planned: usize,
}

impl Default for JobGraph {
    /// Same as [`JobGraph::new`]: dedup enabled. (A derived `Default`
    /// would silently yield the no-dedup ablation graph.)
    fn default() -> Self {
        Self::new()
    }
}

impl JobGraph {
    /// An empty graph with structural dedup enabled (the default).
    pub fn new() -> Self {
        JobGraph {
            nodes: Vec::new(),
            index: HashMap::new(),
            dedup: true,
            jobs_planned: 0,
        }
    }

    /// An empty graph that never merges jobs — every `add_job` becomes its
    /// own backend submission and [`JobGraph::seed_counts`] is a no-op.
    /// This is the ablation baseline for the dedup benchmarks and the
    /// engine-invariance proptests.
    pub fn without_dedup() -> Self {
        Self::with_dedup(false)
    }

    /// [`JobGraph::new`] when `dedup`, [`JobGraph::without_dedup`] otherwise.
    pub fn with_dedup(dedup: bool) -> Self {
        JobGraph {
            dedup,
            ..Self::new()
        }
    }

    /// Jobs registered so far (fan-out edges, not unique circuits).
    pub fn jobs_planned(&self) -> usize {
        self.jobs_planned
    }

    /// Unique circuits in the graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// True when some registered job delivers to `channel`.
    pub fn has_channel(&self, channel: Channel) -> bool {
        self.nodes
            .iter()
            .any(|n| n.consumers.iter().any(|((c, _), _)| *c == channel))
    }

    /// Locates the node holding a structurally identical circuit.
    fn find_node(&self, circuit: &Circuit, hash: u64) -> Option<usize> {
        self.index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&i| self.nodes[i].circuit == *circuit)
    }

    /// Locates this exact `(circuit, consumer)` pair as (node index,
    /// consumer slot) — used to keep the no-double-count contract even
    /// with dedup disabled.
    fn find_consumer(
        &self,
        circuit: &Circuit,
        hash: u64,
        consumer: ConsumerKey,
    ) -> Option<(usize, usize)> {
        self.index.get(&hash)?.iter().find_map(|&i| {
            let node = &self.nodes[i];
            if node.circuit != *circuit {
                return None;
            }
            let j = node.consumers.iter().position(|&(k, _)| k == consumer)?;
            Some((i, j))
        })
    }

    /// Registers one job: `consumer` wants `shots` shots of `circuit`.
    /// Structurally identical circuits share a node (when dedup is on), so
    /// the batch executes each unique circuit once with the maximum
    /// requested budget and fans the counts back out. Re-registering the
    /// same `(circuit, consumer)` pair raises that consumer's demand to the
    /// larger budget rather than delivering (and double-counting) the
    /// node's histogram twice (the contract holds in both dedup modes).
    pub fn add_job(&mut self, circuit: Circuit, consumer: ConsumerKey, shots: u64) {
        self.jobs_planned += 1;
        let hash = circuit.structural_hash();
        if let Some((i, j)) = self.find_consumer(&circuit, hash, consumer) {
            let demand = &mut self.nodes[i].consumers[j].1;
            *demand = (*demand).max(shots);
            return;
        }
        if self.dedup {
            if let Some(i) = self.find_node(&circuit, hash) {
                self.nodes[i].consumers.push((consumer, shots));
                return;
            }
        }
        let i = self.nodes.len();
        self.nodes.push(JobNode {
            circuit,
            hash,
            consumers: vec![(consumer, shots)],
            cached: None,
            cache_seeded: 0,
        });
        self.index.entry(hash).or_default().push(i);
    }

    /// The unique circuits in insertion order — which is also backend
    /// submission order (the planner relies on this to make its
    /// trie-locality emission order reach the device layer intact).
    pub fn node_circuits(&self) -> impl Iterator<Item = &Circuit> + '_ {
        self.nodes.iter().map(|n| &n.circuit)
    }

    /// The [structural hash](Circuit::structural_hash) of each unique
    /// circuit, in the order of [`Self::node_circuits`]: the hash
    /// [`Self::add_job`] computed, so callers keying caches or seeds by
    /// node need not hash the circuits again.
    pub fn node_hashes(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes.iter().map(|n| n.hash)
    }

    /// Per-node static view: each unique circuit with its consumer
    /// fan-out `(key, requested shots)`, in insertion order. What the
    /// graph-layer lints of [`crate::analysis`] inspect without
    /// executing anything.
    pub fn node_jobs(&self) -> impl Iterator<Item = (&Circuit, &[(ConsumerKey, u64)])> + '_ {
        self.nodes
            .iter()
            .map(|n| (&n.circuit, n.consumers.as_slice()))
    }

    /// The prefix metadata of the planned graph: how much of the nodes'
    /// simulation work is shared instruction prefixes, computed by building
    /// the same [`PrefixForest`] a prefix-sharing backend will build over
    /// this graph's unique circuits. Lets planners and reports predict the
    /// gate economy (`O(G + Σ suffix)` instead of `O(V·G)` for `V`
    /// variants of a `G`-gate fragment) before anything executes.
    pub fn prefix_profile(&self) -> PrefixProfile {
        let circuits: Vec<&Circuit> = self.nodes.iter().map(|n| &n.circuit).collect();
        PrefixForest::build(&circuits).profile()
    }

    /// Feeds counts already measured for `circuit` (e.g. by an online
    /// detection round) into the matching node, reducing how many shots the
    /// backend must still execute for it. Returns `true` when a node
    /// matched. No-op (always `false`) when dedup is disabled.
    pub fn seed_counts(&mut self, circuit: &Circuit, counts: &Counts) -> bool {
        self.seed(circuit, counts, false)
    }

    /// Like [`Self::seed_counts`], but for counts recovered from the
    /// *cross-run* warm-start cache. Behaves identically for execution
    /// planning (the node only runs the shot increment beyond what is
    /// seeded), but records the seeded amount so [`Self::execute`] can
    /// attribute the reuse to `cache_shots_reused` instead of
    /// `shots_saved`. Returns `true` when a node matched; no-op when dedup
    /// is disabled (cache keys are structural, so serving them without the
    /// dedup equality confirmation would be unsound).
    pub fn seed_counts_from_cache(&mut self, circuit: &Circuit, counts: &Counts) -> bool {
        self.seed(circuit, counts, true)
    }

    /// [`Self::seed_counts_from_cache`] for the circuit of node `node` (an
    /// index into [`Self::node_circuits`]), without looking the circuit up
    /// again. No-op (`false`) when dedup is disabled.
    pub(crate) fn seed_node_from_cache(&mut self, node: usize, counts: &Counts) -> bool {
        if self.dedup {
            self.seed_node(node, counts, true);
        }
        self.dedup
    }

    /// Merges `counts` into the node holding `circuit`, counting them as
    /// warm-cache shots when `from_cache`.
    fn seed(&mut self, circuit: &Circuit, counts: &Counts, from_cache: bool) -> bool {
        if !self.dedup {
            return false;
        }
        let Some(i) = self.find_node(circuit, circuit.structural_hash()) else {
            return false;
        };
        self.seed_node(i, counts, from_cache);
        true
    }

    /// Merges `counts` into node `i`, the only node holding its circuit
    /// while dedup is on.
    fn seed_node(&mut self, i: usize, counts: &Counts, from_cache: bool) {
        let node = &mut self.nodes[i];
        match &mut node.cached {
            Some(c) => c.merge(counts),
            slot @ None => *slot = Some(counts.clone()),
        }
        if from_cache {
            node.cache_seeded += counts.total();
        }
    }

    /// Executes the graph as one batched backend submission and fans the
    /// results out to every consumer.
    ///
    /// Per node, the backend runs `max(consumer shots) − cached shots`
    /// (clamped at zero — fully cached nodes cost nothing), and every
    /// consumer receives the node's full merged histogram. `parallel`
    /// selects the backend's native batched dispatch vs a sequential loop;
    /// on the workspace backends both produce bit-identical counts.
    ///
    /// Runs under the default [`RetryPolicy`] (one attempt, no deadline).
    /// On permanent node failure the error is a [`GraphFailure`] naming
    /// the failed nodes *and* carrying the salvage — the counts of every
    /// sibling that succeeded — instead of discarding them.
    pub fn execute<B: Backend + ?Sized>(
        &self,
        backend: &B,
        parallel: bool,
    ) -> Result<GraphRun, Box<GraphFailure>> {
        self.execute_with(backend, parallel, &RetryPolicy::default())
    }

    /// Which member serves each node, in insertion order. A bare backend
    /// is a pool of one: every node maps to member 0. A
    /// [`BackendPool`] places all nodes at their full required budgets
    /// under its [`PlacementPolicy`](qcut_device::pool::PlacementPolicy) —
    /// deliberately independent of cache seeding, so a caller that keys
    /// warm-cache lookups by this assignment before seeding sees exactly
    /// the assignment [`Self::execute_with`] executes. `None` marks a node
    /// no member can fit.
    pub fn assign_members<B: Backend + ?Sized>(&self, backend: &B) -> Vec<Option<usize>> {
        match backend.as_pool() {
            None => vec![Some(0); self.nodes.len()],
            Some(pool) => {
                let specs: Vec<JobSpec<'_>> = self
                    .nodes
                    .iter()
                    .map(|n| JobSpec::new(&n.circuit, n.required_shots()))
                    .collect();
                pool.place(&specs).assignment
            }
        }
    }

    /// [`Self::execute`] under an explicit [`RetryPolicy`].
    ///
    /// Every backend runs as a pool; a bare backend is a pool of one.
    /// Nodes are assigned once by [`Self::assign_members`]. Each retry
    /// round submits only the still-pending nodes, one batch per member in
    /// member order, each in graph insertion order; `parallel` picks
    /// [`Backend::run_batch_stats`] or a per-job [`Backend::run`] loop on
    /// every member. Delivered nodes are never re-run, and seeded counts
    /// keep offsetting a retry, so no shot is ever re-bought.
    ///
    /// * A result over `per_job_timeout` is a [`BackendError::Timeout`]:
    ///   its device time is spent, its counts are discarded, and it
    ///   retries like any transient fault.
    /// * A transient failure is re-submitted *within the same round* to
    ///   the next feasible sibling member, if there is one; otherwise, or
    ///   if the sibling fails too, it waits for the next round on its
    ///   assigned member. A sibling's delivery counts toward
    ///   [`GraphStats::jobs_failed_over`] and the sibling's member
    ///   accounting, and [`GraphRun::delivered_by`] names the sibling.
    /// * A node no pool member can fit fails before submission, with
    ///   [`NodeFailure::attempts`] 0; a bare backend rejects it itself.
    /// * Backoff is accounting ([`GraphStats::backoff_wait`]), never a
    ///   sleep.
    ///
    /// With the default policy the fault-free path is the single
    /// submission of previous revisions, bit for bit. Bare runs report
    /// empty per-member vectors.
    pub fn execute_with<B: Backend + ?Sized>(
        &self,
        backend: &B,
        parallel: bool,
        retry: &RetryPolicy,
    ) -> Result<GraphRun, Box<GraphFailure>> {
        let pool = backend.as_pool();
        let members = pool.map_or(1, BackendPool::len);
        let assignment = self.assign_members(backend);

        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut permanent: Vec<NodeFailure> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let missing = node.required_shots().saturating_sub(node.cached_shots());
            if missing == 0 {
                continue;
            }
            match (assignment[i], pool) {
                (None, Some(pool)) => {
                    let error = pool.infeasible_error(&node.circuit);
                    permanent.push(self.node_failure(i, error, 0));
                }
                _ => pending.push((i, missing)),
            }
        }

        let mut run = Execution {
            graph: self,
            backend,
            pool,
            parallel,
            per_job_timeout: retry.per_job_timeout,
            stats: GraphStats {
                jobs_planned: self.jobs_planned,
                jobs_executed: pending.len(),
                shots_requested: self
                    .nodes
                    .iter()
                    .flat_map(|n| n.consumers.iter().map(|&(_, s)| s))
                    .sum(),
                jobs_per_member: vec![0; members],
                shots_per_member: vec![0; members],
                member_makespan: vec![Duration::ZERO; members],
                ..GraphStats::default()
            },
            fresh: vec![None; self.nodes.len()],
        };

        let max_attempts = retry.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            if pending.is_empty() {
                break;
            }
            if attempt > 1 {
                run.stats.jobs_retried += pending.len() as u64;
                run.stats.backoff_wait += retry.backoff.delay(attempt - 1);
            }
            let last_round = attempt == max_attempts;

            // Primary phase: each member's share of the pending nodes.
            // Failover phase, same round: each transient failure goes once
            // to its next feasible sibling. Without a sibling (always so
            // on a bare backend) it waits for the next round.
            let mut batches: Vec<Vec<(usize, u64)>> = (0..members)
                .map(|m| {
                    let mine = pending.iter().copied();
                    mine.filter(|&(i, _)| assignment[i] == Some(m)).collect()
                })
                .collect();
            let mut still_pending: Vec<(usize, u64)> = Vec::new();
            for failover in [false, true] {
                let mut to_sibling: Vec<Vec<(usize, u64)>> = vec![Vec::new(); members];
                for (m, batch) in batches.iter().enumerate() {
                    run.stats.attempts += batch.len() as u64;
                    let failed = run.submit(m, batch);
                    if failover {
                        run.stats.jobs_failed_over += (batch.len() - failed.len()) as u64;
                    }
                    for (i, shots, error) in failed {
                        let width = self.nodes[i].circuit.num_qubits();
                        let sibling = pool
                            .filter(|_| !failover && error.is_transient())
                            .and_then(|p| p.failover_sibling(m, width));
                        match sibling {
                            Some(s) => to_sibling[s].push((i, shots)),
                            None if error.is_transient() && !last_round => {
                                still_pending.push((i, shots));
                            }
                            None => permanent.push(self.node_failure(i, error, attempt)),
                        }
                    }
                }
                batches = to_sibling;
            }
            // The next round re-submits in graph order, back on the
            // assigned members.
            still_pending.sort_by_key(|&(i, _)| i);
            pending = still_pending;
        }
        let Execution {
            mut stats, fresh, ..
        } = run;
        if pool.is_none() {
            stats.jobs_per_member.clear();
            stats.shots_per_member.clear();
            stats.member_makespan.clear();
        }
        self.finalize(stats, &fresh, permanent)
    }

    /// The tail of execution: accounts reuse, fans the merged histograms
    /// out to consumers, and wraps failures (with their salvage) into a
    /// [`GraphFailure`].
    fn finalize(
        &self,
        mut stats: GraphStats,
        fresh: &[Option<(usize, Counts)>],
        mut permanent: Vec<NodeFailure>,
    ) -> Result<GraphRun, Box<GraphFailure>> {
        permanent.sort_by_key(|f| f.node);
        let failed: Vec<usize> = permanent.iter().map(|f| f.node).collect();
        stats.shots_lost = permanent.iter().map(|f| f.shots_lost).sum();
        // Per node: split the non-executed shots between in-process reuse
        // (`shots_saved`: dedup + same-run seeding) and cross-run reuse
        // (`cache_shots_reused`) — the cache can only claim what was
        // actually *served*, capped by how much of the cached histogram
        // came from the warm-start cache — then fan out. Failed nodes
        // deliver nothing, not even partial cached counts: their whole
        // demand is `shots_lost`, and a consumer either receives its full
        // merged histogram or is named in a failure record.
        let mut counts: HashMap<ConsumerKey, Counts> = HashMap::new();
        let mut delivered_by = Vec::with_capacity(fresh.len());
        // `fresh` is borrowed, not drained: freeing each fresh histogram
        // between the consumer clones raises the allocator's peak.
        for (i, (node, fresh)) in self.nodes.iter().zip(fresh).enumerate() {
            delivered_by.push(fresh.as_ref().map(|&(m, _)| m));
            if failed.binary_search(&i).is_ok() {
                continue;
            }
            let served = node.required_shots().min(node.cached_shots());
            let from_cache = node.cache_seeded.min(served);
            if from_cache > 0 {
                stats.cache_hits += 1;
                stats.cache_shots_reused += from_cache;
            }
            let mut merged = match &node.cached {
                Some(c) => c.clone(),
                None => Counts::new(node.circuit.num_qubits()),
            };
            if let Some((_, fresh)) = fresh {
                merged.merge(fresh);
            }
            for &(key, _) in &node.consumers {
                counts
                    .entry(key)
                    .and_modify(|c| c.merge(&merged))
                    .or_insert_with(|| merged.clone());
            }
        }
        stats.shots_saved = stats
            .shots_requested
            .saturating_sub(stats.shots_executed)
            .saturating_sub(stats.cache_shots_reused)
            .saturating_sub(stats.shots_lost);
        let run = GraphRun {
            counts,
            delivered_by,
            stats,
        };
        if permanent.is_empty() {
            Ok(run)
        } else {
            Err(Box::new(GraphFailure {
                failures: permanent,
                salvage: run,
            }))
        }
    }

    /// Builds the failure record of one permanently failed node.
    fn node_failure(&self, node: usize, error: BackendError, attempts: u32) -> NodeFailure {
        let mut consumers: Vec<ConsumerKey> =
            self.nodes[node].consumers.iter().map(|&(k, _)| k).collect();
        consumers.sort();
        NodeFailure {
            node,
            consumers,
            error,
            attempts,
            shots_lost: self.nodes[node].consumers.iter().map(|&(_, s)| s).sum(),
        }
    }
}

/// One [`JobGraph::execute_with`] call in flight: the backend it runs on,
/// how it submits, and what has been delivered so far.
struct Execution<'a, B: ?Sized> {
    graph: &'a JobGraph,
    backend: &'a B,
    /// The backend's members when it is a pool; `None` runs the backend
    /// itself as member 0.
    pool: Option<&'a BackendPool>,
    parallel: bool,
    per_job_timeout: Option<Duration>,
    stats: GraphStats,
    /// Per node: the member that delivered its fresh shots, and those
    /// counts.
    fresh: Vec<Option<(usize, Counts)>>,
}

impl<B: Backend + ?Sized> Execution<'_, B> {
    /// Submits `batch` — `(node, shots)` pairs in order — to member `m`
    /// and sorts every result. A delivered job is booked to `m`. A result
    /// over the per-job deadline becomes a [`BackendError::Timeout`]: its
    /// device time is spent, its counts are discarded. Every undelivered
    /// node is handed back with its error, which
    /// [`BackendError::is_transient`] splits into retryable (transient or
    /// timeout) and permanent.
    fn submit(&mut self, m: usize, batch: &[(usize, u64)]) -> Vec<(usize, u64, BackendError)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let specs: Vec<JobSpec<'_>> = batch
            .iter()
            .map(|&(i, shots)| JobSpec::new(&self.graph.nodes[i].circuit, shots))
            .collect();
        let run = match self.pool {
            Some(pool) => run_batch(pool.member(m), &specs, self.parallel),
            None => run_batch(self.backend, &specs, self.parallel),
        };
        let stats = &mut self.stats;
        stats.gates_applied += run.stats.gates_applied;
        stats.gates_saved += run.stats.gates_saved();
        stats.states_reused += run.stats.states_reused;
        let mut failed = Vec::new();
        for (&(i, shots), result) in batch.iter().zip(run.results) {
            let delivered = result.and_then(|r| {
                stats.simulated_device_time += r.simulated_duration;
                stats.host_time += r.host_duration;
                stats.member_makespan[m] += r.simulated_duration;
                match self.per_job_timeout {
                    Some(deadline) if r.simulated_duration > deadline => {
                        Err(BackendError::Timeout {
                            elapsed: r.simulated_duration,
                        })
                    }
                    _ => Ok(r.counts),
                }
            });
            match delivered {
                Ok(counts) => {
                    stats.shots_executed += shots;
                    stats.jobs_per_member[m] += 1;
                    stats.shots_per_member[m] += shots;
                    self.fresh[i] = Some((m, counts));
                }
                Err(error) => failed.push((i, shots, error)),
            }
        }
        failed
    }
}

/// Submits one member's batch: natively batched when `parallel`, job by
/// job through [`Backend::run`] otherwise.
fn run_batch<M: Backend + ?Sized>(member: &M, specs: &[JobSpec<'_>], parallel: bool) -> BatchRun {
    if parallel {
        return member.run_batch_stats(specs);
    }
    let results: Vec<_> = specs
        .iter()
        .map(|j| member.run(j.circuit, j.shots))
        .collect();
    BatchRun {
        stats: BatchStats::unshared(specs, &results),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_device::ideal::IdealBackend;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn ghz() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        c
    }

    #[test]
    fn duplicate_jobs_share_one_execution() {
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 500);
        g.add_job(bell(), (Channel::UpstreamMeas, 1), 500);
        g.add_job(ghz(), (Channel::DownstreamPrep, 0), 300);
        assert_eq!(g.jobs_planned(), 3);
        assert_eq!(g.num_nodes(), 2);

        let run = g.execute(&IdealBackend::new(5), true).unwrap();
        assert_eq!(run.stats.jobs_planned, 3);
        assert_eq!(run.stats.jobs_executed, 2);
        assert_eq!(run.stats.shots_requested, 1300);
        assert_eq!(run.stats.shots_executed, 800);
        assert_eq!(run.stats.shots_saved, 500);
        // Both consumers of the shared node see the *same* histogram.
        let a = run.counts(&(Channel::UpstreamMeas, 0)).unwrap();
        let b = run.counts(&(Channel::UpstreamMeas, 1)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.total(), 500);
    }

    #[test]
    fn dedup_merges_to_max_budget() {
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::Uncut, 0), 200);
        g.add_job(bell(), (Channel::Uncut, 1), 700);
        let run = g.execute(&IdealBackend::new(1), false).unwrap();
        assert_eq!(run.stats.shots_executed, 700);
        assert_eq!(run.stats.shots_saved, 200);
        // The smaller consumer gets the full 700-shot histogram (never less
        // data than it asked for).
        assert_eq!(run.counts(&(Channel::Uncut, 0)).unwrap().total(), 700);
    }

    #[test]
    fn duplicate_consumer_registration_delivers_once() {
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 4), 300);
        g.add_job(bell(), (Channel::UpstreamMeas, 4), 500); // same pair, bigger ask
        assert_eq!(g.jobs_planned(), 2);
        assert_eq!(g.num_nodes(), 1);
        let run = g.execute(&IdealBackend::new(8), false).unwrap();
        // The consumer's demand was raised to max, not doubled.
        assert_eq!(run.stats.shots_executed, 500);
        assert_eq!(
            run.counts(&(Channel::UpstreamMeas, 4)).unwrap().total(),
            500
        );

        // The no-double-count contract holds with dedup off too, keeping
        // the ablation statistically comparable.
        let mut g = JobGraph::without_dedup();
        g.add_job(bell(), (Channel::UpstreamMeas, 4), 300);
        g.add_job(bell(), (Channel::UpstreamMeas, 4), 500);
        assert_eq!(g.num_nodes(), 1);
        let run = g.execute(&IdealBackend::new(8), false).unwrap();
        assert_eq!(
            run.counts(&(Channel::UpstreamMeas, 4)).unwrap().total(),
            500
        );
    }

    #[test]
    fn without_dedup_executes_every_job() {
        let mut g = JobGraph::without_dedup();
        g.add_job(bell(), (Channel::Uncut, 0), 200);
        g.add_job(bell(), (Channel::Uncut, 1), 700);
        assert_eq!(g.num_nodes(), 2);
        let run = g.execute(&IdealBackend::new(1), false).unwrap();
        assert_eq!(run.stats.jobs_executed, 2);
        assert_eq!(run.stats.shots_saved, 0);
        assert_eq!(run.counts(&(Channel::Uncut, 0)).unwrap().total(), 200);
    }

    #[test]
    fn seeded_counts_offset_execution() {
        let backend = IdealBackend::new(9);
        let warmup = backend.run(&bell(), 400).unwrap();

        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 1000);
        assert!(g.seed_counts(&bell(), &warmup.counts));
        assert!(!g.seed_counts(&ghz(), &warmup.counts)); // no such node

        let run = g.execute(&backend, true).unwrap();
        assert_eq!(run.stats.shots_executed, 600); // 1000 − 400 cached
        assert_eq!(run.stats.shots_saved, 400);
        assert_eq!(
            run.counts(&(Channel::UpstreamMeas, 0)).unwrap().total(),
            1000
        );
    }

    #[test]
    fn fully_cached_node_executes_nothing() {
        let backend = IdealBackend::new(9);
        let warmup = backend.run(&bell(), 500).unwrap();
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::Detection, 7), 300);
        g.seed_counts(&bell(), &warmup.counts);
        let run = g.execute(&backend, false).unwrap();
        assert_eq!(run.stats.jobs_executed, 0);
        assert_eq!(run.stats.shots_executed, 0);
        assert_eq!(run.counts(&(Channel::Detection, 7)).unwrap().total(), 500);
    }

    #[test]
    fn cache_seeding_is_attributed_separately_from_in_process_saving() {
        // 1000 requested; 300 seeded from the warm-start cache, 200 from an
        // in-process stage. 500 execute; the 500 served shots split 300
        // cache / 200 saved, and the invariant
        // requested = executed + saved + cache_reused holds exactly.
        let backend = IdealBackend::new(11);
        let from_cache = backend.run(&bell(), 300).unwrap().counts;
        let from_stage = backend.run(&bell(), 200).unwrap().counts;

        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 1000);
        assert!(g.seed_counts_from_cache(&bell(), &from_cache));
        assert!(g.seed_counts(&bell(), &from_stage));

        let run = g.execute(&backend, true).unwrap();
        assert_eq!(run.stats.shots_requested, 1000);
        assert_eq!(run.stats.shots_executed, 500);
        assert_eq!(run.stats.cache_hits, 1);
        assert_eq!(run.stats.cache_shots_reused, 300);
        assert_eq!(run.stats.shots_saved, 200);
        assert_eq!(
            run.stats.shots_requested,
            run.stats.shots_executed + run.stats.shots_saved + run.stats.cache_shots_reused
        );
        assert_eq!(
            run.counts(&(Channel::UpstreamMeas, 0)).unwrap().total(),
            1000
        );
    }

    #[test]
    fn over_seeded_cache_claims_only_what_was_served() {
        // The cache holds more shots than the run requests: only the served
        // amount (the full request) is attributed, never more.
        let backend = IdealBackend::new(12);
        let from_cache = backend.run(&bell(), 900).unwrap().counts;
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 400);
        g.seed_counts_from_cache(&bell(), &from_cache);
        let run = g.execute(&backend, false).unwrap();
        assert_eq!(run.stats.shots_executed, 0);
        assert_eq!(run.stats.cache_hits, 1);
        assert_eq!(run.stats.cache_shots_reused, 400);
        assert_eq!(run.stats.shots_saved, 0);
    }

    #[test]
    fn cache_seeding_is_a_noop_without_dedup() {
        let backend = IdealBackend::new(13);
        let warm = backend.run(&bell(), 300).unwrap().counts;
        let mut g = JobGraph::without_dedup();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 500);
        assert!(!g.seed_counts_from_cache(&bell(), &warm));
        let run = g.execute(&backend, false).unwrap();
        assert_eq!(run.stats.shots_executed, 500);
        assert_eq!(run.stats.cache_shots_reused, 0);
        assert_eq!(run.stats.cache_hits, 0);
    }

    #[test]
    fn weighted_budgets_compose_with_dedup_and_seeding() {
        // Three consumers of one circuit with *different* weighted budgets
        // plus a seeded warmup: the node runs max(budget) − cached shots,
        // shots_saved accounts for every merged/reused shot exactly, and
        // every consumer's delivered histogram reports the realized (not
        // requested) shot count.
        let backend = IdealBackend::new(21);
        let warmup = backend.run(&bell(), 150).unwrap();
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 400);
        g.add_job(bell(), (Channel::UpstreamMeas, 1), 900);
        g.add_job(bell(), (Channel::UpstreamMeas, 2), 250);
        g.seed_counts(&bell(), &warmup.counts);
        let run = g.execute(&backend, true).unwrap();
        assert_eq!(run.stats.jobs_planned, 3);
        assert_eq!(run.stats.jobs_executed, 1);
        assert_eq!(run.stats.shots_requested, 400 + 900 + 250);
        assert_eq!(run.stats.shots_executed, 900 - 150);
        assert_eq!(
            run.stats.shots_saved,
            run.stats.shots_requested - run.stats.shots_executed
        );
        for key in 0..3 {
            assert_eq!(
                run.counts(&(Channel::UpstreamMeas, key)).unwrap().total(),
                900,
                "consumer {key} sees the merged node"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_execution_are_bit_identical() {
        let build = || {
            let mut g = JobGraph::new();
            for i in 0..5 {
                g.add_job(bell(), (Channel::UpstreamMeas, i), 200 + i);
                g.add_job(ghz(), (Channel::DownstreamPrep, i), 100);
            }
            g
        };
        let par = build().execute(&IdealBackend::new(33), true).unwrap();
        let seq = build().execute(&IdealBackend::new(33), false).unwrap();
        // `parallel` means the same on a pool's members: a single-member
        // pool replays the bare backend either way.
        let pool = || {
            use qcut_device::pool::{BackendPool, PlacementPolicy};
            BackendPool::new(PlacementPolicy::RoundRobin).with_backend(IdealBackend::new(33))
        };
        let pool_par = build().execute(&pool(), true).unwrap();
        let pool_seq = build().execute(&pool(), false).unwrap();
        assert_eq!(pool_seq.stats.gates_saved, 0, "sequential runs job by job");
        for run in [&seq, &pool_par, &pool_seq] {
            for i in 0..5 {
                assert_eq!(
                    par.counts(&(Channel::UpstreamMeas, i)),
                    run.counts(&(Channel::UpstreamMeas, i))
                );
                assert_eq!(
                    par.counts(&(Channel::DownstreamPrep, i)),
                    run.counts(&(Channel::DownstreamPrep, i))
                );
            }
        }
    }

    #[test]
    fn take_channel_splits_results() {
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 3), 100);
        g.add_job(ghz(), (Channel::DownstreamPrep, 8), 100);
        let mut run = g.execute(&IdealBackend::new(2), true).unwrap();
        let up = run.take_channel(Channel::UpstreamMeas);
        assert_eq!(up.len(), 1);
        assert!(up.contains_key(&3));
        let down = run.take_channel(Channel::DownstreamPrep);
        assert!(down.contains_key(&8));
        assert!(run.take_channel(Channel::UpstreamMeas).is_empty());
    }

    /// Upstream-variant shape: one fragment, three rotation suffixes.
    fn variant_family() -> Vec<Circuit> {
        let mut base = Circuit::new(3);
        base.h(0).cx(0, 1).ry(0.7, 2).cx(1, 2);
        let mut x = base.clone();
        x.h(2);
        let mut y = base.clone();
        y.sdg(2).h(2);
        vec![base, x, y]
    }

    #[test]
    fn execute_reports_the_prefix_gate_economy() {
        let mut g = JobGraph::new();
        for (i, c) in variant_family().into_iter().enumerate() {
            g.add_job(c, (Channel::UpstreamMeas, i as u64), 200);
        }
        let par = g.execute(&IdealBackend::new(4), true).unwrap();
        // 4 + 5 + 6 naive gates; the 4-gate fragment runs once.
        assert_eq!(par.stats.gates_applied, 4 + 1 + 2);
        assert_eq!(par.stats.gates_saved, 8);
        // The sequential reference path simulates per job: nothing saved.
        let seq = g.execute(&IdealBackend::new(4), false).unwrap();
        assert_eq!(seq.stats.gates_applied, 4 + 5 + 6);
        assert_eq!(seq.stats.gates_saved, 0);
        // Sharing never changes the delivered counts.
        for i in 0..3 {
            assert_eq!(
                par.counts(&(Channel::UpstreamMeas, i)),
                seq.counts(&(Channel::UpstreamMeas, i))
            );
        }
    }

    #[test]
    fn prefix_profile_predicts_the_shared_walk() {
        let mut g = JobGraph::new();
        for (i, c) in variant_family().into_iter().enumerate() {
            g.add_job(c, (Channel::UpstreamMeas, i as u64), 100);
        }
        let profile = g.prefix_profile();
        assert_eq!(profile.circuits, 3);
        assert_eq!(profile.terminal_nodes, 3);
        assert_eq!(profile.gates_naive, 15);
        assert_eq!(profile.gates_shared, 7);
        // The profile matches what execution actually reports.
        let run = g.execute(&IdealBackend::new(1), true).unwrap();
        assert_eq!(run.stats.gates_applied, profile.gates_shared);
        assert_eq!(run.stats.gates_saved, profile.gates_saved());
    }

    #[test]
    fn errors_propagate() {
        // A failing node errors the run — but the error names the failed
        // node and carries the salvage: the sibling that fit the device
        // keeps its delivered counts.
        let mut g = JobGraph::new();
        g.add_job(ghz(), (Channel::Uncut, 0), 100);
        g.add_job(bell(), (Channel::UpstreamMeas, 3), 250);
        let tiny = IdealBackend::new(0).with_capacity(2);
        let failure = g.execute(&tiny, true).unwrap_err();
        assert_eq!(failure.failures.len(), 1);
        let f = &failure.failures[0];
        assert!(matches!(f.error, BackendError::CircuitTooWide { .. }));
        assert_eq!(f.consumers, vec![(Channel::Uncut, 0)]);
        assert_eq!(f.attempts, 1);
        assert_eq!(f.shots_lost, 100);
        // Salvage: the bell sibling's 250 shots were not discarded.
        assert_eq!(failure.succeeded(), vec![(Channel::UpstreamMeas, 3)]);
        let kept = failure.salvage.counts(&(Channel::UpstreamMeas, 3)).unwrap();
        assert_eq!(kept.total(), 250);
        assert_eq!(failure.salvage.stats.shots_lost, 100);
        assert_eq!(failure.salvage.stats.shots_executed, 250);
        // The message names the damage, and the cause chain reaches the
        // backend error.
        let msg = failure.to_string();
        assert!(msg.contains("failed permanently"), "{msg}");
        assert!(std::error::Error::source(failure.as_ref()).is_some());
    }

    #[test]
    fn transient_faults_recover_bit_identically_under_retry() {
        use crate::retry::RetryPolicy;
        use qcut_device::fault::FaultInjectingBackend;

        let build = || {
            let mut g = JobGraph::new();
            g.add_job(bell(), (Channel::UpstreamMeas, 0), 400);
            g.add_job(ghz(), (Channel::DownstreamPrep, 1), 300);
            g
        };
        let clean = build().execute(&IdealBackend::new(17), true).unwrap();

        // Every node fails its first two delivery attempts; with three
        // attempts allowed the run recovers — and because failed attempts
        // never consume inner-backend seeds, the recovered counts are the
        // fault-free counts, bit for bit.
        let flaky = FaultInjectingBackend::new(IdealBackend::new(17)).fail_first(2);
        let run = build()
            .execute_with(&flaky, true, &RetryPolicy::with_attempts(3))
            .unwrap();
        for key in [(Channel::UpstreamMeas, 0), (Channel::DownstreamPrep, 1)] {
            assert_eq!(run.counts(&key), clean.counts(&key), "{key:?}");
        }
        assert_eq!(run.stats.jobs_executed, 2);
        assert_eq!(run.stats.attempts, 6); // 2 jobs × 3 attempts
        assert_eq!(run.stats.jobs_retried, 4);
        assert_eq!(run.stats.shots_executed, 700);
        assert_eq!(run.stats.shots_lost, 0);
    }

    #[test]
    fn only_failed_nodes_are_resubmitted() {
        use crate::retry::RetryPolicy;
        use qcut_device::fault::FaultInjectingBackend;

        let ghz_c = ghz();
        let flaky = FaultInjectingBackend::new(IdealBackend::new(4)).fail_circuit(&ghz_c, 1);
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 200);
        g.add_job(ghz_c.clone(), (Channel::DownstreamPrep, 0), 300);
        let run = g
            .execute_with(&flaky, true, &RetryPolicy::with_attempts(2))
            .unwrap();
        // The bell node succeeded first try and was not re-bought: one
        // retry total, for the ghz node only.
        assert_eq!(run.stats.jobs_retried, 1);
        assert_eq!(run.stats.attempts, 3);
        assert_eq!(flaky.attempts_for(&bell()), 1);
        assert_eq!(flaky.attempts_for(&ghz_c), 2);
        assert_eq!(run.stats.shots_executed, 500);
    }

    #[test]
    fn retries_exhausted_is_a_permanent_failure_with_salvage() {
        use crate::retry::RetryPolicy;
        use qcut_device::fault::FaultInjectingBackend;

        let ghz_c = ghz();
        let flaky = FaultInjectingBackend::new(IdealBackend::new(4)).fail_circuit(&ghz_c, 10);
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 200);
        g.add_job(ghz_c, (Channel::DownstreamPrep, 5), 300);
        let failure = g
            .execute_with(&flaky, true, &RetryPolicy::with_attempts(3))
            .unwrap_err();
        let f = &failure.failures[0];
        assert_eq!(f.attempts, 3);
        assert_eq!(f.consumers, vec![(Channel::DownstreamPrep, 5)]);
        assert!(matches!(
            f.error,
            BackendError::Transient { attempt: 3, .. }
        ));
        assert_eq!(failure.salvage.stats.shots_lost, 300);
        assert_eq!(failure.salvage.stats.shots_executed, 200);
        // Invariant with losses: requested = executed + saved + cached + lost.
        let s = &failure.salvage.stats;
        assert_eq!(
            s.shots_requested,
            s.shots_executed + s.shots_saved + s.cache_shots_reused + s.shots_lost
        );
    }

    #[test]
    fn deterministic_errors_never_retry() {
        use crate::retry::RetryPolicy;
        let mut g = JobGraph::new();
        g.add_job(ghz(), (Channel::Uncut, 0), 100);
        let tiny = IdealBackend::new(0).with_capacity(2);
        let failure = g
            .execute_with(&tiny, false, &RetryPolicy::with_attempts(5))
            .unwrap_err();
        // CircuitTooWide is not transient: one attempt, not five.
        assert_eq!(failure.failures[0].attempts, 1);
        assert_eq!(failure.salvage.stats.attempts, 1);
        assert_eq!(failure.salvage.stats.jobs_retried, 0);
    }

    #[test]
    fn per_job_timeout_is_deterministic_and_wastes_device_time() {
        use crate::retry::RetryPolicy;
        use qcut_device::timing::TimingModel;

        let slow = TimingModel {
            gate_1q: 0.0,
            gate_2q: 0.0,
            readout: 0.0,
            rep_delay: 0.0,
            job_overhead: 2.0,
        };
        let backend = IdealBackend::new(3).with_timing(slow);
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::Uncut, 0), 100);
        let policy = RetryPolicy {
            max_attempts: 2,
            per_job_timeout: Some(Duration::from_secs(1)),
            ..RetryPolicy::default()
        };
        let failure = g.execute_with(&backend, true, &policy).unwrap_err();
        let f = &failure.failures[0];
        assert!(matches!(f.error, BackendError::Timeout { .. }));
        assert_eq!(f.attempts, 2);
        // Both timed-out attempts spent their (simulated) device time.
        let s = &failure.salvage.stats;
        assert!((s.simulated_device_time.as_secs_f64() - 4.0).abs() < 1e-9);
        assert_eq!(s.shots_executed, 0);
        assert_eq!(s.shots_lost, 100);
        // A generous deadline lets the same job through.
        let lenient = RetryPolicy {
            per_job_timeout: Some(Duration::from_secs(3)),
            ..RetryPolicy::default()
        };
        assert!(g.execute_with(&backend, true, &lenient).is_ok());
    }

    #[test]
    fn backoff_is_accounted_but_never_slept() {
        use crate::retry::{Backoff, RetryPolicy};
        use qcut_device::fault::FaultInjectingBackend;

        let flaky = FaultInjectingBackend::new(IdealBackend::new(1)).fail_first(2);
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::Uncut, 0), 100);
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::Exponential {
                base: Duration::from_secs(10),
                factor: 2,
                cap: Duration::from_secs(60),
            },
            per_job_timeout: None,
        };
        let started = std::time::Instant::now();
        let run = g.execute_with(&flaky, false, &policy).unwrap();
        // 10 s before retry 1 + 20 s before retry 2, accounted not slept.
        assert_eq!(run.stats.backoff_wait, Duration::from_secs(30));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn seeded_counts_still_offset_the_retried_request() {
        // A node with 400 seeded shots retries only its 600-shot increment:
        // the seeded data is never re-bought, even through a fault.
        use crate::retry::RetryPolicy;
        use qcut_device::fault::FaultInjectingBackend;

        let seeder = IdealBackend::new(9);
        let warmup = seeder.run(&bell(), 400).unwrap();
        let flaky = FaultInjectingBackend::new(IdealBackend::new(9)).fail_first(1);
        let mut g = JobGraph::new();
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 1000);
        g.seed_counts(&bell(), &warmup.counts);
        let run = g
            .execute_with(&flaky, true, &RetryPolicy::with_attempts(2))
            .unwrap();
        assert_eq!(run.stats.shots_executed, 600);
        assert_eq!(run.stats.shots_saved, 400);
        assert_eq!(
            run.counts(&(Channel::UpstreamMeas, 0)).unwrap().total(),
            1000
        );
    }

    #[test]
    fn pool_execution_shards_and_accounts_per_member() {
        use qcut_device::pool::{BackendPool, PlacementPolicy};

        let pool = BackendPool::new(PlacementPolicy::RoundRobin)
            .with_backend(IdealBackend::new(1))
            .with_backend(IdealBackend::new(2));
        let mut g = JobGraph::new();
        for i in 0..4 {
            g.add_job(bell(), (Channel::UpstreamMeas, i), 100 + i);
        }
        g.add_job(ghz(), (Channel::DownstreamPrep, 0), 300);
        // 5 planned, 2 unique nodes (bell merged at max budget 103).
        let run = g.execute(&pool, true).unwrap();
        assert_eq!(run.stats.jobs_executed, 2);
        assert_eq!(run.stats.jobs_per_member, vec![1, 1]);
        assert_eq!(run.stats.shots_per_member, vec![103, 300]);
        assert_eq!(run.stats.jobs_failed_over, 0);
        // Shot invariant extends across members: per-member deliveries sum
        // to the executed total.
        assert_eq!(
            run.stats.shots_per_member.iter().sum::<u64>(),
            run.stats.shots_executed
        );
        assert_eq!(
            run.stats.shots_requested,
            run.stats.shots_executed + run.stats.shots_saved + run.stats.shots_lost
        );
        for i in 0..4 {
            assert_eq!(
                run.counts(&(Channel::UpstreamMeas, i)).unwrap().total(),
                103
            );
        }
    }

    #[test]
    fn single_member_pool_is_bit_identical_to_the_bare_backend() {
        use qcut_device::pool::{BackendPool, PlacementPolicy};

        let build = || {
            let mut g = JobGraph::new();
            for i in 0..3 {
                g.add_job(bell(), (Channel::UpstreamMeas, i), 200 + i);
            }
            g.add_job(ghz(), (Channel::DownstreamPrep, 0), 150);
            g
        };
        let bare = build().execute(&IdealBackend::new(42), true).unwrap();
        let pool =
            BackendPool::new(PlacementPolicy::LeastLoaded).with_backend(IdealBackend::new(42));
        let pooled = build().execute(&pool, true).unwrap();
        for key in [
            (Channel::UpstreamMeas, 0),
            (Channel::UpstreamMeas, 1),
            (Channel::UpstreamMeas, 2),
            (Channel::DownstreamPrep, 0),
        ] {
            assert_eq!(pooled.counts(&key), bare.counts(&key), "{key:?}");
        }
        assert_eq!(pooled.stats.shots_executed, bare.stats.shots_executed);
        assert_eq!(pooled.stats.gates_applied, bare.stats.gates_applied);
        assert_eq!(pooled.stats.jobs_per_member, vec![2]);
        assert!((pooled.stats.pool_parallel_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transient_member_fails_over_to_a_sibling_in_the_same_round() {
        use qcut_device::fault::FaultInjectingBackend;
        use qcut_device::pool::{BackendPool, PlacementPolicy};

        let bell_c = bell();
        // Member 0 fails the bell node once; everything is pinned to
        // member 0, so the bell node must be absorbed by sibling 1 —
        // within the default single-attempt policy (failover happens
        // before the round counts as lost).
        let pool = BackendPool::new(PlacementPolicy::Pinned(vec![0]))
            .with_backend(FaultInjectingBackend::new(IdealBackend::new(5)).fail_circuit(&bell_c, 1))
            .with_backend(IdealBackend::new(77));
        let mut g = JobGraph::new();
        g.add_job(bell_c.clone(), (Channel::UpstreamMeas, 0), 400);
        g.add_job(ghz(), (Channel::DownstreamPrep, 0), 300);
        let run = g.execute(&pool, true).unwrap();
        assert_eq!(run.stats.jobs_failed_over, 1);
        assert_eq!(run.stats.jobs_per_member, vec![1, 1]);
        assert_eq!(run.stats.shots_per_member, vec![300, 400]);
        assert_eq!(run.stats.attempts, 3); // 2 primary + 1 failover
        assert_eq!(run.stats.shots_lost, 0);
        // The record names who measured each node: the sibling for the
        // failed-over bell node, the assigned member for the rest.
        assert_eq!(g.assign_members(&pool), vec![Some(0), Some(0)]);
        assert_eq!(run.delivered_by(0), Some(1));
        assert_eq!(run.delivered_by(1), Some(0));

        // Equivalence: the failover run is bit-identical to a fault-free
        // pool that pinned the bell node to member 1 outright — the
        // sibling sees the identical batch at the identical counter base.
        let reference = BackendPool::new(PlacementPolicy::Pinned(vec![1, 0]))
            .with_backend(IdealBackend::new(5))
            .with_backend(IdealBackend::new(77));
        let mut g2 = JobGraph::new();
        g2.add_job(bell_c, (Channel::UpstreamMeas, 0), 400);
        g2.add_job(ghz(), (Channel::DownstreamPrep, 0), 300);
        let want = g2.execute(&reference, true).unwrap();
        for key in [(Channel::UpstreamMeas, 0), (Channel::DownstreamPrep, 0)] {
            assert_eq!(run.counts(&key), want.counts(&key), "{key:?}");
        }
    }

    #[test]
    fn infeasible_pool_node_fails_before_submission_with_salvage() {
        use qcut_device::pool::{BackendPool, PlacementPolicy};

        let pool = BackendPool::new(PlacementPolicy::LeastLoaded)
            .with_backend(IdealBackend::new(1).with_capacity(2))
            .with_backend(IdealBackend::new(2).with_capacity(2));
        let mut g = JobGraph::new();
        g.add_job(ghz(), (Channel::Uncut, 0), 100); // fits no member
        g.add_job(bell(), (Channel::UpstreamMeas, 0), 250);
        let failure = g.execute(&pool, true).unwrap_err();
        let f = &failure.failures[0];
        assert!(matches!(
            f.error,
            BackendError::CircuitTooWide {
                circuit: 3,
                device: 2
            }
        ));
        assert_eq!(f.attempts, 0, "nothing was ever submitted for it");
        assert_eq!(f.shots_lost, 100);
        // The feasible sibling was executed and salvaged.
        assert_eq!(failure.succeeded(), vec![(Channel::UpstreamMeas, 0)]);
        let s = &failure.salvage.stats;
        assert_eq!(s.shots_executed, 250);
        assert_eq!(
            s.shots_requested,
            s.shots_executed + s.shots_saved + s.cache_shots_reused + s.shots_lost
        );
    }

    #[test]
    fn pool_parallel_ratio_reflects_member_balance() {
        let balanced = GraphStats {
            member_makespan: vec![Duration::from_secs(4); 4],
            ..GraphStats::default()
        };
        assert!((balanced.pool_parallel_ratio() - 4.0).abs() < 1e-12);
        let lopsided = GraphStats {
            member_makespan: vec![Duration::from_secs(8), Duration::ZERO],
            ..GraphStats::default()
        };
        assert!((lopsided.pool_parallel_ratio() - 1.0).abs() < 1e-12);
        assert!((GraphStats::default().pool_parallel_ratio() - 1.0).abs() < 1e-12);

        // absorb widens and adds the member vectors.
        let mut a = GraphStats {
            jobs_per_member: vec![2],
            shots_per_member: vec![100],
            member_makespan: vec![Duration::from_secs(1)],
            ..GraphStats::default()
        };
        a.absorb(&GraphStats {
            jobs_per_member: vec![1, 3],
            shots_per_member: vec![50, 70],
            member_makespan: vec![Duration::from_secs(2), Duration::from_secs(5)],
            jobs_failed_over: 1,
            ..GraphStats::default()
        });
        assert_eq!(a.jobs_per_member, vec![3, 3]);
        assert_eq!(a.shots_per_member, vec![150, 70]);
        assert_eq!(
            a.member_makespan,
            vec![Duration::from_secs(3), Duration::from_secs(5)]
        );
        assert_eq!(a.jobs_failed_over, 1);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = GraphStats {
            jobs_planned: 2,
            jobs_executed: 1,
            shots_requested: 100,
            shots_executed: 60,
            shots_saved: 40,
            ..GraphStats::default()
        };
        let b = GraphStats {
            jobs_planned: 3,
            jobs_executed: 3,
            shots_requested: 30,
            shots_executed: 30,
            shots_saved: 0,
            ..GraphStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.jobs_planned, 5);
        assert_eq!(a.jobs_executed, 4);
        assert_eq!(a.shots_saved, 40);
    }
}
