//! The run planner: one [`RunPlan`] per run, which the analysis gate lints
//! and the pipeline executes.
//!
//! [`RunPlan::resolve`] fragments the circuit and resolves the golden
//! policy into the [`BasisPlan`] the run starts from. The plan's gather
//! round — its [`schedule`] and the unexecuted [`gather_graph`] — is
//! planned on demand by [`RunPlan::plan_gather`]: the gate
//! ([`crate::analysis`]) plans it to lint it, and
//! [`crate::pipeline::CutExecutor::run`] then executes that same graph.
//! The detection and adaptive paths are different combinations of the
//! same builders over the same engine:
//!
//! * a gather = upstream jobs + downstream jobs, one per preparation
//!   setting of the run's preparation frame: the eigenstate scheme or the
//!   SIC scheme, chosen by [`ReconstructionMethod`];
//! * online detection registers its per-round jobs inline in
//!   [`crate::pipeline`], seeds the counts each executed batch delivered
//!   back into the gather graph, and [`RunPlan::replan`]s when it
//!   neglects a basis;
//! * an adaptive pilot or refine round builds [`gather_graph`] for its own
//!   schedule and seeds the refine round with the pilot's histograms
//!   (see [`crate::pipeline::CutExecutor::run`]);
//! * the offline [`crate::execution::gather`] executes the eigenstate
//!   [`gather_graph`], so it draws what a pipeline run on a same-seeded
//!   backend draws.
//!
//! # Example
//!
//! Planning a full eigenstate gather produces one job per tomography
//! setting, emitted in trie-locality order so a prefix-sharing backend
//! simulates each shared fragment prefix once:
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::golden::GoldenPolicy;
//! use qcut_core::pipeline::ExecutionOptions;
//! use qcut_core::planner::RunPlan;
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 1).build();
//! let mut plan = RunPlan::resolve(&circuit, &cut, &GoldenPolicy::Disabled).unwrap();
//! let gather = plan.take_gather(&ExecutionOptions::default()).unwrap();
//! assert_eq!(gather.graph.jobs_planned(), 9); // 3 measurements + 6 preparations
//! // Adjacent upstream variants share the fragment as a prefix.
//! assert!(gather.graph.prefix_profile().gates_saved() > 0);
//! ```

use crate::allocation::{schedule_for_frame, AllocationError, ShotAllocation, ShotSchedule};
use crate::basis::{encode_meas, BasisPlan};
use crate::dataflow::{plan_from_proofs, prove_golden_bases};
use crate::error::PipelineError;
use crate::fragment::{Fragmenter, Fragments};
use crate::frame::PrepFrame;
use crate::golden::{resolve_static_policy, GoldenPolicy};
use crate::jobgraph::{Channel, ConsumerKey, JobGraph};
use crate::pipeline::{ExecutionOptions, ReconstructionMethod};
use crate::tomography::build_upstream_circuit;
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_math::Pauli;
use qcut_sim::prefix::PrefixForest;

/// One planned gather round: a shot schedule and the unexecuted job graph
/// that carries it.
pub struct GatherPlan {
    /// Per-setting shots, in the planner's setting order.
    pub schedule: ShotSchedule,
    /// The job graph, built but not executed.
    pub graph: JobGraph,
}

/// The plan of one run.
pub struct RunPlan {
    /// The bipartitioned circuit.
    pub fragments: Fragments,
    /// The basis plan the run starts from: the static golden policy's
    /// verdict, or the standard plan under
    /// [`GoldenPolicy::DetectOnline`], whose detection starts from it.
    pub basis: BasisPlan,
    /// The stabilizer prover's per-cut proofs when the policy ran it
    /// ([`GoldenPolicy::ProveStatic`]), so no reader proves again.
    pub proofs: Option<Vec<Vec<Pauli>>>,
    /// The gather round of `basis`, once [`RunPlan::plan_gather`] planned
    /// it: `Err` when the budget cannot schedule it.
    pub gather: Option<Result<GatherPlan, AllocationError>>,
}

impl RunPlan {
    /// Fragments `circuit` along `cut` and resolves `policy` into the
    /// starting basis plan; [`RunPlan::plan_gather`] plans the rest.
    /// Invalid cuts are [`PipelineError::Fragment`]; a
    /// [`GoldenPolicy::KnownAPriori`] cut index outside the specification
    /// is [`PipelineError::GoldenCutOutOfRange`].
    pub fn resolve(
        circuit: &Circuit,
        cut: &CutSpec,
        policy: &GoldenPolicy,
    ) -> Result<RunPlan, PipelineError> {
        let fragments = Fragmenter::fragment(circuit, cut)?;
        let num_cuts = fragments.num_cuts;
        let mut proofs = None;
        let basis = match policy {
            GoldenPolicy::KnownAPriori(pairs) => {
                if let Some(&(cut, _)) = pairs.iter().find(|&&(cut, _)| cut >= num_cuts) {
                    return Err(PipelineError::GoldenCutOutOfRange { cut, num_cuts });
                }
                resolve_static_policy(policy, &fragments.upstream, num_cuts)
            }
            GoldenPolicy::ProveStatic => {
                let proven = prove_golden_bases(&fragments.upstream, num_cuts);
                let plan = plan_from_proofs(&proven);
                proofs = Some(proven);
                Some(plan)
            }
            _ => resolve_static_policy(policy, &fragments.upstream, num_cuts),
        }
        // Online detection starts from the standard plan.
        .unwrap_or_else(|| BasisPlan::standard(num_cuts));
        Ok(RunPlan {
            fragments,
            basis,
            proofs,
            gather: None,
        })
    }

    /// Plans [`RunPlan::gather`] under `options` unless it already is.
    pub fn plan_gather(&mut self, options: &ExecutionOptions) {
        if self.gather.is_none() {
            self.gather = Some(plan_gather(&self.fragments, &self.basis, options));
        }
    }

    /// Moves the gather round out for execution, planning it first when
    /// nothing has yet.
    pub fn take_gather(
        &mut self,
        options: &ExecutionOptions,
    ) -> Result<GatherPlan, AllocationError> {
        match self.gather.take() {
            Some(gather) => gather,
            None => plan_gather(&self.fragments, &self.basis, options),
        }
    }

    /// Switches the run to `basis` (what online detection resolved),
    /// dropping a gather round planned for a different plan.
    pub fn replan(&mut self, basis: BasisPlan) {
        if basis != self.basis {
            self.basis = basis;
            self.gather = None;
        }
    }
}

/// The gather round of `basis` under the run's allocation policy.
fn plan_gather(
    fragments: &Fragments,
    basis: &BasisPlan,
    options: &ExecutionOptions,
) -> Result<GatherPlan, AllocationError> {
    let allocation = options.resolved_allocation().normalized();
    let schedule = schedule(basis, options.method, allocation)?;
    let graph = gather_graph(fragments, basis, options.method, &schedule, options.dedup);
    Ok(GatherPlan { schedule, graph })
}

/// The shot schedule of `plan` under `allocation`, for the preparation
/// scheme `method`.
pub fn schedule(
    plan: &BasisPlan,
    method: ReconstructionMethod,
    allocation: ShotAllocation,
) -> Result<ShotSchedule, AllocationError> {
    schedule_for_frame(plan, &PrepFrame::new(method, plan), allocation)
}

/// The unexecuted gather graph of `plan` at `sched`: upstream jobs plus
/// the downstream preparations of `method`. `dedup` off is the engine's
/// ablation baseline.
pub fn gather_graph(
    fragments: &Fragments,
    plan: &BasisPlan,
    method: ReconstructionMethod,
    sched: &ShotSchedule,
    dedup: bool,
) -> JobGraph {
    let mut graph = JobGraph::with_dedup(dedup);
    add_upstream_jobs(&mut graph, fragments, plan, &sched.upstream);
    let frame = PrepFrame::new(method, plan);
    add_prep_jobs(&mut graph, fragments, &frame, &sched.downstream);
    graph
}

/// Reorders `(circuit, consumer, shots)` triples into trie-locality order
/// — the DFS order of the batch's prefix forest — so jobs sharing
/// instruction prefixes are emitted adjacently and a prefix-sharing
/// backend walks each shared segment once: the upstream gather costs
/// `O(G + Σ suffix)` gate applications instead of `O(V·G)` for `V`
/// variants of a `G`-gate fragment. The cartesian setting enumerations are
/// already prefix-clustered (earlier cuts vary slowest and rotations/preps
/// are spliced in cut order), so the only moves this makes are (a)
/// regrouping interleaved batches handed in by a caller and (b) emitting a
/// job whose circuit is a strict prefix of another *before* its extensions
/// (e.g. the rotation-free Z setting ahead of X and Y) — the walk order a
/// prefix-sharing backend simulates in.
///
/// The backend rebuilds its own forest at execution time; planning does
/// not try to hand it over (the graph keeps moving circuits as jobs are
/// registered). Building a forest is one FNV pass over the instruction
/// stream plus trie insertion — noise next to simulating even one gate on
/// a realistic state, so paying it per layer keeps the seams simple.
/// Jobs are sorted by their rank in the DFS order, so each is emitted
/// exactly once even without trusting that order to be a permutation.
fn trie_local_jobs(jobs: Vec<(Circuit, ConsumerKey, u64)>) -> Vec<(Circuit, ConsumerKey, u64)> {
    let refs: Vec<&Circuit> = jobs.iter().map(|(c, _, _)| c).collect();
    let order = PrefixForest::build(&refs).dfs_job_order();
    let mut rank = vec![0; jobs.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let mut ranked: Vec<(usize, (Circuit, ConsumerKey, u64))> =
        rank.into_iter().zip(jobs).collect();
    ranked.sort_unstable_by_key(|&(r, _)| r);
    ranked.into_iter().map(|(_, job)| job).collect()
}

/// Registers one job per setting, in trie-locality order. `shots[i]`
/// pairs with `settings[i]`; a single-element slice is broadcast to every
/// setting.
fn add_settings<S>(
    graph: &mut JobGraph,
    settings: &[S],
    shots: &[u64],
    what: &str,
    job: impl Fn(&S) -> (Circuit, ConsumerKey),
) {
    assert!(
        shots.len() == settings.len() || shots.len() == 1,
        "shot schedule arity: {} {what}, {} budgets",
        settings.len(),
        shots.len()
    );
    let jobs = settings
        .iter()
        .zip(shots.iter().cycle())
        .map(|(setting, &budget)| {
            let (circuit, consumer) = job(setting);
            (circuit, consumer, budget)
        })
        .collect();
    for (circuit, consumer, budget) in trie_local_jobs(jobs) {
        graph.add_job(circuit, consumer, budget);
    }
}

/// Adds one upstream measurement job per setting of `plan`, in
/// trie-locality order with prefix metadata available via
/// [`JobGraph::prefix_profile`]. `shots[i]` pairs with the i-th setting of
/// [`BasisPlan::all_meas_settings`]; a single-element slice is broadcast
/// to every setting.
pub fn add_upstream_jobs(
    graph: &mut JobGraph,
    fragments: &Fragments,
    plan: &BasisPlan,
    shots: &[u64],
) {
    add_settings(graph, &plan.all_meas_settings(), shots, "settings", |s| {
        (
            build_upstream_circuit(&fragments.upstream, s),
            (Channel::UpstreamMeas, encode_meas(s)),
        )
    });
}

/// Adds one downstream eigenstate-preparation job per prep combination of
/// `plan`, with the same broadcast rule and trie-locality order as
/// [`add_upstream_jobs`].
pub fn add_downstream_jobs(
    graph: &mut JobGraph,
    fragments: &Fragments,
    plan: &BasisPlan,
    shots: &[u64],
) {
    let frame = PrepFrame::new(ReconstructionMethod::Eigenstate, plan);
    add_prep_jobs(graph, fragments, &frame, shots);
}

/// Adds one downstream job per preparation setting of `frame`, delivered
/// on [`Channel::DownstreamPrep`] under the setting's key.
fn add_prep_jobs(graph: &mut JobGraph, fragments: &Fragments, frame: &PrepFrame, shots: &[u64]) {
    add_settings(graph, &frame.settings(), shots, "preparations", |s| {
        (
            frame.circuit(&fragments.downstream, s),
            (Channel::DownstreamPrep, frame.key(s)),
        )
    });
}

/// The single-job graph for an uncut reference run.
pub fn uncut_graph(circuit: &Circuit, shots: u64) -> JobGraph {
    let mut graph = JobGraph::new();
    graph.add_job(circuit.clone(), (Channel::Uncut, 0), shots);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragmenter;
    use qcut_circuit::ansatz::GoldenAnsatz;
    use qcut_math::Pauli;

    fn fragments_for(seed: u64) -> Fragments {
        let (c, spec) = GoldenAnsatz::new(5, seed).build();
        Fragmenter::fragment(&c, &spec).unwrap()
    }

    #[test]
    fn eigenstate_graph_covers_all_settings() {
        let frags = fragments_for(0);
        let plan = BasisPlan::standard(1);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[1000]);
        add_downstream_jobs(&mut g, &frags, &plan, &[1000]);
        assert_eq!(g.jobs_planned(), 9);
        assert!(g.has_channel(Channel::UpstreamMeas));
        assert!(g.has_channel(Channel::DownstreamPrep));
    }

    #[test]
    fn golden_plan_shrinks_the_graph() {
        let frags = fragments_for(1);
        let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[1000]);
        add_downstream_jobs(&mut g, &frags, &plan, &[1000]);
        assert_eq!(g.jobs_planned(), 6);
    }

    #[test]
    fn sic_graph_plans_no_downstream_eigenstate_jobs() {
        // The SIC gather constructs no eigenstate preparation: its four
        // downstream jobs are the SIC preparations, keyed 0..4 on the one
        // preparation channel.
        use qcut_math::SicState;
        use qcut_sim::basis_change::sic_prep_circuit;
        let frags = fragments_for(2);
        let plan = BasisPlan::standard(1);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[1000]);
        let sic = PrepFrame::new(ReconstructionMethod::Sic, &plan);
        add_prep_jobs(&mut g, &frags, &sic, &[1000]);
        assert_eq!(g.jobs_planned(), 3 + 4);
        assert!(g.has_channel(Channel::DownstreamPrep));
        let down = &frags.downstream;
        let mut preps: Vec<(u64, &Circuit)> = g
            .node_jobs()
            .filter(|(_, consumers)| consumers[0].0 .0 == Channel::DownstreamPrep)
            .map(|(circuit, consumers)| (consumers[0].0 .1, circuit))
            .collect();
        preps.sort_by_key(|&(key, _)| key);
        assert_eq!(preps.len(), 4);
        for ((key, circuit), (j, s)) in preps.into_iter().zip(SicState::ALL.iter().enumerate()) {
            let n = down.circuit.num_qubits();
            let mut want = sic_prep_circuit(*s, n, down.cut_ports[0]);
            want.extend(&down.circuit);
            assert_eq!(key, j as u64);
            assert_eq!(*circuit, want, "SIC preparation {s:?}");
        }
    }

    #[test]
    fn per_setting_schedules_are_respected() {
        let frags = fragments_for(3);
        let plan = BasisPlan::standard(1);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &plan, &[100, 200, 300]);
        let run = g
            .execute(&qcut_device::ideal::IdealBackend::new(0), false)
            .unwrap();
        assert_eq!(run.stats.shots_executed, 600);
    }

    #[test]
    fn per_setting_sic_schedules_are_respected() {
        let frags = fragments_for(5);
        let sic = PrepFrame::new(ReconstructionMethod::Sic, &BasisPlan::standard(1));
        let mut g = JobGraph::new();
        add_prep_jobs(&mut g, &frags, &sic, &[10, 20, 30, 40]);
        assert_eq!(g.jobs_planned(), 4);
        let run = g
            .execute(&qcut_device::ideal::IdealBackend::new(0), false)
            .unwrap();
        assert_eq!(run.stats.shots_executed, 100);
    }

    #[test]
    #[should_panic(expected = "schedule arity")]
    fn wrong_sic_schedule_arity_panics() {
        let frags = fragments_for(5);
        let sic = PrepFrame::new(ReconstructionMethod::Sic, &BasisPlan::standard(1));
        let mut g = JobGraph::new();
        add_prep_jobs(&mut g, &frags, &sic, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "schedule arity")]
    fn wrong_schedule_arity_panics() {
        let frags = fragments_for(4);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &BasisPlan::standard(1), &[1, 2]);
    }

    #[test]
    fn upstream_jobs_are_emitted_in_trie_locality_order() {
        use qcut_circuit::ansatz::MultiCutAnsatz;
        // K = 2: 9 upstream variants, all sharing the full fragment as an
        // instruction prefix, with earlier-cut rotations varying slowest.
        let (c, spec) = MultiCutAnsatz::new(2, 3).build();
        let frags = Fragmenter::fragment(&c, &spec).unwrap();
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &BasisPlan::standard(2), &[500]);
        let circuits: Vec<_> = g.node_circuits().collect();
        assert_eq!(circuits.len(), 9);
        let base_len = frags.upstream.circuit.len();
        for pair in circuits.windows(2) {
            assert!(
                pair[0].shared_prefix_len(pair[1]) >= base_len,
                "adjacent upstream jobs must share the fragment prefix"
            );
        }
        // The shared walk pays the fragment once: profile confirms.
        let profile = g.prefix_profile();
        assert_eq!(profile.circuits, 9);
        assert!(profile.gates_saved() >= 8 * base_len as u64);
    }

    #[test]
    fn trie_local_jobs_regroups_interleaved_batches() {
        // Two prefix families interleaved; the planner's ordering clusters
        // each family while preserving within-family order.
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut a1 = a.clone();
        a1.s(1);
        let mut b = Circuit::new(2);
        b.x(0).cz(0, 1);
        let mut b1 = b.clone();
        b1.t(1);
        let jobs = vec![
            (a.clone(), (Channel::Uncut, 0u64), 1),
            (b.clone(), (Channel::Uncut, 1), 1),
            (a1, (Channel::Uncut, 2), 1),
            (b1, (Channel::Uncut, 3), 1),
        ];
        let keys: Vec<u64> = trie_local_jobs(jobs).iter().map(|(_, k, _)| k.1).collect();
        assert_eq!(keys, vec![0, 2, 1, 3]);
    }

    #[test]
    fn planner_emits_prefixes_before_their_extensions() {
        // Single cut: the Z variant (no rotation) is a strict instruction
        // prefix of the X and Y variants, so the trie walk — and therefore
        // planner emission — visits it first; X and Y keep their relative
        // (cartesian) order.
        use crate::basis::MeasBasis;
        let frags = fragments_for(6);
        let mut g = JobGraph::new();
        add_upstream_jobs(&mut g, &frags, &BasisPlan::standard(1), &[100]);
        let emitted: Vec<_> = g.node_circuits().cloned().collect();
        let build = |m: MeasBasis| build_upstream_circuit(&frags.upstream, &[m]);
        assert_eq!(
            emitted,
            vec![
                build(MeasBasis::Z),
                build(MeasBasis::X),
                build(MeasBasis::Y)
            ]
        );
    }

    #[test]
    fn uncut_graph_is_single_job() {
        let (c, _) = GoldenAnsatz::new(5, 5).build();
        let g = uncut_graph(&c, 2000);
        assert_eq!(g.jobs_planned(), 1);
        assert!(g.has_channel(Channel::Uncut));
    }
}
