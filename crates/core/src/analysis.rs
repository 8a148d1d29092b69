//! Static analysis of cutting workloads: coded lints over the circuit,
//! the cut, and the run's [`RunPlan`] — its basis plan, shot schedule and
//! unexecuted job graph.
//!
//! The paper trades a provably-bounded bias for shot savings, which makes
//! correctness rest on a web of invariants — budget exactness, dedup
//! soundness, consumer-stream uniqueness, neglect coverage — that the rest
//! of the workspace only checks *during* execution. The lints check them
//! **before any shot is spent**: analysis is pure (no backend calls), runs
//! one table of lint functions layer by layer, and returns typed
//! [`Diagnostics`]. [`crate::pipeline::CutExecutor::run`] gates on them,
//! linting the very plan it then executes — deny-level findings become
//! [`crate::error::PipelineError::Analysis`] and warnings ride along in
//! [`crate::report::RunReport::diagnostics`]. [`analyze`] lints the
//! standard (nothing-neglected) plan of a workload on its own. No lint
//! re-checks the circuit's structure: every [`Circuit`] is well formed by
//! construction ([`Circuit::from_instructions`]).
//!
//! Severity semantics:
//!
//! * [`Severity::Deny`] — the workload cannot produce a sound result
//!   (an invalid bipartition, a budget no reachable plan fits);
//!   the pipeline refuses to execute it.
//! * [`Severity::Warn`] — the workload runs but something is off
//!   (wasteful, fragile, or predicted to fail at a later stage unless a
//!   dynamic step rescues it); surfaced in the run report.
//! * [`Severity::Allow`] — the finding is informational (structure hints,
//!   predicted sharing ratios) and suppressed by default; promote it via
//!   [`AnalysisConfig::with_override`] to see it.
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::analysis::analyze;
//! use qcut_core::pipeline::ExecutionOptions;
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 7).build();
//! let diags = analyze(&circuit, &cut, &ExecutionOptions::default());
//! assert!(diags.is_clean(), "example workloads lint clean: {diags}");
//! ```

use crate::allocation::{ShotAllocation, ShotSchedule};
use crate::basis::BasisPlan;
use crate::error::PipelineError;
use crate::fragment::{FragmentError, Fragments};
use crate::frame::PrepFrame;
use crate::golden::GoldenPolicy;
use crate::jobgraph::JobGraph;
use crate::pipeline::{ExecutionOptions, ReconstructionMethod};
use crate::planner::{schedule, RunPlan};
use crate::retry::{FailurePolicy, RetryPolicy};
use qcut_cache::WarmCache;
use qcut_circuit::circuit::Circuit;
use qcut_circuit::cut::CutSpec;
use qcut_circuit::gate::Gate;
use qcut_device::backend::Backend;
use qcut_device::pool::MemberInfo;
use qcut_device::timing::TimingModel;
use qcut_math::Pauli;
use serde::{Deserialize, Serialize};
use std::fmt;

pub use crate::dataflow::{cut_report, CutCandidate, CutReport};

/// How a finding is acted on (see the module docs for the semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational; suppressed unless promoted by an override.
    Allow,
    /// Surfaced in [`crate::report::RunReport::diagnostics`]; the run
    /// proceeds.
    Warn,
    /// The pipeline rejects the workload
    /// ([`crate::error::PipelineError::Analysis`]).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// The diagnostic codes, one per lint, grouped by layer: `QA0xx` circuit,
/// `QA1xx` cut, `QA2xx` schedule, `QA3xx` job graph, `QA4xx` warm-start
/// cache, `QA5xx` fault tolerance, `QA6xx` dataflow, `QA7xx` backend
/// pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintCode {
    /// `QA002` — a qubit with no instructions (its fragment membership is
    /// undefined, so fragmenting will reject the workload).
    IdleQubit,
    /// `QA003` — a gate that is the identity up to global phase (dead
    /// weight in every tomography variant).
    IdentityGate,
    /// `QA004` — adjacent gates on the same operands that a transpiler
    /// would fuse or cancel (adjoint pairs, same-axis rotations).
    FusibleAdjacent,
    /// `QA101` — the cut specification does not bipartition the circuit
    /// (lifted from `CutSpec::validate` / fragment extraction).
    InvalidCut,
    /// `QA102` — the `4^K` wire-cut sampling overhead exceeds
    /// [`AnalysisConfig::max_sampling_overhead`].
    SamplingOverhead,
    /// `QA103` — the upstream fragment applies only real gates: every cut
    /// is a golden-Y candidate the configured policy is not exploiting.
    GoldenStructure,
    /// `QA201` — the shot budget cannot cover even the fully-golden
    /// minimal plan, so no execution path can succeed.
    BudgetBelowFloor,
    /// `QA202` — a setting is scheduled at zero shots (its histogram
    /// would be empty and the contraction reads garbage).
    ZeroShotSetting,
    /// `QA203` — neglect-coverage report: standard vs fully-golden
    /// setting counts and whether static golden structure exists.
    NeglectCoverage,
    /// `QA204` — the budget starves the *standard* plan; only a golden
    /// shrink (detection) can let this run succeed.
    StandardPlanStarved,
    /// `QA301` — one consumer key is fed by several distinct circuits;
    /// their merged histograms would mix different distributions.
    ConsumerAliasing,
    /// `QA302` — a node whose consumers all request zero shots (it can
    /// only ever deliver an empty histogram).
    OrphanNode,
    /// `QA303` — structurally-hash-equal circuits occupying distinct
    /// nodes: missed merges with dedup off, true collisions with it on.
    MissedDedup,
    /// `QA304` — predicted prefix-sharing ratio of the planned batch.
    PrefixSharing,
    /// `QA401` — the warm-start cache is enabled but the backend does not
    /// guarantee deterministic seeding, so cached histograms will not be
    /// bit-reproducible across processes.
    CacheNondeterministicSeeding,
    /// `QA402` — the cache byte budget is below a single planned node's
    /// histogram entry: every store immediately evicts (thrash) and the
    /// cache can never serve a warm hit.
    CacheByteBudgetThrash,
    /// `QA403` — the configured cache file exists but did not load (it
    /// is unreadable, foreign, of another format version, or corrupt), so
    /// the run degrades to a cold start. The message is the opened
    /// cache's own load notice.
    CacheDegraded,
    /// `QA501` — the backend injects faults but retries are disabled
    /// (`max_attempts ≤ 1`): every transient fault is immediately
    /// permanent.
    FaultProneNoRetry,
    /// `QA502` — the per-job timeout is below a planned node's predicted
    /// device duration: that node can never deliver in time and every
    /// attempt is wasted device occupation.
    TimeoutBelowJobDuration,
    /// `QA503` — `FailurePolicy::Degrade` is configured where losing any
    /// one setting already makes reconstruction impossible (no basis
    /// neglect drops a SIC preparation, which every identity term reads;
    /// a cut at two neglects has no basis left to drop), so degradation
    /// can never salvage.
    DegradeUnsalvageable,
    /// `QA601` — the chosen cut is Pareto-dominated by another wire edge
    /// under the dataflow cost model (at least as many proven-golden
    /// bases, no more settings, no more entangling crossings, better
    /// somewhere).
    DominatedCutPlacement,
    /// `QA602` — a whole-circuit dead gate the light-cone domain proves
    /// cannot affect the final distribution (prep-dead or measure-dead);
    /// single-gate effective identities stay `QA003`'s turf.
    OutOfConeDeadGate,
    /// `QA603` — the stabilizer prover certifies golden bases the
    /// configured plan is not neglecting; `GoldenPolicy::ProveStatic`
    /// would bank them with zero detection shots.
    ProvableGoldenUndetected,
    /// `QA701` — a planned node's circuit is wider than every pool
    /// member's qubit capacity: no placement can seat it and it fails
    /// before a single shot is submitted.
    PoolCapacityInfeasible,
    /// `QA703` — the pool has more members than the planned graph has
    /// unique nodes, so some members necessarily sit idle every round.
    PoolIdleMember,
}

impl LintCode {
    /// Every code, in code order.
    pub const ALL: [LintCode; 25] = [
        LintCode::IdleQubit,
        LintCode::IdentityGate,
        LintCode::FusibleAdjacent,
        LintCode::InvalidCut,
        LintCode::SamplingOverhead,
        LintCode::GoldenStructure,
        LintCode::BudgetBelowFloor,
        LintCode::ZeroShotSetting,
        LintCode::NeglectCoverage,
        LintCode::StandardPlanStarved,
        LintCode::ConsumerAliasing,
        LintCode::OrphanNode,
        LintCode::MissedDedup,
        LintCode::PrefixSharing,
        LintCode::CacheNondeterministicSeeding,
        LintCode::CacheByteBudgetThrash,
        LintCode::CacheDegraded,
        LintCode::FaultProneNoRetry,
        LintCode::TimeoutBelowJobDuration,
        LintCode::DegradeUnsalvageable,
        LintCode::DominatedCutPlacement,
        LintCode::OutOfConeDeadGate,
        LintCode::ProvableGoldenUndetected,
        LintCode::PoolCapacityInfeasible,
        LintCode::PoolIdleMember,
    ];

    /// The stable `QAxxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::IdleQubit => "QA002",
            LintCode::IdentityGate => "QA003",
            LintCode::FusibleAdjacent => "QA004",
            LintCode::InvalidCut => "QA101",
            LintCode::SamplingOverhead => "QA102",
            LintCode::GoldenStructure => "QA103",
            LintCode::BudgetBelowFloor => "QA201",
            LintCode::ZeroShotSetting => "QA202",
            LintCode::NeglectCoverage => "QA203",
            LintCode::StandardPlanStarved => "QA204",
            LintCode::ConsumerAliasing => "QA301",
            LintCode::OrphanNode => "QA302",
            LintCode::MissedDedup => "QA303",
            LintCode::PrefixSharing => "QA304",
            LintCode::CacheNondeterministicSeeding => "QA401",
            LintCode::CacheByteBudgetThrash => "QA402",
            LintCode::CacheDegraded => "QA403",
            LintCode::FaultProneNoRetry => "QA501",
            LintCode::TimeoutBelowJobDuration => "QA502",
            LintCode::DegradeUnsalvageable => "QA503",
            LintCode::DominatedCutPlacement => "QA601",
            LintCode::OutOfConeDeadGate => "QA602",
            LintCode::ProvableGoldenUndetected => "QA603",
            LintCode::PoolCapacityInfeasible => "QA701",
            LintCode::PoolIdleMember => "QA703",
        }
    }

    /// The severity a finding carries unless overridden in
    /// [`AnalysisConfig::overrides`].
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::InvalidCut
            | LintCode::BudgetBelowFloor
            | LintCode::ZeroShotSetting
            | LintCode::ConsumerAliasing
            | LintCode::PoolCapacityInfeasible => Severity::Deny,
            LintCode::IdleQubit
            | LintCode::IdentityGate
            | LintCode::SamplingOverhead
            | LintCode::StandardPlanStarved
            | LintCode::OrphanNode
            | LintCode::MissedDedup
            | LintCode::CacheNondeterministicSeeding
            | LintCode::CacheByteBudgetThrash
            | LintCode::CacheDegraded
            | LintCode::FaultProneNoRetry
            | LintCode::TimeoutBelowJobDuration
            | LintCode::DegradeUnsalvageable => Severity::Warn,
            LintCode::FusibleAdjacent
            | LintCode::GoldenStructure
            | LintCode::NeglectCoverage
            | LintCode::PrefixSharing
            | LintCode::DominatedCutPlacement
            | LintCode::OutOfConeDeadGate
            | LintCode::ProvableGoldenUndetected
            | LintCode::PoolIdleMember => Severity::Allow,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of one lint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The code of the lint that fired.
    pub code: LintCode,
    /// The effective severity (after [`AnalysisConfig`] overrides).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.code, self.severity, self.message)
    }
}

/// The findings of one [`analyze`] pass (allow-level findings are already
/// filtered out; only warnings and denials remain).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// No findings at warn level or above.
    pub fn is_clean(&self) -> bool {
        self.items.is_empty()
    }

    /// True when any finding is deny-level (the pipeline refuses to run).
    pub fn has_deny(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Deny)
    }

    /// The deny-level findings.
    pub fn deny(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter().filter(|d| d.severity == Severity::Deny)
    }

    /// The warn-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter().filter(|d| d.severity == Severity::Warn)
    }

    /// All findings, in emission (layer) order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.items.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no findings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when some finding carries `code`.
    pub fn contains(&self, code: LintCode) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Consumes the findings as a vector (what the run report stores).
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return f.write_str("no findings");
        }
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Configuration of the static-analysis gate, carried on
/// [`ExecutionOptions::analysis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Lint each run's own plan inside
    /// [`crate::pipeline::CutExecutor::run`] before it executes (default
    /// `true`). Off skips the gate entirely — no diagnostics are computed
    /// or reported.
    pub enabled: bool,
    /// [`LintCode::SamplingOverhead`] fires when the `4^K` wire-cut
    /// sampling overhead exceeds this bound (default `4^6 = 4096`).
    pub max_sampling_overhead: f64,
    /// Schedule and graph lints are skipped when the standard plan's
    /// setting count exceeds this bound (default `10_000`). [`analyze`]
    /// then also skips planning the schedule and graph, so it stays cheap
    /// at large `K`; a run still plans what it executes.
    pub max_planned_jobs: usize,
    /// Per-code severity overrides, later entries winning. Demote a noisy
    /// warn to [`Severity::Allow`] or promote an informational lint to
    /// [`Severity::Warn`] to surface its report.
    pub overrides: Vec<(LintCode, Severity)>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            enabled: true,
            max_sampling_overhead: 4096.0,
            max_planned_jobs: 10_000,
            overrides: Vec::new(),
        }
    }
}

impl AnalysisConfig {
    /// The configuration that skips the gate entirely.
    pub fn disabled() -> Self {
        AnalysisConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Returns the configuration with one more severity override.
    pub fn with_override(mut self, code: LintCode, severity: Severity) -> Self {
        self.overrides.push((code, severity));
        self
    }

    /// The effective severity of `code` under this configuration.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| code.default_severity())
    }
}

/// The pipeline layer a lint reads. [`analyze`] runs layers in order and
/// stops descending when a layer's soundness premise is broken (an invalid
/// cut stops before scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The workload circuit itself.
    Circuit,
    /// The cut specification against the circuit.
    Cut,
    /// The shot schedule of the plan that runs.
    Schedule,
    /// The planned (unexecuted) job graph.
    Graph,
    /// The warm-start cache configuration (and, when a backend is known,
    /// its seeding discipline).
    Cache,
    /// The fault-tolerance configuration: retry policy, failure policy,
    /// and (when a backend is known) its fault discipline.
    Execution,
    /// The dataflow facts: stabilizer-domain golden proofs, light-cone
    /// dead gates, and the wire-edge cut cost model.
    Dataflow,
}

/// Everything a lint may read. Fields are `Option` because the layers are
/// populated progressively — a lint must skip (not fire) when its inputs
/// are absent, which is how [`lint_graph`] reuses the graph lints without
/// a workload.
struct AnalysisContext<'a> {
    /// The workload circuit.
    circuit: Option<&'a Circuit>,
    /// The cut specification.
    cut: Option<&'a CutSpec>,
    /// The fragments (present once the cut validated).
    fragments: Option<&'a Fragments>,
    /// Why the workload does not fragment, when it does not.
    fragment_error: Option<&'a FragmentError>,
    /// The basis plan that runs (before online detection, the standard
    /// plan).
    plan: Option<&'a BasisPlan>,
    /// The stabilizer prover's per-cut proofs, when planning already ran
    /// the prover.
    proofs: Option<&'a [Vec<Pauli>]>,
    /// The resolved, normalized shot-allocation policy.
    allocation: Option<ShotAllocation>,
    /// The plan's shot schedule, when the budget can fund it.
    schedule: Option<&'a ShotSchedule>,
    /// The downstream preparation scheme.
    method: ReconstructionMethod,
    /// The plan's job graph (never executed by analysis).
    graph: Option<&'a JobGraph>,
    /// The opened warm-start cache, when one is enabled.
    cache: Option<&'a WarmCache>,
    /// What the backend reports of itself (known only on the
    /// [`analyze_with_backend`] path — [`analyze`] stays backend-free and
    /// leaves this `None`, so backend-dependent lints skip).
    backend: Option<BackendFacts<'a>>,
    /// The retry policy the engine will honor.
    retry: Option<&'a RetryPolicy>,
    /// The failure policy of the run.
    failure: Option<FailurePolicy>,
    /// The analysis configuration (thresholds, overrides).
    config: &'a AnalysisConfig,
}

/// What the gate queries of its backend, once, without running it.
struct BackendFacts<'a> {
    /// Whether the backend guarantees deterministic seeding.
    deterministic: bool,
    /// Whether the backend deliberately injects faults.
    fault_prone: bool,
    /// The backend's timing model, for predicting per-job device
    /// durations against a configured timeout.
    timing: &'a TimingModel,
    /// The members of the bound [`qcut_device::pool::BackendPool`], when
    /// the backend is one (`None` on bare backends, `Some(empty)` on an
    /// empty pool).
    pool: Option<Vec<MemberInfo>>,
}

impl<'a> BackendFacts<'a> {
    fn of<B: Backend + ?Sized>(backend: &'a B) -> Self {
        BackendFacts {
            deterministic: backend.deterministic_seeding(),
            fault_prone: backend.is_fault_prone(),
            timing: backend.timing(),
            pool: backend.as_pool().map(|p| p.member_info()),
        }
    }
}

impl<'a> AnalysisContext<'a> {
    /// A context carrying only a planned graph — what [`lint_graph`] runs
    /// the [`Layer::Graph`] lints against.
    fn for_graph(graph: &'a JobGraph, config: &'a AnalysisConfig) -> Self {
        AnalysisContext {
            circuit: None,
            cut: None,
            fragments: None,
            fragment_error: None,
            plan: None,
            proofs: None,
            allocation: None,
            schedule: None,
            method: ReconstructionMethod::Eigenstate,
            graph: Some(graph),
            cache: None,
            backend: None,
            retry: None,
            failure: None,
            config,
        }
    }
}

/// Collects findings, resolving each code's effective severity and
/// dropping allow-level findings.
struct Sink<'c> {
    config: &'c AnalysisConfig,
    items: Vec<Diagnostic>,
}

impl<'c> Sink<'c> {
    fn new(config: &'c AnalysisConfig) -> Self {
        Sink {
            config,
            items: Vec::new(),
        }
    }

    /// Records one finding of `code`. The configured severity is attached
    /// here; allow-level findings are dropped.
    fn report(&mut self, code: LintCode, message: String) {
        let severity = self.config.severity(code);
        if severity != Severity::Allow {
            self.items.push(Diagnostic {
                code,
                severity,
                message,
            });
        }
    }

    fn finish(self) -> Diagnostics {
        Diagnostics { items: self.items }
    }
}

/// One static check: reads its inputs from the [`AnalysisContext`], skips
/// silently when they are absent, and reports into the [`Sink`].
type Check = fn(&AnalysisContext<'_>, &mut Sink<'_>);

/// Every lint, in [`LintCode`] order: its code, the layer it reads, and
/// its check. [`analyze`] runs them layer by layer.
#[rustfmt::skip]
const LINTS: [(LintCode, Layer, Check); 25] = [
    (LintCode::IdleQubit, Layer::Circuit, idle_qubit),
    (LintCode::IdentityGate, Layer::Circuit, identity_gate),
    (LintCode::FusibleAdjacent, Layer::Circuit, fusible_adjacent),
    (LintCode::InvalidCut, Layer::Cut, invalid_cut),
    (LintCode::SamplingOverhead, Layer::Cut, sampling_overhead),
    (LintCode::GoldenStructure, Layer::Cut, golden_structure),
    (LintCode::BudgetBelowFloor, Layer::Schedule, budget_below_floor),
    (LintCode::ZeroShotSetting, Layer::Schedule, zero_shot_setting),
    (LintCode::NeglectCoverage, Layer::Schedule, neglect_coverage),
    (LintCode::StandardPlanStarved, Layer::Schedule, standard_plan_starved),
    (LintCode::ConsumerAliasing, Layer::Graph, consumer_aliasing),
    (LintCode::OrphanNode, Layer::Graph, orphan_node),
    (LintCode::MissedDedup, Layer::Graph, missed_dedup),
    (LintCode::PrefixSharing, Layer::Graph, prefix_sharing),
    (LintCode::CacheNondeterministicSeeding, Layer::Cache, cache_nondeterministic_seeding),
    (LintCode::CacheByteBudgetThrash, Layer::Graph, cache_byte_budget_thrash),
    (LintCode::CacheDegraded, Layer::Cache, cache_degraded),
    (LintCode::FaultProneNoRetry, Layer::Execution, fault_prone_no_retry),
    (LintCode::TimeoutBelowJobDuration, Layer::Graph, timeout_below_job_duration),
    (LintCode::DegradeUnsalvageable, Layer::Execution, degrade_unsalvageable),
    (LintCode::DominatedCutPlacement, Layer::Dataflow, dominated_cut_placement),
    (LintCode::OutOfConeDeadGate, Layer::Dataflow, out_of_cone_dead_gate),
    (LintCode::ProvableGoldenUndetected, Layer::Dataflow, provable_golden_undetected),
    (LintCode::PoolCapacityInfeasible, Layer::Graph, pool_capacity_infeasible),
    (LintCode::PoolIdleMember, Layer::Graph, pool_idle_member),
];

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

/// The fully-golden floor: the smallest plan any detection outcome could
/// shrink the standard plan to — two neglected bases per cut, leaving one
/// measurement basis and one eigenstate pair. What a budget must at least
/// cover for *any* execution path to exist (lint `QA201`).
pub fn minimal_golden_plan(num_cuts: usize) -> BasisPlan {
    let mut plan = BasisPlan::standard(num_cuts);
    for k in 0..num_cuts {
        plan.neglect(k, Pauli::X);
        plan.neglect(k, Pauli::Y);
    }
    plan
}

/// Setting count of `plan` without enumerating the cartesian products
/// (which would be exponential work for large `K`).
fn estimated_settings(plan: &BasisPlan, method: ReconstructionMethod) -> f64 {
    let up: f64 = (0..plan.num_cuts())
        .map(|k| plan.meas_bases(k).len() as f64)
        .product();
    up + PrepFrame::new(method, plan).estimated_settings()
}

/// Whether `a` then `b` on identical operands is a pair a transpiler
/// would merge (same-axis rotations) or cancel (adjoint pairs).
fn fusible_pair(a: &Gate, b: &Gate) -> bool {
    let same_family = matches!(
        (a, b),
        (Gate::Rx(_), Gate::Rx(_))
            | (Gate::Ry(_), Gate::Ry(_))
            | (Gate::Rz(_), Gate::Rz(_))
            | (Gate::Phase(_), Gate::Phase(_))
            | (Gate::Crx(_), Gate::Crx(_))
            | (Gate::Cry(_), Gate::Cry(_))
            | (Gate::Crz(_), Gate::Crz(_))
            | (Gate::CPhase(_), Gate::CPhase(_))
    );
    same_family || *b == a.adjoint()
}

// ---------------------------------------------------------------------
// Circuit-layer lints (QA0xx).
// ---------------------------------------------------------------------

fn idle_qubit(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(circuit) = ctx.circuit else { return };
    let idle = circuit.idle_qubits();
    if !idle.is_empty() {
        sink.report(
            LintCode::IdleQubit,
            format!(
                "{} qubit(s) have no instructions ({idle:?}); fragmenting \
                 cannot assign them to a side of the cut",
                idle.len()
            ),
        );
    }
}

fn identity_gate(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(circuit) = ctx.circuit else { return };
    for (i, inst) in circuit.instructions().iter().enumerate() {
        if inst.gate.is_effective_identity() {
            sink.report(
                LintCode::IdentityGate,
                format!(
                    "instruction #{i} ({inst}) is the identity up to global \
                     phase; it costs simulation work in every tomography \
                     variant and changes nothing"
                ),
            );
        }
    }
}

fn fusible_adjacent(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(circuit) = ctx.circuit else { return };
    let instructions = circuit.instructions();
    for (i, inst) in instructions.iter().enumerate() {
        // The next instruction touching any of this one's qubits: if it
        // uses exactly the same operands, nothing can act between them
        // on those wires, so the pair is genuinely adjacent.
        let Some((j, next)) = instructions
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, n)| n.qubits.iter().any(|q| inst.qubits.contains(q)))
        else {
            continue;
        };
        if next.qubits == inst.qubits && fusible_pair(&inst.gate, &next.gate) {
            sink.report(
                LintCode::FusibleAdjacent,
                format!(
                    "instructions #{i} ({inst}) and #{j} ({next}) are \
                     adjacent on the same operands and would fuse to one \
                     gate (or cancel)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cut-layer lints (QA1xx).
// ---------------------------------------------------------------------

fn invalid_cut(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    if let Some(e) = ctx.fragment_error {
        sink.report(LintCode::InvalidCut, format!("cut does not fragment: {e}"));
    }
}

fn sampling_overhead(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(cut) = ctx.cut else { return };
    let k = cut.num_cuts();
    let overhead = 4f64.powi(k as i32);
    if overhead > ctx.config.max_sampling_overhead {
        sink.report(
            LintCode::SamplingOverhead,
            format!(
                "{k} wire cuts carry a 4^{k} = {overhead:.0} sampling \
                 overhead, above the configured bound of {:.0}; shot \
                 requirements grow by that factor for the same accuracy",
                ctx.config.max_sampling_overhead
            ),
        );
    }
}

fn golden_structure(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(fragments) = ctx.fragments else {
        return;
    };
    if fragments.upstream.circuit.is_real() {
        sink.report(
            LintCode::GoldenStructure,
            format!(
                "the upstream fragment applies only real gates, so every \
                 state at the {} cut port(s) is real and its Y expectation \
                 vanishes identically — each cut is a golden-Y candidate; \
                 GoldenPolicy::detect_exact() or DetectOnline would shrink \
                 the plan",
                fragments.num_cuts
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Schedule-layer lints (QA2xx).
// ---------------------------------------------------------------------

fn budget_below_floor(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(plan), Some(allocation)) = (ctx.plan, ctx.allocation) else {
        return;
    };
    let floor = minimal_golden_plan(plan.num_cuts());
    if let Err(e) = schedule(&floor, ctx.method, allocation) {
        sink.report(
            LintCode::BudgetBelowFloor,
            format!(
                "the budget cannot cover even the fully-golden minimal \
                 plan, so no detection outcome can make this run \
                 schedulable: {e}"
            ),
        );
    }
}

fn zero_shot_setting(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(allocation) = ctx.allocation else {
        return;
    };
    if let ShotAllocation::Uniform {
        shots_per_setting: 0,
    } = allocation
    {
        sink.report(
            LintCode::ZeroShotSetting,
            "the uniform policy schedules zero shots per setting; every \
             histogram would be empty and the contraction reads garbage"
                .to_string(),
        );
        return;
    }
    if let Some(sched) = ctx.schedule {
        if sched.num_settings() > 0 && sched.min_shots() == 0 {
            sink.report(
                LintCode::ZeroShotSetting,
                "the planned schedule leaves at least one setting at \
                 zero shots; its empty histogram would poison the \
                 contraction"
                    .to_string(),
            );
        }
    }
}

fn neglect_coverage(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(plan), Some(fragments)) = (ctx.plan, ctx.fragments) else {
        return;
    };
    let standard = estimated_settings(&BasisPlan::standard(plan.num_cuts()), ctx.method);
    let floor = estimated_settings(&minimal_golden_plan(plan.num_cuts()), ctx.method);
    let golden = if fragments.upstream.circuit.is_real() {
        "static golden-Y structure present"
    } else {
        "no static golden structure detected"
    };
    sink.report(
        LintCode::NeglectCoverage,
        format!(
            "plan coverage over {} cut(s): {standard:.0} settings standard, \
             {floor:.0} at the fully-golden floor; {golden}",
            plan.num_cuts()
        ),
    );
}

fn standard_plan_starved(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(plan), Some(allocation)) = (ctx.plan, ctx.allocation) else {
        return;
    };
    // Only meaningful when some plan fits (otherwise QA201 already
    // denies the workload outright).
    let floor = minimal_golden_plan(plan.num_cuts());
    if schedule(&floor, ctx.method, allocation).is_err() {
        return;
    }
    let standard = BasisPlan::standard(plan.num_cuts());
    if let Err(e) = schedule(&standard, ctx.method, allocation) {
        sink.report(
            LintCode::StandardPlanStarved,
            format!(
                "the budget starves the standard (no-neglect) plan — the \
                 run fails at allocation time unless golden detection \
                 shrinks the plan first: {e}"
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Graph-layer lints (QA3xx).
// ---------------------------------------------------------------------

fn consumer_aliasing(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(graph) = ctx.graph else { return };
    let mut feeders: std::collections::HashMap<crate::jobgraph::ConsumerKey, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, (_, consumers)) in graph.node_jobs().enumerate() {
        for &(key, _) in consumers {
            feeders.entry(key).or_default().push(i);
        }
    }
    let mut aliased: Vec<_> = feeders.into_iter().filter(|(_, v)| v.len() > 1).collect();
    aliased.sort_by_key(|(k, _)| *k);
    for (key, nodes) in aliased {
        sink.report(
            LintCode::ConsumerAliasing,
            format!(
                "consumer {key:?} is fed by {} distinct circuits (nodes \
                 {nodes:?}); their histograms would merge into one stream \
                 and mix different distributions",
                nodes.len()
            ),
        );
    }
}

fn orphan_node(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(graph) = ctx.graph else { return };
    let orphans: Vec<usize> = graph
        .node_jobs()
        .enumerate()
        .filter(|(_, (_, consumers))| consumers.iter().map(|&(_, s)| s).max().unwrap_or(0) == 0)
        .map(|(i, _)| i)
        .collect();
    if !orphans.is_empty() {
        sink.report(
            LintCode::OrphanNode,
            format!(
                "{} of {} nodes are orphaned (every consumer requests zero \
                 shots, e.g. nodes {:?}); they can only deliver empty \
                 histograms",
                orphans.len(),
                graph.num_nodes(),
                &orphans[..orphans.len().min(5)]
            ),
        );
    }
}

fn missed_dedup(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(graph) = ctx.graph else { return };
    let mut by_hash: std::collections::HashMap<u64, Vec<(usize, &Circuit)>> =
        std::collections::HashMap::new();
    let nodes = graph.node_hashes().zip(graph.node_circuits());
    for (i, (hash, circuit)) in nodes.enumerate() {
        by_hash.entry(hash).or_default().push((i, circuit));
    }
    let mut groups: Vec<_> = by_hash.into_values().filter(|g| g.len() > 1).collect();
    groups.sort_by_key(|g| g[0].0);
    for group in groups {
        let indices: Vec<usize> = group.iter().map(|&(i, _)| i).collect();
        let all_equal = group.windows(2).all(|w| w[0].1 == w[1].1);
        let message = if all_equal {
            format!(
                "nodes {indices:?} hold structurally identical circuits \
                 that were not merged (dedup disabled?); each executes \
                 its shots separately"
            )
        } else {
            format!(
                "nodes {indices:?} collide on the 64-bit structural hash \
                 while holding different circuits; dedup stays sound (it \
                 confirms equality) but hash-keyed caches must too"
            )
        };
        sink.report(LintCode::MissedDedup, message);
    }
}

fn prefix_sharing(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(graph) = ctx.graph else { return };
    if graph.num_nodes() == 0 {
        return;
    }
    let profile = graph.prefix_profile();
    let saved = profile.gates_saved();
    let ratio = if profile.gates_naive == 0 {
        0.0
    } else {
        100.0 * saved as f64 / profile.gates_naive as f64
    };
    sink.report(
        LintCode::PrefixSharing,
        format!(
            "planned batch of {} unique jobs: {} naive gate applications \
             → {} on a prefix-sharing backend ({ratio:.1}% predicted \
             saving)",
            profile.circuits, profile.gates_naive, profile.gates_shared
        ),
    );
}

// ---------------------------------------------------------------------
// Cache-layer lints (QA4xx).
// ---------------------------------------------------------------------

fn cache_nondeterministic_seeding(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    if ctx.cache.is_none() {
        return;
    }
    // Backend-free analyze() leaves the discipline unknown: skip, don't
    // guess (a lint must not fire on absent inputs).
    if ctx.backend.as_ref().is_some_and(|b| !b.deterministic) {
        sink.report(
            LintCode::CacheNondeterministicSeeding,
            "the warm-start cache is enabled but the backend does not \
             guarantee deterministic seeding; cached histograms remain \
             statistically valid samples, but warm reruns will not be \
             bit-reproducible across processes"
                .to_string(),
        );
    }
}

fn cache_byte_budget_thrash(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(cache), Some(graph)) = (ctx.cache, ctx.graph) else {
        return;
    };
    // The worst single entry the planned graph could store: if even one
    // node's histogram cannot fit, storing it evicts everything and the
    // cache thrashes without ever serving a warm hit.
    let worst = graph
        .node_jobs()
        .map(|(circuit, consumers)| {
            let shots = consumers.iter().map(|&(_, s)| s).max().unwrap_or(0);
            qcut_cache::estimated_entry_bytes(circuit, shots)
        })
        .max();
    if let Some(worst) = worst {
        if worst > cache.config().byte_budget {
            sink.report(
                LintCode::CacheByteBudgetThrash,
                format!(
                    "the cache byte budget ({} B) is below the largest \
                     planned node's estimated histogram entry ({worst} B); \
                     every store of that node immediately evicts it and \
                     warm runs stay cold",
                    cache.config().byte_budget
                ),
            );
        }
    }
}

// Reads the load notice of the opened cache: `WarmCache::open` already
// decoded the file, so the lint does no IO of its own. A missing file
// leaves no notice (a cold start is the normal first run).
fn cache_degraded(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    if let Some(why) = ctx.cache.and_then(WarmCache::degradation) {
        sink.report(
            LintCode::CacheDegraded,
            format!("warm-start cache degraded to a cold start: {why}"),
        );
    }
}

// ---------------------------------------------------------------------
// Execution-layer lints (QA5xx): fault tolerance.
// ---------------------------------------------------------------------

fn fault_prone_no_retry(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    // Backend-free analyze() leaves the fault discipline unknown:
    // skip, don't guess.
    let fault_prone = ctx.backend.as_ref().map(|b| b.fault_prone);
    let (Some(true), Some(retry)) = (fault_prone, ctx.retry) else {
        return;
    };
    if retry.max_attempts <= 1 {
        sink.report(
            LintCode::FaultProneNoRetry,
            "the backend reports itself fault-prone but retries are \
             disabled (max_attempts ≤ 1): every transient fault is \
             immediately permanent; set RetryPolicy::max_attempts > 1 \
             to ride out the fault schedule"
                .to_string(),
        );
    }
}

fn timeout_below_job_duration(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let timing = ctx.backend.as_ref().map(|b| b.timing);
    let (Some(graph), Some(timing), Some(retry)) = (ctx.graph, timing, ctx.retry) else {
        return;
    };
    let Some(timeout) = retry.per_job_timeout else {
        return;
    };
    let doomed: Vec<(usize, f64)> = graph
        .node_jobs()
        .enumerate()
        .filter_map(|(i, (circuit, consumers))| {
            let shots = consumers.iter().map(|&(_, s)| s).max().unwrap_or(0);
            let predicted = timing.job_duration(circuit, shots);
            (predicted > timeout.as_secs_f64()).then_some((i, predicted))
        })
        .collect();
    if let Some(&(node, predicted)) = doomed.first() {
        sink.report(
            LintCode::TimeoutBelowJobDuration,
            format!(
                "{} of {} planned node(s) predict a device duration above \
                 the {:.3} s per-job timeout (e.g. node {node} at \
                 {predicted:.3} s); those jobs time out on every attempt \
                 and each attempt still wastes the full device occupation",
                doomed.len(),
                graph.num_nodes(),
                timeout.as_secs_f64(),
            ),
        );
    }
}

fn degrade_unsalvageable(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    if ctx.failure != Some(FailurePolicy::Degrade) {
        return;
    }
    // The scheme's states are the same at every cut, so one cut answers
    // for any plan — also before the run is planned.
    if PrepFrame::new(ctx.method, &BasisPlan::standard(1)).has_undroppable_state() {
        sink.report(
            LintCode::DegradeUnsalvageable,
            "FailurePolicy::Degrade is configured with SIC preparations, \
             but the identity term of every cut reads every SIC \
             preparation, so no basis neglect drops a lost one: a \
             downstream failure can never degrade gracefully — it fails \
             exactly like FailurePolicy::Fail"
                .to_string(),
        );
        return;
    }
    let Some(plan) = ctx.plan else { return };
    let saturated: Vec<usize> = (0..plan.num_cuts())
        .filter(|&k| plan.neglected()[k].len() >= 2)
        .collect();
    if !saturated.is_empty() {
        sink.report(
            LintCode::DegradeUnsalvageable,
            format!(
                "FailurePolicy::Degrade is configured but cut(s) \
                 {saturated:?} already neglect two bases — no further \
                 basis can be dropped there, so losing one of their \
                 settings cannot degrade gracefully"
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Dataflow-layer lints (QA6xx).
// ---------------------------------------------------------------------

fn dominated_cut_placement(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(circuit), Some(cut)) = (ctx.circuit, ctx.cut) else {
        return;
    };
    if cut.num_cuts() != 1 {
        return;
    }
    let loc = cut.cuts()[0];
    // Static facts only (no statevector simulation inside a lint).
    let report = crate::dataflow::cut_report(circuit, &AnalysisConfig::disabled());
    let Some(chosen) = report
        .candidates
        .iter()
        .find(|c| c.qubit == loc.qubit && c.position == loc.after_op)
    else {
        return;
    };
    let dominating = report.candidates.iter().find(|d| {
        d.feasible
            && (d.qubit, d.position) != (chosen.qubit, chosen.position)
            && d.proven_golden.len() >= chosen.proven_golden.len()
            && d.settings <= chosen.settings
            && d.entangling_crossings <= chosen.entangling_crossings
            && (d.proven_golden.len() > chosen.proven_golden.len()
                || d.settings < chosen.settings
                || d.entangling_crossings < chosen.entangling_crossings)
    });
    if let Some(d) = dominating {
        sink.report(
            LintCode::DominatedCutPlacement,
            format!(
                "the cut at qubit {} position {} is dominated by the wire \
                 edge at qubit {} position {}: {} vs {} proven-golden \
                 bases, {} vs {} settings, {} vs {} entangling crossings",
                loc.qubit,
                loc.after_op,
                d.qubit,
                d.position,
                d.proven_golden.len(),
                chosen.proven_golden.len(),
                d.settings,
                chosen.settings,
                d.entangling_crossings,
                chosen.entangling_crossings,
            ),
        );
    }
}

fn out_of_cone_dead_gate(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let Some(circuit) = ctx.circuit else { return };
    let insts = circuit.instructions();
    for dead in qcut_circuit::cone::dead_instructions(circuit) {
        let inst = &insts[dead.index];
        // Single-gate effective identities are QA003's finding.
        if inst.gate.is_effective_identity() {
            continue;
        }
        let why = match dead.kind {
            qcut_circuit::cone::DeadGateKind::PrepDead => {
                "acts by a global phase on the still-|0> operands"
            }
            qcut_circuit::cone::DeadGateKind::MeasureDead => {
                "its forward light cone is all diagonal, so it commutes \
                 to the final measurement it cannot affect"
            }
        };
        sink.report(
            LintCode::OutOfConeDeadGate,
            format!(
                "instruction #{} ({inst}) cannot affect the final \
                 distribution: {why}",
                dead.index
            ),
        );
    }
}

fn provable_golden_undetected(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(fragments), Some(plan)) = (ctx.fragments, ctx.plan) else {
        return;
    };
    let proved;
    let proofs = match ctx.proofs {
        Some(proofs) => proofs,
        None => {
            proved = crate::dataflow::prove_golden_bases(&fragments.upstream, fragments.num_cuts);
            &proved
        }
    };
    for (cut, proven) in proofs.iter().enumerate() {
        let missed: Vec<Pauli> = proven
            .iter()
            .copied()
            .filter(|p| !plan.neglected()[cut].contains(p))
            .collect();
        if !missed.is_empty() {
            sink.report(
                LintCode::ProvableGoldenUndetected,
                format!(
                    "cut {cut}: the stabilizer prover certifies {missed:?} \
                     golden but the plan still measures them; \
                     GoldenPolicy::ProveStatic would neglect them with \
                     zero detection shots"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pool-layer lints (QA7xx): multi-backend sharding.
// ---------------------------------------------------------------------

/// The bound pool's members, when the backend is known and is a pool.
fn pool_members<'c>(ctx: &'c AnalysisContext<'_>) -> Option<&'c [MemberInfo]> {
    ctx.backend.as_ref()?.pool.as_deref()
}

fn pool_capacity_infeasible(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(graph), Some(members)) = (ctx.graph, pool_members(ctx)) else {
        return;
    };
    let ceiling = members.iter().map(|m| m.capacity).max().unwrap_or(0);
    let doomed: Vec<(usize, usize)> = graph
        .node_jobs()
        .enumerate()
        .filter_map(|(i, (circuit, _))| {
            let width = circuit.num_qubits();
            (width > ceiling).then_some((i, width))
        })
        .collect();
    if let Some(&(node, width)) = doomed.first() {
        sink.report(
            LintCode::PoolCapacityInfeasible,
            format!(
                "{} of {} planned node(s) exceed every pool member's \
                 capacity (e.g. node {node} at {width} qubits vs a \
                 {ceiling}-qubit ceiling across {} member(s)); no \
                 placement can seat them and they fail before submission",
                doomed.len(),
                graph.num_nodes(),
                members.len(),
            ),
        );
    }
}

fn pool_idle_member(ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    let (Some(graph), Some(members)) = (ctx.graph, pool_members(ctx)) else {
        return;
    };
    let nodes = graph.num_nodes();
    if nodes > 0 && members.len() > nodes {
        sink.report(
            LintCode::PoolIdleMember,
            format!(
                "the pool has {} members but the planned graph holds only \
                 {nodes} unique node(s); at least {} member(s) sit idle \
                 every round regardless of the placement policy",
                members.len(),
                members.len() - nodes,
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Runs `layer`'s lints, skipping any whose effective severity is
/// [`Severity::Allow`]: the sink would drop its findings, so the work
/// (fragmenting per wire edge, proving, building a prefix forest) is not
/// done.
fn run_layer(layer: Layer, ctx: &AnalysisContext<'_>, sink: &mut Sink<'_>) {
    for (code, _, check) in LINTS.iter().filter(|row| row.1 == layer) {
        if ctx.config.severity(*code) != Severity::Allow {
            check(ctx, sink);
        }
    }
}

/// Statically analyzes a workload: the circuit, the cut against it, the
/// standard plan's shot schedule and job graph, and the warm-start cache
/// configuration. Pure: nothing executes, no backend is touched, no
/// file is read (`QA403` reads the opened cache's load notice), and the
/// graph is planned through the same [`RunPlan`] a run executes from,
/// under [`GoldenPolicy::Disabled`].
///
/// Layers run in order and stop descending when a premise is broken: an
/// invalid cut (`QA101`) stops before scheduling, and an over-budget
/// setting count ([`AnalysisConfig::max_planned_jobs`]) skips the
/// schedule/graph layers so analysis stays cheap at large `K`.
pub fn analyze(circuit: &Circuit, cut: &CutSpec, options: &ExecutionOptions) -> Diagnostics {
    let mut planned = RunPlan::resolve(circuit, cut, &GoldenPolicy::Disabled);
    analyze_inner(circuit, cut, options, None, &mut planned)
}

/// [`analyze`] plus the backend-dependent lints: knowing the backend
/// lets `QA401` check its seeding discipline, `QA501` its fault
/// discipline, `QA502` predict per-job device durations from its
/// timing model, and the `QA70x` pool lints read its member roster when
/// it is a [`qcut_device::pool::BackendPool`]. Still static — the
/// backend is only *queried* ([`Backend::deterministic_seeding`],
/// [`Backend::is_fault_prone`], [`Backend::timing`],
/// [`Backend::as_pool`]), never run.
pub fn analyze_with_backend<B: Backend + ?Sized>(
    circuit: &Circuit,
    cut: &CutSpec,
    options: &ExecutionOptions,
    backend: &B,
) -> Diagnostics {
    let mut planned = RunPlan::resolve(circuit, cut, &GoldenPolicy::Disabled);
    gate(circuit, cut, options, backend, &mut planned)
}

/// The pipeline's gate: [`analyze_with_backend`]'s lints over the run's
/// own `planned` result, planning its gather round (which the run then
/// executes) when the lints read it.
pub(crate) fn gate<B: Backend + ?Sized>(
    circuit: &Circuit,
    cut: &CutSpec,
    options: &ExecutionOptions,
    backend: &B,
    planned: &mut Result<RunPlan, PipelineError>,
) -> Diagnostics {
    let backend = Some(BackendFacts::of(backend));
    analyze_inner(circuit, cut, options, backend, planned)
}

fn analyze_inner(
    circuit: &Circuit,
    cut: &CutSpec,
    options: &ExecutionOptions,
    backend: Option<BackendFacts<'_>>,
    planned: &mut Result<RunPlan, PipelineError>,
) -> Diagnostics {
    let config = &options.analysis;
    // Schedule and graph lints would enumerate the standard plan's
    // settings; past the bound they are skipped (QA102 flags the blowup)
    // and the gather is left for the run to plan.
    let mut gather_linted = false;
    if let Ok(run) = planned {
        let standard = BasisPlan::standard(run.fragments.num_cuts);
        gather_linted =
            estimated_settings(&standard, options.method) <= config.max_planned_jobs as f64;
        if gather_linted {
            run.plan_gather(options);
        }
    }
    let mut sink = Sink::new(config);
    let mut ctx = AnalysisContext {
        circuit: Some(circuit),
        cut: Some(cut),
        fragments: None,
        fragment_error: None,
        plan: None,
        proofs: None,
        allocation: Some(options.resolved_allocation().normalized()),
        schedule: None,
        method: options.method,
        graph: None,
        cache: options.cache.as_deref(),
        backend,
        retry: Some(&options.retry),
        failure: Some(options.failure),
        config,
    };
    // Cache-configuration and execution-policy lints read no circuit
    // state, so they run first and always — an invalid cut stopping the
    // descent below must not hide a misconfigured cache or a doomed
    // retry/degrade configuration.
    run_layer(Layer::Cache, &ctx, &mut sink);
    run_layer(Layer::Execution, &ctx, &mut sink);
    run_layer(Layer::Circuit, &ctx, &mut sink);

    let run = match &*planned {
        Ok(run) => run,
        // QA101 reports the failure; nothing deeper is well-defined.
        Err(PipelineError::Fragment(e)) => {
            ctx.fragment_error = Some(e);
            run_layer(Layer::Cut, &ctx, &mut sink);
            return sink.finish();
        }
        // A policy the run rejects with its own typed error.
        Err(_) => return sink.finish(),
    };
    ctx.fragments = Some(&run.fragments);
    ctx.plan = Some(&run.basis);
    ctx.proofs = run.proofs.as_deref();
    run_layer(Layer::Cut, &ctx, &mut sink);
    // Dataflow lints read the circuit, the cut, the fragments and the
    // plan — all present once the cut validated.
    run_layer(Layer::Dataflow, &ctx, &mut sink);
    if !gather_linted {
        return sink.finish();
    }
    let gather = run.gather.as_ref().and_then(|g| g.as_ref().ok());
    ctx.schedule = gather.map(|g| &g.schedule);
    run_layer(Layer::Schedule, &ctx, &mut sink);
    ctx.graph = gather.map(|g| &g.graph);
    run_layer(Layer::Graph, &ctx, &mut sink);
    sink.finish()
}

/// Runs only the graph-layer lints against an explicit planned graph
/// — the entry point for callers that build graphs directly on the engine
/// rather than through [`crate::pipeline::CutExecutor`].
pub fn lint_graph(graph: &JobGraph, config: &AnalysisConfig) -> Diagnostics {
    let ctx = AnalysisContext::for_graph(graph, config);
    let mut sink = Sink::new(config);
    run_layer(Layer::Graph, &ctx, &mut sink);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcut_cache::CacheConfig;
    use qcut_circuit::ansatz::GoldenAnsatz;

    #[test]
    fn registry_covers_every_code_once() {
        let codes: Vec<LintCode> = LINTS.iter().map(|&(code, _, _)| code).collect();
        assert_eq!(codes, LintCode::ALL, "one row per code, in code order");
        for layer in [
            Layer::Circuit,
            Layer::Cut,
            Layer::Schedule,
            Layer::Graph,
            Layer::Cache,
            Layer::Execution,
            Layer::Dataflow,
        ] {
            assert!(
                LINTS.iter().any(|&(_, l, _)| l == layer),
                "no lint reads {layer:?}"
            );
        }
    }

    #[test]
    fn codes_display_stably() {
        assert_eq!(LintCode::IdleQubit.to_string(), "QA002");
        assert_eq!(LintCode::PrefixSharing.to_string(), "QA304");
        assert_eq!(LintCode::CacheNondeterministicSeeding.to_string(), "QA401");
        assert_eq!(LintCode::CacheByteBudgetThrash.to_string(), "QA402");
        assert_eq!(LintCode::CacheDegraded.to_string(), "QA403");
        assert_eq!(LintCode::FaultProneNoRetry.to_string(), "QA501");
        assert_eq!(LintCode::TimeoutBelowJobDuration.to_string(), "QA502");
        assert_eq!(LintCode::DegradeUnsalvageable.to_string(), "QA503");
        assert_eq!(LintCode::DominatedCutPlacement.to_string(), "QA601");
        assert_eq!(LintCode::OutOfConeDeadGate.to_string(), "QA602");
        assert_eq!(LintCode::ProvableGoldenUndetected.to_string(), "QA603");
        assert_eq!(LintCode::PoolCapacityInfeasible.to_string(), "QA701");
        assert_eq!(LintCode::PoolIdleMember.to_string(), "QA703");
    }

    #[test]
    fn overrides_replace_default_severity() {
        let config = AnalysisConfig::default()
            .with_override(LintCode::PrefixSharing, Severity::Warn)
            .with_override(LintCode::IdleQubit, Severity::Allow);
        assert_eq!(config.severity(LintCode::PrefixSharing), Severity::Warn);
        assert_eq!(config.severity(LintCode::IdleQubit), Severity::Allow);
        assert_eq!(config.severity(LintCode::InvalidCut), Severity::Deny);
        // Later overrides win.
        let config = config.with_override(LintCode::IdleQubit, Severity::Deny);
        assert_eq!(config.severity(LintCode::IdleQubit), Severity::Deny);
    }

    #[test]
    fn minimal_golden_plan_is_one_meas_basis_per_cut() {
        let plan = minimal_golden_plan(2);
        assert_eq!(plan.all_meas_settings().len(), 1);
        assert_eq!(plan.all_prep_settings().len(), 4);
        assert_eq!(
            estimated_settings(&plan, ReconstructionMethod::Eigenstate),
            5.0
        );
    }

    #[test]
    fn estimated_settings_matches_enumeration_on_small_plans() {
        for k in 1..=3usize {
            let plan = BasisPlan::standard(k);
            assert_eq!(
                estimated_settings(&plan, ReconstructionMethod::Eigenstate),
                plan.total_settings() as f64,
                "K={k}"
            );
        }
    }

    #[test]
    fn analyze_is_clean_on_the_golden_ansatz() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let diags = analyze(&circuit, &cut, &ExecutionOptions::default());
        assert!(diags.is_clean(), "unexpected findings: {diags}");
    }

    /// An ideal backend whose seeding discipline is disavowed — stands in
    /// for a third-party backend sampling from an OS entropy source.
    struct NondeterministicBackend(qcut_device::ideal::IdealBackend);

    impl Backend for NondeterministicBackend {
        fn name(&self) -> &str {
            "nondet"
        }
        fn num_qubits(&self) -> usize {
            self.0.num_qubits()
        }
        fn timing(&self) -> &qcut_device::timing::TimingModel {
            self.0.timing()
        }
        fn run(
            &self,
            circuit: &Circuit,
            shots: u64,
        ) -> Result<qcut_device::backend::ExecutionResult, qcut_device::backend::BackendError>
        {
            self.0.run(circuit, shots)
        }
        fn deterministic_seeding(&self) -> bool {
            false
        }
    }

    fn cached_options() -> ExecutionOptions {
        ExecutionOptions {
            cache: Some(std::sync::Arc::new(qcut_cache::WarmCache::open(
                CacheConfig::in_memory(),
            ))),
            ..Default::default()
        }
    }

    #[test]
    fn qa401_fires_only_with_cache_on_a_nondeterministic_backend() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let nondet = NondeterministicBackend(qcut_device::ideal::IdealBackend::new(1));
        let options = cached_options();

        let diags = analyze_with_backend(&circuit, &cut, &options, &nondet);
        assert!(
            diags.contains(LintCode::CacheNondeterministicSeeding),
            "cache + nondeterministic backend must warn: {diags}"
        );

        // Deterministic backend: clean.
        let ideal = qcut_device::ideal::IdealBackend::new(1);
        assert!(!analyze_with_backend(&circuit, &cut, &options, &ideal)
            .contains(LintCode::CacheNondeterministicSeeding));
        // No cache: clean even on the nondeterministic backend.
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &nondet)
                .contains(LintCode::CacheNondeterministicSeeding)
        );
        // Backend-free analyze: the discipline is unknown, so skip.
        assert!(!analyze(&circuit, &cut, &options).contains(LintCode::CacheNondeterministicSeeding));
    }

    #[test]
    fn qa402_fires_when_one_entry_cannot_fit_the_byte_budget() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let starved = ExecutionOptions {
            cache: Some(std::sync::Arc::new(qcut_cache::WarmCache::open(
                CacheConfig::in_memory().with_byte_budget(8),
            ))),
            ..Default::default()
        };
        let diags = analyze(&circuit, &cut, &starved);
        assert!(
            diags.contains(LintCode::CacheByteBudgetThrash),
            "an 8-byte budget cannot hold any histogram entry: {diags}"
        );
        // The default budget comfortably fits the planned entries.
        assert!(
            !analyze(&circuit, &cut, &cached_options()).contains(LintCode::CacheByteBudgetThrash)
        );
    }

    #[test]
    fn qa403_static_header_check_flags_foreign_and_accepts_valid_files() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let path = std::env::temp_dir().join(format!("qcut-qa403-{}.qwc", std::process::id()));
        let opts_at = |path: &std::path::Path| ExecutionOptions {
            cache: Some(std::sync::Arc::new(qcut_cache::WarmCache::open(
                CacheConfig::at_path(path),
            ))),
            ..Default::default()
        };

        // Missing file: a cold start is the normal first run, not a finding.
        std::fs::remove_file(&path).ok();
        assert!(!analyze(&circuit, &cut, &opts_at(&path)).contains(LintCode::CacheDegraded));

        // Foreign bytes: flagged.
        std::fs::write(&path, b"PNG\x89 or whatever this is").expect("write temp file");
        assert!(analyze(&circuit, &cut, &opts_at(&path)).contains(LintCode::CacheDegraded));

        // A genuinely persisted cache: clean.
        let writer = qcut_cache::WarmCache::open(CacheConfig::at_path(&path));
        writer.take_degradation();
        writer.persist().expect("persist empty cache");
        assert!(!analyze(&circuit, &cut, &opts_at(&path)).contains(LintCode::CacheDegraded));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn qa501_fires_for_a_fault_prone_backend_without_retries() {
        use qcut_device::fault::FaultInjectingBackend;
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let flaky = FaultInjectingBackend::new(qcut_device::ideal::IdealBackend::new(1))
            .with_fault_probability(0.2, 7);

        // Default RetryPolicy is a single attempt: warn.
        let diags = analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &flaky);
        assert!(
            diags.contains(LintCode::FaultProneNoRetry),
            "fault-prone backend + no retries must warn: {diags}"
        );

        // Retries enabled: clean.
        let retrying = ExecutionOptions {
            retry: RetryPolicy::with_attempts(3),
            ..Default::default()
        };
        assert!(!analyze_with_backend(&circuit, &cut, &retrying, &flaky)
            .contains(LintCode::FaultProneNoRetry));

        // A transparent wrapper (no fault schedule) is not fault-prone.
        let plain = FaultInjectingBackend::new(qcut_device::ideal::IdealBackend::new(1));
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &plain)
                .contains(LintCode::FaultProneNoRetry)
        );

        // Backend-free analyze: the fault discipline is unknown, so skip.
        assert!(!analyze(&circuit, &cut, &ExecutionOptions::default())
            .contains(LintCode::FaultProneNoRetry));
    }

    #[test]
    fn qa502_fires_when_the_timeout_undercuts_predicted_job_durations() {
        use qcut_device::timing::TimingModel;
        use std::time::Duration;
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let timed = qcut_device::ideal::IdealBackend::new(1).with_timing(TimingModel::ibm_like());
        let with_timeout = |timeout| ExecutionOptions {
            retry: RetryPolicy {
                per_job_timeout: Some(timeout),
                ..RetryPolicy::with_attempts(2)
            },
            ..Default::default()
        };

        // 1 ns cannot fit any ibm-like job: every planned node is doomed.
        let diags = analyze_with_backend(
            &circuit,
            &cut,
            &with_timeout(Duration::from_nanos(1)),
            &timed,
        );
        assert!(
            diags.contains(LintCode::TimeoutBelowJobDuration),
            "1 ns timeout must flag every planned node: {diags}"
        );

        // A generous deadline: clean.
        assert!(!analyze_with_backend(
            &circuit,
            &cut,
            &with_timeout(Duration::from_secs(3600)),
            &timed
        )
        .contains(LintCode::TimeoutBelowJobDuration));
        // No deadline at all: clean.
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &timed)
                .contains(LintCode::TimeoutBelowJobDuration)
        );
        // Instantaneous timing model: nothing can exceed the deadline.
        let instant = qcut_device::ideal::IdealBackend::new(1);
        assert!(!analyze_with_backend(
            &circuit,
            &cut,
            &with_timeout(Duration::from_nanos(1)),
            &instant
        )
        .contains(LintCode::TimeoutBelowJobDuration));
        // Backend-free analyze: no timing model, so skip.
        assert!(
            !analyze(&circuit, &cut, &with_timeout(Duration::from_nanos(1)))
                .contains(LintCode::TimeoutBelowJobDuration)
        );
    }

    #[test]
    fn qa503_fires_for_degrade_with_sic_preparations() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let sic_degrade = ExecutionOptions {
            method: ReconstructionMethod::Sic,
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        let diags = analyze(&circuit, &cut, &sic_degrade);
        assert!(
            diags.contains(LintCode::DegradeUnsalvageable),
            "SIC + Degrade must warn: {diags}"
        );

        // SIC with the default Fail policy: clean.
        let sic_fail = ExecutionOptions {
            method: ReconstructionMethod::Sic,
            ..Default::default()
        };
        assert!(!analyze(&circuit, &cut, &sic_fail).contains(LintCode::DegradeUnsalvageable));
        // Eigenstate + Degrade on the standard plan: salvageable, clean.
        let eig_degrade = ExecutionOptions {
            failure: FailurePolicy::Degrade,
            ..Default::default()
        };
        assert!(!analyze(&circuit, &cut, &eig_degrade).contains(LintCode::DegradeUnsalvageable));
    }

    /// An empty context for exercising single lints directly.
    fn bare_ctx(config: &AnalysisConfig) -> AnalysisContext<'_> {
        AnalysisContext {
            circuit: None,
            cut: None,
            fragments: None,
            fragment_error: None,
            plan: None,
            proofs: None,
            allocation: None,
            schedule: None,
            method: ReconstructionMethod::Eigenstate,
            graph: None,
            cache: None,
            backend: None,
            retry: None,
            failure: None,
            config,
        }
    }

    #[test]
    fn qa503_fires_when_a_cut_already_neglects_two_bases() {
        // The pipeline always analyzes the standard plan, so the saturated
        // arm is exercised against a hand-built context, the same way
        // engine-level callers can lint their own plans.
        let mut plan = BasisPlan::standard(2);
        assert!(plan.try_neglect(1, qcut_math::Pauli::X));
        assert!(plan.try_neglect(1, qcut_math::Pauli::Y));
        let config = AnalysisConfig::default();
        let ctx = AnalysisContext {
            plan: Some(&plan),
            failure: Some(FailurePolicy::Degrade),
            ..bare_ctx(&config)
        };
        let mut sink = Sink::new(&config);
        degrade_unsalvageable(&ctx, &mut sink);
        let diags = sink.finish();
        assert!(
            diags.contains(LintCode::DegradeUnsalvageable),
            "a cut at two neglects cannot degrade further: {diags}"
        );
        assert!(diags.to_string().contains("[1]"), "names the cut: {diags}");

        // One neglect per cut still leaves room: clean.
        let roomy = BasisPlan::with_neglected(vec![Some(qcut_math::Pauli::Y), None]);
        let ctx = AnalysisContext {
            plan: Some(&roomy),
            failure: Some(FailurePolicy::Degrade),
            ..bare_ctx(&config)
        };
        let mut sink = Sink::new(&config);
        degrade_unsalvageable(&ctx, &mut sink);
        assert!(!sink.finish().contains(LintCode::DegradeUnsalvageable));
    }

    #[test]
    fn qa601_flags_a_dominated_cut_and_accepts_the_dominant_one() {
        // Cutting after the T leaves a widened (proof-free) 9-setting cut;
        // cutting qubit 1 after the CX is provably golden in two bases with
        // zero remaining entangling crossings — strictly better everywhere.
        let mut c = Circuit::new(2);
        c.h(0);
        c.t(0);
        c.cx(0, 1);
        c.h(1);
        let promoted = ExecutionOptions {
            analysis: AnalysisConfig::default()
                .with_override(LintCode::DominatedCutPlacement, Severity::Warn),
            ..Default::default()
        };
        let diags = analyze(&c, &CutSpec::single(0, 1), &promoted);
        assert!(
            diags.contains(LintCode::DominatedCutPlacement),
            "the post-T cut is dominated: {diags}"
        );
        assert!(
            !analyze(&c, &CutSpec::single(1, 0), &promoted)
                .contains(LintCode::DominatedCutPlacement),
            "nothing dominates the proven-golden zero-crossing cut"
        );
        // Default severity is allow: the finding is suppressed (and the
        // lint body never runs).
        assert!(
            !analyze(&c, &CutSpec::single(0, 1), &ExecutionOptions::default())
                .contains(LintCode::DominatedCutPlacement)
        );
    }

    #[test]
    fn qa602_reports_cone_dead_gates_but_not_effective_identities() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.s(0); // measure-dead: nothing after it on any wire
        c.rz(0.0, 1); // dead too, but as a single-gate identity (QA003)
        let config =
            AnalysisConfig::default().with_override(LintCode::OutOfConeDeadGate, Severity::Warn);
        let ctx = AnalysisContext {
            circuit: Some(&c),
            ..bare_ctx(&config)
        };
        let mut sink = Sink::new(&config);
        out_of_cone_dead_gate(&ctx, &mut sink);
        let diags = sink.finish();
        assert!(diags.contains(LintCode::OutOfConeDeadGate));
        let rendered = diags.to_string();
        assert!(rendered.contains("instruction #2"), "{rendered}");
        assert!(
            !rendered.contains("instruction #3"),
            "effective identities stay QA003's turf: {rendered}"
        );
    }

    #[test]
    fn qa603_recommends_prove_static_for_provable_golden_bases() {
        // The golden ansatz is real (not Clifford): the real-component
        // argument proves Y, which the standard plan measures anyway.
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let promoted = ExecutionOptions {
            analysis: AnalysisConfig::default()
                .with_override(LintCode::ProvableGoldenUndetected, Severity::Warn),
            ..Default::default()
        };
        let diags = analyze(&circuit, &cut, &promoted);
        assert!(
            diags.contains(LintCode::ProvableGoldenUndetected),
            "provable Y left undetected must surface: {diags}"
        );
        assert!(
            diags.to_string().contains("ProveStatic"),
            "the finding names the fix: {diags}"
        );
    }

    fn pool_of(members: usize, capacity: usize) -> qcut_device::pool::BackendPool {
        use qcut_device::pool::{BackendPool, PlacementPolicy};
        let mut pool = BackendPool::new(PlacementPolicy::RoundRobin);
        for i in 0..members {
            pool = pool.with_backend(
                qcut_device::ideal::IdealBackend::new(i as u64 + 1).with_capacity(capacity),
            );
        }
        pool
    }

    #[test]
    fn qa701_denies_nodes_wider_than_every_pool_member() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let cramped = pool_of(2, 2);
        let diags = analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &cramped);
        assert!(
            diags.contains(LintCode::PoolCapacityInfeasible),
            "2-qubit members cannot seat the planned fragments: {diags}"
        );
        assert!(diags.has_deny(), "QA701 denies by default: {diags}");

        // Roomy members: clean.
        assert!(!analyze_with_backend(
            &circuit,
            &cut,
            &ExecutionOptions::default(),
            &pool_of(2, 32)
        )
        .contains(LintCode::PoolCapacityInfeasible));
        // A bare backend has no member roster: skip, even when cramped.
        let bare = qcut_device::ideal::IdealBackend::new(1).with_capacity(2);
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &bare)
                .contains(LintCode::PoolCapacityInfeasible)
        );
    }

    #[test]
    fn qa703_reports_idle_members_when_promoted() {
        let (circuit, cut) = GoldenAnsatz::new(5, 3).build();
        let promoted = ExecutionOptions {
            analysis: AnalysisConfig::default()
                .with_override(LintCode::PoolIdleMember, Severity::Warn),
            ..Default::default()
        };
        let crowded = pool_of(16, 32);
        let diags = analyze_with_backend(&circuit, &cut, &promoted, &crowded);
        assert!(
            diags.contains(LintCode::PoolIdleMember),
            "16 members over a handful of nodes must report idleness: {diags}"
        );

        // Two members over the standard plan's nodes: everyone works.
        assert!(
            !analyze_with_backend(&circuit, &cut, &promoted, &pool_of(2, 32))
                .contains(LintCode::PoolIdleMember)
        );
        // Default severity is allow: suppressed.
        assert!(
            !analyze_with_backend(&circuit, &cut, &ExecutionOptions::default(), &crowded)
                .contains(LintCode::PoolIdleMember)
        );
    }

    #[test]
    fn diagnostics_display_is_line_per_finding() {
        let d = Diagnostics {
            items: vec![
                Diagnostic {
                    code: LintCode::IdleQubit,
                    severity: Severity::Warn,
                    message: "one".into(),
                },
                Diagnostic {
                    code: LintCode::InvalidCut,
                    severity: Severity::Deny,
                    message: "two".into(),
                },
            ],
        };
        let s = d.to_string();
        assert!(s.contains("QA002 [warn] one"));
        assert!(s.contains("QA101 [deny] two"));
        assert!(d.has_deny());
        assert_eq!(d.warnings().count(), 1);
        assert_eq!(Diagnostics::default().to_string(), "no findings");
    }
}
