//! Integration tests of the static-analysis subsystem (ISSUE 6): one
//! firing and one non-firing test per lint code, the example-workload
//! sweep, and the deny-before-any-shot pipeline contract.

use qcut::circuit::ansatz::MultiCutAnsatz;
use qcut::cutting::analysis::{
    analyze, lint_graph, AnalysisConfig, Diagnostics, LintCode, Severity,
};
use qcut::cutting::error::PipelineError;
use qcut::cutting::jobgraph::{Channel, JobGraph};
use qcut::device::backend::{Backend, BackendError, ExecutionResult};
use qcut::device::timing::TimingModel;
use qcut::prelude::*;
use std::f64::consts::PI;
use std::sync::Arc;

fn default_options() -> ExecutionOptions {
    ExecutionOptions::default()
}

/// Options whose analysis config promotes `code` to Warn so its
/// (default-Allow) findings become observable.
fn promoting(code: LintCode) -> ExecutionOptions {
    ExecutionOptions {
        analysis: AnalysisConfig::default().with_override(code, Severity::Warn),
        ..Default::default()
    }
}

/// A 2-qubit workload with one valid cut on qubit 0 whose upstream is NOT
/// real (contains an S gate): the deterministic QA103 negative control.
fn non_real_upstream_workload() -> (Circuit, CutSpec) {
    let mut c = Circuit::new(2);
    c.h(0);
    c.s(0);
    // Cut after the 2nd gate touching qubit 0 (position 1), then hand the
    // wire downstream.
    c.cx(0, 1);
    c.h(1);
    (c, CutSpec::single(0, 1))
}

fn count(diags: &Diagnostics, code: LintCode) -> usize {
    diags.iter().filter(|d| d.code == code).count()
}

// ---------------------------------------------------------------------
// QA002 IdleQubit
// ---------------------------------------------------------------------

#[test]
fn qa002_fires_on_untouched_qubit() {
    let mut c = Circuit::new(3);
    c.h(0);
    c.cx(0, 1); // qubit 2 never touched
    let diags = analyze(&c, &CutSpec::single(0, 0), &default_options());
    assert_eq!(count(&diags, LintCode::IdleQubit), 1);
    let warn = diags
        .iter()
        .find(|d| d.code == LintCode::IdleQubit)
        .expect("just counted");
    assert_eq!(warn.severity, Severity::Warn);
    assert!(warn.message.contains("[2]"), "names the qubit: {warn}");
    // Fragmenting independently rejects idle qubits, so the deny (QA101)
    // rides along.
    assert!(diags.contains(LintCode::InvalidCut));
}

#[test]
fn qa002_silent_when_every_qubit_is_active() {
    let (circuit, cut) = GoldenAnsatz::new(5, 12).build();
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::IdleQubit));
}

// ---------------------------------------------------------------------
// QA003 IdentityGate
// ---------------------------------------------------------------------

#[test]
fn qa003_fires_on_identity_angle_rotations() {
    let (mut circuit, cut) = GoldenAnsatz::new(5, 13).build();
    circuit.rz(0.0, 0);
    circuit.rx(2.0 * PI, 1); // identity up to global phase
    let diags = analyze(&circuit, &cut, &default_options());
    assert_eq!(count(&diags, LintCode::IdentityGate), 2);
    assert!(!diags.has_deny(), "QA003 is warn-level");
}

#[test]
fn qa003_silent_on_effective_rotations() {
    let (mut circuit, cut) = GoldenAnsatz::new(5, 14).build();
    circuit.rz(1.0, 0);
    circuit.push(Gate::Crz(2.0 * PI), &[0, 1]); // controlled: -I block, NOT identity
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::IdentityGate));
}

// ---------------------------------------------------------------------
// QA004 FusibleAdjacent (default Allow)
// ---------------------------------------------------------------------

#[test]
fn qa004_fires_on_adjacent_cancelling_pair_when_promoted() {
    let (mut circuit, cut) = GoldenAnsatz::new(5, 15).build();
    circuit.h(0);
    circuit.h(0); // adjoint pair
    circuit.rz(0.3, 1);
    circuit.rz(0.4, 1); // same-axis mergeable pair
    let diags = analyze(&circuit, &cut, &promoting(LintCode::FusibleAdjacent));
    assert!(count(&diags, LintCode::FusibleAdjacent) >= 2);
}

#[test]
fn qa004_is_allow_by_default_and_skips_separated_gates() {
    let (mut circuit, cut) = GoldenAnsatz::new(5, 15).build();
    circuit.h(0);
    circuit.h(0);
    // Allow-level findings are suppressed entirely by default.
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::FusibleAdjacent));

    // And with promotion, a gate acting between the pair defuses it.
    let mut c2 = Circuit::new(2);
    c2.h(0);
    c2.x(0);
    c2.h(0); // H X H is not fusible pairwise
    c2.cx(0, 1);
    let diags = analyze(
        &c2,
        &CutSpec::single(0, 2),
        &promoting(LintCode::FusibleAdjacent),
    );
    assert!(!diags.contains(LintCode::FusibleAdjacent));
}

// ---------------------------------------------------------------------
// QA101 InvalidCut
// ---------------------------------------------------------------------

#[test]
fn qa101_fires_on_out_of_range_cut_position() {
    let (circuit, _) = GoldenAnsatz::new(5, 16).build();
    let diags = analyze(&circuit, &CutSpec::single(0, 99), &default_options());
    assert!(diags.contains(LintCode::InvalidCut));
    assert!(diags.has_deny());
    // Scheduling and graph layers never ran.
    assert!(!diags.contains(LintCode::BudgetBelowFloor));
}

#[test]
fn qa101_silent_on_a_valid_bipartition() {
    let (circuit, cut) = MultiCutAnsatz::new(2, 17).build();
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::InvalidCut));
}

// ---------------------------------------------------------------------
// QA102 SamplingOverhead
// ---------------------------------------------------------------------

#[test]
fn qa102_fires_when_overhead_exceeds_the_configured_bound() {
    let (circuit, cut) = MultiCutAnsatz::new(2, 18).build();
    let opts = ExecutionOptions {
        analysis: AnalysisConfig {
            max_sampling_overhead: 10.0, // 4^2 = 16 > 10
            ..AnalysisConfig::default()
        },
        ..Default::default()
    };
    let diags = analyze(&circuit, &cut, &opts);
    assert_eq!(count(&diags, LintCode::SamplingOverhead), 1);
    assert!(!diags.has_deny());
}

#[test]
fn qa102_silent_under_the_default_bound() {
    let (circuit, cut) = MultiCutAnsatz::new(2, 18).build();
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::SamplingOverhead));
}

// ---------------------------------------------------------------------
// QA103 GoldenStructure (default Allow)
// ---------------------------------------------------------------------

#[test]
fn qa103_fires_on_real_upstream_when_promoted() {
    let (circuit, cut) = GoldenAnsatz::new(5, 19).build();
    let diags = analyze(&circuit, &cut, &promoting(LintCode::GoldenStructure));
    assert_eq!(count(&diags, LintCode::GoldenStructure), 1);
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::GoldenStructure && d.message.contains("golden-Y")));
}

#[test]
fn qa103_silent_on_non_real_upstream() {
    let (circuit, cut) = non_real_upstream_workload();
    let diags = analyze(&circuit, &cut, &promoting(LintCode::GoldenStructure));
    assert!(!diags.contains(LintCode::GoldenStructure));
    assert!(!diags.contains(LintCode::InvalidCut), "the cut is valid");
}

// ---------------------------------------------------------------------
// QA201 BudgetBelowFloor
// ---------------------------------------------------------------------

#[test]
fn qa201_fires_when_even_the_golden_floor_cannot_be_funded() {
    let (circuit, cut) = GoldenAnsatz::new(5, 20).build();
    // K=1 floor = 1 meas + 2 preps = 3 settings; a total of 2 fits none.
    let opts = ExecutionOptions::with_allocation(ShotAllocation::TotalBudget { total: 2 });
    let diags = analyze(&circuit, &cut, &opts);
    assert!(diags.contains(LintCode::BudgetBelowFloor));
    assert!(diags.has_deny());
}

#[test]
fn qa201_silent_when_the_floor_fits_even_if_standard_does_not() {
    let (circuit, cut) = GoldenAnsatz::new(5, 20).build();
    // 4 shots fund the 3-setting floor but starve the 9-setting standard
    // plan — that is QA204 territory, not QA201.
    let opts = ExecutionOptions::with_allocation(ShotAllocation::TotalBudget { total: 4 });
    let diags = analyze(&circuit, &cut, &opts);
    assert!(!diags.contains(LintCode::BudgetBelowFloor));
}

// ---------------------------------------------------------------------
// QA202 ZeroShotSetting
// ---------------------------------------------------------------------

#[test]
fn qa202_fires_on_zero_uniform_shots() {
    let (circuit, cut) = GoldenAnsatz::new(5, 21).build();
    let opts = ExecutionOptions {
        shots_per_setting: 0,
        ..Default::default()
    };
    let diags = analyze(&circuit, &cut, &opts);
    assert!(diags.contains(LintCode::ZeroShotSetting));
    assert!(diags.has_deny());
}

#[test]
fn qa202_silent_on_positive_budgets() {
    let (circuit, cut) = GoldenAnsatz::new(5, 21).build();
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::ZeroShotSetting));
}

// ---------------------------------------------------------------------
// QA203 NeglectCoverage (default Allow)
// ---------------------------------------------------------------------

#[test]
fn qa203_reports_coverage_when_promoted() {
    let (circuit, cut) = GoldenAnsatz::new(5, 22).build();
    let diags = analyze(&circuit, &cut, &promoting(LintCode::NeglectCoverage));
    let report = diags
        .iter()
        .find(|d| d.code == LintCode::NeglectCoverage)
        .expect("promoted coverage report fires on every valid workload");
    // K=1: 9 standard settings, 3 at the fully-golden floor.
    assert!(report.message.contains('9'), "standard count: {report}");
    assert!(report.message.contains('3'), "floor count: {report}");
    assert!(report.message.contains("golden-Y structure present"));
}

#[test]
fn qa203_suppressed_by_default() {
    let (circuit, cut) = GoldenAnsatz::new(5, 22).build();
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::NeglectCoverage));
}

// ---------------------------------------------------------------------
// QA204 StandardPlanStarved
// ---------------------------------------------------------------------

#[test]
fn qa204_fires_when_only_a_golden_shrink_can_rescue_the_budget() {
    let (circuit, cut) = GoldenAnsatz::new(5, 23).build();
    let opts = ExecutionOptions::with_allocation(ShotAllocation::TotalBudget { total: 4 });
    let diags = analyze(&circuit, &cut, &opts);
    assert_eq!(count(&diags, LintCode::StandardPlanStarved), 1);
    assert!(!diags.has_deny(), "QA204 is warn-level");
    assert!(!diags.contains(LintCode::BudgetBelowFloor));
}

#[test]
fn qa204_silent_when_the_standard_plan_is_funded() {
    let (circuit, cut) = GoldenAnsatz::new(5, 23).build();
    let opts = ExecutionOptions::with_allocation(ShotAllocation::TotalBudget { total: 9000 });
    let diags = analyze(&circuit, &cut, &opts);
    assert!(!diags.contains(LintCode::StandardPlanStarved));
}

// ---------------------------------------------------------------------
// QA301 ConsumerAliasing
// ---------------------------------------------------------------------

#[test]
fn qa301_fires_when_two_circuits_feed_one_consumer_key() {
    let mut a = Circuit::new(1);
    a.h(0);
    let mut b = Circuit::new(1);
    b.x(0);
    let mut graph = JobGraph::new();
    graph.add_job(a, (Channel::UpstreamMeas, 7), 100);
    graph.add_job(b, (Channel::UpstreamMeas, 7), 100); // same key, different circuit
    let diags = lint_graph(&graph, &AnalysisConfig::default());
    assert_eq!(count(&diags, LintCode::ConsumerAliasing), 1);
    assert!(diags.has_deny());
}

#[test]
fn qa301_silent_on_distinct_keys() {
    let mut a = Circuit::new(1);
    a.h(0);
    let mut b = Circuit::new(1);
    b.x(0);
    let mut graph = JobGraph::new();
    graph.add_job(a, (Channel::UpstreamMeas, 7), 100);
    graph.add_job(b, (Channel::UpstreamMeas, 8), 100);
    let diags = lint_graph(&graph, &AnalysisConfig::default());
    assert!(!diags.contains(LintCode::ConsumerAliasing));
}

// ---------------------------------------------------------------------
// QA302 OrphanNode
// ---------------------------------------------------------------------

#[test]
fn qa302_fires_on_zero_demand_nodes() {
    let mut a = Circuit::new(1);
    a.h(0);
    let mut graph = JobGraph::new();
    graph.add_job(a, (Channel::UpstreamMeas, 1), 0);
    let diags = lint_graph(&graph, &AnalysisConfig::default());
    assert_eq!(count(&diags, LintCode::OrphanNode), 1);
    assert!(!diags.has_deny(), "QA302 is warn-level");
}

#[test]
fn qa302_silent_when_every_node_has_demand() {
    let mut a = Circuit::new(1);
    a.h(0);
    let mut graph = JobGraph::new();
    graph.add_job(a, (Channel::UpstreamMeas, 1), 50);
    let diags = lint_graph(&graph, &AnalysisConfig::default());
    assert!(!diags.contains(LintCode::OrphanNode));
}

/// QA301 and QA302 are planner invariants: no graph the planner builds
/// feeds one consumer from two circuits or holds a zero-demand node, so
/// only hand-built graphs (above) can trip them.
#[test]
fn qa301_and_qa302_never_fire_on_planner_built_graphs() {
    use qcut::cutting::planner::RunPlan;
    for k in 1..=3 {
        let (circuit, cut) = MultiCutAnsatz::new(k, 7).build();
        for policy in [GoldenPolicy::Disabled, GoldenPolicy::ProveStatic] {
            for method in [ReconstructionMethod::Eigenstate, ReconstructionMethod::Sic] {
                for dedup in [true, false] {
                    let options = ExecutionOptions {
                        method,
                        dedup,
                        ..Default::default()
                    };
                    let gather = RunPlan::resolve(&circuit, &cut, &policy)
                        .expect("valid workload")
                        .take_gather(&options)
                        .expect("the default budget schedules every plan");
                    assert!(gather.graph.num_nodes() > 0);
                    let diags = lint_graph(&gather.graph, &options.analysis);
                    assert!(
                        !diags.contains(LintCode::ConsumerAliasing)
                            && !diags.contains(LintCode::OrphanNode),
                        "K = {k}, {policy:?}, {method:?}, dedup {dedup}: {diags}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// QA303 MissedDedup
// ---------------------------------------------------------------------

#[test]
fn qa303_fires_on_identical_circuits_with_dedup_off() {
    let mut a = Circuit::new(1);
    a.h(0);
    let mut graph = JobGraph::without_dedup();
    graph.add_job(a.clone(), (Channel::UpstreamMeas, 1), 100);
    graph.add_job(a, (Channel::UpstreamMeas, 2), 100);
    let diags = lint_graph(&graph, &AnalysisConfig::default());
    assert_eq!(count(&diags, LintCode::MissedDedup), 1);
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::MissedDedup && d.message.contains("identical")));
}

#[test]
fn qa303_silent_when_dedup_merged_the_pair() {
    let mut a = Circuit::new(1);
    a.h(0);
    let mut graph = JobGraph::new();
    graph.add_job(a.clone(), (Channel::UpstreamMeas, 1), 100);
    graph.add_job(a, (Channel::UpstreamMeas, 2), 100);
    assert_eq!(graph.num_nodes(), 1, "dedup merged the duplicates");
    let diags = lint_graph(&graph, &AnalysisConfig::default());
    assert!(!diags.contains(LintCode::MissedDedup));
}

// ---------------------------------------------------------------------
// QA304 PrefixSharing (default Allow)
// ---------------------------------------------------------------------

#[test]
fn qa304_reports_sharing_ratio_when_promoted() {
    let (circuit, cut) = GoldenAnsatz::new(5, 24).build();
    let diags = analyze(&circuit, &cut, &promoting(LintCode::PrefixSharing));
    let report = diags
        .iter()
        .find(|d| d.code == LintCode::PrefixSharing)
        .expect("planned graph exists for a valid workload");
    assert!(report.message.contains("unique jobs"), "{report}");
}

#[test]
fn qa304_suppressed_by_default() {
    let (circuit, cut) = GoldenAnsatz::new(5, 24).build();
    let diags = analyze(&circuit, &cut, &default_options());
    assert!(!diags.contains(LintCode::PrefixSharing));
}

// ---------------------------------------------------------------------
// Severity plumbing.
// ---------------------------------------------------------------------

/// The documented lint registry has a lint in each of the four pipeline
/// layers the pass was built around (circuit, cut, schedule, graph) and
/// one row per code.
#[test]
fn registry_spans_all_four_layers() {
    let layers: Vec<String> = include_str!("../ARCHITECTURE.md")
        .lines()
        .filter(|line| line.starts_with("| `QA"))
        .map(|line| line.split('|').nth(2).unwrap_or("").trim().to_string())
        .collect();
    for layer in ["circuit", "cut", "schedule", "graph"] {
        assert!(
            layers.iter().any(|l| l == layer),
            "no lint registered for {layer}"
        );
    }
    assert_eq!(layers.len(), LintCode::ALL.len());
}

/// The lint table in ARCHITECTURE.md has exactly one row per code, in
/// code order, with that code's default severity.
#[test]
fn architecture_lint_table_lists_every_code_with_its_default_severity() {
    let rows: Vec<(String, String)> = include_str!("../ARCHITECTURE.md")
        .lines()
        .filter(|line| line.starts_with("| `QA"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`').to_string(), cells[3].to_string())
        })
        .collect();
    let expected: Vec<(String, String)> = LintCode::ALL
        .iter()
        .map(|code| {
            let severity = format!("{:?}", code.default_severity());
            (code.as_str().to_string(), severity)
        })
        .collect();
    assert_eq!(rows, expected);
}

#[test]
fn demoting_a_deny_lets_the_finding_become_a_warning() {
    let (circuit, _) = GoldenAnsatz::new(5, 25).build();
    let opts = ExecutionOptions {
        analysis: AnalysisConfig::default().with_override(LintCode::InvalidCut, Severity::Warn),
        ..Default::default()
    };
    let diags = analyze(&circuit, &CutSpec::single(0, 99), &opts);
    assert!(diags.contains(LintCode::InvalidCut));
    assert!(!diags.has_deny());
}

// ---------------------------------------------------------------------
// Pipeline gating: deny before any shot.
// ---------------------------------------------------------------------

/// A backend that panics the moment anything tries to execute on it.
struct UntouchableBackend {
    timing: TimingModel,
}

impl UntouchableBackend {
    fn new() -> Self {
        UntouchableBackend {
            timing: TimingModel::instantaneous(),
        }
    }
}

impl Backend for UntouchableBackend {
    fn name(&self) -> &str {
        "untouchable"
    }
    fn num_qubits(&self) -> usize {
        64
    }
    fn timing(&self) -> &TimingModel {
        &self.timing
    }
    fn run(&self, _circuit: &Circuit, _shots: u64) -> Result<ExecutionResult, BackendError> {
        panic!("the static-analysis gate must reject this workload before any shot executes");
    }
}

#[test]
fn deny_level_workload_is_rejected_before_any_shot() {
    let (circuit, cut) = GoldenAnsatz::new(5, 26).build();
    let backend = UntouchableBackend::new();
    let exec = CutExecutor::new(&backend);
    let opts = ExecutionOptions {
        shots_per_setting: 0, // QA202: deny
        ..Default::default()
    };
    let err = exec
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .unwrap_err();
    let PipelineError::Analysis(diags) = err else {
        panic!("expected an analysis rejection, got {err:?}");
    };
    assert!(diags.contains(LintCode::ZeroShotSetting));
    assert!(diags.has_deny());
}

#[test]
fn warnings_ride_in_the_run_report() {
    let (circuit, cut) = GoldenAnsatz::new(5, 27).build();
    let backend = IdealBackend::new(28);
    let exec = CutExecutor::new(&backend);
    // Budget 8: floor (3) fits, standard plan (9 settings) starves →
    // QA204 warns. A golden policy then shrinks the plan to 6 settings,
    // which 8 shots fund, so the run succeeds WITH the warning attached.
    let opts = ExecutionOptions {
        allocation: Some(ShotAllocation::TotalBudget { total: 8 }),
        ..Default::default()
    };
    let run = exec
        .run(
            &circuit,
            &cut,
            GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
            &opts,
        )
        .expect("golden shrink makes the budget sufficient");
    assert!(run
        .report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::StandardPlanStarved));
}

#[test]
fn the_gate_lints_the_plan_the_run_executes() {
    let (circuit, cut) = MultiCutAnsatz::new(3, 7).build();
    let backend = IdealBackend::new(31);
    let exec = CutExecutor::new(&backend);
    let opts = ExecutionOptions {
        shots_per_setting: 200,
        analysis: AnalysisConfig::default()
            .with_override(LintCode::ProvableGoldenUndetected, Severity::Warn)
            .with_override(LintCode::PrefixSharing, Severity::Warn),
        ..Default::default()
    };
    let planned_jobs = |diags: &[qcut::cutting::analysis::Diagnostic]| -> usize {
        let sharing = diags
            .iter()
            .find(|d| d.code == LintCode::PrefixSharing)
            .expect("QA304 promoted to warn");
        let rest = sharing
            .message
            .strip_prefix("planned batch of ")
            .expect("QA304 message shape");
        rest.split(' ').next().unwrap().parse().unwrap()
    };

    // ProveStatic neglects the proven Y on every cut: QA603 has nothing
    // left to recommend, and QA304 counts the jobs that actually run.
    let proved = exec
        .run(&circuit, &cut, GoldenPolicy::ProveStatic, &opts)
        .expect("clean workload runs");
    assert!(proved
        .report
        .neglected
        .iter()
        .all(|n| n.contains(&Pauli::Y)));
    let diags = &proved.report.diagnostics;
    assert!(
        !diags
            .iter()
            .any(|d| d.code == LintCode::ProvableGoldenUndetected),
        "{diags:?}"
    );
    assert_eq!(planned_jobs(diags), proved.report.jobs_planned);

    // The standard plan leaves every proof unbanked.
    let standard = exec
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .expect("clean workload runs");
    let diags = &standard.report.diagnostics;
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.code == LintCode::ProvableGoldenUndetected)
            .count(),
        3,
        "{diags:?}"
    );
    assert_eq!(planned_jobs(diags), standard.report.jobs_planned);
}

#[test]
fn disabled_analysis_reports_no_diagnostics() {
    let (circuit, cut) = GoldenAnsatz::new(5, 29).build();
    let backend = IdealBackend::new(30);
    let exec = CutExecutor::new(&backend);
    let opts = ExecutionOptions {
        shots_per_setting: 500,
        analysis: AnalysisConfig::disabled(),
        ..Default::default()
    };
    let run = exec
        .run(&circuit, &cut, GoldenPolicy::Disabled, &opts)
        .expect("clean workload runs");
    assert!(run.report.diagnostics.is_empty());
}

// ---------------------------------------------------------------------
// Sweep: every checked-in example workload lints clean.
// ---------------------------------------------------------------------

#[test]
fn every_example_workload_passes_analyze_with_zero_warnings() {
    let mut workloads: Vec<(String, Circuit, CutSpec)> = Vec::new();
    for seed in [1, 2, 3, 42, 123] {
        let (c, cut) = GoldenAnsatz::new(5, seed).build();
        workloads.push((format!("GoldenAnsatz(5, {seed})"), c, cut));
        let (c, cut) = GoldenAnsatz::new(7, seed).build();
        workloads.push((format!("GoldenAnsatz(7, {seed})"), c, cut));
    }
    for k in 1..=3 {
        let (c, cut) = MultiCutAnsatz::new(k, 7).build();
        workloads.push((format!("MultiCutAnsatz({k}, 7)"), c, cut));
    }
    let mut u12 = Circuit::new(2);
    u12.h(0);
    u12.cx(0, 1);
    let mut u23 = Circuit::new(2);
    u23.ry(0.7, 0);
    u23.cx(0, 1);
    let (c, cut) = qcut::circuit::ansatz::three_qubit_example(&u12, &u23);
    workloads.push(("three_qubit_example".to_string(), c, cut));

    for (name, circuit, cut) in &workloads {
        let diags = analyze(circuit, cut, &default_options());
        assert!(diags.is_clean(), "{name} must lint clean, found:\n{diags}");
    }
}

// ---------------------------------------------------------------------
// Emission order: layer by layer, code order within a layer.
// ---------------------------------------------------------------------

/// Pins the order the gate emits findings in. Every lint is promoted to
/// at least Warn, and the workload trips at least one lint in each of the
/// seven layers: a junk cache file with an 8-byte budget, `Degrade` with
/// SIC, a pool of cramped, fault-prone, slow members with no retries and
/// a 1 ns timeout, an identity and a fusible pair of trailing gates, and
/// a sampling-overhead bound below `4^1`.
#[test]
fn the_gate_emits_findings_in_layer_then_code_order() {
    let (mut circuit, cut) = GoldenAnsatz::new(5, 3).build();
    let last = circuit.num_qubits() - 1;
    circuit.rz(0.0, last);
    circuit.rz(0.3, last);

    let path = std::env::temp_dir().join(format!("qcut-order-{}.qwc", std::process::id()));
    std::fs::write(&path, b"not a warm-start cache").expect("write temp file");
    let mut analysis = AnalysisConfig {
        max_sampling_overhead: 1.0,
        ..AnalysisConfig::default()
    };
    for code in LintCode::ALL {
        if code.default_severity() == Severity::Allow {
            analysis = analysis.with_override(code, Severity::Warn);
        }
    }
    let opts = ExecutionOptions {
        method: ReconstructionMethod::Sic,
        failure: FailurePolicy::Degrade,
        retry: RetryPolicy {
            per_job_timeout: Some(std::time::Duration::from_nanos(1)),
            ..RetryPolicy::default()
        },
        cache: Some(Arc::new(WarmCache::open(
            CacheConfig::at_path(&path).with_byte_budget(8),
        ))),
        analysis,
        ..Default::default()
    };
    let mut pool = BackendPool::new(PlacementPolicy::RoundRobin);
    for i in 0..16 {
        pool = pool.with_backend(
            FaultInjectingBackend::new(
                IdealBackend::new(i)
                    .with_timing(TimingModel::ibm_like())
                    .with_capacity(2),
            )
            .with_fault_probability(0.2, i),
        );
    }

    let diags = analyze_with_backend(&circuit, &cut, &opts, &pool);
    std::fs::remove_file(&path).ok();
    let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    let expected = [
        "QA403", // Cache
        "QA501", "QA503", // Execution
        "QA003", "QA004", // Circuit
        "QA102", "QA103", // Cut
        "QA602", "QA602", "QA603", // Dataflow
        "QA203", // Schedule
        "QA304", "QA402", "QA502", "QA701", "QA703", // Graph
    ];
    assert_eq!(codes, expected, "{diags}");
}
