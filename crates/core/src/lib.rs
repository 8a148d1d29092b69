//! # qcut-core
//!
//! The paper's contribution: quantum circuit cutting with **golden cutting
//! points** — neglecting basis elements whose upstream coefficients vanish
//! (Chen, Hansen, et al., IPPS 2023, arXiv:2304.04093).
//!
//! The crate implements, from the cut specification down to the final
//! distribution:
//!
//! * [`fragment`] — bipartitioning a circuit along validated wire cuts;
//! * [`basis`] — the measurement/preparation/reconstruction enumerations
//!   and how golden cuts shrink them (`3→2`, `6→4`, `4→3` per cut);
//! * [`tomography`] — the subcircuit of one measurement setting or
//!   preparation;
//! * `frame` (private) — the preparation frame: the paper's eigenstate
//!   scheme and the SIC alternative of §II-B as two values of one set of
//!   per-cut data (states, expansion coefficients, salvage rules), read
//!   by the planner, the schedule, the reconstruction and the gate;
//! * [`jobgraph`] — the batched, deduplicating JobGraph engine every
//!   backend execution (eigenstate, SIC, online detection, uncut) routes
//!   through: structurally identical subcircuits execute once and fan back
//!   out to every consumer;
//! * [`planner`] — graph builders translating a [`basis::BasisPlan`] into
//!   engine jobs: every gather — pipeline, offline and SIC — is a
//!   [`planner::gather_graph`];
//! * [`allocation`] — shot-allocation policies over the settings: the
//!   paper's uniform protocol, exact total-budget splits, usage-weighted
//!   budgets, and the two-round variance-adaptive pilot → refine policy;
//! * [`execution`] — [`execution::FragmentData`] and the offline
//!   [`execution::gather`] over the planner's graph;
//! * [`reconstruction`] — the tensor contraction of paper Eq. 13/14, plus
//!   exact (infinite-shot) variants used for verification and detection;
//! * [`variance`] — shot-noise propagation through the contraction:
//!   error bars, schedule scoring, and the adaptive policy's Neyman
//!   weights;
//! * [`golden`] — a-priori, exact, online, and statically-proven
//!   golden-point detection (online realises the paper's §IV future work);
//! * [`dataflow`] — abstract interpretation over the circuit DAG: the
//!   stabilizer-tableau domain behind
//!   [`golden::GoldenPolicy::ProveStatic`]'s zero-shot symbolic golden
//!   proofs, and the light-cone domain behind the wire-edge cut adviser
//!   ([`dataflow::cut_report`]);
//! * [`observable`] — Pauli/diagonal observable estimation on top of the
//!   reconstructed distribution;
//! * [`retry`] — fault-tolerance policies: [`retry::RetryPolicy`]
//!   (attempts / deterministic backoff / per-job timeout, honored inside
//!   the engine) and [`retry::FailurePolicy`] (fail with a typed salvage
//!   error vs degrade to a renormalized surviving plan);
//! * [`report`] — the accounting every run returns ([`report::RunReport`]);
//! * [`analysis`] — the static lint pass ([`analysis::analyze`]) every
//!   run is gated on: coded diagnostics over the circuit, the cut, the
//!   predicted schedule, the planned job graph, and the warm-start cache
//!   configuration, before any shot;
//! * [`pipeline`] — the one-call API: [`pipeline::CutExecutor`], with
//!   optional cross-run warm-start caching
//!   ([`pipeline::ExecutionOptions::cache`], backed by `qcut-cache`).
//!
//! ```
//! use qcut_circuit::ansatz::GoldenAnsatz;
//! use qcut_core::golden::GoldenPolicy;
//! use qcut_core::pipeline::{CutExecutor, ExecutionOptions};
//! use qcut_device::ideal::IdealBackend;
//! use qcut_math::Pauli;
//!
//! let (circuit, cut) = GoldenAnsatz::new(5, 42).build();
//! let backend = IdealBackend::new(7);
//! let executor = CutExecutor::new(&backend);
//! let run = executor
//!     .run(
//!         &circuit,
//!         &cut,
//!         GoldenPolicy::KnownAPriori(vec![(0, Pauli::Y)]),
//!         &ExecutionOptions { shots_per_setting: 2000, ..Default::default() },
//!     )
//!     .unwrap();
//! assert_eq!(run.report.subcircuits_executed, 6); // not 9: Y neglected
//! ```

#![forbid(unsafe_code)]

pub mod allocation;
pub mod analysis;
pub mod basis;
pub mod dataflow;
pub mod error;
pub mod execution;
pub mod fragment;
mod frame;
pub mod golden;
pub mod jobgraph;
pub mod observable;
pub mod pipeline;
pub mod planner;
pub mod reconstruction;
pub mod report;
pub mod retry;
pub mod tomography;
pub mod variance;

/// Cut specification types, re-exported from `qcut-circuit` for
/// convenience (they live there so ansatz generators can return them).
pub mod cut {
    pub use qcut_circuit::cut::{CutError, CutLocation, CutSpec};
}

/// Common re-exports.
pub mod prelude {
    pub use crate::allocation::{
        schedule_for_plan, usage_counts, AllocationError, ShotAllocation, ShotSchedule,
    };
    pub use crate::analysis::{
        analyze, analyze_with_backend, lint_graph, AnalysisConfig, Diagnostic, Diagnostics,
        LintCode, Severity,
    };
    pub use crate::basis::{BasisPlan, MeasBasis};
    pub use crate::cut::{CutError, CutLocation, CutSpec};
    pub use crate::dataflow::{
        cut_report, prove_golden_bases, proven_plan, CutCandidate, CutReport,
    };
    pub use crate::error::{ExecutionFailure, PipelineError};
    pub use crate::execution::{gather, FragmentData};
    pub use crate::fragment::{Fragment, FragmentError, FragmentRole, Fragmenter, Fragments};
    pub use crate::golden::{
        ExactDetector, GoldenPolicy, GoldenVerdict, OnlineConfig, OnlineDetector,
    };
    pub use crate::jobgraph::{
        Channel, ConsumerKey, GraphFailure, GraphRun, GraphStats, JobGraph, NodeFailure,
    };
    pub use crate::observable::{
        diagonalize_pauli, pauli_expectation, DiagonalObservable, PauliSumObservable,
    };
    pub use crate::pipeline::{
        CutExecutor, CutRun, ExecutionOptions, PostProcess, ReconstructionMethod, UncutRun,
    };
    pub use crate::planner::{add_downstream_jobs, add_upstream_jobs, schedule, uncut_graph};
    pub use crate::reconstruction::{
        contract, downstream_tensor, exact_reconstruct, reconstruct, upstream_tensor,
        CoefficientTensor,
    };
    pub use crate::report::{FailureRecord, RunReport, UncutReport};
    pub use crate::retry::{Backoff, FailurePolicy, RetryPolicy};
    pub use crate::variance::{
        empirical_variance, reconstruction_variance, variance_from_schedule, variance_from_tensors,
        ReconstructionError,
    };
}

pub use prelude::*;

/// End-to-end checks of the SIC preparation frame (paper §II-B's 4-state
/// alternative to the eigenstate preparations): exact SIC reconstruction is
/// the uncut distribution. The frame's own unit tests live in `frame`.
#[cfg(test)]
mod sic {
    mod tests {
        use crate::basis::BasisPlan;
        use crate::fragment::{Fragmenter, Fragments};
        use crate::pipeline::ReconstructionMethod;
        use crate::reconstruction::{contract, exact_downstream_tensor_for, exact_upstream_tensor};
        use qcut_circuit::ansatz::{GoldenAnsatz, MultiCutAnsatz};
        use qcut_math::Pauli;
        use qcut_sim::statevector::StateVector;
        use qcut_stats::distance::total_variation_distance;
        use qcut_stats::distribution::Distribution;

        fn exact_sic_reconstruct(frags: &Fragments, plan: &BasisPlan) -> Distribution {
            let up = exact_upstream_tensor(&frags.upstream, plan);
            let down =
                exact_downstream_tensor_for(&frags.downstream, plan, ReconstructionMethod::Sic);
            contract(frags, plan, &up, &down)
        }

        #[test]
        fn exact_sic_reconstruction_equals_uncut() {
            for seed in 0..4 {
                let (circuit, spec) = GoldenAnsatz::new(5, seed).build();
                let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
                let recon = exact_sic_reconstruct(&frags, &BasisPlan::standard(1));
                let sv = StateVector::from_circuit(&circuit);
                let t = Distribution::from_values(5, sv.probabilities());
                let d = total_variation_distance(&recon, &t);
                assert!(d < 1e-9, "seed {seed}: SIC reconstruction off by {d}");
            }
        }

        #[test]
        fn sic_with_golden_plan_still_reconstructs() {
            // Golden plan shrinks the contraction (3 Paulis) while SIC keeps
            // 4 preparations; result must still be exact on the golden ansatz.
            let (circuit, spec) = GoldenAnsatz::new(5, 3).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let plan = BasisPlan::with_neglected(vec![Some(Pauli::Y)]);
            let recon = exact_sic_reconstruct(&frags, &plan);
            let sv = StateVector::from_circuit(&circuit);
            let t = Distribution::from_values(5, sv.probabilities());
            assert!(total_variation_distance(&recon, &t) < 1e-9);
        }

        #[test]
        fn multi_cut_sic_reconstruction() {
            let (circuit, spec) = MultiCutAnsatz::new(2, 5).build();
            let frags = Fragmenter::fragment(&circuit, &spec).unwrap();
            let recon = exact_sic_reconstruct(&frags, &BasisPlan::standard(2));
            let sv = StateVector::from_circuit(&circuit);
            let t = Distribution::from_values(circuit.num_qubits(), sv.probabilities());
            assert!(total_variation_distance(&recon, &t) < 1e-9);
        }
    }
}
