//! Error type of the cutting pipeline.

use crate::allocation::AllocationError;
use crate::analysis::Diagnostics;
use crate::fragment::FragmentError;
use crate::jobgraph::{ConsumerKey, GraphFailure};
use crate::report::FailureRecord;
use qcut_circuit::cut::CutError;
use qcut_device::backend::BackendError;
use std::fmt;

/// Permanent execution failure under [`crate::retry::FailurePolicy::Fail`]:
/// which engine nodes failed (with the error and attempt count of each)
/// and which consumers *did* receive their counts — so a caller can see
/// exactly what a `Degrade` rerun would have salvaged.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionFailure {
    /// Per-node failure records, in engine insertion order.
    pub failed: Vec<FailureRecord>,
    /// Consumers whose data was delivered before the run was failed.
    pub succeeded: Vec<ConsumerKey>,
    /// The first failed node's backend error (the cause chain's next
    /// link).
    pub cause: BackendError,
}

/// Anything that can go wrong between "here is a circuit and a cut" and
/// "here is the reconstructed distribution".
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Static analysis found deny-level problems; nothing was executed.
    /// The payload carries every finding (denials and warnings alike).
    Analysis(Diagnostics),
    /// The cut specification is invalid for this circuit.
    Cut(CutError),
    /// Fragment extraction failed.
    Fragment(FragmentError),
    /// A backend job failed.
    Backend(BackendError),
    /// One or more engine nodes failed permanently (retries exhausted or
    /// deterministic errors) under [`crate::retry::FailurePolicy::Fail`].
    /// Names both the failed nodes and the salvaged consumers.
    Execution(ExecutionFailure),
    /// The shot-allocation policy cannot build a valid schedule (e.g. the
    /// total budget is smaller than the number of settings).
    Allocation(AllocationError),
    /// A [`crate::golden::GoldenPolicy::KnownAPriori`] pair names a cut
    /// the workload does not have.
    GoldenCutOutOfRange {
        /// The offending cut index.
        cut: usize,
        /// Number of cuts in the specification.
        num_cuts: usize,
    },
    /// Online detection ran out of shot budget without reaching a verdict
    /// for the named cut.
    DetectionUndecided {
        /// Index of the cut that could not be decided.
        cut: usize,
        /// Shots spent per setting before giving up.
        shots_spent: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Analysis(d) => {
                writeln!(f, "static analysis rejected the workload before execution:")?;
                // One finding per line, via the Diagnostics renderer.
                write!(f, "{d}")
            }
            PipelineError::Cut(e) => write!(f, "cut validation failed: {e}"),
            PipelineError::Fragment(e) => write!(f, "fragmenting failed: {e}"),
            PipelineError::Backend(e) => write!(f, "backend error: {e}"),
            PipelineError::Execution(e) => {
                let lost: u64 = e.failed.iter().map(|r| r.shots_lost).sum();
                write!(
                    f,
                    "{} node(s) failed permanently ({}); {} consumer(s) succeeded and \
                     {lost} shot(s) were lost — FailurePolicy::Degrade would salvage \
                     the surviving plan",
                    e.failed.len(),
                    e.cause,
                    e.succeeded.len(),
                )
            }
            PipelineError::Allocation(e) => write!(f, "shot allocation failed: {e}"),
            PipelineError::GoldenCutOutOfRange { cut, num_cuts } => write!(
                f,
                "the golden policy names cut {cut}, but the cut specification has \
                 {num_cuts} cut(s)"
            ),
            PipelineError::DetectionUndecided { cut, shots_spent } => write!(
                f,
                "online golden detection undecided for cut {cut} after {shots_spent} \
                 shots/setting; raise max_shots, loosen epsilon, or fall back to \
                 GoldenPolicy::Disabled"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    /// The underlying cause, so callers can walk `Pipeline → Backend`
    /// (or `→ Cut` / `→ Fragment` / `→ Allocation`) chains with the
    /// standard `source()` iteration instead of matching variants.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Cut(e) => Some(e),
            PipelineError::Fragment(e) => Some(e),
            PipelineError::Backend(e) => Some(e),
            PipelineError::Execution(e) => Some(&e.cause),
            PipelineError::Allocation(e) => Some(e),
            // Analysis diagnostics and detection verdicts are findings of
            // this crate itself — there is no deeper cause to expose.
            PipelineError::Analysis(_)
            | PipelineError::GoldenCutOutOfRange { .. }
            | PipelineError::DetectionUndecided { .. } => None,
        }
    }
}

impl From<CutError> for PipelineError {
    fn from(e: CutError) -> Self {
        PipelineError::Cut(e)
    }
}

impl From<FragmentError> for PipelineError {
    fn from(e: FragmentError) -> Self {
        PipelineError::Fragment(e)
    }
}

impl From<BackendError> for PipelineError {
    fn from(e: BackendError) -> Self {
        PipelineError::Backend(e)
    }
}

impl From<AllocationError> for PipelineError {
    fn from(e: AllocationError) -> Self {
        PipelineError::Allocation(e)
    }
}

impl From<Diagnostics> for PipelineError {
    fn from(d: Diagnostics) -> Self {
        PipelineError::Analysis(d)
    }
}

impl From<Box<GraphFailure>> for PipelineError {
    fn from(failure: Box<GraphFailure>) -> Self {
        let cause = failure
            .first_error()
            .cloned()
            .unwrap_or(BackendError::Unavailable);
        PipelineError::Execution(ExecutionFailure {
            failed: failure.failures.iter().map(FailureRecord::from).collect(),
            succeeded: failure.succeeded(),
            cause,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let e = PipelineError::DetectionUndecided {
            cut: 2,
            shots_spent: 9000,
        };
        let s = e.to_string();
        assert!(s.contains("cut 2"));
        assert!(s.contains("9000"));
        assert!(s.contains("max_shots"));
    }

    #[test]
    fn analysis_rejections_render_one_finding_per_line() {
        use crate::analysis::{analyze, AnalysisConfig};
        use crate::pipeline::ExecutionOptions;
        use qcut_circuit::circuit::Circuit;
        use qcut_circuit::cut::CutSpec;

        // An idle qubit and an invalid cut: two findings.
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        let opts = ExecutionOptions {
            analysis: AnalysisConfig::default(),
            ..Default::default()
        };
        let diags = analyze(&c, &CutSpec::single(2, 5), &opts);
        assert!(diags.len() >= 2, "{diags}");
        let e = PipelineError::Analysis(diags.clone());
        let msg = e.to_string();
        assert!(msg.starts_with("static analysis rejected the workload"));
        assert_eq!(
            msg.lines().count(),
            1 + diags.len(),
            "header plus one line per finding: {msg}"
        );
        assert!(msg.contains("QA101"), "{msg}");
    }

    #[test]
    fn conversions_wrap() {
        let e: PipelineError = CutError::Empty.into();
        assert!(matches!(e, PipelineError::Cut(CutError::Empty)));
        let e: PipelineError = BackendError::NoShots.into();
        assert!(matches!(e, PipelineError::Backend(BackendError::NoShots)));
        let e: PipelineError = AllocationError::BudgetTooSmall {
            total: 3,
            settings: 9,
        }
        .into();
        assert!(matches!(
            e,
            PipelineError::Allocation(AllocationError::BudgetTooSmall {
                total: 3,
                settings: 9
            })
        ));
        assert!(e.to_string().contains("shot allocation failed"));
    }

    #[test]
    fn source_chains_reach_the_underlying_cause() {
        use std::error::Error;

        let e = PipelineError::Backend(BackendError::NoShots);
        let cause = e.source().expect("backend errors have a cause");
        assert_eq!(cause.to_string(), BackendError::NoShots.to_string());
        assert!(cause.downcast_ref::<BackendError>().is_some());

        let e = PipelineError::Cut(CutError::Empty);
        assert!(e
            .source()
            .expect("cut")
            .downcast_ref::<CutError>()
            .is_some());
        let e = PipelineError::Allocation(AllocationError::BudgetTooSmall {
            total: 1,
            settings: 2,
        });
        assert!(e.source().is_some());

        // Findings of this crate itself terminate the chain.
        let e = PipelineError::DetectionUndecided {
            cut: 0,
            shots_spent: 1,
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn execution_failures_carry_salvage_and_chain_to_the_backend() {
        use crate::jobgraph::Channel;
        use std::error::Error;

        let e = PipelineError::Execution(ExecutionFailure {
            failed: vec![FailureRecord {
                consumers: vec![(Channel::UpstreamMeas, 2)],
                error: "transient network fault on attempt 3".to_string(),
                attempts: 3,
                shots_lost: 1000,
            }],
            succeeded: vec![(Channel::UpstreamMeas, 0), (Channel::DownstreamPrep, 1)],
            cause: BackendError::Transient {
                kind: qcut_device::backend::TransientKind::Network,
                attempt: 3,
            },
        });
        let msg = e.to_string();
        assert!(msg.contains("1 node(s) failed"), "{msg}");
        assert!(msg.contains("2 consumer(s) succeeded"), "{msg}");
        assert!(msg.contains("1000 shot(s)"), "{msg}");
        let cause = e.source().expect("execution failures have a cause");
        assert!(matches!(
            cause.downcast_ref::<BackendError>(),
            Some(BackendError::Transient { attempt: 3, .. })
        ));
    }
}
