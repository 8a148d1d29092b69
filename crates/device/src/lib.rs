//! # qcut-device
//!
//! Simulated quantum execution backends for the `qcut` workspace:
//!
//! * [`backend::Backend`] — the execution trait (run a circuit — or a whole
//!   batch of [`backend::JobSpec`]s in one submission — and get counts plus
//!   simulated device time);
//! * [`ideal::IdealBackend`] — noiseless state-vector backend (the paper's
//!   Aer simulator \[27\]);
//! * [`noisy::NoisyBackend`] — density-matrix backend with depolarizing +
//!   thermal + readout noise and an IBM-like timing model (the substitute
//!   for the paper's 5- and 7-qubit IBM devices \[28\], see DESIGN.md §4);
//! * [`fault::FaultInjectingBackend`] — deterministic fault-injection
//!   wrapper (seeded failure schedules, injected latency, corrupt counts)
//!   for exercising the retry and degradation machinery;
//! * [`pool::BackendPool`] — multi-backend sharding: a set of heterogeneous
//!   members behind one `Backend` facade, with capacity- and noise-aware
//!   placement policies (round-robin, least-loaded makespan balancing,
//!   noise-aware tiering) and failover-sibling lookup for the retry engine;
//! * [`presets`] — ready-made `ibm_5q` / `ibm_7q` / `aer_like` devices.
//!
//! ```
//! use qcut_device::prelude::*;
//! use qcut_circuit::circuit::Circuit;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let backend = aer_like(7);
//! let result = backend.run(&bell, 1000).unwrap();
//! assert_eq!(result.counts.total(), 1000);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod fault;
pub mod ideal;
pub mod noisy;
pub mod pool;
pub mod presets;
pub mod timing;

/// Common re-exports.
pub mod prelude {
    pub use crate::backend::{
        Backend, BackendError, BatchRun, BatchStats, ExecutionResult, JobResult, JobSpec,
        TransientKind,
    };
    pub use crate::fault::FaultInjectingBackend;
    pub use crate::ideal::IdealBackend;
    pub use crate::noisy::NoisyBackend;
    pub use crate::pool::{BackendPool, MemberInfo, Placement, PlacementPolicy};
    pub use crate::presets::{aer_like, ibm_5q, ibm_7q, very_noisy};
    pub use crate::timing::TimingModel;
}

pub use prelude::*;
