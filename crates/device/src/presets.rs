//! Device presets mirroring the paper's experimental platforms.
//!
//! The paper runs on a 5-qubit and a 7-qubit IBM superconducting device
//! (Falcon-class, e.g. ibmq_lima / ibm_casablanca generation) plus the Aer
//! simulator. The noise parameters below sit in the publicly documented
//! range for those machines (1q error ~3×10⁻⁴, CX error ~1×10⁻², readout
//! ~2×10⁻², T1/T2 ~100 μs); exact per-calibration values are irrelevant —
//! Fig. 3 only needs "a noisy device", and Fig. 5 only needs the timing
//! model.

use crate::ideal::IdealBackend;
use crate::noisy::NoisyBackend;
use crate::timing::TimingModel;
use qcut_sim::noise::{KrausChannel, NoiseModel, ReadoutError, ThermalSpec};

/// The Aer-simulator stand-in: noiseless state-vector sampling.
pub fn aer_like(seed: u64) -> IdealBackend {
    IdealBackend::new(seed)
}

/// Shared Falcon-class noise model.
fn ibm_like_noise() -> NoiseModel {
    NoiseModel {
        one_qubit: Some(KrausChannel::depolarizing(3e-4)),
        two_qubit: Some(KrausChannel::depolarizing_two(1e-2)),
        thermal: Some(ThermalSpec {
            t1: 100e-6,
            t2: 80e-6,
            time_1q: 35e-9,
            time_2q: 300e-9,
        }),
        readout: ReadoutError {
            p01: 0.015,
            p10: 0.03,
        },
    }
}

/// A 5-qubit IBM-like device (the paper's smaller platform; runs the
/// 5-qubit circuit and its two 3-qubit fragments).
pub fn ibm_5q(seed: u64) -> NoisyBackend {
    NoisyBackend::new(
        "ibm_like_5q",
        5,
        ibm_like_noise(),
        TimingModel::ibm_like(),
        seed,
    )
}

/// A 7-qubit IBM-like device (the paper's larger platform; runs the
/// 7-qubit circuit and its two 4-qubit fragments).
pub fn ibm_7q(seed: u64) -> NoisyBackend {
    NoisyBackend::new(
        "ibm_like_7q",
        7,
        ibm_like_noise(),
        TimingModel::ibm_like(),
        seed,
    )
}

/// A deliberately very noisy device for stress tests.
pub fn very_noisy(seed: u64) -> NoisyBackend {
    NoisyBackend::new(
        "very_noisy",
        8,
        NoiseModel::depolarizing(0.01, 0.08, 0.05),
        TimingModel::ibm_like(),
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use qcut_circuit::circuit::Circuit;

    #[test]
    fn preset_capacities_match_paper_devices() {
        assert_eq!(ibm_5q(0).num_qubits(), 5);
        assert_eq!(ibm_7q(0).num_qubits(), 7);
    }

    #[test]
    fn five_qubit_device_cannot_run_seven_qubit_circuit() {
        // The motivating scenario for cutting.
        let b = ibm_5q(0);
        let mut c = Circuit::new(7);
        c.h(0);
        assert!(b.run(&c, 10).is_err());
    }

    #[test]
    fn noisier_preset_is_noisier() {
        use crate::noisy::{ideal_probabilities, tvd};
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mild = ibm_5q(0).exact_probabilities(&c);
        let harsh = very_noisy(0).exact_probabilities(&c);
        let ideal = ideal_probabilities(&c);
        assert!(tvd(&harsh, &ideal) > tvd(&mild, &ideal));
    }

    #[test]
    fn presets_run_the_paper_circuit_sizes() {
        use qcut_circuit::ansatz::GoldenAnsatz;
        let (c5, _) = GoldenAnsatz::new(5, 1).build();
        let r = ibm_5q(1).run(&c5, 100).unwrap();
        assert_eq!(r.counts.total(), 100);
        let (c7, _) = GoldenAnsatz::new(7, 1).build();
        let r7 = ibm_7q(1).run(&c7, 100).unwrap();
        assert_eq!(r7.counts.total(), 100);
    }
}
