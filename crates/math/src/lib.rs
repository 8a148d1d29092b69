//! # qcut-math
//!
//! Numerical substrate for the `qcut` workspace: complex arithmetic, dense
//! complex linear algebra, the Pauli basis, named preparation states
//! (Pauli eigenstates and SIC states), QR decomposition, and Haar-random
//! unitaries.
//!
//! Everything is implemented from scratch on `std` + `rand`; the offline
//! dependency set has no complex-number or linear-algebra crates, and the
//! matrices in circuit cutting are small enough (`2^n` for n ≤ ~12) that a
//! simple dense row-major representation is the right engineering choice.
//!
//! ## Quick tour
//!
//! ```
//! use qcut_math::{c64, Complex, Matrix, Pauli};
//!
//! // ρ = ½ Σ_M tr(Mρ) M — the Pauli expansion behind wire cutting.
//! let rho = Matrix::two_by_two(c64(0.75, 0.0), c64(0.1, 0.1),
//!                              c64(0.1, -0.1), c64(0.25, 0.0));
//! let mut sum = Matrix::zeros(2, 2);
//! for p in Pauli::ALL {
//!     let coeff = p.matrix().trace_product(&rho);
//!     sum = &sum + &p.matrix().scale(coeff * 0.5);
//! }
//! assert!(sum.approx_eq(&rho, 1e-12));
//! ```

#![forbid(unsafe_code)]

pub mod approx;
pub mod complex;
pub mod matrix;
pub mod pauli;
pub mod qr;
pub mod random;
pub mod states;

pub use approx::{approx_eq, approx_eq_rel, TOL_ACCUM, TOL_GOLDEN, TOL_STRICT};
pub use complex::{c64, Complex};
pub use matrix::Matrix;
pub use pauli::{Pauli, PauliString};
pub use qr::{qr_decompose, qr_haar_fixed, QrDecomposition};
pub use random::{ginibre, haar_unitary, random_orthogonal, random_state};
pub use states::{pure_density, PrepState, SicState};
