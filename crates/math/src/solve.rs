//! Small dense linear solves (Gaussian elimination with partial pivoting),
//! for real and complex systems.
//!
//! The paper (§II-B) expects the SIC preparation basis to need linear
//! solves; the reconstruction uses the SIC frame's closed-form expansion
//! instead, so no workspace crate calls these today.

use crate::complex::Complex;
use crate::matrix::Matrix;

/// Error raised when a linear system is (numerically) singular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrix;

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrix {}

/// Solves the complex system `A x = b` in place of a copy; returns `x`.
///
/// `A` must be square with `A.rows() == b.len()`. Uses partial pivoting;
/// fine for the `n <= 16` systems this workspace needs.
pub fn solve_complex(a: &Matrix, b: &[Complex]) -> Result<Vec<Complex>, SingularMatrix> {
    assert!(a.is_square(), "solve requires a square matrix");
    let n = a.rows();
    assert_eq!(b.len(), n, "rhs length mismatch");

    // Augmented working copy.
    let mut m = a.clone();
    let mut x: Vec<Complex> = b.to_vec();

    for col in 0..n {
        // Partial pivot: pick the largest |entry| in this column.
        let mut pivot_row = col;
        let mut pivot_mag = m[(col, col)].abs();
        for row in (col + 1)..n {
            let mag = m[(row, col)].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = row;
            }
        }
        if pivot_mag < 1e-12 {
            return Err(SingularMatrix);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        let inv_pivot = m[(col, col)].inv();
        for row in (col + 1)..n {
            let factor = m[(row, col)] * inv_pivot;
            if factor == Complex::ZERO {
                continue;
            }
            for j in col..n {
                let upd = factor * m[(col, j)];
                m[(row, j)] -= upd;
            }
            let upd = factor * x[col];
            x[row] -= upd;
        }
    }

    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for j in (col + 1)..n {
            acc -= m[(col, j)] * x[j];
        }
        x[col] = acc * m[(col, col)].inv();
    }
    Ok(x)
}

/// Solves a real system `A x = b` where `A` is given row-major.
pub fn solve_real(a: &[f64], n: usize, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
    assert_eq!(a.len(), n * n, "matrix size mismatch");
    let cm = Matrix::from_real(n, n, a);
    let cb: Vec<Complex> = b.iter().map(|&v| Complex::from_re(v)).collect();
    let x = solve_complex(&cm, &cb)?;
    Ok(x.into_iter().map(|z| z.re).collect())
}

/// Inverts a square complex matrix by solving against the identity columns.
pub fn invert(a: &Matrix) -> Result<Matrix, SingularMatrix> {
    assert!(a.is_square(), "invert requires a square matrix");
    let n = a.rows();
    let mut out = Matrix::zeros(n, n);
    for j in 0..n {
        let mut e = vec![Complex::ZERO; n];
        e[j] = Complex::ONE;
        let col = solve_complex(a, &e)?;
        for i in 0..n {
            out[(i, j)] = col[i];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solves_known_real_system() {
        // 2x + y = 5; x - y = 1 => x = 2, y = 1
        let x = solve_real(&[2.0, 1.0, 1.0, -1.0], 2, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_then_multiply_round_trips() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [2usize, 4, 8] {
            let data = (0..n * n)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let a = Matrix::from_rows(n, n, data);
            let b: Vec<Complex> = (0..n)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let x = solve_complex(&a, &b).unwrap();
            let got = a.matvec(&x);
            for i in 0..n {
                assert!(got[i].approx_eq(b[i], 1e-9), "n={n} row {i}");
            }
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_real(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let b = [Complex::ONE, Complex::ONE];
        assert_eq!(solve_complex(&a, &b), Err(SingularMatrix));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading zero forces a row swap.
        let a = Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = solve_complex(&a, &[c64(3.0, 0.0), c64(7.0, 0.0)]).unwrap();
        assert!(x[0].approx_eq(c64(7.0, 0.0), 1e-12));
        assert!(x[1].approx_eq(c64(3.0, 0.0), 1e-12));
    }

    #[test]
    fn invert_gives_two_sided_inverse() {
        let mut rng = StdRng::seed_from_u64(29);
        let data = (0..16)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let a = Matrix::from_rows(4, 4, data);
        let inv = invert(&a).unwrap();
        assert!(a.matmul(&inv).approx_eq(&Matrix::identity(4), 1e-9));
        assert!(inv.matmul(&a).approx_eq(&Matrix::identity(4), 1e-9));
    }
}
