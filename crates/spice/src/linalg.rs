//! Dense linear algebra used by the MNA solver.
//!
//! Circuit matrices produced by the reproduction are small (tens of unknowns),
//! so a dense LU factorization with partial pivoting is simpler and faster
//! than a sparse solver while remaining numerically robust.

use crate::error::{Result, SpiceError};

/// A dense, row-major square matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n x n` matrix filled with zeros.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Adds `value` to the entry at `(row, col)`.
    ///
    /// This is the fundamental "stamping" operation of MNA assembly.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] += value;
    }

    /// Multiplies the matrix by a vector, returning `A * x`.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the matrix dimension.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Factorizes the matrix in place (LU with partial pivoting) and solves
    /// `A x = b`, returning `x`.
    ///
    /// The matrix is consumed by the factorization; callers that need to reuse
    /// the assembled matrix should clone it first (MNA assembly rebuilds the
    /// matrix every Newton iteration anyway).
    ///
    /// # Errors
    /// Returns [`SpiceError::SingularMatrix`] when a pivot smaller than
    /// `1e-13` in magnitude is encountered.
    pub fn solve(mut self, b: &[f64]) -> Result<Vec<f64>> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let n = self.n;
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivoting: find the largest magnitude entry in this column.
            let mut pivot_row = col;
            let mut pivot_val = self.data[perm[col] * n + col].abs();
            for (r, &p) in perm.iter().enumerate().skip(col + 1) {
                let v = self.data[p * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-13 {
                return Err(SpiceError::SingularMatrix { row: col });
            }
            perm.swap(col, pivot_row);

            let prow = perm[col];
            let pivot = self.data[prow * n + col];
            for &r in perm.iter().skip(col + 1) {
                let factor = self.data[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    let v = self.data[prow * n + k];
                    self.data[r * n + k] -= factor * v;
                }
                x[r] -= factor * x[prow];
            }
        }

        // Back substitution on the permuted system.
        let mut result = vec![0.0; n];
        for i in (0..n).rev() {
            let prow = perm[i];
            let mut sum = x[prow];
            for k in (i + 1)..n {
                sum -= self.data[prow * n + k] * result[k];
            }
            result[i] = sum / self.data[prow * n + i];
        }
        Ok(result)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.n + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.n + c]
    }
}

/// Computes the infinity norm of the difference between two vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn diff_inf_norm(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let m = DenseMatrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = m.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn solves_small_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let mut m = DenseMatrix::zeros(2);
        m[(0, 0)] = 2.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 3.0;
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero on the diagonal requires a row swap.
        let mut m = DenseMatrix::zeros(2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = DenseMatrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        let err = m.solve(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SpiceError::SingularMatrix { .. }));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let mut m = DenseMatrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 3.0;
        m[(1, 1)] = 4.0;
        let y = m.mul_vec(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn solve_roundtrip_residual_is_small() {
        let n = 8;
        let mut m = DenseMatrix::zeros(n);
        // Diagonally dominant pseudo-random matrix (deterministic).
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += n as f64;
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let a = m.clone();
        let x = m.solve(&b).unwrap();
        let r = a.mul_vec(&x);
        assert!(diff_inf_norm(&r, &b) < 1e-9);
    }

    #[test]
    fn add_accumulates() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 4.0);
    }

    #[test]
    fn inf_norm_basics() {
        assert_eq!(diff_inf_norm(&[1.0, 2.0], &[0.0, 5.0]), 3.0);
        assert_eq!(diff_inf_norm(&[-3.0], &[0.0]), 3.0);
        assert_eq!(diff_inf_norm(&[], &[]), 0.0);
    }
}
