//! Minimal complex arithmetic and a complex dense solver for AC analysis.
//!
//! Implemented locally to keep the dependency footprint restricted to the
//! pre-approved crates (see DESIGN.md §5).

use crate::error::{Result, SpiceError};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    pub fn from_imag(im: f64) -> Self {
        Complex { re: 0.0, im }
    }

    /// Magnitude (absolute value).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Reciprocal `1 / self`.
    pub fn recip(self) -> Self {
        let d = self.re * self.re + self.im * self.im;
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Magnitude expressed in decibels, `20 log10 |z|`.
    pub fn db(self) -> f64 {
        20.0 * self.abs().log10()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl std::ops::Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl std::ops::Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl std::ops::AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

/// A dense square matrix of complex values used by the AC solver.
#[derive(Debug, Clone)]
pub struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates an `n x n` complex matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        ComplexMatrix {
            n,
            data: vec![Complex::ZERO; n * n],
        }
    }

    /// Adds `value` at `(row, col)`.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: Complex) {
        self.data[row * self.n + col] += value;
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    /// Returns [`SpiceError::SingularMatrix`] if a pivot magnitude below
    /// `1e-13` is encountered.
    pub fn solve(mut self, b: &[Complex]) -> Result<Vec<Complex>> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let n = self.n;
        let mut rhs = b.to_vec();
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = self.data[col * n + col].abs();
            for r in (col + 1)..n {
                let v = self.data[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-13 {
                return Err(SpiceError::SingularMatrix { row: col });
            }
            if pivot_row != col {
                for k in 0..n {
                    self.data.swap(col * n + k, pivot_row * n + k);
                }
                rhs.swap(col, pivot_row);
            }
            let pivot = self.data[col * n + col];
            for r in (col + 1)..n {
                let factor = self.data[r * n + col] / pivot;
                if factor.abs() == 0.0 {
                    continue;
                }
                for k in col..n {
                    let v = self.data[col * n + k];
                    self.data[r * n + k] = self.data[r * n + k] - factor * v;
                }
                rhs[r] = rhs[r] - factor * rhs[col];
            }
        }
        let mut x = vec![Complex::ZERO; n];
        for i in (0..n).rev() {
            let mut sum = rhs[i];
            for k in (i + 1)..n {
                sum = sum - self.data[i * n + k] * x[k];
            }
            x[i] = sum / self.data[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z - z, Complex::ZERO));
        assert!(close(z * z.recip(), Complex::ONE));
        assert!((z.abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn multiplication_matches_formula() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a * b;
        assert!(close(p, Complex::new(5.0, 5.0)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.3, 1.7);
        let b = Complex::new(-2.0, 0.4);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn arg_of_j_is_half_pi() {
        assert!((Complex::from_imag(1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn db_of_ten_is_twenty() {
        assert!((Complex::from_real(10.0).db() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn complex_solver_solves_system() {
        // (1+j) x = 2j  =>  x = 2j / (1+j) = 1 + j
        let mut m = ComplexMatrix::zeros(1);
        m.add(0, 0, Complex::new(1.0, 1.0));
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!(close(x[0], Complex::new(1.0, 1.0)));
    }

    #[test]
    fn complex_solver_two_by_two() {
        let mut m = ComplexMatrix::zeros(2);
        m.add(0, 0, Complex::new(2.0, 0.0));
        m.add(0, 1, Complex::new(0.0, 1.0));
        m.add(1, 0, Complex::new(0.0, -1.0));
        m.add(1, 1, Complex::new(3.0, 0.0));
        let b = [Complex::new(1.0, 0.0), Complex::new(0.0, 0.0)];
        let x = m.solve(&b).unwrap();
        // Verify residual A x = b.
        let r0 = Complex::new(2.0, 0.0) * x[0] + Complex::new(0.0, 1.0) * x[1];
        let r1 = Complex::new(0.0, -1.0) * x[0] + Complex::new(3.0, 0.0) * x[1];
        assert!(close(r0, b[0]));
        assert!(close(r1, b[1]));
    }

    #[test]
    fn singular_complex_matrix_reported() {
        let m = ComplexMatrix::zeros(2);
        assert!(m.solve(&[Complex::ZERO, Complex::ZERO]).is_err());
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }
}
