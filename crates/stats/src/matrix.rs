//! Minimal dense linear algebra for IRLS.
//!
//! The logistic models in this study never exceed six coefficients
//! (five selected variables plus an intercept), so a simple dense
//! Gaussian elimination with partial pivoting is exactly the right tool:
//! no external linear-algebra dependency, fully deterministic.

/// A dense row-major matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix { rows: rows.len(), cols, data: rows.concat() }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `self · v`.
    pub fn mat_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        (0..self.rows).map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum()).collect()
    }

    /// `selfᵀ · v`.
    pub fn t_mat_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j] += self[(i, j)] * v[i];
            }
        }
        out
    }

    /// `selfᵀ · diag(w) · self` (the IRLS normal matrix).
    pub fn t_weighted_self(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.rows);
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let wi = w[i];
            for a in 0..self.cols {
                let xa = self[(i, a)] * wi;
                for b in a..self.cols {
                    out[(a, b)] += xa * self[(i, b)];
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..self.cols {
            for b in 0..a {
                out[(a, b)] = out[(b, a)];
            }
        }
        out
    }

    /// Solve `self · x = b` by Gaussian elimination with partial
    /// pivoting. Returns `None` if the system is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let mut piv = col;
            for r in (col + 1)..n {
                if a[r * n + col].abs() > a[piv * n + col].abs() {
                    piv = r;
                }
            }
            if a[piv * n + col].abs() < 1e-12 {
                return None;
            }
            if piv != col {
                for j in 0..n {
                    a.swap(col * n + j, piv * n + j);
                }
                x.swap(col, piv);
            }
            // Eliminate below.
            let d = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / d;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for j in (col + 1)..n {
                s -= a[col * n + j] * x[j];
            }
            x[col] = s / a[col * n + col];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_identity() {
        let mut i = Matrix::zeros(4, 4);
        for k in 0..4 {
            i[(k, k)] = 1.0;
        }
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.solve(&b).unwrap(), b);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_normal_matrix() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 3.0]]);
        let m = x.t_weighted_self(&[1.0, 2.0]);
        // m = [[1+2, 2+6], [2+6, 4+18]]
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(0, 1)], 8.0);
        assert_eq!(m[(1, 0)], 8.0);
        assert_eq!(m[(1, 1)], 22.0);
    }

    #[test]
    fn mat_vec_and_transpose() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(x.mat_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(x.t_mat_vec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }
}
