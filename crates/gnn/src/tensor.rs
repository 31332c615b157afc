//! A minimal dense `f32` matrix.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Xavier-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The underlying row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying mutable row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// Every output element accumulates its `k` terms in ascending order
    /// starting from `+0.0`, skipping zero left-hand entries; the GNN's
    /// bit-identity contract (see DESIGN.md) relies on that order.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul inner dims");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if rhs.cols == 0 || self.cols == 0 {
            return out;
        }
        for (a_row, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(rhs.cols))
        {
            for (&a, b_row) in a_row.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                if a == 0.0 {
                    continue;
                }
                axpy(out_row, a, b_row);
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

/// `y += a * x` element-wise (equal lengths); one multiply and one add
/// per element, so the compiler may vectorise it without reordering.
pub(crate) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    for (o, &b) in y.iter_mut().zip(x) {
        *o += a * b;
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn matmul_matches_the_scalar_triple_loop_bitwise() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        for (n, k, m) in [(1, 1, 1), (3, 7, 5), (17, 33, 9), (2, 0, 3), (0, 4, 2)] {
            // Sprinkle exact zeros so the skip path is exercised.
            let a = Matrix::xavier(n, k, &mut rng).map(|x| if x.abs() < 0.2 { 0.0 } else { x });
            let b = Matrix::xavier(k, m, &mut rng);
            let mut want = Matrix::zeros(n, m);
            for i in 0..n {
                for kk in 0..k {
                    let x = a.get(i, kk);
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..m {
                        want.set(i, j, want.get(i, j) + x * b.get(kk, j));
                    }
                }
            }
            let got = a.matmul(&b);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!((got.rows(), got.cols()), (n, m));
            assert_eq!(bits(&got), bits(&want), "{n}x{k} * {k}x{m}");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
