//! Dense row-major matrices with the factorizations the rest of the
//! workspace needs: LU with partial pivoting, Cholesky, and Householder QR.

use crate::{kernel, MathError, Result};

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// Returns an error if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(MathError::Empty);
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::from_rows",
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the register-tiled kernel ([`kernel::gemm`]) with a
    /// transposed-`rhs` dot-product fast path for deep single-column
    /// products. Both kernels accumulate each output element over `k` in
    /// ascending order and skip zero left-hand terms, so every shape
    /// produces the same result to the last bit.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch { context: "matmul" });
        }
        tfb_obs::counter!("gemm/calls").add(1);
        tfb_obs::counter!("gemm/flops_est").add(2 * (self.rows * self.cols * rhs.cols) as u64);
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if use_transposed_kernel(self.rows, self.cols, rhs.cols) {
            let bt = rhs.transpose();
            mul_rows_transposed(&self.data, self.cols, &bt.data, 0, &mut out.data);
        } else {
            kernel::gemm(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
        }
        Ok(out)
    }

    /// `selfᵀ * rhs` without forming the transpose: bit for bit
    /// `self.transpose().matmul(rhs)`, counted as that one product.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(MathError::DimensionMismatch {
                context: "transpose_matmul",
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        gemm_tn_acc(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix product `self * rhs`, splitting output row blocks across
    /// scoped threads when the work is large enough to amortize spawning.
    ///
    /// Output rows are independent, so every row block is computed by the
    /// same kernel as [`Matrix::matmul`] and the result is bit-identical
    /// to the single-threaded product. Small products fall back to
    /// [`Matrix::matmul`] directly.
    pub fn par_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch { context: "matmul" });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        par_gemm(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(MathError::DimensionMismatch { context: "matvec" });
        }
        tfb_obs::counter!("gemm/matvec_calls").add(1);
        Ok((0..self.rows)
            .map(|i| kernel::dot_acc(0.0, self.row(i), v))
            .collect())
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MathError::DimensionMismatch { context: "add" });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MathError::DimensionMismatch { context: "sub" });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// LU decomposition with partial pivoting.
    pub fn lu(&self) -> Result<Lu> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch { context: "lu" });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Pivot selection.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-13 {
                return Err(MathError::Singular);
            }
            if p != k {
                for j in 0..n {
                    lu.data.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                for j in (k + 1)..n {
                    let v = lu[(k, j)];
                    lu[(i, j)] -= f * v;
                }
            }
        }
        Ok(Lu { lu, piv, sign })
    }

    /// Solves `self * x = b` via LU decomposition.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }

    /// Solves `self * X = B` for a matrix right-hand side.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let lu = self.lu()?;
        let mut out = Matrix::zeros(b.rows, b.cols);
        for j in 0..b.cols {
            let col = b.col(j);
            let x = lu.solve(&col)?;
            for i in 0..b.rows {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Matrix inverse via LU decomposition.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.rows))
    }

    /// Determinant via LU decomposition. Returns 0.0 for singular inputs.
    pub fn det(&self) -> f64 {
        match self.lu() {
            Ok(lu) => {
                let n = self.rows;
                let mut d = lu.sign;
                for i in 0..n {
                    d *= lu.lu[(i, i)];
                }
                d
            }
            Err(_) => 0.0,
        }
    }

    /// Cholesky factor `L` with `self = L * L^T`.
    ///
    /// `self` must be symmetric positive definite; the upper triangle is
    /// ignored.
    pub fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch {
                context: "cholesky",
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(MathError::Singular);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> f64 {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Householder QR decomposition of a (possibly tall) matrix.
    ///
    /// Returns `(Q, R)` in the thin form: `Q` is `rows x cols` with
    /// orthonormal columns and `R` is `cols x cols` upper triangular, so
    /// `self = Q * R`. Requires `rows >= cols`.
    pub fn qr(&self) -> Result<(Matrix, Matrix)> {
        let (m, n) = (self.rows, self.cols);
        if m < n {
            return Err(MathError::DimensionMismatch { context: "qr" });
        }
        let mut r = self.clone();
        // Accumulate Q as a product of Householder reflectors applied to I.
        let mut q = Matrix::identity(m);
        let mut v = vec![0.0; m];
        for k in 0..n {
            // Build the Householder vector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                continue;
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut vnorm2 = 0.0;
            for i in k..m {
                v[i] = r[(i, k)];
                if i == k {
                    v[i] -= alpha;
                }
                vnorm2 += v[i] * v[i];
            }
            if vnorm2 < 1e-300 {
                continue;
            }
            // Apply (I - 2 v v^T / v^T v) to R from the left.
            for j in k..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r[(i, j)];
                }
                let f = 2.0 * dot / vnorm2;
                for i in k..m {
                    r[(i, j)] -= f * v[i];
                }
            }
            // Apply to Q from the right: Q <- Q (I - 2 v v^T / v^T v).
            for irow in 0..m {
                let mut dot = 0.0;
                for i in k..m {
                    dot += q[(irow, i)] * v[i];
                }
                let f = 2.0 * dot / vnorm2;
                for i in k..m {
                    q[(irow, i)] -= f * v[i];
                }
            }
        }
        // Thin factors.
        let mut q_thin = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                q_thin[(i, j)] = q[(i, j)];
            }
        }
        let mut r_thin = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r_thin[(i, j)] = r[(i, j)];
            }
        }
        Ok((q_thin, r_thin))
    }
}

/// Below this many multiply-adds, thread spawn overhead beats the speedup.
const PAR_MATMUL_MIN_FLOPS: usize = 1 << 20;

/// Cached machine parallelism. `available_parallelism` is a syscall; hot
/// paths issuing many small products must not pay it per call.
fn worker_count() -> usize {
    use std::sync::OnceLock;
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The blocked ikj kernel's inner loop updates a whole output row with
/// independent accumulators, so it vectorizes without reassociating the
/// `k` reduction; the transposed dot kernel instead carries one serial
/// accumulator whose add-latency chain caps throughput. The dot kernel
/// therefore only wins for column outputs (deep reductions into a single
/// column), where the ikj inner loop degenerates to the same chain but
/// with extra per-`k` row indexing on top.
#[inline]
fn use_transposed_kernel(_rows: usize, depth: usize, out_cols: usize) -> bool {
    out_cols == 1 && depth >= 64
}

/// Row-parallel GEMM over raw row-major slices: writes `lhs * rhs` into
/// `out` (`rows` × `out_cols`, pre-zeroed), where `lhs` is `rows` ×
/// `depth` and `rhs` is `depth` × `out_cols`.
///
/// Splits output row blocks across scoped threads when the product is
/// large enough to amortize spawning; every block runs the same kernel
/// as [`Matrix::matmul`], so the result is bit-identical to the
/// single-threaded product at any worker count. This is the entry point
/// for callers that keep their own flat buffers (the autodiff tape's
/// batched forward) and do not want to round-trip through [`Matrix`].
pub fn par_gemm(
    lhs: &[f64],
    rows: usize,
    depth: usize,
    rhs: &[f64],
    out_cols: usize,
    out: &mut [f64],
) {
    assert_eq!(lhs.len(), rows * depth, "par_gemm lhs shape");
    assert_eq!(rhs.len(), depth * out_cols, "par_gemm rhs shape");
    assert_eq!(out.len(), rows * out_cols, "par_gemm out shape");
    tfb_obs::counter!("gemm/calls").add(1);
    tfb_obs::counter!("gemm/flops_est").add(2 * (rows * depth * out_cols) as u64);
    let flops = rows * depth * out_cols;
    let transposed = use_transposed_kernel(rows, depth, out_cols);
    let bt = if transposed {
        let mut t = vec![0.0; rhs.len()];
        for k in 0..depth {
            for j in 0..out_cols {
                t[j * depth + k] = rhs[k * out_cols + j];
            }
        }
        Some(t)
    } else {
        None
    };
    // The flop gate comes first: small products (the per-window forward
    // path) must not pay even the worker-count lookup.
    let workers = if flops < PAR_MATMUL_MIN_FLOPS {
        1
    } else {
        worker_count().min(rows.max(1))
    };
    if workers < 2 {
        match &bt {
            Some(bt) => mul_rows_transposed(lhs, depth, bt, 0, out),
            None => kernel::gemm(lhs, depth, rhs, out_cols, out),
        }
        return;
    }
    let rows_per_worker = rows.div_ceil(workers);
    std::thread::scope(|scope| {
        let lhs_blocks = lhs.chunks(rows_per_worker * depth);
        let out_blocks = out.chunks_mut(rows_per_worker * out_cols);
        for (block, (lhs_rows, chunk)) in lhs_blocks.zip(out_blocks).enumerate() {
            let row_start = block * rows_per_worker;
            let bt = bt.as_deref();
            scope.spawn(move || match bt {
                Some(bt) => mul_rows_transposed(lhs, depth, bt, row_start, chunk),
                None => kernel::gemm(lhs_rows, depth, rhs, out_cols, chunk),
            });
        }
    });
}

/// `out += lhsᵀ · rhs` for `lhs` `depth` × `rows` and `rhs` `depth` ×
/// `out_cols`, all row-major, single-threaded, without forming the
/// transpose. Every element adds its `k` terms to what `out` holds, in
/// ascending order with the zero-skip, so accumulating the row blocks of
/// `lhs` and `rhs` in order gives the one-call product bit for bit.
/// Counted as one product, as [`par_gemm`] counts. Weight gradients
/// (`Aᵀ·dOut`) and normal equations (`Xᵀ·X`, `Xᵀ·Y`) read their left
/// operand this way.
pub fn gemm_tn_acc(
    lhs: &[f64],
    depth: usize,
    rows: usize,
    rhs: &[f64],
    out_cols: usize,
    out: &mut [f64],
) {
    assert_eq!(lhs.len(), depth * rows, "gemm_tn_acc lhs shape");
    assert_eq!(rhs.len(), depth * out_cols, "gemm_tn_acc rhs shape");
    assert_eq!(out.len(), rows * out_cols, "gemm_tn_acc out shape");
    tfb_obs::counter!("gemm/calls").add(1);
    tfb_obs::counter!("gemm/flops_est").add(2 * (rows * depth * out_cols) as u64);
    kernel::gemm_tn(lhs, depth, rhs, out_cols, out);
}

/// Dot-product kernel over a pre-transposed right operand (`bt` is
/// `n` × `depth` row-major). Used for deep single-column products where
/// the blocked kernel has no output row to vectorize over. Accumulation
/// order and the zero-skip match [`kernel::gemm`] exactly.
fn mul_rows_transposed(
    lhs: &[f64],
    depth: usize,
    bt: &[f64],
    row_start: usize,
    out_rows: &mut [f64],
) {
    let Some(n) = bt.len().checked_div(depth) else {
        return;
    };
    if n == 0 {
        return;
    }
    let nrows = out_rows.len() / n;
    for ii in 0..nrows {
        let i = row_start + ii;
        let lhs_row = &lhs[i * depth..(i + 1) * depth];
        let out_row = &mut out_rows[ii * n..(ii + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let bt_row = &bt[j * depth..(j + 1) * depth];
            *o = kernel::dot_skip(lhs_row, bt_row);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// LU factorization with partial pivoting, produced by [`Matrix::lu`].
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    piv: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Solves `A x = b` for the factored `A`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(MathError::DimensionMismatch {
                context: "Lu::solve",
            });
        }
        // Apply the row permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            for j in 0..i {
                x[i] -= self.lu[(i, j)] * x[j];
            }
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                x[i] -= self.lu[(i, j)] * x[j];
            }
            x[i] /= self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn identity_matmul_is_identity() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    /// Reference kernel: the plain ikj product the seed shipped with.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a[(i, k)];
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += v * b[(k, j)];
                }
            }
        }
        out
    }

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Mix in exact zeros to exercise the zero-skip.
                if state.is_multiple_of(11) {
                    0.0
                } else {
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // Long depths, odd tails and the transposed-path gate.
        for &(m, k, n) in &[
            (3usize, 5usize, 4usize),
            (17, 130, 9),  // k crosses the 128-wide tile boundary
            (40, 200, 12), // tall×deep: transposed fast path
            (16, 64, 2),   // exactly at the fast-path gate
            (1, 300, 1),
            (64, 1, 64),
        ] {
            let a = pseudo_random_matrix(m, k, (m * k) as u64);
            let b = pseudo_random_matrix(k, n, (k * n + 7) as u64);
            let fast = a.matmul(&b).unwrap();
            let slow = naive_matmul(&a, &b);
            assert_eq!(fast.data(), slow.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn par_matmul_is_bit_identical_to_matmul() {
        // Big enough to clear the parallel threshold (160*160*160 > 2^20).
        for &(m, k, n) in &[(160usize, 160usize, 160usize), (500, 80, 40), (7, 9, 8)] {
            let a = pseudo_random_matrix(m, k, 3);
            let b = pseudo_random_matrix(k, n, 4);
            let par = a.par_matmul(&b).unwrap();
            let seq = a.matmul(&b).unwrap();
            assert_eq!(par.data(), seq.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn par_matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(4, 5);
        assert!(a.par_matmul(&b).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn lu_solve_recovers_solution() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0]).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert_close(*xi, *ti, 1e-10);
        }
    }

    #[test]
    fn singular_matrix_solve_fails() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(a.solve(&[1.0, 1.0]), Err(MathError::Singular));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_vec(3, 3, vec![2.0, 0.0, 1.0, 1.0, 3.0, 2.0, 1.0, 1.0, 4.0]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        for (p, e) in prod.data().iter().zip(eye.data()) {
            assert_close(*p, *e, 1e-10);
        }
    }

    #[test]
    fn det_of_triangular_is_diagonal_product() {
        let a = Matrix::from_vec(3, 3, vec![2.0, 1.0, 4.0, 0.0, 3.0, 5.0, 0.0, 0.0, 7.0]).unwrap();
        assert_close(a.det(), 42.0, 1e-9);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0]).unwrap();
        let l = a.cholesky().unwrap();
        let rec = l.matmul(&l.transpose()).unwrap();
        for (x, y) in rec.data().iter().zip(a.data()) {
            assert_close(*x, *y, 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn qr_reconstructs_tall_matrix() {
        let a = Matrix::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]).unwrap();
        let (q, r) = a.qr().unwrap();
        let rec = q.matmul(&r).unwrap();
        for (x, y) in rec.data().iter().zip(a.data()) {
            assert_close(*x, *y, 1e-9);
        }
        // Columns of Q orthonormal.
        let qtq = q.transpose().matmul(&q).unwrap();
        let eye = Matrix::identity(2);
        for (x, y) in qtq.data().iter().zip(eye.data()) {
            assert_close(*x, *y, 1e-9);
        }
    }

    #[test]
    fn trace_and_norm() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        assert_close(a.trace(), 7.0, 1e-12);
        assert_close(a.frobenius_norm(), 5.0, 1e-12);
    }

    #[test]
    fn from_rows_validates_shapes() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }
}
