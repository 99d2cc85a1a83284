//! Minimal dense-matrix kernel set for GraphSAGE training.
//!
//! Row-major `f32` matrices with exactly the operations the SAGE layers
//! need. No BLAS dependency: the matrices in play are thousands of rows
//! by tens-to-hundreds of columns, and keeping the kernels local makes
//! the backward-pass tests (numeric gradient checking) self-contained.
//!
//! # Dense kernels
//!
//! [`Matrix::matmul`] and [`Matrix::t_matmul`] are one accumulator
//! kernel: for one output row, a block of 32 columns (then 8, then a
//! plain loop for the last < 8) is held in a fixed-size array — which
//! the compiler keeps in vector registers — for the whole reduction, so
//! a step loads one scalar and one block of the right-hand row and
//! stores nothing. `t_matmul` walks its reduction in slabs of 64 rows
//! so both inputs' slabs stay in L1 while every output row sweeps them,
//! the accumulators resuming from the output between slabs. Safe Rust,
//! default target features, no FMA.
//!
//! **Summation order is a contract**: every output element is the sum
//! of its products in ascending reduction index, starting from `+0.0`,
//! one rounding per multiply and per add. Blocking only changes which
//! *elements* are worked on together, never the order within one, so
//! results are bit-for-bit those of the textbook triple loop — the
//! tests compare `to_bits()` against that loop over ragged shapes, and
//! `trainer`'s tests pin a six-step loss trajectory. Training through
//! any store tier reproduces the same losses because of it.
//!
//! Zero operands are not skipped. For finite inputs skipping them would
//! change no bit (a sum that starts at `+0.0` can never become `-0.0`,
//! so adding a `±0.0` product is the identity) and costs a mispredicted
//! branch per ReLU output; a non-finite operand therefore always
//! propagates — `0.0 · inf` is NaN, whichever side the zero is on.

use smartsage_sim::Xoshiro256;

/// A dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use smartsage_gnn::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let c = a.matmul(&b);
/// assert_eq!(c.at(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier-style random initialization with deterministic RNG.
    pub fn randn(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Self {
        let scale = (2.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| (rng.normal() * scale) as f32)
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

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// `self @ other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return out;
        }
        let arows = self.data.chunks_exact(self.cols);
        for (arow, orow) in arows.zip(out.data.chunks_exact_mut(other.cols)) {
            accumulate_row(orow, arow.iter(), &other.data);
        }
        out
    }

    /// `selfᵀ @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return out;
        }
        // The reduction runs over the rows of both inputs; a slab of
        // `REDUCTION_ROWS` of them is swept once per output row while it
        // is still in L1, the accumulators resuming from `out`.
        let aslabs = self.data.chunks(REDUCTION_ROWS * self.cols);
        for (aslab, bslab) in aslabs.zip(other.data.chunks(REDUCTION_ROWS * other.cols)) {
            for (i, orow) in out.data.chunks_exact_mut(other.cols).enumerate() {
                accumulate_row(
                    orow,
                    aslab.chunks_exact(self.cols).map(|arow| &arow[i]),
                    bslab,
                );
            }
        }
        out
    }

    /// `self @ otherᵀ`: [`Matrix::matmul`] over a copy of `otherᵀ`, so
    /// each element is the same ascending-`k` sum from `+0.0`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        self.matmul(&other.transposed())
    }

    /// `selfᵀ` as a new matrix.
    fn transposed(&self) -> Matrix {
        let at = |k: usize| self.data[(k % self.rows) * self.cols + k / self.rows];
        Matrix::from_vec(self.cols, self.rows, (0..self.data.len()).map(at).collect())
    }

    /// `self += other * scale` (used by SGD).
    pub fn add_scaled_inplace(&mut self, other: &Matrix, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias_inplace(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// In-place ReLU; returns the activation mask for the backward pass.
    /// Anything that is not `> 0.0` (negatives, `-0.0`, NaN) becomes
    /// `+0.0` with a `false` mask.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        let mut mask = vec![false; self.data.len()];
        for (v, m) in self.data.iter_mut().zip(&mut mask) {
            *m = *v > 0.0;
            *v = keep_if(*m, *v);
        }
        mask
    }

    /// Masks a gradient by a ReLU activation mask (backward of ReLU).
    pub fn relu_backward_inplace(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len());
        for (v, &m) in self.data.iter_mut().zip(mask) {
            *v = keep_if(m, *v);
        }
    }

    /// Means of consecutive row groups: `self` has `groups * group_size`
    /// rows; returns a `groups x cols` matrix of group means.
    ///
    /// # Panics
    ///
    /// Panics if the row count is not `groups * group_size`.
    pub fn group_mean(&self, groups: usize, group_size: usize) -> Matrix {
        assert_eq!(self.rows, groups * group_size, "group shape mismatch");
        let mut out = Matrix::zeros(groups, self.cols);
        if group_size == 0 {
            return out;
        }
        let inv = 1.0 / group_size as f32;
        for g in 0..groups {
            for m in 0..group_size {
                let row = &self.data[(g * group_size + m) * self.cols..][..self.cols];
                let orow = &mut out.data[g * self.cols..(g + 1) * self.cols];
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o += v * inv;
                }
            }
        }
        out
    }

    /// Backward of [`Matrix::group_mean`]: spreads each group's gradient
    /// row uniformly over its members.
    pub fn group_mean_backward(grad: &Matrix, group_size: usize) -> Matrix {
        let mut out = Matrix::zeros(grad.rows * group_size, grad.cols);
        if group_size == 0 {
            return out;
        }
        let inv = 1.0 / group_size as f32;
        for g in 0..grad.rows {
            let grow = &grad.data[g * grad.cols..(g + 1) * grad.cols];
            for m in 0..group_size {
                let orow = &mut out.data[(g * group_size + m) * grad.cols..][..grad.cols];
                for (o, &v) in orow.iter_mut().zip(grow) {
                    *o = v * inv;
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// `v` where `keep`, `+0.0` elsewhere — a bit mask, not a branch: the
/// ReLU passes see coin-flip signs, and the loops around this vectorize.
#[inline(always)]
fn keep_if(keep: bool, v: f32) -> f32 {
    f32::from_bits(v.to_bits() & (keep as u32).wrapping_neg())
}

/// Reduction rows per [`Matrix::t_matmul`] slab: 64 rows of a 128-wide
/// and a 64-wide input are 48 KiB, swept once per output row.
const REDUCTION_ROWS: usize = 64;

/// `orow[j] += Σₖ scalars[k] · b[k][j]` for every column `j` of one
/// output row; `b` is row-major, `orow.len()` columns wide, one row per
/// scalar. Columns go 32 at a time, then 8 at a time (the serving
/// model's 8 classes, training's 16), and what is left (< 8) by the
/// plain row loop — every column is summed in ascending `k` either way.
fn accumulate_row<'a>(orow: &mut [f32], scalars: impl Iterator<Item = &'a f32> + Clone, b: &[f32]) {
    let n = orow.len();
    let mut j0 = 0;
    while n - j0 >= 32 {
        accumulate_block::<32>(&mut orow[j0..j0 + 32], scalars.clone(), b, n, j0);
        j0 += 32;
    }
    while n - j0 >= 8 {
        accumulate_block::<8>(&mut orow[j0..j0 + 8], scalars.clone(), b, n, j0);
        j0 += 8;
    }
    if j0 < n {
        let tail = &mut orow[j0..];
        for (&a, brow) in scalars.zip(b.chunks_exact(n)) {
            for (o, &bv) in tail.iter_mut().zip(&brow[j0..]) {
                *o += a * bv;
            }
        }
    }
}

/// One `1 × W` block of [`accumulate_row`]: the `W` partial sums live in
/// a fixed-size array — registers, once the inner loop is unrolled — for
/// the whole reduction, so each step loads `W` lanes of `b` and stores
/// nothing.
#[inline(always)]
fn accumulate_block<'a, const W: usize>(
    out: &mut [f32],
    scalars: impl Iterator<Item = &'a f32>,
    b: &[f32],
    n: usize,
    j0: usize,
) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(out);
    for (&a, brow) in scalars.zip(b.chunks_exact(n)) {
        let lanes: &[f32; W] = brow[j0..j0 + W].try_into().expect("W columns of b");
        for (o, &bv) in acc.iter_mut().zip(lanes) {
            *o += a * bv;
        }
    }
    out.copy_from_slice(&acc);
}

/// Softmax cross-entropy over rows: returns `(mean_loss, dlogits)`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "label count mismatch");
    let n = logits.rows();
    let c = logits.cols();
    let mut grad = Matrix::zeros(n, c);
    let mut loss = 0.0f64;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range {c}");
        let row = logits.row(i);
        let maxv = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - maxv).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let p = exps[label] / sum;
        loss += -(p.max(1e-12) as f64).ln();
        for (j, &e) in exps.iter().enumerate() {
            let soft = e / sum;
            *grad.at_mut(i, j) = (soft - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    ((loss / n as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The triple loops — zero-skip included — that the kernels must
    /// equal bit for bit.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let av = a.data[i * a.cols + k];
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn t_matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            for i in 0..a.cols {
                let av = a.data[r * a.cols + i];
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[r * b.cols..(r + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn matmul_t_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            let arow = &a.data[i * a.cols..(i + 1) * a.cols];
            for j in 0..b.rows {
                let brow = &b.data[j * b.cols..(j + 1) * b.cols];
                let mut acc = 0.0;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
        out
    }

    /// Random values with exact `0.0` and `-0.0` entries mixed in and
    /// every third row zero throughout — what a ReLU output and a
    /// masked gradient look like.
    fn ragged(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
        let mut m = Matrix::randn(rows, cols, rng);
        for (i, v) in m.data.iter_mut().enumerate() {
            match rng.next_u64() % 8 {
                0 | 1 => *v = 0.0,
                2 => *v = -0.0,
                _ => {}
            }
            if cols > 0 && (i / cols) % 3 == 2 {
                *v = 0.0;
            }
        }
        m
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what}");
        for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn products_equal_the_reference_loops_bit_for_bit() {
        let mut rng = Xoshiro256::seed_from_u64(18);
        for rows in [0, 1, 3, 64, 193] {
            for inner in [0, 1, 63, 64, 65, 128] {
                for cols in [0, 1, 3, 8, 16, 31, 32, 33, 64, 65] {
                    let b = ragged(inner, cols, &mut rng);
                    let a = ragged(rows, inner, &mut rng);
                    let what = format!("matmul {rows}x{inner}x{cols}");
                    assert_same_bits(&a.matmul(&b), &matmul_reference(&a, &b), &what);
                    // The reduction of `t_matmul` runs over the rows of
                    // both inputs: `inner` crosses its 64-row slabs.
                    let at = ragged(inner, rows, &mut rng);
                    let what = format!("t_matmul {rows}x{inner}x{cols}");
                    assert_same_bits(&at.t_matmul(&b), &t_matmul_reference(&at, &b), &what);
                    let bt = ragged(cols, inner, &mut rng);
                    let what = format!("matmul_t {rows}x{inner}x{cols}");
                    assert_same_bits(&a.matmul_t(&bt), &matmul_t_reference(&a, &bt), &what);
                }
            }
        }
    }

    #[test]
    fn elementwise_passes_equal_their_branchy_references() {
        let mut rng = Xoshiro256::seed_from_u64(19);
        for (rows, cols) in [(0, 0), (3, 0), (0, 5), (1, 1), (7, 1), (5, 3), (193, 65)] {
            let mut x = ragged(rows, cols, &mut rng);
            let specials = [-1.5, -0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for (v, s) in x.data.iter_mut().zip(specials) {
                *v = s;
            }

            let mut got = x.clone();
            let mask = got.relu_inplace();
            let mut want = x.clone();
            let want_mask: Vec<bool> = want
                .data
                .iter_mut()
                .map(|v| {
                    if *v > 0.0 {
                        true
                    } else {
                        *v = 0.0;
                        false
                    }
                })
                .collect();
            assert_eq!(mask, want_mask, "relu mask {rows}x{cols}");
            assert_same_bits(&got, &want, "relu values");

            let mut got = x.clone();
            got.relu_backward_inplace(&mask);
            let mut want = x.clone();
            for (v, &m) in want.data.iter_mut().zip(&mask) {
                if !m {
                    *v = 0.0;
                }
            }
            assert_same_bits(&got, &want, "relu backward");

            let bias = ragged(1, cols, &mut rng).data;
            let mut got = x.clone();
            got.add_bias_inplace(&bias);
            let mut want = x.clone();
            for r in 0..rows {
                for (c, &b) in bias.iter().enumerate() {
                    want.data[r * cols + c] += b;
                }
            }
            assert_same_bits(&got, &want, "add bias");
        }
    }

    #[test]
    fn matmul_matches_by_hand() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_products_match_explicit() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let a = Matrix::randn(4, 3, &mut rng);
        let b = Matrix::randn(4, 5, &mut rng);
        // aT @ b via t_matmul vs. manual transpose.
        let mut at = Matrix::zeros(3, 4);
        for r in 0..4 {
            for c in 0..3 {
                *at.at_mut(c, r) = a.at(r, c);
            }
        }
        let want = at.matmul(&b);
        let got = a.t_matmul(&b);
        for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
        // a @ cT via matmul_t.
        let c = Matrix::randn(6, 3, &mut rng);
        let mut ct = Matrix::zeros(3, 6);
        for r in 0..6 {
            for k in 0..3 {
                *ct.at_mut(k, r) = c.at(r, k);
            }
        }
        let want2 = a.matmul(&ct);
        let got2 = a.matmul_t(&c);
        for (x, y) in want2.as_slice().iter().zip(got2.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_roundtrip() {
        let mut m = Matrix::from_rows(&[&[1.0, -2.0], &[-0.5, 3.0]]);
        let mask = m.relu_inplace();
        assert_eq!(m.row(0), &[1.0, 0.0]);
        assert_eq!(mask, vec![true, false, false, true]);
        let mut g = Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]);
        g.relu_backward_inplace(&mask);
        assert_eq!(g.row(0), &[5.0, 0.0]);
        assert_eq!(g.row(1), &[0.0, 5.0]);
    }

    #[test]
    fn group_mean_and_backward_are_adjoint() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let x = Matrix::randn(6, 3, &mut rng); // 2 groups of 3
        let y = x.group_mean(2, 3);
        assert_eq!(y.rows(), 2);
        // Check one entry by hand.
        let want = (x.at(0, 1) + x.at(1, 1) + x.at(2, 1)) / 3.0;
        assert!((y.at(0, 1) - want).abs() < 1e-6);
        // Adjoint test: <Ax, g> == <x, A'g>.
        let g = Matrix::randn(2, 3, &mut rng);
        let lhs: f32 = y
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = Matrix::group_mean_backward(&g, 3);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn softmax_ce_gradient_matches_numeric() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let logits = Matrix::randn(4, 3, &mut rng);
        let labels = vec![0, 2, 1, 1];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for r in 0..4 {
            for c in 0..3 {
                let mut plus = logits.clone();
                *plus.at_mut(r, c) += eps;
                let mut minus = logits.clone();
                *minus.at_mut(r, c) -= eps;
                let (lp, _) = softmax_cross_entropy(&plus, &labels);
                let (lm, _) = softmax_cross_entropy(&minus, &labels);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad.at(r, c)).abs() < 1e-3,
                    "grad[{r},{c}]: numeric {numeric} vs analytic {}",
                    grad.at(r, c)
                );
            }
        }
    }

    #[test]
    fn loss_decreases_toward_correct_label() {
        let good = Matrix::from_rows(&[&[10.0, 0.0]]);
        let bad = Matrix::from_rows(&[&[0.0, 10.0]]);
        let (lg, _) = softmax_cross_entropy(&good, &[0]);
        let (lb, _) = softmax_cross_entropy(&bad, &[0]);
        assert!(lg < 0.01);
        assert!(lb > 5.0);
    }

    #[test]
    fn bias_and_scaled_add() {
        let mut m = Matrix::zeros(2, 2);
        m.add_bias_inplace(&[1.0, 2.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        let g = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        m.add_scaled_inplace(&g, -0.5);
        assert_eq!(m.row(0), &[0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn norm_is_euclidean() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.norm() - 5.0).abs() < 1e-6);
    }
}
