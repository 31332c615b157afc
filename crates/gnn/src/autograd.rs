//! Tape-based reverse-mode automatic differentiation over matrices.
//!
//! A [`Graph`] records operations as they execute; [`Graph::backward`]
//! replays the tape in reverse, accumulating gradients. Parameters live
//! outside the graph (see [`crate::train::Param`]): each training step
//! feeds them in by reference ([`Graph::input_ref`]) and reads their
//! gradients back out.
//!
//! [`Graph::inference`] builds the same values without recording a
//! tape, so prediction runs the training layer definitions with no
//! per-op bookkeeping and no parameter copies.

use crate::tensor::{axpy, Matrix};
use std::borrow::Cow;
use std::ops::Range;
use std::rc::Rc;

/// Handle to a value in the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Row-wise neighbour lists in compressed sparse row form: row `i`'s
/// neighbours are `idx[start[i]..start[i + 1]]`, in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbours {
    start: Vec<usize>,
    idx: Vec<usize>,
}

impl Neighbours {
    /// The neighbour lists of a dense mask: `j` is a neighbour of `i`
    /// when `mask[i][j] > 0`.
    pub fn from_mask(mask: &Matrix) -> Self {
        let cols = mask.cols();
        let mut start = Vec::with_capacity(mask.rows() + 1);
        let mut idx = Vec::new();
        start.push(0);
        for i in 0..mask.rows() {
            let row = &mask.as_slice()[i * cols..(i + 1) * cols];
            idx.extend((0..cols).filter(|&j| row[j] > 0.0));
            start.push(idx.len());
        }
        Neighbours { start, idx }
    }

    /// Number of rows.
    fn rows(&self) -> usize {
        self.start.len() - 1
    }

    /// Entry positions of row `i` (indices into the CSR arrays).
    fn row(&self, i: usize) -> Range<usize> {
        self.start[i]..self.start[i + 1]
    }
}

#[derive(Debug, Clone)]
enum Op {
    Input,
    MatMul(Var, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    Mul(Var, Var),
    Relu(Var),
    MeanRows(Var),
    ConcatCols(Var, Var),
    KronRows(Var, Var),
    GatAttention(GatOp),
    Scale(Var, f32),
    Mse(Var, Var),
    CeLogits2(Var, usize),
}

/// One recorded [`Graph::gat_attention`].
#[derive(Debug, Clone)]
struct GatOp {
    s: Var,
    d: Var,
    x: Var,
    alpha: f32,
    nbrs: Rc<Neighbours>,
    /// Attention weights, one per CSR entry.
    att: Vec<f32>,
}

/// The autograd tape. Values are owned results or borrowed leaves
/// (parameters and model inputs fed by reference).
#[derive(Debug)]
pub struct Graph<'a> {
    vals: Vec<Cow<'a, Matrix>>,
    ops: Vec<Op>,
    tape: bool,
}

impl Default for Graph<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Graph<'a> {
    /// A fresh empty tape.
    pub fn new() -> Self {
        Graph {
            vals: Vec::new(),
            ops: Vec::new(),
            tape: true,
        }
    }

    /// A graph that computes values only: no operations are recorded,
    /// so [`backward`](Self::backward) is unavailable.
    pub fn inference() -> Self {
        Graph {
            tape: false,
            ..Self::new()
        }
    }

    fn push(&mut self, m: Cow<'a, Matrix>, op: Op) -> Var {
        self.vals.push(m);
        if self.tape {
            self.ops.push(op);
        }
        Var(self.vals.len() - 1)
    }

    /// The current value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.vals[v.0]
    }

    /// Registers an input (leaf) value.
    pub fn input(&mut self, m: Matrix) -> Var {
        self.push(Cow::Owned(m), Op::Input)
    }

    /// Registers a borrowed input (leaf) value without copying it.
    pub fn input_ref(&mut self, m: &'a Matrix) -> Var {
        self.push(Cow::Borrowed(m), Op::Input)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let m = self.value(a).matmul(self.value(b));
        self.push(Cow::Owned(m), Op::MatMul(a, b))
    }

    /// Element-wise sum of same-shape matrices.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut m = self.value(a).clone();
        m.add_assign(self.value(b));
        self.push(Cow::Owned(m), Op::Add(a, b))
    }

    /// Adds a `[1, d]` bias row to every row of `[n, d]`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let x = self.value(a);
        let r = self.value(bias);
        assert_eq!(x.cols(), r.cols());
        let mut m = x.clone();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                m.set(i, j, m.get(i, j) + r.get(0, j));
            }
        }
        self.push(Cow::Owned(m), Op::AddRow(a, bias))
    }

    /// Element-wise (Hadamard) product of same-shape matrices.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let x = self.value(a);
        let y = self.value(b);
        assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()));
        let m = hadamard(x, y);
        self.push(Cow::Owned(m), Op::Mul(a, b))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let m = self.value(a).map(|x| x.max(0.0));
        self.push(Cow::Owned(m), Op::Relu(a))
    }

    /// Mean over rows: `[n, d] -> [1, d]` (the average pooling operator).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let n = x.rows().max(1);
        let mut m = Matrix::zeros(1, x.cols());
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                m.set(0, j, m.get(0, j) + x.get(i, j) / n as f32);
            }
        }
        self.push(Cow::Owned(m), Op::MeanRows(a))
    }

    /// Concatenates two row vectors.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let x = self.value(a);
        let y = self.value(b);
        assert_eq!(x.rows(), 1);
        assert_eq!(y.rows(), 1);
        let mut data = x.as_slice().to_vec();
        data.extend_from_slice(y.as_slice());
        let m = Matrix::row(data);
        self.push(Cow::Owned(m), Op::ConcatCols(a, b))
    }

    /// Kronecker product of two row vectors: `[1,m] ⊗ [1,n] -> [1,mn]`
    /// (the SW×HW feature-alignment operator).
    pub fn kron_rows(&mut self, a: Var, b: Var) -> Var {
        let x = self.value(a);
        let y = self.value(b);
        assert_eq!(x.rows(), 1);
        assert_eq!(y.rows(), 1);
        let mut data = Vec::with_capacity(x.cols() * y.cols());
        for i in 0..x.cols() {
            for j in 0..y.cols() {
                data.push(x.get(0, i) * y.get(0, j));
            }
        }
        let m = Matrix::row(data);
        self.push(Cow::Owned(m), Op::KronRows(a, b))
    }

    /// Graph attention over neighbour lists (one GAT aggregation):
    /// `out_i = Σ_{j ∈ N(i)} α_ij x_j` with
    /// `α_i· = softmax_{N(i)}(leaky_relu(s_i + d_j, alpha))`, from two
    /// `[n,1]` score columns and `[n,h]` node features. Rows without
    /// neighbours aggregate to zero.
    ///
    /// This is the fusion of a dense score broadcast, leaky ReLU,
    /// masked row softmax and `matmul(att, x)`, and it computes the
    /// same floats: neighbours are visited in ascending order and zero
    /// weights are skipped exactly as [`Matrix::matmul`] skips them.
    pub fn gat_attention(
        &mut self,
        s: Var,
        d: Var,
        x: Var,
        nbrs: &Rc<Neighbours>,
        alpha: f32,
    ) -> Var {
        let (sv, dv, xv) = (self.value(s), self.value(d), self.value(x));
        let (n, h) = (xv.rows(), xv.cols());
        assert_eq!((sv.rows(), sv.cols()), (n, 1));
        assert_eq!((dv.rows(), dv.cols()), (n, 1));
        assert_eq!(nbrs.rows(), n);
        let (sv, dv, xs) = (sv.as_slice(), dv.as_slice(), xv.as_slice());
        let mut out = Matrix::zeros(n, h);
        let mut att = vec![0.0f32; nbrs.idx.len()];
        for (i, &si) in sv.iter().enumerate() {
            let js = &nbrs.idx[nbrs.row(i)];
            let score = |j: usize| leaky_relu(si + dv[j], alpha);
            let maxv = js.iter().fold(f32::NEG_INFINITY, |m, &j| m.max(score(j)));
            if maxv == f32::NEG_INFINITY {
                continue;
            }
            let mut denom = 0.0;
            for &j in js {
                denom += (score(j) - maxv).exp();
            }
            let out_row = &mut out.as_mut_slice()[i * h..(i + 1) * h];
            for (e, &j) in nbrs.row(i).zip(js) {
                let a = (score(j) - maxv).exp() / denom;
                att[e] = a;
                if a != 0.0 {
                    axpy(out_row, a, &xs[j * h..(j + 1) * h]);
                }
            }
        }
        let op = Op::GatAttention(GatOp {
            s,
            d,
            x,
            alpha,
            nbrs: Rc::clone(nbrs),
            att: if self.tape { att } else { Vec::new() },
        });
        self.push(Cow::Owned(out), op)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let m = self.value(a).map(|x| c * x);
        self.push(Cow::Owned(m), Op::Scale(a, c))
    }

    /// Mean-squared-error loss against a constant target of the same
    /// shape; returns a `[1,1]` scalar.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let p = self.value(pred);
        let t = self.value(target);
        assert_eq!((p.rows(), p.cols()), (t.rows(), t.cols()));
        let k = (p.rows() * p.cols()) as f32;
        let loss: f32 = p
            .as_slice()
            .iter()
            .zip(t.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / k;
        let m = Matrix::from_vec(1, 1, vec![loss]);
        self.push(Cow::Owned(m), Op::Mse(pred, target))
    }

    /// Two-class cross-entropy over `[1,2]` logits; returns `[1,1]`.
    pub fn ce_logits2(&mut self, logits: Var, label: usize) -> Var {
        let l = self.value(logits);
        assert_eq!((l.rows(), l.cols()), (1, 2));
        assert!(label < 2);
        let m = l.get(0, 0).max(l.get(0, 1));
        let z = (l.get(0, 0) - m).exp() + (l.get(0, 1) - m).exp();
        let logp = l.get(0, label) - m - z.ln();
        let m = Matrix::from_vec(1, 1, vec![-logp]);
        self.push(Cow::Owned(m), Op::CeLogits2(logits, label))
    }

    /// Runs backpropagation from the scalar `loss`, returning gradients
    /// for every variable (indexable via [`Gradients::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `[1,1]` or the graph records no tape
    /// ([`Graph::inference`]).
    pub fn backward(&self, loss: Var) -> Gradients {
        assert!(self.tape, "backward on an inference graph");
        assert_eq!((self.value(loss).rows(), self.value(loss).cols()), (1, 1));
        let mut grads: Vec<Matrix> = self
            .vals
            .iter()
            .map(|v| Matrix::zeros(v.rows(), v.cols()))
            .collect();
        grads[loss.0].set(0, 0, 1.0);
        for idx in (0..self.ops.len()).rev() {
            let g = grads[idx].clone();
            if is_zero(g.as_slice()) {
                continue;
            }
            match &self.ops[idx] {
                Op::Input => {}
                Op::MatMul(a, b) => {
                    let da = g.matmul(&self.value(*b).transpose());
                    let db = self.value(*a).transpose().matmul(&g);
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::Add(a, b) => {
                    grads[a.0].add_assign(&g);
                    grads[b.0].add_assign(&g);
                }
                Op::AddRow(a, bias) => {
                    grads[a.0].add_assign(&g);
                    let mut dr = Matrix::zeros(1, g.cols());
                    for i in 0..g.rows() {
                        for j in 0..g.cols() {
                            dr.set(0, j, dr.get(0, j) + g.get(i, j));
                        }
                    }
                    grads[bias.0].add_assign(&dr);
                }
                Op::Mul(a, b) => {
                    let da = hadamard(&g, self.value(*b));
                    let db = hadamard(&g, self.value(*a));
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::Relu(a) => {
                    let x = self.value(*a);
                    let da = Matrix::from_vec(
                        x.rows(),
                        x.cols(),
                        x.as_slice()
                            .iter()
                            .zip(g.as_slice())
                            .map(|(&xi, &gi)| if xi > 0.0 { gi } else { 0.0 })
                            .collect(),
                    );
                    grads[a.0].add_assign(&da);
                }
                Op::MeanRows(a) => {
                    let n = self.value(*a).rows().max(1);
                    let mut da = Matrix::zeros(self.value(*a).rows(), g.cols());
                    for i in 0..da.rows() {
                        for j in 0..da.cols() {
                            da.set(i, j, g.get(0, j) / n as f32);
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.value(*a).cols();
                    let da = Matrix::row(g.as_slice()[..ca].to_vec());
                    let db = Matrix::row(g.as_slice()[ca..].to_vec());
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::KronRows(a, b) => {
                    let x = self.value(*a);
                    let y = self.value(*b);
                    let mut da = Matrix::zeros(1, x.cols());
                    let mut db = Matrix::zeros(1, y.cols());
                    for i in 0..x.cols() {
                        for j in 0..y.cols() {
                            let gij = g.get(0, i * y.cols() + j);
                            da.set(0, i, da.get(0, i) + gij * y.get(0, j));
                            db.set(0, j, db.get(0, j) + gij * x.get(0, i));
                        }
                    }
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::GatAttention(op) => {
                    let (dx, scores) = self.gat_attention_backward(&g, op);
                    grads[op.x.0].add_assign(&dx);
                    if let Some((ds, dd)) = scores {
                        grads[op.s.0].add_assign(&ds);
                        grads[op.d.0].add_assign(&dd);
                    }
                }
                Op::Scale(a, c) => {
                    let da = g.map(|x| c * x);
                    grads[a.0].add_assign(&da);
                }
                Op::Mse(pred, target) => {
                    let p = self.value(*pred);
                    let t = self.value(*target);
                    let k = (p.rows() * p.cols()) as f32;
                    let scale = 2.0 * g.get(0, 0) / k;
                    let dp = Matrix::from_vec(
                        p.rows(),
                        p.cols(),
                        p.as_slice()
                            .iter()
                            .zip(t.as_slice())
                            .map(|(a, b)| scale * (a - b))
                            .collect(),
                    );
                    grads[pred.0].add_assign(&dp);
                }
                Op::CeLogits2(logits, label) => {
                    let l = self.value(*logits);
                    let m = l.get(0, 0).max(l.get(0, 1));
                    let e0 = (l.get(0, 0) - m).exp();
                    let e1 = (l.get(0, 1) - m).exp();
                    let z = e0 + e1;
                    let p = [e0 / z, e1 / z];
                    let gd = g.get(0, 0);
                    let mut dl = Matrix::zeros(1, 2);
                    for (j, &pj) in p.iter().enumerate() {
                        let onehot = if j == *label { 1.0 } else { 0.0 };
                        dl.set(0, j, gd * (pj - onehot));
                    }
                    grads[logits.0].add_assign(&dl);
                }
            }
        }
        Gradients { grads }
    }

    /// Gradients of [`gat_attention`](Self::gat_attention) for the
    /// output gradient `g`: `(d x, Some((d s, d d)))`. The score
    /// gradients are `None` where the unfused chain would stop at an
    /// all-zero intermediate gradient.
    ///
    /// Each stage mirrors one op of the unfused chain, with the same
    /// accumulation order per element: `matmul(att, x)`, then the
    /// masked softmax, the leaky ReLU and the score broadcast.
    fn gat_attention_backward(&self, g: &Matrix, op: &GatOp) -> (Matrix, Option<(Matrix, Matrix)>) {
        let (nbrs, att) = (&op.nbrs, &op.att);
        let xv = self.value(op.x);
        let (n, h) = (xv.rows(), xv.cols());
        let (gs, xs) = (g.as_slice(), xv.as_slice());
        // matmul(att, x): d att_ij = g_i · x_j (zero g entries skipped);
        // d x_j = Σ_i att_ij g_i over ascending i (zero weights skipped).
        let mut datt = vec![0.0f32; att.len()];
        let mut dx = Matrix::zeros(n, h);
        for i in 0..n {
            let gi = &gs[i * h..(i + 1) * h];
            for e in nbrs.row(i) {
                let j = nbrs.idx[e];
                let xj = &xs[j * h..(j + 1) * h];
                let mut acc = 0.0f32;
                for (&a, &b) in gi.iter().zip(xj) {
                    if a != 0.0 {
                        acc += a * b;
                    }
                }
                datt[e] = acc;
                if att[e] != 0.0 {
                    axpy(&mut dx.as_mut_slice()[j * h..(j + 1) * h], att[e], gi);
                }
            }
        }
        if is_zero(&datt) {
            return (dx, None);
        }
        // Masked softmax: d z_ij = att_ij (d att_ij - Σ_k d att_ik att_ik).
        let mut dz = vec![0.0f32; att.len()];
        for i in 0..n {
            let dot: f32 = nbrs.row(i).map(|e| datt[e] * att[e]).sum();
            for e in nbrs.row(i) {
                if att[e] != 0.0 {
                    dz[e] = att[e] * (datt[e] - dot);
                }
            }
        }
        if is_zero(&dz) {
            return (dx, None);
        }
        // Leaky ReLU on the recomputed scores `s_i + d_j`.
        let (sv, dv) = (self.value(op.s).as_slice(), self.value(op.d).as_slice());
        for (i, &si) in sv.iter().enumerate() {
            for e in nbrs.row(i) {
                if si + dv[nbrs.idx[e]] > 0.0 {
                    continue;
                }
                dz[e] *= op.alpha;
            }
        }
        if is_zero(&dz) {
            return (dx, None);
        }
        // Score broadcast: row sums into `s`, column sums into `d`.
        let mut ds = Matrix::zeros(n, 1);
        let mut dd = Matrix::zeros(n, 1);
        for i in 0..n {
            for e in nbrs.row(i) {
                let j = nbrs.idx[e];
                ds.as_mut_slice()[i] += dz[e];
                dd.as_mut_slice()[j] += dz[e];
            }
        }
        (dx, Some((ds, dd)))
    }
}

fn leaky_relu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * x
    }
}

/// Whether a gradient is zero in the sense the tape skips on: its
/// squared entries all underflow to zero (so its norm is zero).
fn is_zero(g: &[f32]) -> bool {
    g.iter().all(|&x| x * x == 0.0)
}

fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_vec(
        a.rows(),
        a.cols(),
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .collect(),
    )
}

/// Gradients produced by [`Graph::backward`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Matrix>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`.
    pub fn get(&self, v: Var) -> &Matrix {
        &self.grads[v.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check for a scalar-valued function of
    /// one input matrix.
    fn grad_check(input: Matrix, f: impl Fn(&mut Graph, Var) -> Var, tol: f32) {
        let mut g = Graph::new();
        let x = g.input(input.clone());
        let loss = f(&mut g, x);
        let grads = g.backward(loss);
        let analytic = grads.get(x).clone();

        let eps = 1e-3;
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let eval = |delta: f32| {
                    let mut m = input.clone();
                    m.set(r, c, m.get(r, c) + delta);
                    let mut g = Graph::new();
                    let x = g.input(m);
                    let loss = f(&mut g, x);
                    g.value(loss).get(0, 0)
                };
                let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (numeric - a).abs() < tol,
                    "grad mismatch at ({r},{c}): numeric {numeric}, analytic {a}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_mse() {
        let w = Matrix::from_vec(3, 2, vec![0.5, -0.2, 0.1, 0.4, -0.3, 0.2]);
        let target = Matrix::row(vec![1.0, -1.0]);
        let input = Matrix::row(vec![0.3, -0.7, 0.9]);
        grad_check(
            input,
            move |g, x| {
                let w = g.input(w.clone());
                let t = g.input(target.clone());
                let y = g.matmul(x, w);
                g.mse(y, t)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_relu_chain() {
        let input = Matrix::row(vec![0.5, -0.5, 1.5]);
        grad_check(
            input,
            |g, x| {
                let r = g.relu(x);
                let s = g.scale(r, 2.0);
                let t = g.input(Matrix::row(vec![1.0, 0.0, 0.0]));
                g.mse(s, t)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_kron() {
        let b = Matrix::row(vec![0.2, -0.4]);
        let input = Matrix::row(vec![1.0, 2.0, 3.0]);
        grad_check(
            input,
            move |g, x| {
                let bv = g.input(b.clone());
                let k = g.kron_rows(x, bv);
                let t = g.input(Matrix::row(vec![0.0; 6]));
                g.mse(k, t)
            },
            1e-2,
        );
    }

    fn attention_inputs() -> (Rc<Neighbours>, Matrix, Matrix) {
        // 3 nodes, attention over a small asymmetric mask.
        let mask = Matrix::from_vec(3, 3, vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]);
        let scores = Matrix::from_vec(3, 1, vec![0.3, -0.2, 0.8]);
        let feats = Matrix::from_vec(3, 2, vec![0.5, -0.1, 0.2, 0.7, -0.4, 0.3]);
        (Rc::new(Neighbours::from_mask(&mask)), scores, feats)
    }

    #[test]
    fn grad_gat_attention_scores() {
        let (nbrs, scores, feats) = attention_inputs();
        grad_check(
            scores,
            move |g, x| {
                let f = g.input(feats.clone());
                let a = g.gat_attention(x, x, f, &nbrs, 0.2);
                let pooled = g.mean_rows(a);
                let t = g.input(Matrix::row(vec![0.1, 0.2]));
                g.mse(pooled, t)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_gat_attention_features() {
        let (nbrs, scores, feats) = attention_inputs();
        grad_check(
            feats,
            move |g, x| {
                let s = g.input(scores.clone());
                let d = g.scale(s, -0.5);
                let a = g.gat_attention(s, d, x, &nbrs, 0.2);
                let pooled = g.mean_rows(a);
                let t = g.input(Matrix::row(vec![0.1, 0.2]));
                g.mse(pooled, t)
            },
            1e-2,
        );
    }

    /// The unfused dense chain the attention op replaces: score
    /// broadcast, leaky ReLU, masked row softmax, `matmul(att, x)`.
    fn dense_attention(s: &Matrix, d: &Matrix, x: &Matrix, mask: &Matrix, alpha: f32) -> Matrix {
        let n = x.rows();
        let mut att = Matrix::zeros(n, n);
        for i in 0..n {
            let score = |j: usize| leaky_relu(s.get(i, 0) + d.get(j, 0), alpha);
            let edges: Vec<usize> = (0..n).filter(|&j| mask.get(i, j) > 0.0).collect();
            let mut maxv = f32::NEG_INFINITY;
            for &j in &edges {
                maxv = maxv.max(score(j));
            }
            if maxv == f32::NEG_INFINITY {
                continue;
            }
            let mut denom = 0.0;
            for &j in &edges {
                denom += (score(j) - maxv).exp();
            }
            for &j in &edges {
                att.set(i, j, (score(j) - maxv).exp() / denom);
            }
        }
        att.matmul(x)
    }

    #[test]
    fn gat_attention_is_bit_identical_to_the_dense_chain() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        for n in [1usize, 2, 7, 19] {
            let s = Matrix::xavier(n, 1, &mut rng).map(|v| 40.0 * v);
            let d = Matrix::xavier(n, 1, &mut rng).map(|v| 40.0 * v);
            let x = Matrix::xavier(n, 5, &mut rng);
            // A sparse mask with one empty row (when n > 1).
            let mut mask = Matrix::zeros(n, n);
            for i in 1..n {
                for j in 0..n {
                    if (i * 7 + j * 3) % 4 == 0 || i == j {
                        mask.set(i, j, 1.0);
                    }
                }
            }
            let nbrs = Rc::new(Neighbours::from_mask(&mask));
            for mut g in [Graph::new(), Graph::inference()] {
                let (sv, dv, xv) = (g.input_ref(&s), g.input_ref(&d), g.input_ref(&x));
                let out = g.gat_attention(sv, dv, xv, &nbrs, 0.2);
                let want = dense_attention(&s, &d, &x, &mask, 0.2);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g.value(out)), bits(&want), "n = {n}");
            }
        }
    }

    #[test]
    fn inference_graph_records_no_tape() {
        let w = Matrix::from_vec(2, 1, vec![0.5, -0.25]);
        let mut g = Graph::inference();
        let x = g.input(Matrix::row(vec![1.0, 2.0]));
        let wv = g.input_ref(&w);
        let y = g.matmul(x, wv);
        assert_eq!(g.value(y).as_slice(), &[0.0]);
        assert!(g.ops.is_empty());
    }

    #[test]
    #[should_panic(expected = "backward on an inference graph")]
    fn inference_graph_has_no_backward() {
        let mut g = Graph::inference();
        let x = g.input(Matrix::row(vec![1.0]));
        let _ = g.backward(x);
    }

    #[test]
    fn grad_ce_logits() {
        let input = Matrix::row(vec![0.7, -0.3]);
        grad_check(input, |g, x| g.ce_logits2(x, 1), 1e-2);
    }

    #[test]
    fn grad_mean_rows_and_concat() {
        let input = Matrix::from_vec(2, 2, vec![0.1, 0.9, -0.4, 0.2]);
        grad_check(
            input,
            |g, x| {
                let p = g.mean_rows(x);
                let q = g.concat_cols(p, p);
                let t = g.input(Matrix::row(vec![0.0; 4]));
                g.mse(q, t)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_add_row_bias() {
        let input = Matrix::row(vec![0.3, -0.1]);
        grad_check(
            input,
            |g, bias| {
                let x = g.input(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
                let y = g.add_row(x, bias);
                let p = g.mean_rows(y);
                let t = g.input(Matrix::row(vec![0.0, 0.0]));
                g.mse(p, t)
            },
            1e-2,
        );
    }
}
