//! Reverse-mode automatic differentiation on a flat tape.
//!
//! The FIGRET loss (Equation 6/7/8 of the paper) differentiates the maximum
//! link utilization and the sensitivity penalty with respect to the neural
//! network's weights.  This module provides exactly the operations needed for
//! that computation:
//!
//! * dense affine layers (`matmul`, `add_bias`), ReLU and sigmoid activations,
//! * per-SD-pair normalization of split ratios (`segment_normalize`),
//! * the linear path→edge aggregation of Function 1 (`sparse_matvec`),
//! * element-wise products with constants, per-segment maxima, global and
//!   per-row maxima and dot products for the loss terms.
//!
//! Nodes live on a tape ([`Graph`]); parameters are *persistent* nodes created
//! before [`Graph::seal`], everything built afterwards is transient and
//! discarded by [`Graph::reset`] between samples, so the parameter tensors are
//! never re-cloned during training.
//!
//! # Batched (row-major) semantics
//!
//! Every structured operation treats an `R×C` node as a batch of `R`
//! independent row vectors: `segment_normalize`, `segment_max`,
//! `sparse_matvec`, `dot_const` and the per-row reductions ([`Graph::row_max`],
//! [`Graph::row_logsumexp`]) apply to each row separately, and
//! [`Graph::mul_const`] broadcasts a `cols`-length constant across rows.  With
//! `R = 1` this degenerates to the original single-sample behaviour, so the
//! same loss-construction code serves both the per-sample solver path and the
//! mini-batch training path.
//!
//! Constants attached to operations and the parameter values are shared
//! through [`Arc`]: mini-batch training runs each microbatch on a reusable
//! worker tape ([`crate::WorkerTapes`]) that reads the master tape's
//! parameters in place and keeps only its own gradients.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::tensor::{matmul_acc, matmul_tn_acc, Tensor};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// A constant sparse matrix in CSR form, used for the path→edge aggregation.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` lists.
    pub fn from_rows(rows: usize, cols: usize, entries: &[Vec<(usize, f64)>]) -> SparseMatrix {
        assert_eq!(entries.len(), rows, "one entry list per row is required");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in entries {
            for &(c, v) in row {
                assert!(c < cols, "column index {c} out of range");
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `y = M x` for a dense vector `x` of length `cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must equal the column count");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = M x` writing into a caller-provided buffer of length `rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal the column count");
        assert_eq!(y.len(), self.rows, "output length must equal the row count");
        for r in 0..self.rows {
            let mut acc = 0.0;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[i] * x[self.col_idx[i]];
            }
            y[r] = acc;
        }
    }

    /// `x += Mᵀ y` for a dense vector `y` of length `rows`.
    pub fn add_transpose_matvec(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(y.len(), self.rows);
        assert_eq!(x.len(), self.cols);
        for r in 0..self.rows {
            let g = y[r];
            if g == 0.0 {
                continue;
            }
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                x[self.col_idx[i]] += self.values[i] * g;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    Add(usize, usize),
    AddBias(usize, usize),
    Relu(usize),
    Sigmoid(usize),
    Scale(usize, f64),
    AddScalar(usize),
    MulConst(usize, Arc<Vec<f64>>),
    SparseMatVec(usize, Arc<SparseMatrix>),
    SegmentNormalize(usize, Arc<Vec<Range<usize>>>),
    SegmentMax(usize, Arc<Vec<Range<usize>>>),
    Max(usize),
    RowMax(usize),
    Sum(usize),
    Mean(usize),
    DotConst(usize, Arc<Vec<f64>>),
    LogSumExp(usize, f64),
    RowLogSumExp(usize, f64),
}

impl Op {
    /// The nodes the op reads (none for a leaf).
    fn operands(&self) -> [Option<usize>; 2] {
        match *self {
            Op::Leaf => [None, None],
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddBias(a, b) => [Some(a), Some(b)],
            Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::MulConst(a, _)
            | Op::SparseMatVec(a, _)
            | Op::SegmentNormalize(a, _)
            | Op::SegmentMax(a, _)
            | Op::Max(a)
            | Op::RowMax(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::DotConst(a, _)
            | Op::LogSumExp(a, _)
            | Op::RowLogSumExp(a, _) => [Some(a), None],
        }
    }
}

/// A persistent leaf: a trainable parameter's value.
#[derive(Debug, Clone)]
struct Param {
    value: Tensor,
    /// `valueᵀ`, built by the first `MatMul` backward that needs it (for
    /// `dX = G · Wᵀ`) and dropped whenever the value changes, so every
    /// worker tape of an optimizer step shares one transpose.
    transposed: OnceLock<Tensor>,
}

/// A transient node: built after [`Graph::seal`], dropped by [`Graph::reset`].
#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    op: Op,
    /// Whether the node depends on a parameter or an [`Graph::input`] leaf,
    /// i.e. whether [`Graph::backward`] computes its gradient.
    needs_grad: bool,
}

/// The autograd tape.
///
/// Parameter values live in one block shared copy-on-write through an
/// [`Arc`]: cloning a graph copies its transient nodes and gradients but not
/// its parameters, and the worker tapes of data-parallel training
/// ([`crate::WorkerTapes`]) read the master's parameters in place.  Gradient
/// buffers are allocated by the first [`Graph::backward`] that writes them,
/// so forward-only (inference) passes allocate none.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    params: Arc<Vec<Param>>,
    /// Number of parameters: `Var(i)` is `params[i]` below it and
    /// `nodes[i - persistent]` from it on.
    persistent: usize,
    nodes: Vec<Node>,
    /// One slot per node (parameters first); `None` until a gradient is
    /// written.
    grads: Vec<Option<Tensor>>,
    sealed: bool,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Graph {
        Graph::default()
    }

    fn needs_grad(&self, i: usize) -> bool {
        i < self.persistent || self.nodes[i - self.persistent].needs_grad
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs_grad = op.operands().iter().flatten().any(|&a| self.needs_grad(a));
        self.push_node(value, op, needs_grad)
    }

    fn push_node(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node { value, op, needs_grad });
        self.grads.push(None);
        Var(self.grads.len() - 1)
    }

    /// Creates a persistent leaf (a trainable parameter).  Must be called
    /// before [`Graph::seal`].
    pub fn parameter(&mut self, value: Tensor) -> Var {
        assert!(!self.sealed, "parameters must be created before seal()");
        assert!(self.nodes.is_empty(), "parameters must be created before any transient node");
        let grad = Tensor::zeros(value.rows(), value.cols());
        Arc::make_mut(&mut self.params).push(Param { value, transposed: OnceLock::new() });
        self.grads.push(Some(grad));
        self.persistent += 1;
        Var(self.persistent - 1)
    }

    /// Marks the end of the persistent (parameter) prefix.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Removes every transient node.  Parameters keep their values and
    /// gradients; [`Graph::backward`] zeroes the gradients it accumulates
    /// into.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.grads.truncate(self.persistent);
    }

    /// Creates a transient leaf (an input) whose gradient
    /// [`Graph::backward`] computes.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push_node(value, Op::Leaf, true)
    }

    /// Creates a transient leaf that never receives a gradient (a network
    /// input, a target, a fixed offset).  Operations that read only
    /// constants get no gradient either, so `backward` skips their work.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push_node(value, Op::Leaf, false)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        node_value(&self.params, &self.nodes, self.persistent, v.0)
    }

    /// The gradient of a node (valid after [`Graph::backward`]).
    ///
    /// # Panics
    /// Panics if the node has no gradient: a constant, or a transient node
    /// no backward pass has reached.
    pub fn grad(&self, v: Var) -> &Tensor {
        self.grads[v.0].as_ref().expect("node has no gradient")
    }

    /// The gradient buffer of a node, allocated (zeroed) on first use.
    pub(crate) fn grad_mut(&mut self, v: Var) -> &mut Tensor {
        let (rows, cols) = self.value(v).shape();
        self.grads[v.0].get_or_insert_with(|| Tensor::zeros(rows, cols))
    }

    /// Accumulates an externally computed gradient into a node.
    pub fn add_grad(&mut self, v: Var, grad: &Tensor) {
        self.grad_mut(v).add_assign(grad);
    }

    /// Zeroes the gradient of every node on the tape.
    pub fn zero_grads(&mut self) {
        for g in self.grads.iter_mut().flatten() {
            g.fill_zero();
        }
    }

    /// Overwrites the value of a (parameter) node in place.
    pub fn set_value(&mut self, v: Var, value: Tensor) {
        let slot = self.value_mut(v);
        assert_eq!(slot.shape(), value.shape(), "shape mismatch in set_value");
        *slot = value;
    }

    /// Mutable access to a node value.
    pub fn value_mut(&mut self, v: Var) -> &mut Tensor {
        if v.0 < self.persistent {
            let param = &mut Arc::make_mut(&mut self.params)[v.0];
            param.transposed.take();
            &mut param.value
        } else {
            &mut self.nodes[v.0 - self.persistent].value
        }
    }

    /// A parameter's value and gradient, borrowed together so optimizers
    /// update the value in place from the gradient without copying it.
    pub(crate) fn value_and_grad_mut(&mut self, v: Var) -> (&mut Tensor, &Tensor) {
        assert!(v.0 < self.persistent, "only parameters are updated from their gradient");
        let grad = self.grads[v.0].as_ref().expect("parameters always have a gradient");
        let param = &mut Arc::make_mut(&mut self.params)[v.0];
        param.transposed.take();
        (&mut param.value, grad)
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// `true` if the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Drops the transient nodes and reads `master`'s parameter values (one
    /// reference count, no copy) until [`Graph::release_parameters`].
    pub(crate) fn share_parameters(&mut self, master: &Graph) {
        assert_eq!(self.persistent, master.persistent, "worker and master parameters differ");
        self.reset();
        self.params = Arc::clone(&master.params);
    }

    /// Drops the reference to the shared parameter values, so the master can
    /// update them in place.
    pub(crate) fn release_parameters(&mut self) {
        self.params = Arc::default();
    }

    // ---- operations -------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a.0, b.0))
    }

    /// Element-wise sum of two same-shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.value(a).clone();
        value.add_assign(self.value(b));
        self.push(value, Op::Add(a.0, b.0))
    }

    /// Adds a `1×n` bias row to every row of an `m×n` node.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xv = self.value(x);
        let bv = self.value(bias);
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(bv.cols(), xv.cols(), "bias width must match");
        let mut value = xv.clone();
        for row in value.data_mut().chunks_mut(bv.cols().max(1)) {
            for (v, b) in row.iter_mut().zip(bv.data()) {
                *v += b;
            }
        }
        self.push(value, Op::AddBias(x.0, bias.0))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        for v in value.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.push(value, Op::Relu(a.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        for v in value.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        self.push(value, Op::Sigmoid(a.0))
    }

    /// Multiplies every element by a scalar constant.
    pub fn scale(&mut self, a: Var, k: f64) -> Var {
        let mut value = self.value(a).clone();
        for v in value.data_mut() {
            *v *= k;
        }
        self.push(value, Op::Scale(a.0, k))
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: Var, k: f64) -> Var {
        let mut value = self.value(a).clone();
        for v in value.data_mut() {
            *v += k;
        }
        self.push(value, Op::AddScalar(a.0))
    }

    /// Element-wise product with a constant.  The constant either matches the
    /// node's full element count, or has length `cols` and is broadcast across
    /// every row of a batched node.
    pub fn mul_const(&mut self, a: Var, constant: Arc<Vec<f64>>) -> Var {
        let mut value = self.value(a).clone();
        let cols = value.cols();
        if constant.len() == value.len() {
            for (v, c) in value.data_mut().iter_mut().zip(constant.iter()) {
                *v *= c;
            }
        } else {
            assert_eq!(
                constant.len(),
                cols,
                "constant length must match the element count or the column count"
            );
            for row in value.data_mut().chunks_mut(cols) {
                for (v, c) in row.iter_mut().zip(constant.iter()) {
                    *v *= c;
                }
            }
        }
        self.push(value, Op::MulConst(a.0, constant))
    }

    /// `Y[r] = M X[r]` per row, for a constant sparse matrix and an
    /// `R×M.cols()` node; the result is an `R×M.rows()` node (`1×M.rows()`
    /// for a single sample).
    pub fn sparse_matvec(&mut self, a: Var, matrix: Arc<SparseMatrix>) -> Var {
        let x = self.value(a);
        assert_eq!(x.cols(), matrix.cols(), "node width must match the matrix column count");
        let rows = x.rows();
        let mut out = Tensor::zeros(rows, matrix.rows());
        for r in 0..rows {
            let src = &x.data()[r * matrix.cols()..(r + 1) * matrix.cols()];
            let dst = &mut out.data_mut()[r * matrix.rows()..(r + 1) * matrix.rows()];
            matrix.matvec_into(src, dst);
        }
        self.push(out, Op::SparseMatVec(a.0, matrix))
    }

    /// Normalizes each segment of every row so it sums to 1
    /// (`r_p = x_p / Σ_{q ∈ segment} x_q`).  Segments index columns; inputs
    /// must be non-negative; an all-zero segment yields a uniform distribution
    /// over that segment.
    pub fn segment_normalize(&mut self, a: Var, segments: Arc<Vec<Range<usize>>>) -> Var {
        let value = self.value(a);
        let cols = value.cols();
        let mut out = value.clone();
        for row in out.data_mut().chunks_mut(cols) {
            for seg in segments.iter() {
                let sum: f64 = row[seg.clone()].iter().sum();
                if sum > 0.0 {
                    for v in &mut row[seg.clone()] {
                        *v /= sum;
                    }
                } else {
                    let n = seg.len().max(1);
                    for v in &mut row[seg.clone()] {
                        *v = 1.0 / n as f64;
                    }
                }
            }
        }
        self.push(out, Op::SegmentNormalize(a.0, segments))
    }

    /// Per-segment maximum of every row; the result has one column per
    /// segment.  Empty segments yield 0.
    pub fn segment_max(&mut self, a: Var, segments: Arc<Vec<Range<usize>>>) -> Var {
        let value = self.value(a);
        let cols = value.cols();
        let rows = value.rows();
        let mut out = Tensor::zeros(rows, segments.len());
        for r in 0..rows {
            let row = &value.data()[r * cols..(r + 1) * cols];
            for (s, seg) in segments.iter().enumerate() {
                out.set(r, s, row[seg.clone()].iter().cloned().fold(0.0f64, f64::max));
            }
        }
        self.push(out, Op::SegmentMax(a.0, segments))
    }

    /// Maximum element over the whole node (a `1×1` result).
    pub fn max(&mut self, a: Var) -> Var {
        let m = self.value(a).data().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.push(Tensor::scalar(m), Op::Max(a.0))
    }

    /// Per-row maximum (an `R×1` result); the batched counterpart of
    /// [`Graph::max`].
    pub fn row_max(&mut self, a: Var) -> Var {
        let value = self.value(a);
        let cols = value.cols();
        assert!(cols > 0, "row_max requires at least one column");
        let rows = value.rows();
        let mut out = Tensor::zeros(rows, 1);
        for r in 0..rows {
            let m = value.data()[r * cols..(r + 1) * cols]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            out.set(r, 0, m);
        }
        self.push(out, Op::RowMax(a.0))
    }

    /// Sum of all elements (a `1×1` result).
    pub fn sum(&mut self, a: Var) -> Var {
        let s: f64 = self.value(a).data().iter().sum();
        self.push(Tensor::scalar(s), Op::Sum(a.0))
    }

    /// Arithmetic mean of all elements (a `1×1` result); the standard batch
    /// reduction of per-sample losses.
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.value(a).len();
        assert!(n > 0, "mean of an empty node");
        let s: f64 = self.value(a).data().iter().sum();
        self.push(Tensor::scalar(s / n as f64), Op::Mean(a.0))
    }

    /// Smooth maximum `T · ln Σ exp(x_i / T)` over the whole node (a `1×1`
    /// result).
    ///
    /// Upper-bounds the true maximum and converges to it as the temperature
    /// `T → 0`.  Used by the iterative MLU solver, where a smooth surrogate of
    /// the max-link-utilization objective converges much faster than the
    /// sub-gradient of the exact maximum.
    pub fn logsumexp(&mut self, a: Var, temperature: f64) -> Var {
        assert!(temperature > 0.0, "temperature must be positive");
        let value = logsumexp_slice(self.value(a).data(), temperature);
        self.push(Tensor::scalar(value), Op::LogSumExp(a.0, temperature))
    }

    /// Per-row smooth maximum (an `R×1` result); the batched counterpart of
    /// [`Graph::logsumexp`].
    pub fn row_logsumexp(&mut self, a: Var, temperature: f64) -> Var {
        assert!(temperature > 0.0, "temperature must be positive");
        let value = self.value(a);
        let cols = value.cols();
        assert!(cols > 0, "row_logsumexp requires at least one column");
        let rows = value.rows();
        let mut out = Tensor::zeros(rows, 1);
        for r in 0..rows {
            out.set(r, 0, logsumexp_slice(&value.data()[r * cols..(r + 1) * cols], temperature));
        }
        self.push(out, Op::RowLogSumExp(a.0, temperature))
    }

    /// Dot product of every row with a constant vector (an `R×1` result; a
    /// `1×1` scalar for a single row).
    pub fn dot_const(&mut self, a: Var, constant: Arc<Vec<f64>>) -> Var {
        let value = self.value(a);
        let cols = value.cols();
        assert_eq!(constant.len(), cols, "constant length must match the column count");
        let rows = value.rows();
        let mut out = Tensor::zeros(rows, 1);
        for r in 0..rows {
            let row = &value.data()[r * cols..(r + 1) * cols];
            let s: f64 = row.iter().zip(constant.iter()).map(|(a, b)| a * b).sum();
            out.set(r, 0, s);
        }
        self.push(out, Op::DotConst(a.0, constant))
    }

    // ---- backward ---------------------------------------------------------

    /// Back-propagates from `loss` (which must be `1×1`), accumulating
    /// gradients into every node reachable from it that depends on a
    /// parameter or an input leaf.
    ///
    /// Every gradient buffer is zeroed here, once.  Each operand gradient is
    /// then the in-order sum of its consumers' contributions, and each
    /// contribution is computed exactly as if into a fresh zero tensor and
    /// then added — a reduction whose target already holds another
    /// consumer's contribution goes through a scratch buffer — so the bits
    /// do not depend on how the buffers are reused.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be a scalar");
        for i in 0..self.len() {
            let needed = i <= loss.0 && self.needs_grad(i);
            let (rows, cols) = self.value(Var(i)).shape();
            match &mut self.grads[i] {
                Some(g) => g.fill_zero(),
                slot if needed => *slot = Some(Tensor::zeros(rows, cols)),
                None => {}
            }
        }
        if !self.needs_grad(loss.0) {
            return;
        }
        self.grads[loss.0] = Some(Tensor::scalar(1.0));
        let Graph { params, persistent, nodes, grads, .. } = self;
        let (params, persistent) = (params.as_slice(), *persistent);
        let value = |j: usize| node_value(params, nodes, persistent, j);
        let needs = |j: usize| j < persistent || nodes[j - persistent].needs_grad;
        // `fresh[j]`: no contribution has reached node j's gradient yet.
        let mut fresh = vec![true; loss.0];
        for i in (persistent..=loss.0).rev() {
            let (lower, upper) = grads.split_at_mut(i);
            let Some(grad) = upper[0].as_ref() else { continue };
            if grad.data().iter().all(|g| *g == 0.0) {
                continue;
            }
            let g = grad.data();
            let node = &nodes[i - persistent];
            // Each distinct operand once; an op reading one node twice
            // (`add(x, x)`) adds both contributions in that visit.
            let [p, q] = node.op.operands();
            let q = q.filter(|&q| Some(q) != p);
            for a in [p, q].into_iter().flatten().filter(|&a| needs(a)) {
                let target = lower[a].as_mut().expect("gradient buffers were allocated above");
                let da = target.data_mut();
                let first = std::mem::replace(&mut fresh[a], false);
                match &node.op {
                    Op::Leaf => unreachable!("leaves have no operands"),
                    Op::MatMul(x, w) => {
                        if a == *x {
                            // dX = G · Wᵀ; a parameter's transpose is built
                            // once and shared until its value changes.
                            let owned;
                            let wt = if *w < persistent {
                                let p = &params[*w];
                                p.transposed.get_or_init(|| p.value.transpose())
                            } else {
                                owned = value(*w).transpose();
                                &owned
                            };
                            accumulate(da, first, |buf| matmul_acc(grad, wt, buf));
                        }
                        if a == *w {
                            // dW = Xᵀ · G, without materializing Xᵀ.
                            let first = first && a != *x;
                            accumulate(da, first, |buf| matmul_tn_acc(value(*x), grad, buf));
                        }
                    }
                    Op::Add(x, y) => {
                        let times = usize::from(a == *x) + usize::from(a == *y);
                        for _ in 0..times {
                            add_into(da, g);
                        }
                    }
                    Op::AddBias(x, bias) => {
                        if a == *x {
                            add_into(da, g);
                        }
                        if a == *bias {
                            let first = first && a != *x;
                            accumulate(da, first, |buf| {
                                for row in g.chunks(buf.len().max(1)) {
                                    add_into(buf, row);
                                }
                            });
                        }
                    }
                    Op::Relu(_) => {
                        for ((d, g), v) in da.iter_mut().zip(g).zip(value(a).data()) {
                            *d += if *v <= 0.0 { 0.0 } else { *g };
                        }
                    }
                    Op::Sigmoid(_) => {
                        for ((d, g), y) in da.iter_mut().zip(g).zip(node.value.data()) {
                            *d += g * (y * (1.0 - y));
                        }
                    }
                    Op::Scale(_, k) => {
                        for (d, g) in da.iter_mut().zip(g) {
                            *d += k * g;
                        }
                    }
                    Op::AddScalar(_) => add_into(da, g),
                    Op::MulConst(_, c) => {
                        let period = if c.len() == da.len() { da.len() } else { c.len() };
                        for (drow, grow) in da.chunks_mut(period).zip(g.chunks(period)) {
                            for ((d, g), k) in drow.iter_mut().zip(grow).zip(c.iter()) {
                                *d += g * k;
                            }
                        }
                    }
                    Op::SparseMatVec(_, m) => {
                        accumulate(da, first, |buf| {
                            for r in 0..value(a).rows() {
                                let gy = &g[r * m.rows()..(r + 1) * m.rows()];
                                let dx = &mut buf[r * m.cols()..(r + 1) * m.cols()];
                                m.add_transpose_matvec(gy, dx);
                            }
                        });
                    }
                    Op::SegmentNormalize(_, segments) => {
                        let x = value(a);
                        let cols = x.cols();
                        let x = x.data();
                        accumulate(da, first, |buf| {
                            for (r, row) in buf.chunks_mut(cols.max(1)).enumerate() {
                                let base = r * cols;
                                for seg in segments.iter() {
                                    let sum: f64 = seg.clone().map(|i| x[base + i]).sum();
                                    if sum <= 0.0 {
                                        // Uniform output does not depend on the input.
                                        continue;
                                    }
                                    let gdotx: f64 =
                                        seg.clone().map(|i| g[base + i] * x[base + i]).sum::<f64>()
                                            / (sum * sum);
                                    for i in seg.clone() {
                                        row[i] += g[base + i] / sum - gdotx;
                                    }
                                }
                            }
                        });
                    }
                    Op::SegmentMax(_, segments) => {
                        let x = value(a);
                        let cols = x.cols();
                        let x = x.data();
                        let per_row = segments.len();
                        accumulate(da, first, |buf| {
                            for (r, row) in buf.chunks_mut(cols.max(1)).enumerate() {
                                let base = r * cols;
                                for (s, seg) in segments.iter().enumerate() {
                                    if seg.is_empty() {
                                        continue;
                                    }
                                    // Sub-gradient: route to the first argmax of the segment.
                                    let mut best = seg.start;
                                    for i in seg.clone() {
                                        if x[base + i] > x[base + best] {
                                            best = i;
                                        }
                                    }
                                    let gs = g[r * per_row + s];
                                    if x[base + best] > 0.0 || gs != 0.0 {
                                        row[best] += gs;
                                    }
                                }
                            }
                        });
                    }
                    Op::Max(_) => {
                        let x = value(a).data();
                        let mut best = 0usize;
                        for (j, v) in x.iter().enumerate() {
                            if *v > x[best] {
                                best = j;
                            }
                        }
                        da[best] += g[0];
                    }
                    Op::RowMax(_) => {
                        let x = value(a);
                        let cols = x.cols();
                        for (r, (drow, xrow)) in
                            da.chunks_mut(cols).zip(x.data().chunks(cols)).enumerate()
                        {
                            let mut best = 0usize;
                            for c in 1..cols {
                                if xrow[c] > xrow[best] {
                                    best = c;
                                }
                            }
                            drow[best] += g[r];
                        }
                    }
                    Op::Sum(_) => {
                        for d in da.iter_mut() {
                            *d += g[0];
                        }
                    }
                    Op::Mean(_) => {
                        let share = g[0] / da.len() as f64;
                        for d in da.iter_mut() {
                            *d += share;
                        }
                    }
                    Op::DotConst(_, c) => {
                        for (drow, &gr) in da.chunks_mut(c.len().max(1)).zip(g) {
                            if gr == 0.0 {
                                continue;
                            }
                            for (d, k) in drow.iter_mut().zip(c.iter()) {
                                *d += gr * k;
                            }
                        }
                    }
                    Op::LogSumExp(_, temperature) => {
                        logsumexp_grad_slice(value(a).data(), *temperature, g[0], da);
                    }
                    Op::RowLogSumExp(_, temperature) => {
                        let x = value(a);
                        let cols = x.cols();
                        for ((drow, xrow), &gr) in
                            da.chunks_mut(cols).zip(x.data().chunks(cols)).zip(g)
                        {
                            if gr != 0.0 {
                                logsumexp_grad_slice(xrow, *temperature, gr, drow);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The value of node `i` of a tape with `persistent` parameters.
fn node_value<'a>(
    params: &'a [Param],
    nodes: &'a [Node],
    persistent: usize,
    i: usize,
) -> &'a Tensor {
    if i < persistent {
        &params[i].value
    } else {
        &nodes[i - persistent].value
    }
}

/// `dst += src` element-wise.
fn add_into(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Adds a reduction's contribution to a gradient buffer: `write` accumulates
/// the contribution into the buffer it is given, which starts at zero.  The
/// first contribution to reach a (zeroed) buffer is accumulated in place; a
/// later one goes through a scratch buffer, so the result is always
/// `old + (0 + t₁ + t₂ + …)` as the textbook compute-then-add order has it.
fn accumulate(target: &mut [f64], first: bool, write: impl FnOnce(&mut [f64])) {
    if first {
        write(target);
    } else {
        let mut scratch = vec![0.0; target.len()];
        write(&mut scratch);
        add_into(target, &scratch);
    }
}

fn logsumexp_slice(x: &[f64], temperature: f64) -> f64 {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = x.iter().map(|v| ((v - m) / temperature).exp()).sum();
    m + temperature * sum.ln()
}

/// `out += upstream · softmax(x / T)`.
fn logsumexp_grad_slice(x: &[f64], temperature: f64, upstream: f64, out: &mut [f64]) {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = x.iter().map(|v| ((v - m) / temperature).exp()).collect();
    let total: f64 = weights.iter().sum();
    for (d, w) in out.iter_mut().zip(&weights) {
        *d += upstream * w / total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_matrix_matvec_and_transpose() {
        // M = [[1, 0, 2], [0, 3, 0]]
        let m = SparseMatrix::from_rows(2, 3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        let mut x = vec![0.0; 3];
        m.add_transpose_matvec(&[1.0, 2.0], &mut x);
        assert_eq!(x, vec![1.0, 6.0, 2.0]);
    }

    #[test]
    fn forward_values_are_correct() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 1.0]));
        let y = g.matmul(x, w);
        assert_eq!(g.value(y).data(), &[4.0, 6.0]);
        let r = g.relu(y);
        assert_eq!(g.value(r).data(), &[4.0, 6.0]);
        let s = g.sum(r);
        assert_eq!(g.value(s).as_scalar(), 10.0);
        let m = g.max(y);
        assert_eq!(g.value(m).as_scalar(), 6.0);
        g.reset();
        assert_eq!(g.len(), 1, "reset keeps only persistent parameters");
    }

    #[test]
    fn backward_through_linear_layer() {
        // loss = sum(relu(x W + b)) with positive pre-activations:
        // dL/dW = x^T . 1, dL/db = 1, dL/dx = 1 . W^T.
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]));
        let b = g.parameter(Tensor::row(&[10.0, 10.0]));
        g.seal();
        let x = g.input(Tensor::row(&[2.0, 5.0]));
        let xw = g.matmul(x, w);
        let z = g.add_bias(xw, b);
        let a = g.relu(z);
        let loss = g.sum(a);
        g.backward(loss);
        assert_eq!(g.grad(w).data(), &[2.0, 2.0, 5.0, 5.0]);
        assert_eq!(g.grad(b).data(), &[1.0, 1.0]);
        assert_eq!(g.grad(x).data(), &[-1.0, 7.0]);
    }

    #[test]
    fn segment_normalize_sums_to_one_and_handles_zero() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[2.0, 6.0, 0.0, 0.0, 5.0]));
        let segs = Arc::new(vec![0..2, 2..4, 4..5]);
        let r = g.segment_normalize(x, segs);
        let out = g.value(r).data().to_vec();
        assert!((out[0] - 0.25).abs() < 1e-12);
        assert!((out[1] - 0.75).abs() < 1e-12);
        assert!((out[2] - 0.5).abs() < 1e-12);
        assert!((out[3] - 0.5).abs() < 1e-12);
        assert!((out[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_and_segment_max_route_gradients_to_argmax() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 5.0, 3.0, 4.0]));
        let segs = Arc::new(vec![0..2, 2..4]);
        let sm = g.segment_max(x, segs);
        assert_eq!(g.value(sm).data(), &[5.0, 4.0]);
        let total = g.sum(sm);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0, 1.0]);

        g.reset();
        let x = g.input(Tensor::row(&[1.0, 5.0, 3.0]));
        let m = g.max(x);
        g.backward(m);
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn scalar_ops_and_dot() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let s = g.scale(x, 3.0);
        assert_eq!(g.value(s).data(), &[3.0, 6.0]);
        let t = g.add_scalar(s, 1.0);
        assert_eq!(g.value(t).data(), &[4.0, 7.0]);
        let d = g.dot_const(t, Arc::new(vec![1.0, 2.0]));
        assert_eq!(g.value(d).as_scalar(), 18.0);
        g.backward(d);
        assert_eq!(g.grad(x).data(), &[3.0, 6.0]);
    }

    #[test]
    fn logsumexp_bounds_max_and_has_softmax_gradient() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 3.0, 2.0]));
        let lse = g.logsumexp(x, 0.1);
        let value = g.value(lse).as_scalar();
        assert!(value >= 3.0, "logsumexp must upper-bound the max");
        assert!(value < 3.1, "with a low temperature it must be close to the max");
        g.backward(lse);
        let grads = g.grad(x).data().to_vec();
        assert!((grads.iter().sum::<f64>() - 1.0).abs() < 1e-9, "softmax weights sum to 1");
        assert!(grads[1] > 0.99, "the max coordinate dominates");
    }

    #[test]
    fn sigmoid_gradient_matches_formula() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[0.0]));
        let y = g.sigmoid(x);
        let loss = g.sum(y);
        g.backward(loss);
        // sigma(0) = 0.5, derivative = 0.25.
        assert!((g.value(y).data()[0] - 0.5).abs() < 1e-12);
        assert!((g.grad(x).data()[0] - 0.25).abs() < 1e-12);
    }

    // ---- batched (row-major) semantics ------------------------------------

    #[test]
    fn batched_segment_normalize_acts_per_row() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 4, vec![2.0, 6.0, 1.0, 3.0, 5.0, 5.0, 0.0, 0.0]));
        let segs = Arc::new(vec![0..2, 2..4]);
        let r = g.segment_normalize(x, segs);
        let out = g.value(r);
        assert_eq!(out.shape(), (2, 4));
        assert!((out.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((out.get(0, 1) - 0.75).abs() < 1e-12);
        assert!((out.get(0, 2) - 0.25).abs() < 1e-12);
        assert!((out.get(1, 0) - 0.5).abs() < 1e-12);
        // All-zero segment in row 1 becomes uniform.
        assert!((out.get(1, 2) - 0.5).abs() < 1e-12);
        assert!((out.get(1, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batched_sparse_matvec_matches_per_row_matvec() {
        let m =
            Arc::new(SparseMatrix::from_rows(2, 3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]));
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 1.0, 1.0, 2.0, 0.5, -1.0]));
        let y = g.sparse_matvec(x, m.clone());
        assert_eq!(g.value(y).shape(), (2, 2));
        assert_eq!(&g.value(y).data()[0..2], m.matvec(&[1.0, 1.0, 1.0]).as_slice());
        assert_eq!(&g.value(y).data()[2..4], m.matvec(&[2.0, 0.5, -1.0]).as_slice());
        // Gradients flow independently per row.
        let total = g.sum(y);
        g.backward(total);
        assert_eq!(g.grad(x).shape(), (2, 3));
        assert_eq!(&g.grad(x).data()[0..3], &[1.0, 3.0, 2.0]);
        assert_eq!(&g.grad(x).data()[3..6], &[1.0, 3.0, 2.0]);
    }

    #[test]
    fn row_max_routes_gradient_per_row() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 5.0, 3.0, 7.0, 2.0, 6.0]));
        let m = g.row_max(x);
        assert_eq!(g.value(m).shape(), (2, 1));
        assert_eq!(g.value(m).data(), &[5.0, 7.0]);
        let total = g.sum(m);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_gradient_is_uniform() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 6.0]));
        let m = g.mean(x);
        assert_eq!(g.value(m).as_scalar(), 3.0);
        g.backward(m);
        assert_eq!(g.grad(x).data(), &[0.25; 4]);
    }

    #[test]
    fn mul_const_broadcasts_across_rows() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0; 6]));
        let y = g.mul_const(x, Arc::new(vec![1.0, 2.0, 3.0]));
        assert_eq!(g.value(y).data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let total = g.sum(y);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn batched_dot_const_yields_column() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let d = g.dot_const(x, Arc::new(vec![2.0, 1.0]));
        assert_eq!(g.value(d).shape(), (2, 1));
        assert_eq!(g.value(d).data(), &[4.0, 10.0]);
        let total = g.sum(d);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn row_logsumexp_matches_global_on_single_row() {
        let mut g = Graph::new();
        g.seal();
        let x1 = g.input(Tensor::row(&[1.0, 3.0, 2.0]));
        let global = g.logsumexp(x1, 0.1);
        let x2 = g.input(Tensor::row(&[1.0, 3.0, 2.0]));
        let per_row = g.row_logsumexp(x2, 0.1);
        assert!((g.value(global).as_scalar() - g.value(per_row).get(0, 0)).abs() < 1e-12);
        // Batched: each row upper-bounds its own max.
        let x3 = g.input(Tensor::from_vec(2, 2, vec![0.0, 1.0, 5.0, 4.0]));
        let lse = g.row_logsumexp(x3, 0.05);
        assert!(g.value(lse).get(0, 0) >= 1.0);
        assert!(g.value(lse).get(1, 0) >= 5.0);
    }

    #[test]
    fn cloned_graph_is_independent_and_sendable() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::row(&[1.0, 2.0]));
        g.seal();
        let mut clone = g.clone();
        let handle = std::thread::spawn(move || {
            // The loss flows through the parameter, so the worker writes a
            // non-zero gradient into ITS tape.
            let x = clone.input(Tensor::row(&[3.0, 4.0]));
            let z = clone.add(x, w);
            let d = clone.dot_const(z, Arc::new(vec![1.0, 1.0]));
            let loss = clone.sum(d);
            clone.backward(loss);
            clone.grad(w).data().to_vec()
        });
        let worker_grads = handle.join().unwrap();
        assert_eq!(worker_grads, vec![1.0, 1.0], "the clone must accumulate real gradients");
        // ...while the original tape's gradient storage stays untouched.
        assert_eq!(g.grad(w).data(), &[0.0, 0.0]);
        assert_eq!(g.value(w).data(), &[1.0, 2.0]);
    }

    #[test]
    fn forward_only_passes_allocate_no_gradients() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        g.seal();
        let x = g.constant(Tensor::row(&[1.0, -1.0]));
        let y = g.matmul(x, w);
        let r = g.relu(y);
        let loss = g.sum(r);
        assert!(g.grads[x.0..].iter().all(Option::is_none), "inference allocates no gradients");
        g.backward(loss);
        assert!(g.grads[x.0].is_none(), "a constant never receives a gradient");
        assert_eq!(g.grad(w).data(), &[0.0, 0.0, 0.0, 0.0], "relu(-1, -2) passes nothing back");
        g.reset();
        assert_eq!(g.len(), 1, "reset keeps only the parameter and its gradient");
    }

    #[test]
    fn worker_tapes_release_the_master_and_reduce_in_chunk_order() {
        let mut master = Graph::new();
        let w = master.parameter(Tensor::from_vec(2, 1, vec![0.5, -1.5]));
        master.seal();
        let rows = [[1.0, 2.0], [3.0, -4.0], [0.25, 8.0]];
        let loss_of = |tape: &mut Graph, row: &[f64; 2]| {
            let x = tape.constant(Tensor::row(row));
            let y = tape.matmul(x, w);
            let loss = tape.sum(y);
            tape.backward(loss);
            tape.value(loss).as_scalar()
        };
        let mut workers = crate::WorkerTapes::new(&master, rows.len());
        let losses = workers.run(&master, rows.iter().collect(), loss_of);
        assert_eq!(losses, vec![-2.5, 7.5, -11.875]);
        assert_eq!(Arc::strong_count(&master.params), 1, "workers must not pin the master");
        workers.reduce_into(&mut master, &[w], 0.5);
        let mut expected = [0.0, 0.0];
        for row in &rows {
            expected[0] += row[0];
            expected[1] += row[1];
        }
        assert_eq!(master.grad(w).data(), &[expected[0] * 0.5, expected[1] * 0.5]);
    }

    #[test]
    fn add_grad_accumulates_external_gradients() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::row(&[0.0, 0.0]));
        g.seal();
        g.add_grad(w, &Tensor::row(&[1.0, 2.0]));
        g.add_grad(w, &Tensor::row(&[0.5, -1.0]));
        assert_eq!(g.grad(w).data(), &[1.5, 1.0]);
        g.zero_grads();
        assert_eq!(g.grad(w).data(), &[0.0, 0.0]);
    }
}
