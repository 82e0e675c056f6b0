//! A minimal define-by-run reverse-mode autodiff engine over 2-D tensors.
//!
//! A forward pass records nodes on a [`Tape`]; [`Tape::backward`] walks
//! them in reverse, and [`Tape::param_grads`] hands the accumulated
//! parameter gradients back to the [`crate::optim::ParamStore`].
//! [`Tape::reset`] empties a tape but keeps every node's value and
//! gradient buffer, so one tape serves a whole training run or a stream of
//! inference windows: once the first pass has sized the buffers, later
//! passes over the same graph allocate nothing. Tensors are dense
//! row-major `f64` matrices — large enough for the miniature forecasters,
//! small enough to audit.
//!
//! Only nodes that some parameter feeds receive gradients. Matrix-product
//! gradients run on the shared GEMM kernel: `dA = dOut·Bᵀ` through
//! [`tfb_math::matrix::par_gemm`], `dB = Aᵀ·dOut` through the
//! transposed-left entry [`tfb_math::matrix::gemm_tn_acc`], which reads
//! `A`'s rows as they are. Every gradient element still adds
//! its terms in ascending order, starting from `+0.0`; the kernel's
//! zero-skip drops only `±0` terms, which cannot change such a sum when
//! the operands are finite, so the gradients equal the plain triple-loop
//! formulas bit for bit.
//!
//! Parameter values change only when the store's [`Stamp`] does (once
//! per optimizer step in training), so a tape keeps what it derives from
//! them for as long as the stamp holds: a node slot that already holds a
//! parameter at the current stamp is not copied again, and `dA` reuses
//! the transpose of a parameter `B` built at that stamp.

use crate::optim::{ParamId, ParamStore, Stamp};
use tfb_math::matrix::{gemm_tn_acc, par_gemm};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorRef(usize);

#[derive(Debug, Clone, Copy)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    MulElem(usize, usize),
    Scale(usize, f64),
    AddRowBroadcast(usize, usize),
    MulRowBroadcast(usize, usize),
    Relu(usize),
    Tanh(usize),
    Sigmoid(usize),
    SoftmaxRows(usize),
    Transpose(usize),
    MeanAll(usize),
    ConcatCols(usize, usize),
    LayerNormRows(usize),
    AvgPoolRows(usize, usize),
    CausalConv1d {
        x: usize,
        w: usize,
        kernel: usize,
        dilation: usize,
    },
    Reshape(usize),
}

impl Op {
    /// The nodes this op reads.
    fn inputs(self) -> [Option<usize>; 2] {
        match self {
            Op::Leaf => [None, None],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::MulElem(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulRowBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::CausalConv1d { x: a, w: b, .. } => [Some(a), Some(b)],
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::SoftmaxRows(a)
            | Op::Transpose(a)
            | Op::MeanAll(a)
            | Op::LayerNormRows(a)
            | Op::AvgPoolRows(a, _)
            | Op::Reshape(a) => [Some(a), None],
        }
    }
}

struct Node {
    rows: usize,
    cols: usize,
    op: Op,
    /// The parameter a leaf loads, with the stamp of the loaded values.
    param: Option<(ParamId, Stamp)>,
    /// Whether some parameter feeds this node; only such nodes get
    /// gradients.
    needs_grad: bool,
}

/// The tape: an arena of nodes built during the forward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Value buffer of node slot `i`. Slots past `nodes.len()` keep the
    /// buffers of an earlier pass for reuse.
    values: Vec<Vec<f64>>,
    /// The parameter (and stamp) whose values slot `i`'s buffer holds,
    /// if the last node in that slot loaded one.
    held: Vec<Option<(ParamId, Stamp)>>,
    /// Gradient buffer of node slot `i`, sized by [`Tape::backward`].
    grads: Vec<Vec<f64>>,
    /// How many leading nodes the last [`Tape::backward`] gave gradients.
    grads_valid: usize,
    /// Scratch of the matmul backward: a transposed right operand and a
    /// product.
    transposed: Vec<f64>,
    product: Vec<f64>,
    /// Parameter transposes of the matmul backward, by parameter index,
    /// with the stamp each was built at.
    param_t: Vec<(Option<Stamp>, Vec<f64>)>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Empties the tape for the next pass. Every value and gradient buffer
    /// is kept, so a pass over the same graph allocates nothing.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.grads_valid = 0;
    }

    /// The value buffer of the next node slot: empty, with whatever
    /// capacity an earlier pass left in it.
    fn buffer(&mut self) -> Vec<f64> {
        let mut buf = self
            .values
            .get_mut(self.nodes.len())
            .map(std::mem::take)
            .unwrap_or_default();
        buf.clear();
        buf
    }

    fn push(&mut self, value: Vec<f64>, rows: usize, cols: usize, op: Op) -> TensorRef {
        debug_assert_eq!(value.len(), rows * cols);
        let i = self.nodes.len();
        let needs_grad = op
            .inputs()
            .into_iter()
            .flatten()
            .any(|p| self.nodes[p].needs_grad);
        match self.values.get_mut(i) {
            Some(slot) => {
                *slot = value;
                self.held[i] = None;
            }
            None => {
                self.values.push(value);
                self.held.push(None);
            }
        }
        // Gradient buffers are sized by `backward`; forward-only passes
        // (inference, validation) never touch them.
        self.nodes.push(Node {
            rows,
            cols,
            op,
            param: None,
            needs_grad,
        });
        TensorRef(i)
    }

    /// A node holding `f` of every element of `a`.
    fn map(&mut self, a: TensorRef, op: Op, f: impl Fn(f64) -> f64) -> TensorRef {
        let (r, c) = self.shape(a);
        let mut v = self.buffer();
        v.extend(self.values[a.0].iter().map(|&x| f(x)));
        self.push(v, r, c, op)
    }

    /// A node holding `f` of every element pair of the same-shaped `a` and
    /// `b`.
    fn zip_map(
        &mut self,
        a: TensorRef,
        b: TensorRef,
        ctx: &str,
        op: Op,
        f: impl Fn(f64, f64) -> f64,
    ) -> TensorRef {
        let (r, c) = self.assert_same_shape(a, b, ctx);
        let mut v = self.buffer();
        v.extend(
            self.values[a.0]
                .iter()
                .zip(&self.values[b.0])
                .map(|(&x, &y)| f(x, y)),
        );
        self.push(v, r, c, op)
    }

    /// Loads a parameter onto the tape (gradients flow back to the store).
    /// A slot that already holds this parameter at the store's current
    /// stamp keeps its copy.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> TensorRef {
        let (value, rows, cols) = store.get(id);
        let key = Some((id, store.stamp()));
        let i = self.nodes.len();
        let v = if self.held.get(i) == Some(&key) {
            std::mem::take(&mut self.values[i])
        } else {
            let mut v = self.buffer();
            v.extend_from_slice(value);
            v
        };
        let r = self.push(v, rows, cols, Op::Leaf);
        self.held[i] = key;
        let node = &mut self.nodes[r.0];
        node.param = key;
        node.needs_grad = true;
        r
    }

    /// Loads constant input data (no gradient).
    pub fn input(&mut self, data: &[f64], rows: usize, cols: usize) -> TensorRef {
        let mut v = self.buffer();
        v.extend_from_slice(data);
        self.push(v, rows, cols, Op::Leaf)
    }

    /// Loads constant input data by taking ownership of the buffer —
    /// [`Tape::input`] without the copy, for batch-sized operands.
    pub fn input_owned(&mut self, data: Vec<f64>, rows: usize, cols: usize) -> TensorRef {
        self.push(data, rows, cols, Op::Leaf)
    }

    /// Shape of a tensor.
    pub fn shape(&self, t: TensorRef) -> (usize, usize) {
        (self.nodes[t.0].rows, self.nodes[t.0].cols)
    }

    /// Value of a tensor.
    pub fn value(&self, t: TensorRef) -> &[f64] {
        &self.values[t.0]
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, br, "matmul shape mismatch: {ar}x{ac} * {br}x{bc}");
        // Forward values go through the shared blocked GEMM (row-parallel
        // for large batches). Its per-element reduction runs over `k` in
        // ascending order with the same zero-skip as the historical ikj
        // loop here, so single-row and batched forwards agree to the last
        // bit at any thread count.
        let mut out = self.buffer();
        out.resize(ar * bc, 0.0);
        par_gemm(&self.values[a.0], ar, ac, &self.values[b.0], bc, &mut out);
        self.push(out, ar, bc, Op::MatMul(a.0, b.0))
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        self.zip_map(a, b, "add", Op::Add(a.0, b.0), |x, y| x + y)
    }

    /// Elementwise difference (same shape).
    pub fn sub(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        self.zip_map(a, b, "sub", Op::Sub(a.0, b.0), |x, y| x - y)
    }

    /// Elementwise product (same shape).
    pub fn mul_elem(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        self.zip_map(a, b, "mul_elem", Op::MulElem(a.0, b.0), |x, y| x * y)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: TensorRef, s: f64) -> TensorRef {
        self.map(a, Op::Scale(a.0, s), |x| x * s)
    }

    /// Adds a `1 x cols` row vector to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: TensorRef, bias: TensorRef) -> TensorRef {
        let (r, c) = self.shape(a);
        let (br, bc) = self.shape(bias);
        assert!(br == 1 && bc == c, "bias must be 1 x cols");
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        let bv = &self.values[bias.0];
        for row in v.chunks_exact_mut(c) {
            for (x, b) in row.iter_mut().zip(bv) {
                *x += b;
            }
        }
        self.push(v, r, c, Op::AddRowBroadcast(a.0, bias.0))
    }

    /// Multiplies every row of `a` elementwise by a `1 x cols` row vector.
    pub fn mul_row_broadcast(&mut self, a: TensorRef, gain: TensorRef) -> TensorRef {
        let (r, c) = self.shape(a);
        let (gr, gc) = self.shape(gain);
        assert!(gr == 1 && gc == c, "gain must be 1 x cols");
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        let gv = &self.values[gain.0];
        for row in v.chunks_exact_mut(c) {
            for (x, g) in row.iter_mut().zip(gv) {
                *x *= g;
            }
        }
        self.push(v, r, c, Op::MulRowBroadcast(a.0, gain.0))
    }

    /// ReLU.
    pub fn relu(&mut self, a: TensorRef) -> TensorRef {
        self.map(a, Op::Relu(a.0), |x| x.max(0.0))
    }

    /// Tanh.
    pub fn tanh(&mut self, a: TensorRef) -> TensorRef {
        self.map(a, Op::Tanh(a.0), f64::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: TensorRef) -> TensorRef {
        self.map(a, Op::Sigmoid(a.0), |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: TensorRef) -> TensorRef {
        let (r, c) = self.shape(a);
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        for row in v.chunks_mut(c) {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        self.push(v, r, c, Op::SoftmaxRows(a.0))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: TensorRef) -> TensorRef {
        let (r, c) = self.shape(a);
        let mut v = self.buffer();
        transpose_into(&self.values[a.0], r, c, &mut v);
        self.push(v, c, r, Op::Transpose(a.0))
    }

    /// Mean over all elements (returns a 1x1 tensor; the usual loss head).
    pub fn mean_all(&mut self, a: TensorRef) -> TensorRef {
        let n = self.values[a.0].len() as f64;
        let m = self.values[a.0].iter().sum::<f64>() / n;
        let mut v = self.buffer();
        v.push(m);
        self.push(v, 1, 1, Op::MeanAll(a.0))
    }

    /// Concatenates columns: `[a | b]` (same row count).
    pub fn concat_cols(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "concat_cols row mismatch");
        let mut v = self.buffer();
        for i in 0..ar {
            v.extend_from_slice(&self.values[a.0][i * ac..(i + 1) * ac]);
            v.extend_from_slice(&self.values[b.0][i * bc..(i + 1) * bc]);
        }
        self.push(v, ar, ac + bc, Op::ConcatCols(a.0, b.0))
    }

    /// Row-wise layer normalization (no affine; compose with
    /// [`Tape::mul_row_broadcast`] / [`Tape::add_row_broadcast`] for one).
    pub fn layer_norm_rows(&mut self, a: TensorRef) -> TensorRef {
        let (r, c) = self.shape(a);
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        for row in v.chunks_mut(c) {
            let mean = row.iter().sum::<f64>() / c as f64;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / c as f64;
            let inv = 1.0 / (var + 1e-5).sqrt();
            for x in row.iter_mut() {
                *x = (*x - mean) * inv;
            }
        }
        self.push(v, r, c, Op::LayerNormRows(a.0))
    }

    /// Averages consecutive groups of `stride` rows (rows not divisible by
    /// the stride keep a smaller final group).
    pub fn avg_pool_rows(&mut self, a: TensorRef, stride: usize) -> TensorRef {
        assert!(stride >= 1, "stride must be >= 1");
        let (r, c) = self.shape(a);
        let out_rows = r.div_ceil(stride);
        let mut v = self.buffer();
        v.resize(out_rows * c, 0.0);
        let av = &self.values[a.0];
        for g in 0..out_rows {
            let start = g * stride;
            let end = (start + stride).min(r);
            for row in start..end {
                for j in 0..c {
                    v[g * c + j] += av[row * c + j];
                }
            }
            let k = (end - start) as f64;
            for j in 0..c {
                v[g * c + j] /= k;
            }
        }
        self.push(v, out_rows, c, Op::AvgPoolRows(a.0, stride))
    }

    /// Causal dilated 1-D convolution. `x` is `(seq, in_ch)`, `w` is
    /// `(kernel * in_ch, out_ch)`; output is `(seq, out_ch)` with zero
    /// padding on the left.
    pub fn causal_conv1d(
        &mut self,
        x: TensorRef,
        w: TensorRef,
        kernel: usize,
        dilation: usize,
    ) -> TensorRef {
        let (seq, in_ch) = self.shape(x);
        let (wr, out_ch) = self.shape(w);
        assert_eq!(wr, kernel * in_ch, "conv weight shape");
        assert!(dilation >= 1);
        let mut v = self.buffer();
        v.resize(seq * out_ch, 0.0);
        let xv = &self.values[x.0];
        let wv = &self.values[w.0];
        for t in 0..seq {
            for k in 0..kernel {
                let offset = k * dilation;
                if offset > t {
                    continue;
                }
                let src = t - offset;
                for ic in 0..in_ch {
                    let xval = xv[src * in_ch + ic];
                    if xval == 0.0 {
                        continue;
                    }
                    let wrow = &wv[(k * in_ch + ic) * out_ch..(k * in_ch + ic + 1) * out_ch];
                    let orow = &mut v[t * out_ch..(t + 1) * out_ch];
                    for (o, &ww) in orow.iter_mut().zip(wrow) {
                        *o += xval * ww;
                    }
                }
            }
        }
        self.push(
            v,
            seq,
            out_ch,
            Op::CausalConv1d {
                x: x.0,
                w: w.0,
                kernel,
                dilation,
            },
        )
    }

    /// Reinterprets the row-major data with a new shape (same element
    /// count); gradients pass through unchanged.
    pub fn reshape(&mut self, a: TensorRef, rows: usize, cols: usize) -> TensorRef {
        let (r, c) = self.shape(a);
        assert_eq!(r * c, rows * cols, "reshape element count mismatch");
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        self.push(v, rows, cols, Op::Reshape(a.0))
    }

    fn assert_same_shape(&self, a: TensorRef, b: TensorRef, ctx: &str) -> (usize, usize) {
        let sa = self.shape(a);
        let sb = self.shape(b);
        assert_eq!(sa, sb, "{ctx}: shape mismatch {sa:?} vs {sb:?}");
        sa
    }

    /// Runs backpropagation from `loss` (must be 1x1) and returns nothing;
    /// gradients are available via [`Tape::param_grads`].
    pub fn backward(&mut self, loss: TensorRef) {
        assert_eq!(self.shape(loss), (1, 1), "loss must be scalar");
        let n = self.nodes.len();
        if self.grads.len() < n {
            self.grads.resize_with(n, Vec::new);
        }
        for ((node, value), grad) in self.nodes.iter().zip(&self.values).zip(&mut self.grads) {
            grad.clear();
            if node.needs_grad {
                grad.resize(value.len(), 0.0);
            }
        }
        self.grads_valid = n;
        if !self.nodes[loss.0].needs_grad {
            return;
        }
        self.grads[loss.0][0] = 1.0;
        let (nodes, values) = (&self.nodes, &self.values);
        let wants = |p: usize| nodes[p].needs_grad;
        for idx in (0..=loss.0).rev() {
            let node = &nodes[idx];
            if !node.needs_grad {
                continue;
            }
            // Inputs precede their node, so the node's own gradient and
            // its inputs' gradients sit on opposite sides of the split.
            let (grads, rest) = self.grads.split_at_mut(idx);
            let grad = rest[0].as_slice();
            if grad.iter().all(|&g| g == 0.0) {
                continue;
            }
            // A single-input op that needs a gradient has an input that
            // needs one too; two-input ops check each side.
            match node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (ar, ac, bc) = (nodes[a].rows, nodes[a].cols, nodes[b].cols);
                    if wants(a) {
                        // dA = dOut · Bᵀ
                        let bt = transposed(
                            (&values[b], ac, bc),
                            nodes[b].param,
                            &mut self.param_t,
                            &mut self.transposed,
                        );
                        add_product(&mut self.product, &mut grads[a], |p| {
                            par_gemm(grad, ar, bc, bt, ac, p)
                        });
                    }
                    if wants(b) {
                        // dB = Aᵀ · dOut, read straight from A's rows.
                        add_product(&mut self.product, &mut grads[b], |p| {
                            gemm_tn_acc(&values[a], ar, ac, grad, bc, p)
                        });
                    }
                }
                Op::Add(a, b) => {
                    for p in [a, b] {
                        if wants(p) {
                            for (g, &d) in grads[p].iter_mut().zip(grad) {
                                *g += d;
                            }
                        }
                    }
                }
                Op::Sub(a, b) => {
                    if wants(a) {
                        for (g, &d) in grads[a].iter_mut().zip(grad) {
                            *g += d;
                        }
                    }
                    if wants(b) {
                        for (g, &d) in grads[b].iter_mut().zip(grad) {
                            *g -= d;
                        }
                    }
                }
                Op::MulElem(a, b) => {
                    for (p, other) in [(a, b), (b, a)] {
                        if wants(p) {
                            let ov = &values[other];
                            for ((g, &d), &x) in grads[p].iter_mut().zip(grad).zip(ov) {
                                *g += d * x;
                            }
                        }
                    }
                }
                Op::Scale(a, s) => {
                    for (g, &d) in grads[a].iter_mut().zip(grad) {
                        *g += d * s;
                    }
                }
                Op::AddRowBroadcast(a, bias) => {
                    let c = node.cols;
                    if wants(a) {
                        for (g, &d) in grads[a].iter_mut().zip(grad) {
                            *g += d;
                        }
                    }
                    if wants(bias) {
                        let gb = &mut grads[bias];
                        for drow in grad.chunks_exact(c) {
                            for (g, &d) in gb.iter_mut().zip(drow) {
                                *g += d;
                            }
                        }
                    }
                }
                Op::MulRowBroadcast(a, gain) => {
                    let c = node.cols;
                    if wants(a) {
                        let (ga, gv) = (&mut grads[a], &values[gain]);
                        for (garow, drow) in ga.chunks_exact_mut(c).zip(grad.chunks_exact(c)) {
                            for ((g, &d), &w) in garow.iter_mut().zip(drow).zip(gv) {
                                *g += d * w;
                            }
                        }
                    }
                    if wants(gain) {
                        let (gg, av) = (&mut grads[gain], &values[a]);
                        for (drow, arow) in grad.chunks_exact(c).zip(av.chunks_exact(c)) {
                            for ((g, &d), &x) in gg.iter_mut().zip(drow).zip(arow) {
                                *g += d * x;
                            }
                        }
                    }
                }
                Op::Relu(a) => {
                    for ((g, &d), &x) in grads[a].iter_mut().zip(grad).zip(&values[a]) {
                        if x > 0.0 {
                            *g += d;
                        }
                    }
                }
                Op::Tanh(a) => {
                    for ((g, &d), &y) in grads[a].iter_mut().zip(grad).zip(&values[idx]) {
                        *g += d * (1.0 - y * y);
                    }
                }
                Op::Sigmoid(a) => {
                    for ((g, &d), &y) in grads[a].iter_mut().zip(grad).zip(&values[idx]) {
                        *g += d * y * (1.0 - y);
                    }
                }
                Op::SoftmaxRows(a) => {
                    let c = node.cols;
                    let ga = &mut grads[a];
                    let rows = values[idx].chunks(c).zip(grad.chunks(c));
                    for (row_i, (yrow, drow)) in rows.enumerate() {
                        let dot: f64 = yrow.iter().zip(drow).map(|(y, d)| y * d).sum();
                        for j in 0..c {
                            ga[row_i * c + j] += yrow[j] * (drow[j] - dot);
                        }
                    }
                }
                Op::Transpose(a) => {
                    let (r, c) = (node.rows, node.cols);
                    let ga = &mut grads[a];
                    for i in 0..r {
                        for j in 0..c {
                            ga[j * r + i] += grad[i * c + j];
                        }
                    }
                }
                Op::MeanAll(a) => {
                    let d = grad[0] / values[a].len() as f64;
                    for g in grads[a].iter_mut() {
                        *g += d;
                    }
                }
                Op::ConcatCols(a, b) => {
                    let (ac, bc) = (nodes[a].cols, nodes[b].cols);
                    for i in 0..node.rows {
                        if wants(a) {
                            for j in 0..ac {
                                grads[a][i * ac + j] += grad[i * (ac + bc) + j];
                            }
                        }
                        if wants(b) {
                            for j in 0..bc {
                                grads[b][i * bc + j] += grad[i * (ac + bc) + ac + j];
                            }
                        }
                    }
                }
                Op::LayerNormRows(a) => {
                    let c = node.cols;
                    let cf = c as f64;
                    let ga = &mut grads[a];
                    let rows = values[a].chunks(c).zip(grad.chunks(c));
                    for (row_i, (arow, drow)) in rows.enumerate() {
                        let mean = arow.iter().sum::<f64>() / cf;
                        let var = arow.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / cf;
                        let inv = 1.0 / (var + 1e-5).sqrt();
                        let xhat = |j: usize| (arow[j] - mean) * inv;
                        let dsum: f64 = drow.iter().sum();
                        let dxhat_dot: f64 =
                            drow.iter().enumerate().map(|(j, d)| d * xhat(j)).sum();
                        for j in 0..c {
                            ga[row_i * c + j] +=
                                inv / cf * (cf * drow[j] - dsum - xhat(j) * dxhat_dot);
                        }
                    }
                }
                Op::AvgPoolRows(a, stride) => {
                    let (r, c) = (nodes[a].rows, nodes[a].cols);
                    let ga = &mut grads[a];
                    for g in 0..r.div_ceil(stride) {
                        let start = g * stride;
                        let end = (start + stride).min(r);
                        let k = (end - start) as f64;
                        for row in start..end {
                            for j in 0..c {
                                ga[row * c + j] += grad[g * c + j] / k;
                            }
                        }
                    }
                }
                Op::Reshape(a) => {
                    for (g, &d) in grads[a].iter_mut().zip(grad) {
                        *g += d;
                    }
                }
                Op::CausalConv1d {
                    x,
                    w,
                    kernel,
                    dilation,
                } => {
                    let (seq, in_ch) = (nodes[x].rows, nodes[x].cols);
                    let out_ch = node.cols;
                    let (xv, wv) = (&values[x], &values[w]);
                    for t in 0..seq {
                        let drow = &grad[t * out_ch..(t + 1) * out_ch];
                        for k in 0..kernel {
                            let offset = k * dilation;
                            if offset > t {
                                continue;
                            }
                            let src = t - offset;
                            for ic in 0..in_ch {
                                let wbase = (k * in_ch + ic) * out_ch;
                                if wants(w) {
                                    let xval = xv[src * in_ch + ic];
                                    let gw = &mut grads[w][wbase..wbase + out_ch];
                                    for (g, &d) in gw.iter_mut().zip(drow) {
                                        *g += d * xval;
                                    }
                                }
                                if wants(x) {
                                    let mut acc = 0.0;
                                    for (&d, &ww) in drow.iter().zip(&wv[wbase..wbase + out_ch]) {
                                        acc += d * ww;
                                    }
                                    grads[x][src * in_ch + ic] += acc;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Accumulates the gradients of parameter leaves into the store.
    ///
    /// Contributes nothing unless [`Tape::backward`] ran since the last
    /// [`Tape::reset`]: a forward-only pass never hands back the stale
    /// gradients of an earlier one.
    pub fn param_grads(&self, store: &mut ParamStore) {
        for (node, grad) in self.nodes[..self.grads_valid].iter().zip(&self.grads) {
            if let Some((id, _)) = node.param {
                store.accumulate_grad(id, grad);
            }
        }
    }
}

/// Writes the transpose of the row-major `rows x cols` matrix `m` into
/// `out`.
fn transpose_into(m: &[f64], rows: usize, cols: usize, out: &mut Vec<f64>) {
    out.clear();
    out.resize(rows * cols, 0.0);
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = m[i * cols + j];
        }
    }
}

/// The transpose of the row-major `rows x cols` matrix `m`: `m` itself for
/// a single row or column (same memory layout). A parameter's transpose
/// comes from `cache`, rebuilt only when the stamp it was built at is not
/// the one `m` was loaded at; any other operand's is built in `scratch`.
fn transposed<'a>(
    (m, rows, cols): (&'a [f64], usize, usize),
    param: Option<(ParamId, Stamp)>,
    cache: &'a mut Vec<(Option<Stamp>, Vec<f64>)>,
    scratch: &'a mut Vec<f64>,
) -> &'a [f64] {
    if rows == 1 || cols == 1 {
        return m;
    }
    let Some((id, stamp)) = param else {
        transpose_into(m, rows, cols, scratch);
        return scratch;
    };
    if cache.len() <= id.index() {
        cache.resize_with(id.index() + 1, Default::default);
    }
    let (built, t) = &mut cache[id.index()];
    if *built != Some(stamp) {
        transpose_into(m, rows, cols, t);
        *built = Some(stamp);
    }
    t
}

/// `acc += product`, where `gemm` forms the product in `scratch` from
/// `+0.0` first, so every element of `acc` receives one complete sum, as
/// it would from a triple loop.
fn add_product(scratch: &mut Vec<f64>, acc: &mut [f64], gemm: impl FnOnce(&mut [f64])) {
    scratch.clear();
    scratch.resize(acc.len(), 0.0);
    gemm(scratch);
    for (g, &p) in acc.iter_mut().zip(scratch.iter()) {
        *g += p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::ParamStore;
    use proptest::prelude::*;

    /// Finite-difference gradient check for a scalar function of one
    /// parameter tensor.
    fn grad_check(
        init: Vec<f64>,
        rows: usize,
        cols: usize,
        f: impl Fn(&mut Tape, TensorRef) -> TensorRef,
    ) {
        let mut store = ParamStore::new(0);
        let id = store.add_raw(init.clone(), rows, cols);
        // Analytic gradient.
        let mut tape = Tape::new();
        let p = tape.param(&store, id);
        let loss = f(&mut tape, p);
        tape.backward(loss);
        tape.param_grads(&mut store);
        let analytic = store.grad(id).to_vec();
        // Numerical gradient.
        let eps = 1e-6;
        for i in 0..init.len() {
            let eval = |store: &ParamStore| {
                let mut t = Tape::new();
                let p = t.param(store, id);
                let l = f(&mut t, p);
                t.value(l)[0]
            };
            store.perturb(id, i, eps);
            let up = eval(&store);
            store.perturb(id, i, -2.0 * eps);
            let down = eval(&store);
            store.perturb(id, i, eps);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "element {i}: analytic {} vs numeric {numeric}",
                analytic[i]
            );
        }
    }

    #[test]
    fn grad_matmul_mean() {
        grad_check(vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.7], 2, 3, |t, p| {
            let x = t.input(&[1.0, 2.0, -1.0, 0.5, 1.5, -0.5], 3, 2);
            let y = t.matmul(x, p);
            let sq = t.mul_elem(y, y);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_softmax_rows() {
        grad_check(vec![0.1, 0.9, -0.4, 0.2], 2, 2, |t, p| {
            let s = t.softmax_rows(p);
            let target = t.input(&[1.0, 0.0, 0.0, 1.0], 2, 2);
            let d = t.sub(s, target);
            let sq = t.mul_elem(d, d);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(vec![0.3, 1.2, -0.8, 0.5, 0.1, 2.0], 2, 3, |t, p| {
            let n = t.layer_norm_rows(p);
            let w = t.input(&[1.0, 2.0, 3.0, -1.0, 0.5, 1.5], 2, 3);
            let prod = t.mul_elem(n, w);
            t.mean_all(prod)
        });
    }

    #[test]
    fn grad_activations() {
        for act in 0..3usize {
            grad_check(vec![0.4, -0.9, 1.3, -0.2], 2, 2, move |t, p| {
                let a = match act {
                    0 => t.relu(p),
                    1 => t.tanh(p),
                    _ => t.sigmoid(p),
                };
                let sq = t.mul_elem(a, a);
                t.mean_all(sq)
            });
        }
    }

    #[test]
    fn grad_broadcasts() {
        grad_check(vec![0.5, -0.3], 1, 2, |t, p| {
            let x = t.input(&[1.0, 2.0, 3.0, 4.0], 2, 2);
            let y = t.add_row_broadcast(x, p);
            let z = t.mul_row_broadcast(y, p);
            let sq = t.mul_elem(z, z);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_causal_conv() {
        grad_check(vec![0.3, -0.5, 0.8, 0.2], 2, 2, |t, p| {
            // x: seq 4, 1 channel; w: kernel 2 * in 1 = 2 rows, out 2.
            let x = t.input(&[1.0, -1.0, 2.0, 0.5], 4, 1);
            let y = t.causal_conv1d(x, p, 2, 1);
            let sq = t.mul_elem(y, y);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_avg_pool_and_concat_and_transpose() {
        grad_check(vec![0.2, 0.7, -0.4, 1.1, 0.9, -0.6], 3, 2, |t, p| {
            let pooled = t.avg_pool_rows(p, 2); // 2 x 2
            let tr = t.transpose(pooled); // 2 x 2
            let cat = t.concat_cols(pooled, tr); // 2 x 4
            let sq = t.mul_elem(cat, cat);
            t.mean_all(sq)
        });
    }

    #[test]
    fn conv_is_causal() {
        let mut store = ParamStore::new(0);
        let id = store.add_raw(vec![1.0, 0.0], 2, 1); // kernel 2, identity on current step
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let x = tape.input(&[1.0, 2.0, 3.0], 3, 1);
        let y = tape.causal_conv1d(x, w, 2, 1);
        // Kernel index 0 multiplies the current step, index 1 the previous.
        assert_eq!(tape.value(y), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 2, 3);
        let s = tape.softmax_rows(x);
        for row in tape.value(s).chunks(3) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn avg_pool_handles_remainder() {
        let mut tape = Tape::new();
        let x = tape.input(&[1.0, 2.0, 3.0, 4.0, 5.0], 5, 1);
        let p = tape.avg_pool_rows(x, 2);
        assert_eq!(tape.shape(p), (3, 1));
        assert_eq!(tape.value(p), &[1.5, 3.5, 5.0]);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The matmul gradients as plain triple loops over the operands — how
    /// the tape computed them before they moved onto the GEMM kernel.
    /// Kept only as the reference for the property below.
    fn triple_loop_grads(
        av: &[f64],
        bv: &[f64],
        grad: &[f64],
        (ar, ac, bc): (usize, usize, usize),
    ) -> (Vec<f64>, Vec<f64>) {
        let mut ga = vec![0.0; ar * ac];
        for i in 0..ar {
            for k in 0..ac {
                let mut acc = 0.0;
                for j in 0..bc {
                    acc += grad[i * bc + j] * bv[k * bc + j];
                }
                ga[i * ac + k] += acc;
            }
        }
        let mut gb = vec![0.0; ac * bc];
        for k in 0..ac {
            for j in 0..bc {
                let mut acc = 0.0;
                for i in 0..ar {
                    acc += av[i * ac + k] * grad[i * bc + j];
                }
                gb[k * bc + j] += acc;
            }
        }
        (ga, gb)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matmul_grads_equal_the_triple_loops(
            ar in 1usize..6,
            ac in 1usize..10,
            bc in 1usize..140,
            pool in proptest::collection::vec(-2.0f64..2.0, 2520),
        ) {
            // ReLU on both operands and on the product puts exact zeros
            // into A, B and dOut, where the kernel's zero-skip engages;
            // widths up to 139 cross its 4-wide blocks and 128-deep tiles.
            let mut store = ParamStore::new(0);
            let (a_len, b_len) = (ar * ac, ac * bc);
            let pa = store.add_raw(pool[..a_len].to_vec(), ar, ac);
            let pb = store.add_raw(pool[a_len..a_len + b_len].to_vec(), ac, bc);
            let weights = &pool[a_len + b_len..a_len + b_len + ar * bc];
            let mut tape = Tape::new();
            let (xa, xb) = (tape.param(&store, pa), tape.param(&store, pb));
            let (a, b) = (tape.relu(xa), tape.relu(xb));
            let out = tape.matmul(a, b);
            let y = tape.relu(out);
            let w = tape.input(weights, ar, bc);
            let yw = tape.mul_elem(y, w);
            let loss = tape.mean_all(yw);
            tape.backward(loss);
            let (want_a, want_b) = triple_loop_grads(
                tape.value(a),
                tape.value(b),
                &tape.grads[out.0],
                (ar, ac, bc),
            );
            prop_assert!(
                bits(&tape.grads[a.0]) == bits(&want_a),
                "dA differs for {ar}x{ac} * {ac}x{bc}"
            );
            prop_assert!(
                bits(&tape.grads[b.0]) == bits(&want_b),
                "dB differs for {ar}x{ac} * {ac}x{bc}"
            );
        }
    }

    /// Two graphs of different shapes and lengths over shared parameters.
    fn small_graph(tape: &mut Tape, store: &ParamStore, ids: &[ParamId]) -> TensorRef {
        let x = tape.input(&[0.5, -1.0, 0.25, 2.0, 1.5, -0.5, 0.0, 1.0], 2, 4);
        let w = tape.param(store, ids[0]);
        let h = tape.matmul(x, w);
        let h = tape.tanh(h);
        let sq = tape.mul_elem(h, h);
        tape.mean_all(sq)
    }

    fn large_graph(tape: &mut Tape, store: &ParamStore, ids: &[ParamId]) -> TensorRef {
        let x = tape.input(
            &[
                0.3, -0.7, 1.1, 0.2, -1.3, 0.8, 0.05, 0.6, 0.9, -0.4, 0.0, 1.2,
            ],
            3,
            4,
        );
        let w1 = tape.param(store, ids[0]);
        let h = tape.matmul(x, w1);
        let h = tape.relu(h);
        let w2 = tape.param(store, ids[1]);
        let h = tape.matmul(h, w2);
        let h = tape.layer_norm_rows(h);
        let g = tape.param(store, ids[2]);
        let h = tape.mul_row_broadcast(h, g);
        let s = tape.softmax_rows(h);
        let pooled = tape.avg_pool_rows(s, 2);
        let t = tape.transpose(pooled);
        let flat = tape.reshape(t, 1, 10);
        let sig = tape.sigmoid(flat);
        tape.mean_all(sig)
    }

    type Graph = fn(&mut Tape, &ParamStore, &[ParamId]) -> TensorRef;

    /// Every node value and every parameter gradient of one pass.
    fn pass(
        tape: &mut Tape,
        store: &mut ParamStore,
        ids: &[ParamId],
        graph: Graph,
    ) -> Vec<Vec<u64>> {
        let loss = graph(tape, store, ids);
        tape.backward(loss);
        store.zero_grads();
        tape.param_grads(store);
        let values = tape.values[..tape.nodes.len()].iter().map(|v| bits(v));
        let grads = ids.iter().map(|&id| bits(store.grad(id)));
        values.chain(grads).collect()
    }

    #[test]
    fn reused_tape_matches_fresh_tapes() {
        let mut store = ParamStore::new(5);
        let ids = [store.add(4, 3), store.add(3, 5), store.add(1, 5)];
        let mut reused = Tape::new();
        let graphs: [Graph; 4] = [large_graph, small_graph, large_graph, small_graph];
        for graph in graphs {
            reused.reset();
            let got = pass(&mut reused, &mut store, &ids, graph);
            let want = pass(&mut Tape::new(), &mut store, &ids, graph);
            assert_eq!(got, want);
        }
    }

    /// Parameters on both sides of a matmul whose backward needs their
    /// transposes (`h · w2` and `m · h`), plus both row broadcasts.
    fn transposing_graph(tape: &mut Tape, store: &ParamStore, ids: &[ParamId]) -> TensorRef {
        let x = tape.input(
            &[
                0.3, -0.7, 1.1, 0.2, -1.3, 0.8, 0.05, 0.6, 0.9, -0.4, 0.0, 1.2,
            ],
            3,
            4,
        );
        let w1 = tape.param(store, ids[0]);
        let h = tape.matmul(x, w1);
        let h = tape.tanh(h);
        let w2 = tape.param(store, ids[1]);
        let h = tape.matmul(h, w2);
        let m = tape.param(store, ids[3]);
        let h = tape.matmul(m, h);
        let g = tape.param(store, ids[2]);
        let h = tape.mul_row_broadcast(h, g);
        let h = tape.add_row_broadcast(h, g);
        let sq = tape.mul_elem(h, h);
        tape.mean_all(sq)
    }

    #[test]
    fn reused_tape_sees_every_store_change() {
        let mut store = ParamStore::new(8);
        let ids = [
            store.add(4, 3),
            store.add(3, 5),
            store.add(1, 5),
            store.add(3, 3),
        ];
        let snapshot = store.snapshot();
        let halved: Vec<(Vec<f64>, usize, usize)> = store
            .tensors()
            .into_iter()
            .map(|(v, r, c)| (v.iter().map(|x| 0.5 * x).collect(), r, c))
            .collect();
        let mut adam = crate::optim::Adam::new(0.05);
        let mut reused = Tape::new();
        // Each change is followed by two passes on the reused tape: the
        // first must see the new values, the second reuses what the first
        // loaded; both must equal a fresh tape's pass bit for bit.
        for change in 0..6 {
            for _ in 0..2 {
                reused.reset();
                let got = pass(&mut reused, &mut store, &ids, transposing_graph);
                let want = pass(&mut Tape::new(), &mut store, &ids, transposing_graph);
                assert_eq!(got, want, "after change {change}");
            }
            match change {
                0 | 4 => adam.step(&mut store),
                1 => store.restore(&snapshot),
                2 => store.load_tensors(&halved).unwrap(),
                3 => store.perturb(ids[3], 4, 0.25),
                _ => {}
            }
        }
    }

    #[test]
    fn forward_only_pass_after_backward_contributes_no_gradients() {
        let mut store = ParamStore::new(6);
        let ids = [store.add(4, 3)];
        let mut tape = Tape::new();
        let loss = small_graph(&mut tape, &store, &ids);
        tape.backward(loss);
        // A validation or inference pass on the same tape: no backward.
        tape.reset();
        small_graph(&mut tape, &store, &ids);
        tape.param_grads(&mut store);
        assert!(store.grad(ids[0]).iter().all(|&g| g == 0.0));
    }
}
