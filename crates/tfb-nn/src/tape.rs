//! A minimal define-by-run reverse-mode autodiff engine over blocked 2-D
//! tensors.
//!
//! Every node holds `blocks` row-major `rows × cols` matrices, one per
//! sample of the graph, stacked; a parameter is one block, shared by
//! every sample. A model's forward pass is written for one sample and
//! runs on all of a chunk's samples at once:
//! - row-wise ops (dense layers, biases, gains, activations, layer norm,
//!   row concatenation, the loss head) run once over the stacked rows;
//! - ops that mix rows (the attention products, transpose, pooling,
//!   causal convolution, a shared left operand) loop over the blocks
//!   inside one node.
//!
//! Each block's arithmetic is exactly what a one-sample graph performs,
//! so every block's values and gradients equal that graph's bit for bit.
//! [`Tape::backward`] walks the nodes in reverse and, per node, skips
//! every block whose gradient is all zero, as a one-sample graph skips
//! the whole node: inputs of such a block never meet a term (`0 · inf`)
//! that the one-sample graph never formed.
//!
//! Parameter gradients leave the tape during the backward pass. A
//! parameter loaded once, whose one reader is a matrix product, a
//! broadcast add, bias or gain, or a convolution, adds each sample's own
//! gradient, formed from `+0.0`, straight into the store's gradient in
//! sample order: the segmented kernels of [`tfb_math::matrix`] for
//! weights and [`tfb_math::kernel`] for biases and gains. Any other
//! parameter leaf (the GRU loads its gates once per step) keeps a
//! per-block slab that the end of `backward` adds into the store sample
//! by sample, leaf by leaf in load order. Either way the store receives
//! the additions that per-sample graphs gave it.
//!
//! Matrix-product gradients run on the shared GEMM kernel: `dA = dOut·Bᵀ`
//! through [`tfb_math::matrix::par_gemm`], `dB = Aᵀ·dOut` through the
//! transposed-left entries, which read `A`'s rows as they are. Every
//! gradient element adds its terms in ascending order, starting from
//! `+0.0`; the kernel's zero-skip drops only `±0` terms, which cannot
//! change such a sum when the operands are finite, so the gradients
//! equal the plain triple-loop formulas bit for bit.
//!
//! [`Tape::reset`] empties a tape but keeps every node's value and
//! gradient buffer, so one tape serves a whole training run or a stream
//! of inference chunks: once the first pass has sized the buffers, later
//! passes over the same graph allocate nothing. Parameter values change
//! only when the store's [`Stamp`] does (once per optimizer step in
//! training), so a node slot that already holds a parameter at the
//! current stamp is not copied again, and `dA` reuses the transpose of a
//! parameter `B` built at that stamp.

use crate::optim::{ParamId, ParamStore, Stamp};
use std::ops::Range;
use tfb_math::kernel::{col_dot_segments, col_sum_segments};
use tfb_math::matrix::{gemm_tn_acc, gemm_tn_segments, par_gemm};

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

/// One name per op kind, in [`Op::kind`] order, and the
/// `nn/op/<kind>_{nodes,visits,elems}` counters those names key.
macro_rules! op_kinds {
    ($($kind:literal),* $(,)?) => {
        const OP_KINDS: [&str; [$($kind),*].len()] = [$($kind),*];

        static OP_COUNTERS: [[tfb_obs::Counter; 3]; OP_KINDS.len()] = [$([
            tfb_obs::Counter::new(concat!("nn/op/", $kind, "_nodes")),
            tfb_obs::Counter::new(concat!("nn/op/", $kind, "_visits")),
            tfb_obs::Counter::new(concat!("nn/op/", $kind, "_elems")),
        ]),*];
    };
}

op_kinds!(
    "leaf",
    "matmul",
    "add",
    "sub",
    "mul_elem",
    "scale",
    "add_row_broadcast",
    "mul_row_broadcast",
    "relu",
    "tanh",
    "sigmoid",
    "softmax_rows",
    "transpose",
    "mean_all",
    "concat_cols",
    "layer_norm_rows",
    "avg_pool_rows",
    "causal_conv1d",
    "reshape",
);

impl Op {
    /// Index of this op's name in [`OP_KINDS`].
    fn kind(self) -> usize {
        match self {
            Op::Leaf => 0,
            Op::MatMul(..) => 1,
            Op::Add(..) => 2,
            Op::Sub(..) => 3,
            Op::MulElem(..) => 4,
            Op::Scale(..) => 5,
            Op::AddRowBroadcast(..) => 6,
            Op::MulRowBroadcast(..) => 7,
            Op::Relu(..) => 8,
            Op::Tanh(..) => 9,
            Op::Sigmoid(..) => 10,
            Op::SoftmaxRows(..) => 11,
            Op::Transpose(..) => 12,
            Op::MeanAll(..) => 13,
            Op::ConcatCols(..) => 14,
            Op::LayerNormRows(..) => 15,
            Op::AvgPoolRows(..) => 16,
            Op::CausalConv1d { .. } => 17,
            Op::Reshape(..) => 18,
        }
    }

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

    /// Which inputs this op can send a parameter leaf's gradient from
    /// straight into the store: each sample's contribution is then one
    /// complete sum per element.
    fn param_sinks(self) -> [bool; 2] {
        match self {
            Op::MatMul(..) | Op::Add(..) => [true, true],
            Op::AddRowBroadcast(..) | Op::MulRowBroadcast(..) | Op::CausalConv1d { .. } => {
                [false, true]
            }
            _ => [false, false],
        }
    }
}

struct Node {
    blocks: usize,
    rows: usize,
    cols: usize,
    op: Op,
    /// The parameter a leaf loads, with the stamp of the loaded values.
    param: Option<(ParamId, Stamp)>,
    /// Whether some parameter feeds this node; only such nodes get
    /// gradients.
    needs_grad: bool,
    /// How many op inputs read this node.
    uses: u32,
    /// Whether the last op that read it can take a parameter leaf's
    /// gradient to the store ([`Op::param_sinks`]).
    sinkable: bool,
}

impl Node {
    /// Elements of one block.
    fn size(&self) -> usize {
        self.rows * self.cols
    }
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
    /// Gradient buffer of node slot `i`, sized by [`Tape::backward`]:
    /// one per block, a slab of one per graph block for a parameter leaf
    /// whose gradient does not go straight to the store, none for one
    /// whose gradient does.
    grads: Vec<Vec<f64>>,
    /// Whether slot `i`'s gradient still holds only the zeros `backward`
    /// filled it with, so a product may be formed in place.
    fresh: Vec<bool>,
    /// Loads of each parameter (by index) in the current graph.
    loads: Vec<u32>,
    /// Blocks of the current graph: the most any node has.
    blocks: usize,
    /// Scratch of the matmul backward: a transposed right operand and a
    /// product.
    transposed: Vec<f64>,
    product: Vec<f64>,
    /// Parameter transposes of the matmul backward, by parameter index,
    /// with the stamp each was built at.
    param_t: Vec<(Option<Stamp>, Vec<f64>)>,
    /// Whether each block of the gradient `backward` is at holds a
    /// non-zero.
    live: Vec<bool>,
    /// Row ranges of one node's segmented parameter gradient.
    segments: Vec<Range<usize>>,
    /// Per-op-kind counts, kept only once [`Tape::count_ops`] armed them.
    tally: Option<Box<OpTally>>,
}

/// What a tape did per op kind ([`OP_KINDS`] order), across every pass
/// since [`Tape::count_ops`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTally {
    /// Nodes recorded.
    pub nodes: [u64; OP_KINDS.len()],
    /// Nodes whose gradient a backward pass read.
    pub visits: [u64; OP_KINDS.len()],
    /// Value elements the recorded nodes produced.
    pub elems: [u64; OP_KINDS.len()],
}

impl OpTally {
    /// Adds every non-zero count to its `nn/op/<kind>_{nodes,visits,elems}`
    /// counter.
    pub fn add_to_counters(&self) {
        for (k, counters) in OP_COUNTERS.iter().enumerate() {
            for (counter, n) in counters
                .iter()
                .zip([self.nodes[k], self.visits[k], self.elems[k]])
            {
                if n > 0 {
                    counter.add(n);
                }
            }
        }
    }
}

/// Block `s` of a node value or gradient holding `blocks` blocks of
/// `size` elements; a one-block buffer serves every `s`.
fn block(v: &[f64], blocks: usize, size: usize, s: usize) -> &[f64] {
    let s = if blocks == 1 { 0 } else { s };
    &v[s * size..(s + 1) * size]
}

/// The maximal runs of consecutive `true` entries of `live`.
fn live_runs(live: &[bool]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut s = 0;
    std::iter::from_fn(move || {
        while s < live.len() && !live[s] {
            s += 1;
        }
        let start = s;
        while s < live.len() && live[s] {
            s += 1;
        }
        (start < s).then_some(start..s)
    })
}

/// One row range per block: block `s`'s `rows` rows when it is live, an
/// empty range at its start when it is not.
fn block_segments(live: &[bool], rows: usize, out: &mut Vec<Range<usize>>) {
    out.clear();
    out.extend(live.iter().enumerate().map(|(s, &l)| {
        let start = s * rows;
        start..if l { start + rows } else { start }
    }));
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Starts counting nodes, backward visits and elements per op kind
    /// (see [`Tape::op_tally`]); a tape that never calls this counts
    /// nothing.
    pub fn count_ops(&mut self) {
        self.tally.get_or_insert_with(|| {
            Box::new(OpTally {
                nodes: [0; OP_KINDS.len()],
                visits: [0; OP_KINDS.len()],
                elems: [0; OP_KINDS.len()],
            })
        });
    }

    /// The per-op-kind counts since [`Tape::count_ops`], if armed.
    pub fn op_tally(&self) -> Option<&OpTally> {
        self.tally.as_deref()
    }

    /// Empties the tape for the next pass. Every value and gradient buffer
    /// is kept, so a pass over the same graph allocates nothing.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.loads.iter_mut().for_each(|n| *n = 0);
        self.blocks = 0;
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

    fn push(&mut self, value: Vec<f64>, shape: (usize, usize, usize), op: Op) -> TensorRef {
        let (blocks, rows, cols) = shape;
        debug_assert_eq!(value.len(), blocks * rows * cols);
        assert!(
            blocks == 1 || self.blocks <= 1 || blocks == self.blocks,
            "a graph's nodes hold one block or all {} of its blocks, not {blocks}",
            self.blocks
        );
        let i = self.nodes.len();
        let mut needs_grad = false;
        for (p, sink) in op.inputs().into_iter().zip(op.param_sinks()) {
            if let Some(p) = p {
                let input = &mut self.nodes[p];
                needs_grad |= input.needs_grad;
                input.uses += 1;
                input.sinkable = sink;
            }
        }
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
        if let Some(t) = &mut self.tally {
            t.nodes[op.kind()] += 1;
            t.elems[op.kind()] += (blocks * rows * cols) as u64;
        }
        self.blocks = self.blocks.max(blocks);
        // Gradient buffers are sized by `backward`; forward-only passes
        // (inference, validation) never touch them.
        self.nodes.push(Node {
            blocks,
            rows,
            cols,
            op,
            param: None,
            needs_grad,
            uses: 0,
            sinkable: false,
        });
        TensorRef(i)
    }

    /// The block count of an op over `a` and `b`: equal counts, or one
    /// side a single block that every block of the other shares. A shared
    /// side that needs a gradient must be a parameter leaf, whose
    /// gradient the backward pass keeps per block.
    fn broadcast(&self, a: TensorRef, b: TensorRef, ctx: &str) -> usize {
        let (ba, bb) = (self.nodes[a.0].blocks, self.nodes[b.0].blocks);
        let shared_ok = |p: usize| {
            let n = &self.nodes[p];
            !n.needs_grad || n.param.is_some()
        };
        match (ba, bb) {
            _ if ba == bb => ba,
            (1, _) => {
                assert!(shared_ok(a.0), "{ctx}: a shared operand needs a gradient");
                bb
            }
            (_, 1) => {
                assert!(shared_ok(b.0), "{ctx}: a shared operand needs a gradient");
                ba
            }
            _ => panic!("{ctx}: block mismatch {ba} vs {bb}"),
        }
    }

    /// A node holding `f` of every element of `a`.
    fn map(&mut self, a: TensorRef, op: Op, f: impl Fn(f64) -> f64) -> TensorRef {
        let shape = self.full_shape(a);
        let mut v = self.buffer();
        v.extend(self.values[a.0].iter().map(|&x| f(x)));
        self.push(v, shape, op)
    }

    /// A node holding `f` of every element pair of `a` and `b`, blocks of
    /// the same shape (a one-block side is shared by every block).
    fn zip_map(
        &mut self,
        a: TensorRef,
        b: TensorRef,
        ctx: &str,
        op: Op,
        f: impl Fn(f64, f64) -> f64,
    ) -> TensorRef {
        let (r, c) = self.assert_same_shape(a, b, ctx);
        let blocks = self.broadcast(a, b, ctx);
        let (ba, bb) = (self.nodes[a.0].blocks, self.nodes[b.0].blocks);
        let mut v = self.buffer();
        for s in 0..blocks {
            let xs = block(&self.values[a.0], ba, r * c, s);
            let ys = block(&self.values[b.0], bb, r * c, s);
            v.extend(xs.iter().zip(ys).map(|(&x, &y)| f(x, y)));
        }
        self.push(v, (blocks, r, c), op)
    }

    /// Loads a parameter onto the tape as one block that every sample
    /// shares (gradients flow back to the store). A slot that already
    /// holds this parameter at the store's current stamp keeps its copy.
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
        let r = self.push(v, (1, rows, cols), Op::Leaf);
        self.held[i] = key;
        if self.loads.len() <= id.index() {
            self.loads.resize(id.index() + 1, 0);
        }
        self.loads[id.index()] += 1;
        let node = &mut self.nodes[r.0];
        node.param = key;
        node.needs_grad = true;
        r
    }

    /// Loads constant input data (no gradient): `data` holds one or more
    /// stacked `rows × cols` blocks, one per sample.
    pub fn input(&mut self, data: &[f64], rows: usize, cols: usize) -> TensorRef {
        let size = rows * cols;
        assert!(
            size > 0 && !data.is_empty() && data.len().is_multiple_of(size),
            "input of {} values is not whole {rows}x{cols} blocks",
            data.len()
        );
        let mut v = self.buffer();
        v.extend_from_slice(data);
        self.push(v, (data.len() / size, rows, cols), Op::Leaf)
    }

    /// Shape of one block of a tensor.
    pub fn shape(&self, t: TensorRef) -> (usize, usize) {
        (self.nodes[t.0].rows, self.nodes[t.0].cols)
    }

    fn full_shape(&self, t: TensorRef) -> (usize, usize, usize) {
        let n = &self.nodes[t.0];
        (n.blocks, n.rows, n.cols)
    }

    /// Value of a tensor: its blocks, stacked.
    pub fn value(&self, t: TensorRef) -> &[f64] {
        &self.values[t.0]
    }

    /// Matrix product, block by block.
    pub fn matmul(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, br, "matmul shape mismatch: {ar}x{ac} * {br}x{bc}");
        let blocks = self.broadcast(a, b, "matmul");
        let (ba, bb) = (self.nodes[a.0].blocks, self.nodes[b.0].blocks);
        // Forward values go through the shared blocked GEMM (row-parallel
        // for large products). Its per-element reduction runs over `k` in
        // ascending order with the same zero-skip as the historical ikj
        // loop here, so one product over the stacked rows and one per
        // block agree to the last bit at any thread count.
        let mut out = self.buffer();
        out.resize(blocks * ar * bc, 0.0);
        let (av, bv) = (&self.values[a.0], &self.values[b.0]);
        if bb == 1 {
            // A shared right operand: one product over every block's rows.
            par_gemm(av, ba * ar, ac, bv, bc, &mut out);
        } else {
            for (s, o) in out.chunks_exact_mut(ar * bc).enumerate() {
                let a_s = block(av, ba, ar * ac, s);
                par_gemm(a_s, ar, ac, block(bv, bb, ac * bc, s), bc, o);
            }
        }
        self.push(out, (blocks, ar, bc), Op::MatMul(a.0, b.0))
    }

    /// Elementwise sum (same block shape; a one-block side is shared).
    pub fn add(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        self.zip_map(a, b, "add", Op::Add(a.0, b.0), |x, y| x + y)
    }

    /// Elementwise difference (same block shape).
    pub fn sub(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        self.zip_map(a, b, "sub", Op::Sub(a.0, b.0), |x, y| x - y)
    }

    /// Elementwise product (same block shape).
    pub fn mul_elem(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        self.zip_map(a, b, "mul_elem", Op::MulElem(a.0, b.0), |x, y| x * y)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: TensorRef, s: f64) -> TensorRef {
        self.map(a, Op::Scale(a.0, s), |x| x * s)
    }

    /// Adds a one-block `1 x cols` row vector to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: TensorRef, bias: TensorRef) -> TensorRef {
        let (blocks, r, c) = self.full_shape(a);
        assert!(
            self.full_shape(bias) == (1, 1, c),
            "bias must be one 1 x cols block"
        );
        self.broadcast(a, bias, "add_row_broadcast");
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        let bv = &self.values[bias.0];
        for row in v.chunks_exact_mut(c) {
            for (x, b) in row.iter_mut().zip(bv) {
                *x += b;
            }
        }
        self.push(v, (blocks, r, c), Op::AddRowBroadcast(a.0, bias.0))
    }

    /// Multiplies every row of `a` elementwise by a one-block `1 x cols`
    /// row vector.
    pub fn mul_row_broadcast(&mut self, a: TensorRef, gain: TensorRef) -> TensorRef {
        let (blocks, r, c) = self.full_shape(a);
        assert!(
            self.full_shape(gain) == (1, 1, c),
            "gain must be one 1 x cols block"
        );
        self.broadcast(a, gain, "mul_row_broadcast");
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        let gv = &self.values[gain.0];
        for row in v.chunks_exact_mut(c) {
            for (x, g) in row.iter_mut().zip(gv) {
                *x *= g;
            }
        }
        self.push(v, (blocks, r, c), Op::MulRowBroadcast(a.0, gain.0))
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
        let (blocks, r, c) = self.full_shape(a);
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
        self.push(v, (blocks, r, c), Op::SoftmaxRows(a.0))
    }

    /// Transpose of every block.
    pub fn transpose(&mut self, a: TensorRef) -> TensorRef {
        let (blocks, r, c) = self.full_shape(a);
        let mut v = self.buffer();
        v.resize(blocks * r * c, 0.0);
        for (vs, xs) in v
            .chunks_exact_mut(r * c)
            .zip(self.values[a.0].chunks_exact(r * c))
        {
            transpose_into(xs, r, c, vs);
        }
        self.push(v, (blocks, c, r), Op::Transpose(a.0))
    }

    /// Mean over all elements of every block (a 1x1 block each; the usual
    /// loss head).
    pub fn mean_all(&mut self, a: TensorRef) -> TensorRef {
        let (blocks, r, c) = self.full_shape(a);
        let mut v = self.buffer();
        v.extend(
            self.values[a.0]
                .chunks_exact(r * c)
                .map(|xs| xs.iter().sum::<f64>() / (r * c) as f64),
        );
        self.push(v, (blocks, 1, 1), Op::MeanAll(a.0))
    }

    /// Concatenates columns: `[a | b]` (same blocks and row count).
    pub fn concat_cols(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        let (blocks, ar, ac) = self.full_shape(a);
        let (bb, br, bc) = self.full_shape(b);
        assert!(ar == br && blocks == bb, "concat_cols row mismatch");
        let mut v = self.buffer();
        let rows = self.values[a.0]
            .chunks_exact(ac)
            .zip(self.values[b.0].chunks_exact(bc));
        for (x, y) in rows {
            v.extend_from_slice(x);
            v.extend_from_slice(y);
        }
        self.push(v, (blocks, ar, ac + bc), Op::ConcatCols(a.0, b.0))
    }

    /// Row-wise layer normalization (no affine; compose with
    /// [`Tape::mul_row_broadcast`] / [`Tape::add_row_broadcast`] for one).
    pub fn layer_norm_rows(&mut self, a: TensorRef) -> TensorRef {
        let (blocks, r, c) = self.full_shape(a);
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
        self.push(v, (blocks, r, c), Op::LayerNormRows(a.0))
    }

    /// Averages consecutive groups of `stride` rows of every block (rows
    /// not divisible by the stride keep a smaller final group).
    pub fn avg_pool_rows(&mut self, a: TensorRef, stride: usize) -> TensorRef {
        assert!(stride >= 1, "stride must be >= 1");
        let (blocks, r, c) = self.full_shape(a);
        let out_rows = r.div_ceil(stride);
        let mut v = self.buffer();
        v.resize(blocks * out_rows * c, 0.0);
        for (vs, av) in v
            .chunks_exact_mut(out_rows * c)
            .zip(self.values[a.0].chunks_exact(r * c))
        {
            for g in 0..out_rows {
                let start = g * stride;
                let end = (start + stride).min(r);
                for row in start..end {
                    for j in 0..c {
                        vs[g * c + j] += av[row * c + j];
                    }
                }
                let k = (end - start) as f64;
                for j in 0..c {
                    vs[g * c + j] /= k;
                }
            }
        }
        self.push(v, (blocks, out_rows, c), Op::AvgPoolRows(a.0, stride))
    }

    /// Causal dilated 1-D convolution of every block. `x` is `(seq,
    /// in_ch)`, `w` one `(kernel * in_ch, out_ch)` block; output is `(seq,
    /// out_ch)` with zero padding on the left.
    pub fn causal_conv1d(
        &mut self,
        x: TensorRef,
        w: TensorRef,
        kernel: usize,
        dilation: usize,
    ) -> TensorRef {
        let (blocks, seq, in_ch) = self.full_shape(x);
        let (wb, wr, out_ch) = self.full_shape(w);
        assert_eq!((wb, wr), (1, kernel * in_ch), "conv weight shape");
        assert!(dilation >= 1);
        self.broadcast(x, w, "causal_conv1d");
        let mut v = self.buffer();
        v.resize(blocks * seq * out_ch, 0.0);
        let wv = &self.values[w.0];
        for (vs, xv) in v
            .chunks_exact_mut(seq * out_ch)
            .zip(self.values[x.0].chunks_exact(seq * in_ch))
        {
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
                        let orow = &mut vs[t * out_ch..(t + 1) * out_ch];
                        for (o, &ww) in orow.iter_mut().zip(wrow) {
                            *o += xval * ww;
                        }
                    }
                }
            }
        }
        self.push(
            v,
            (blocks, seq, out_ch),
            Op::CausalConv1d {
                x: x.0,
                w: w.0,
                kernel,
                dilation,
            },
        )
    }

    /// Reinterprets every block's row-major data with a new shape (same
    /// element count); gradients pass through unchanged.
    pub fn reshape(&mut self, a: TensorRef, rows: usize, cols: usize) -> TensorRef {
        let (blocks, r, c) = self.full_shape(a);
        assert_eq!(r * c, rows * cols, "reshape element count mismatch");
        let mut v = self.buffer();
        v.extend_from_slice(&self.values[a.0]);
        self.push(v, (blocks, rows, cols), Op::Reshape(a.0))
    }

    fn assert_same_shape(&self, a: TensorRef, b: TensorRef, ctx: &str) -> (usize, usize) {
        let sa = self.shape(a);
        let sb = self.shape(b);
        assert_eq!(sa, sb, "{ctx}: shape mismatch {sa:?} vs {sb:?}");
        sa
    }

    /// Backpropagates from `loss`, one 1x1 block per sample, each seeded
    /// with gradient 1.0, and adds every parameter gradient into `store`:
    /// sample by sample in block order, as per-sample graphs added theirs
    /// one after another.
    pub fn backward(&mut self, loss: TensorRef, store: &mut ParamStore) {
        assert_eq!(
            self.shape(loss),
            (1, 1),
            "loss must be one scalar per block"
        );
        let n = self.nodes.len();
        if self.grads.len() < n {
            self.grads.resize_with(n, Vec::new);
            self.fresh.resize(n, true);
        }
        let graph_blocks = self.blocks.max(1);
        for (i, node) in self.nodes.iter().enumerate() {
            let grad = &mut self.grads[i];
            grad.clear();
            self.fresh[i] = true;
            if !node.needs_grad || sink(&self.nodes, &self.loads, i).is_some() {
                continue;
            }
            // A parameter leaf not served straight to the store keeps a
            // slab of one block per sample.
            let blocks = if node.param.is_some() {
                graph_blocks
            } else {
                node.blocks
            };
            grad.resize(blocks * node.size(), 0.0);
        }
        if !self.nodes[loss.0].needs_grad {
            return;
        }
        self.grads[loss.0].fill(1.0);
        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            if let Some(t) = &mut self.tally {
                t.visits[self.nodes[idx].op.kind()] += 1;
            }
            if matches!(self.nodes[idx].op, Op::Leaf) {
                continue;
            }
            self.backward_node(idx, store);
        }
        // Slabs, sample-major and leaf-minor: the order in which
        // per-sample graphs added their leaves' gradients.
        let Tape { nodes, grads, .. } = &*self;
        let slabs: Vec<usize> = (0..n)
            .filter(|&i| nodes[i].param.is_some() && !grads[i].is_empty())
            .collect();
        for s in 0..graph_blocks {
            for &i in &slabs {
                let (id, _) = nodes[i].param.expect("a parameter leaf");
                let size = nodes[i].size();
                store.accumulate_grad(id, &grads[i][s * size..(s + 1) * size]);
            }
        }
    }

    /// Adds node `idx`'s gradient into its inputs', block by block,
    /// skipping the blocks whose gradient is all zero.
    fn backward_node(&mut self, idx: usize, store: &mut ParamStore) {
        let Tape {
            nodes,
            values,
            grads,
            fresh,
            loads,
            transposed,
            product,
            param_t,
            live,
            segments,
            ..
        } = self;
        let node = &nodes[idx];
        let (nb, size) = (node.blocks, node.size());
        // Inputs precede their node, so the node's own gradient and its
        // inputs' gradients sit on opposite sides of the split.
        let (grads, rest) = grads.split_at_mut(idx);
        let grad = rest[0].as_slice();
        live.clear();
        live.extend(grad.chunks_exact(size).map(|g| g.iter().any(|&x| x != 0.0)));
        if !live.contains(&true) {
            return;
        }
        let live = live.as_slice();
        let wants = |p: usize| nodes[p].needs_grad;
        let to_store = |p: usize| sink(nodes, loads, p);
        let live_blocks = || (0..nb).filter(|&s| live[s]);
        // A single-input op that needs a gradient has an input that needs
        // one too; two-input ops check each side.
        match node.op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (ar, ac, bc) = (nodes[a].rows, nodes[a].cols, nodes[b].cols);
                let (ba, bb) = (nodes[a].blocks, nodes[b].blocks);
                let (sa, sb, so) = (ar * ac, ac * bc, ar * bc);
                if wants(a) {
                    let in_place = std::mem::replace(&mut fresh[a], false);
                    let dest: &mut [f64] = match to_store(a) {
                        Some(id) => store.grad_mut(id),
                        None => &mut grads[a],
                    };
                    let in_place = in_place && to_store(a).is_none();
                    if bb == 1 {
                        // dA = dOut · Bᵀ over the stacked rows of every
                        // run of live blocks.
                        let bt = transposed_param(
                            (&values[b], ac, bc),
                            nodes[b].param,
                            param_t,
                            transposed,
                        );
                        for run in live_runs(live) {
                            let rows = run.len() * ar;
                            let d = &grad[run.start * so..run.end * so];
                            let g = &mut dest[run.start * sa..run.end * sa];
                            product_into(product, g, in_place, |p| {
                                par_gemm(d, rows, bc, bt, ac, p)
                            });
                        }
                    } else {
                        // dA_s = dOut_s · B_sᵀ, block by block.
                        for s in live_blocks() {
                            let bt =
                                transposed_block(block(&values[b], bb, sb, s), ac, bc, transposed);
                            let d = &grad[s * so..(s + 1) * so];
                            let g = if ba == 1 && to_store(a).is_some() {
                                &mut dest[..sa]
                            } else {
                                &mut dest[s * sa..(s + 1) * sa]
                            };
                            product_into(product, g, in_place, |p| par_gemm(d, ar, bc, bt, ac, p));
                        }
                    }
                }
                if wants(b) {
                    let in_place = std::mem::replace(&mut fresh[b], false);
                    if bb == 1 {
                        // dB = Aᵀ · dOut, one sum per block, straight into
                        // the store or into the leaf's slab.
                        block_segments(live, ar, segments);
                        let (dest, stride): (&mut [f64], usize) = match to_store(b) {
                            Some(id) => (store.grad_mut(id), 0),
                            None => (&mut grads[b], sb),
                        };
                        gemm_tn_segments(&values[a], ac, grad, bc, segments, dest, stride);
                    } else {
                        // dB_s = A_sᵀ · dOut_s, read straight from A's rows.
                        for s in live_blocks() {
                            let a_s = block(&values[a], ba, sa, s);
                            let d = &grad[s * so..(s + 1) * so];
                            let g = &mut grads[b][s * sb..(s + 1) * sb];
                            product_into(product, g, in_place, |p| {
                                gemm_tn_acc(a_s, ar, ac, d, bc, p)
                            });
                        }
                    }
                }
            }
            Op::Add(a, b) => {
                for p in [a, b] {
                    if !wants(p) {
                        continue;
                    }
                    if let Some(id) = to_store(p) {
                        // Each block is one row of a column sum.
                        block_segments(live, 1, segments);
                        col_sum_segments(grad, size, segments, store.grad_mut(id), 0);
                        continue;
                    }
                    for s in live_blocks() {
                        let g = &mut grads[p][s * size..(s + 1) * size];
                        for (g, &d) in g.iter_mut().zip(&grad[s * size..(s + 1) * size]) {
                            *g += d;
                        }
                    }
                }
            }
            Op::Sub(a, b) => {
                for (p, negate) in [(a, false), (b, true)] {
                    if !wants(p) {
                        continue;
                    }
                    for s in live_blocks() {
                        let g = &mut grads[p][s * size..(s + 1) * size];
                        for (g, &d) in g.iter_mut().zip(&grad[s * size..(s + 1) * size]) {
                            if negate {
                                *g -= d;
                            } else {
                                *g += d;
                            }
                        }
                    }
                }
            }
            Op::MulElem(a, b) => {
                for (p, other) in [(a, b), (b, a)] {
                    if !wants(p) {
                        continue;
                    }
                    for s in live_blocks() {
                        let ov = block(&values[other], nodes[other].blocks, size, s);
                        let g = &mut grads[p][s * size..(s + 1) * size];
                        let d = &grad[s * size..(s + 1) * size];
                        for ((g, &d), &x) in g.iter_mut().zip(d).zip(ov) {
                            *g += d * x;
                        }
                    }
                }
            }
            Op::Scale(a, k) => {
                for s in live_blocks() {
                    let g = &mut grads[a][s * size..(s + 1) * size];
                    for (g, &d) in g.iter_mut().zip(&grad[s * size..(s + 1) * size]) {
                        *g += d * k;
                    }
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                let (r, c) = (node.rows, node.cols);
                if wants(a) {
                    for s in live_blocks() {
                        let g = &mut grads[a][s * size..(s + 1) * size];
                        for (g, &d) in g.iter_mut().zip(&grad[s * size..(s + 1) * size]) {
                            *g += d;
                        }
                    }
                }
                if wants(bias) {
                    match to_store(bias) {
                        Some(id) => {
                            block_segments(live, r, segments);
                            col_sum_segments(grad, c, segments, store.grad_mut(id), 0);
                        }
                        None => {
                            for s in live_blocks() {
                                let gb = &mut grads[bias][s * c..(s + 1) * c];
                                for drow in grad[s * size..(s + 1) * size].chunks_exact(c) {
                                    for (g, &d) in gb.iter_mut().zip(drow) {
                                        *g += d;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Op::MulRowBroadcast(a, gain) => {
                let (r, c) = (node.rows, node.cols);
                if wants(a) {
                    let gv = &values[gain];
                    for s in live_blocks() {
                        let ga = &mut grads[a][s * size..(s + 1) * size];
                        let d = &grad[s * size..(s + 1) * size];
                        for (garow, drow) in ga.chunks_exact_mut(c).zip(d.chunks_exact(c)) {
                            for ((g, &d), &w) in garow.iter_mut().zip(drow).zip(gv) {
                                *g += d * w;
                            }
                        }
                    }
                }
                if wants(gain) {
                    let av = &values[a];
                    match to_store(gain) {
                        Some(id) => {
                            block_segments(live, r, segments);
                            col_dot_segments(grad, av, c, segments, store.grad_mut(id), 0);
                        }
                        None => {
                            for s in live_blocks() {
                                let gg = &mut grads[gain][s * c..(s + 1) * c];
                                let d = &grad[s * size..(s + 1) * size];
                                let x = &av[s * size..(s + 1) * size];
                                for (drow, arow) in d.chunks_exact(c).zip(x.chunks_exact(c)) {
                                    for ((g, &d), &x) in gg.iter_mut().zip(drow).zip(arow) {
                                        *g += d * x;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Op::Relu(a) => {
                for s in live_blocks() {
                    let blk = s * size..(s + 1) * size;
                    let rows = grads[a][blk.clone()].iter_mut().zip(&grad[blk.clone()]);
                    for ((g, &d), &x) in rows.zip(&values[a][blk]) {
                        if x > 0.0 {
                            *g += d;
                        }
                    }
                }
            }
            Op::Tanh(a) => {
                for s in live_blocks() {
                    let blk = s * size..(s + 1) * size;
                    let rows = grads[a][blk.clone()].iter_mut().zip(&grad[blk.clone()]);
                    for ((g, &d), &y) in rows.zip(&values[idx][blk]) {
                        *g += d * (1.0 - y * y);
                    }
                }
            }
            Op::Sigmoid(a) => {
                for s in live_blocks() {
                    let blk = s * size..(s + 1) * size;
                    let rows = grads[a][blk.clone()].iter_mut().zip(&grad[blk.clone()]);
                    for ((g, &d), &y) in rows.zip(&values[idx][blk]) {
                        *g += d * y * (1.0 - y);
                    }
                }
            }
            Op::SoftmaxRows(a) => {
                let c = node.cols;
                for s in live_blocks() {
                    let blk = s * size..(s + 1) * size;
                    let ga = &mut grads[a][blk.clone()];
                    let rows = values[idx][blk.clone()].chunks(c).zip(grad[blk].chunks(c));
                    for (row_i, (yrow, drow)) in rows.enumerate() {
                        let dot: f64 = yrow.iter().zip(drow).map(|(y, d)| y * d).sum();
                        for j in 0..c {
                            ga[row_i * c + j] += yrow[j] * (drow[j] - dot);
                        }
                    }
                }
            }
            Op::Transpose(a) => {
                let (r, c) = (node.rows, node.cols);
                for s in live_blocks() {
                    let ga = &mut grads[a][s * size..(s + 1) * size];
                    let d = &grad[s * size..(s + 1) * size];
                    for i in 0..r {
                        for j in 0..c {
                            ga[j * r + i] += d[i * c + j];
                        }
                    }
                }
            }
            Op::MeanAll(a) => {
                let sa = nodes[a].size();
                for s in live_blocks() {
                    let d = grad[s] / sa as f64;
                    for g in grads[a][s * sa..(s + 1) * sa].iter_mut() {
                        *g += d;
                    }
                }
            }
            Op::ConcatCols(a, b) => {
                let (ac, bc) = (nodes[a].cols, nodes[b].cols);
                for s in live_blocks() {
                    for i in s * node.rows..(s + 1) * node.rows {
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
            }
            Op::LayerNormRows(a) => {
                let c = node.cols;
                let cf = c as f64;
                for s in live_blocks() {
                    let blk = s * size..(s + 1) * size;
                    let ga = &mut grads[a][blk.clone()];
                    let rows = values[a][blk.clone()].chunks(c).zip(grad[blk].chunks(c));
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
            }
            Op::AvgPoolRows(a, stride) => {
                let (r, c) = (nodes[a].rows, nodes[a].cols);
                let sa = r * c;
                for s in live_blocks() {
                    let ga = &mut grads[a][s * sa..(s + 1) * sa];
                    let d = &grad[s * size..(s + 1) * size];
                    for g in 0..r.div_ceil(stride) {
                        let start = g * stride;
                        let end = (start + stride).min(r);
                        let k = (end - start) as f64;
                        for row in start..end {
                            for j in 0..c {
                                ga[row * c + j] += d[g * c + j] / k;
                            }
                        }
                    }
                }
            }
            Op::Reshape(a) => {
                for s in live_blocks() {
                    let g = &mut grads[a][s * size..(s + 1) * size];
                    for (g, &d) in g.iter_mut().zip(&grad[s * size..(s + 1) * size]) {
                        *g += d;
                    }
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
                let (sx, sw) = (seq * in_ch, kernel * in_ch * out_ch);
                let wv = &values[w];
                let sunk = to_store(w);
                for s in live_blocks() {
                    let xv = &values[x][s * sx..(s + 1) * sx];
                    let d = &grad[s * size..(s + 1) * size];
                    if wants(x) {
                        let gx = &mut grads[x][s * sx..(s + 1) * sx];
                        for t in 0..seq {
                            let drow = &d[t * out_ch..(t + 1) * out_ch];
                            for k in 0..kernel {
                                let offset = k * dilation;
                                if offset > t {
                                    continue;
                                }
                                let src = t - offset;
                                for ic in 0..in_ch {
                                    let wbase = (k * in_ch + ic) * out_ch;
                                    let mut acc = 0.0;
                                    for (&d, &ww) in drow.iter().zip(&wv[wbase..wbase + out_ch]) {
                                        acc += d * ww;
                                    }
                                    gx[src * in_ch + ic] += acc;
                                }
                            }
                        }
                    }
                    if !wants(w) {
                        continue;
                    }
                    match sunk {
                        // Each weight's sample sum from +0.0, terms in
                        // time order, then added to the store.
                        Some(id) => {
                            let gw = store.grad_mut(id);
                            for k in 0..kernel {
                                let offset = k * dilation;
                                for ic in 0..in_ch {
                                    let wbase = (k * in_ch + ic) * out_ch;
                                    for j in 0..out_ch {
                                        let mut sum = 0.0;
                                        for t in offset..seq {
                                            sum +=
                                                d[t * out_ch + j] * xv[(t - offset) * in_ch + ic];
                                        }
                                        gw[wbase + j] += sum;
                                    }
                                }
                            }
                        }
                        None => {
                            let gw = &mut grads[w][s * sw..(s + 1) * sw];
                            for t in 0..seq {
                                let drow = &d[t * out_ch..(t + 1) * out_ch];
                                for k in 0..kernel {
                                    let offset = k * dilation;
                                    if offset > t {
                                        continue;
                                    }
                                    let src = t - offset;
                                    for ic in 0..in_ch {
                                        let wbase = (k * in_ch + ic) * out_ch;
                                        let xval = xv[src * in_ch + ic];
                                        let gw = &mut gw[wbase..wbase + out_ch];
                                        for (g, &d) in gw.iter_mut().zip(drow) {
                                            *g += d * xval;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Every input of a node that ran has left its zero-filled state.
        for p in node.op.inputs().into_iter().flatten() {
            fresh[p] = false;
        }
    }
}

/// The parameter whose store gradient input `p`'s gradient goes straight
/// into: a parameter leaf loaded once in this graph, read by exactly one
/// op that can send it there.
fn sink(nodes: &[Node], loads: &[u32], p: usize) -> Option<ParamId> {
    let node = &nodes[p];
    let (id, _) = node.param?;
    (node.uses == 1 && node.sinkable && loads[id.index()] == 1).then_some(id)
}

/// Writes the transpose of the row-major `rows x cols` matrix `m` into
/// `out`.
fn transpose_into(m: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = m[i * cols + j];
        }
    }
}

/// The transpose of the row-major `rows x cols` block `m`, built in
/// `scratch`: `m` itself for a single row or column (same memory layout).
fn transposed_block<'a>(
    m: &'a [f64],
    rows: usize,
    cols: usize,
    scratch: &'a mut Vec<f64>,
) -> &'a [f64] {
    if rows == 1 || cols == 1 {
        return m;
    }
    scratch.clear();
    scratch.resize(rows * cols, 0.0);
    transpose_into(m, rows, cols, scratch);
    scratch
}

/// [`transposed_block`] of a shared one-block operand, except that a
/// parameter's transpose comes from `cache`, rebuilt only when the stamp
/// it was built at is not the one `m` was loaded at.
fn transposed_param<'a>(
    (m, rows, cols): (&'a [f64], usize, usize),
    param: Option<(ParamId, Stamp)>,
    cache: &'a mut Vec<(Option<Stamp>, Vec<f64>)>,
    scratch: &'a mut Vec<f64>,
) -> &'a [f64] {
    let Some((id, stamp)) = param.filter(|_| rows > 1 && cols > 1) else {
        return transposed_block(m, rows, cols, scratch);
    };
    if cache.len() <= id.index() {
        cache.resize_with(id.index() + 1, Default::default);
    }
    let (built, t) = &mut cache[id.index()];
    if *built != Some(stamp) {
        t.clear();
        t.resize(rows * cols, 0.0);
        transpose_into(m, rows, cols, t);
        *built = Some(stamp);
    }
    t
}

/// `acc += product`, where `gemm` forms the product from `+0.0`, so every
/// element of `acc` receives one complete sum, as it would from a triple
/// loop. When `acc` still holds only the zeros `backward` filled it with
/// (`in_place`), the product is formed in it directly: `+0.0 + sum` is
/// `sum` bit for bit, as a sum formed from `+0.0` is never `-0.0`.
fn product_into(
    scratch: &mut Vec<f64>,
    acc: &mut [f64],
    in_place: bool,
    gemm: impl FnOnce(&mut [f64]),
) {
    if in_place {
        gemm(acc);
        return;
    }
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
        tape.backward(loss, &mut store);
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
            tape.backward(loss, &mut store);
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
        store.zero_grads();
        tape.backward(loss, store);
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
    fn op_tally_counts_nodes_visits_and_elements_per_kind() {
        let mut store = ParamStore::new(6);
        let ids = [store.add(4, 3)];
        let kind = |name: &str| OP_KINDS.iter().position(|&k| k == name).unwrap();
        let mut tape = Tape::new();
        small_graph(&mut tape, &store, &ids);
        assert!(tape.op_tally().is_none(), "unarmed tapes count nothing");
        tape.count_ops();
        for _ in 0..2 {
            tape.reset();
            let loss = small_graph(&mut tape, &store, &ids);
            tape.backward(loss, &mut store);
        }
        let t = tape.op_tally().unwrap();
        // Per pass: leaves x (2x4) and w (4x3); matmul, tanh and mul_elem
        // 2x3; mean_all 1x1. The input leaf needs no gradient.
        assert_eq!(t.nodes[kind("leaf")], 4);
        assert_eq!(t.elems[kind("leaf")], 2 * (8 + 12));
        assert_eq!(t.visits[kind("leaf")], 2);
        for k in ["matmul", "tanh", "mul_elem"] {
            assert_eq!(
                (t.nodes[kind(k)], t.visits[kind(k)], t.elems[kind(k)]),
                (2, 2, 12),
                "{k}"
            );
        }
        assert_eq!(t.elems[kind("mean_all")], 2);
        assert_eq!(t.nodes.iter().sum::<u64>(), 12);
    }

    /// A graph over every op and every way a parameter reaches one: a
    /// shared right operand, a shared left operand, a broadcast add, bias
    /// and gain, a convolution weight, a parameter read twice (a slab) and
    /// one loaded twice (the GRU's pattern). `xs` holds the samples'
    /// inputs stacked, 12 values each.
    fn every_op_graph(
        tape: &mut Tape,
        store: &ParamStore,
        ids: &[ParamId],
        xs: &[f64],
    ) -> TensorRef {
        let x = tape.input(xs, 3, 4);
        let w = tape.param(store, ids[0]); // 4x3, shared right operand
        let h = tape.matmul(x, w);
        let b = tape.param(store, ids[1]); // 1x3 bias
        let h = tape.add_row_broadcast(h, b);
        let h = tape.relu(h);
        let m = tape.param(store, ids[2]); // 3x3, shared left operand
        let h = tape.matmul(m, h);
        let pos = tape.param(store, ids[3]); // 3x3, broadcast add
        let h = tape.add(h, pos);
        let n = tape.layer_norm_rows(h);
        let g = tape.param(store, ids[4]); // 1x3 gain
        let n = tape.mul_row_broadcast(n, g);
        let ht = tape.transpose(n);
        let scores = tape.matmul(n, ht); // per block
        let scores = tape.scale(scores, 0.5);
        let attn = tape.softmax_rows(scores);
        let ctx = tape.matmul(attn, n); // per block
        let cw = tape.param(store, ids[5]); // conv 2*3 x 2
        let conv = tape.causal_conv1d(ctx, cw, 2, 1);
        let conv = tape.tanh(conv);
        let pooled = tape.avg_pool_rows(conv, 2); // 2x2
        let flat = tape.reshape(pooled, 1, 4);
        let twice = tape.param(store, ids[6]); // 1x4, read by two ops
        let a = tape.mul_elem(flat, twice);
        let a = tape.sub(a, twice);
        let v = tape.param(store, ids[7]); // 4x2, loaded twice
        let y1 = tape.matmul(a, v);
        let v = tape.param(store, ids[7]);
        let y2 = tape.matmul(flat, v);
        let y = tape.concat_cols(y1, y2);
        let y = tape.sigmoid(y);
        let t = tape.input(&vec![0.25; y_len(xs)], 1, 4);
        let d = tape.sub(y, t);
        let sq = tape.mul_elem(d, d);
        let sq = tape.scale(sq, 1.0 / 3.0);
        tape.mean_all(sq)
    }

    /// Four target values per sample of `xs`.
    fn y_len(xs: &[f64]) -> usize {
        xs.len() / 12 * 4
    }

    fn every_op_store() -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new(11);
        let ids = vec![
            store.add(4, 3),
            store.add(1, 3),
            store.add(3, 3),
            store.add(3, 3),
            store.add_raw(vec![1.0, 0.5, -1.5], 1, 3),
            store.add(6, 2),
            store.add(1, 4),
            store.add(4, 2),
        ];
        (store, ids)
    }

    #[test]
    fn a_blocked_graph_equals_one_graph_per_sample() {
        // Sample 1 drives the first dense layer's pre-activations far
        // negative: its ReLU is dead, so its gradient there is all zero
        // and the -inf in its input must never meet that zero.
        let samples: [[f64; 12]; 4] = [
            [
                0.3, -0.7, 1.1, 0.2, -1.3, 0.8, 0.05, 0.6, 0.9, -0.4, 0.0, 1.2,
            ],
            [
                f64::NEG_INFINITY,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
                -1e300,
            ],
            [
                1.5, 0.25, -0.5, 2.0, 0.0, 0.0, 0.75, -1.25, 0.5, 0.5, -0.5, 0.1,
            ],
            [
                -0.2, 0.4, 0.6, -0.8, 1.0, -1.2, 1.4, -1.6, 1.8, -2.0, 2.2, -2.4,
            ],
        ];
        let (mut store, ids) = every_op_store();
        // The dead sample needs the first layer to map its input negative.
        store.restore(&{
            let mut v = store.snapshot();
            v[0] = vec![0.5, 0.2, 0.3, 0.1, 0.4, 0.6, 0.2, 0.3, 0.1, 0.6, 0.2, 0.4];
            v
        });
        // One graph per sample, gradients added sample after sample.
        let mut want_values = Vec::new();
        store.zero_grads();
        for x in &samples {
            let mut tape = Tape::new();
            let loss = every_op_graph(&mut tape, &store, &ids, x);
            want_values.push(bits(tape.value(loss)));
            tape.backward(loss, &mut store);
        }
        let want: Vec<Vec<u64>> = ids.iter().map(|&id| bits(store.grad(id))).collect();
        assert!(want
            .iter()
            .flatten()
            .all(|&g| f64::from_bits(g).is_finite()));
        for chunk in [1, 2, 3, 4] {
            store.zero_grads();
            let mut tape = Tape::new();
            let mut values = Vec::new();
            for part in samples.chunks(chunk) {
                tape.reset();
                let xs: Vec<f64> = part.iter().flatten().copied().collect();
                let loss = every_op_graph(&mut tape, &store, &ids, &xs);
                values.extend(tape.value(loss).iter().map(|v| vec![v.to_bits()]));
                tape.backward(loss, &mut store);
            }
            let got: Vec<Vec<u64>> = ids.iter().map(|&id| bits(store.grad(id))).collect();
            assert_eq!(values, want_values, "losses, chunks of {chunk}");
            assert_eq!(got, want, "parameter gradients, chunks of {chunk}");
        }
    }
}
