//! Runtime-selected dense microkernels: dot, axpy, and the register-
//! tiled GEMM, each in a scalar reference form and an unrolled form
//! (compiled additionally with AVX2 enabled where the CPU has it).
//!
//! Every unrolled kernel performs *exactly the same floating-point
//! operations in exactly the same per-element order* as its scalar
//! reference — unrolling only widens the window the autovectorizer and
//! the out-of-order core see, it never reassociates a reduction. The
//! serial dot chain keeps one accumulator (its add-latency chain is the
//! algorithm); the axpy and GEMM updates are element-independent, so
//! unrolling and SIMD lanes change nothing about the result. That is
//! what lets callers switch paths at runtime while staying bit-identical
//! — the property `tests/kernel_props.rs` proves on random shapes.
//!
//! The GEMM ([`gemm`], and [`gemm_tn`] for `lhsᵀ · rhs`) keeps an output
//! tile of four rows by eight columns in registers across the whole
//! depth, one row by sixteen for a lone row, with masked loads and stores
//! over the last columns. A row block holding no zero runs the plain
//! multiply-add tile; one holding a zero runs the same tile adding `-0.0`
//! in place of every zero-left term, which equals skipping the term bit
//! for bit, so no term takes a branch. Products and sums round separately
//! (never a fused multiply-add), as the reference does. The AVX2 lanes
//! are `std::arch` intrinsics; the `unrolled` path runs the same tile on
//! portable four-lane arrays.
//!
//! Selection: [`active`] reads `TFB_KERNEL` (`scalar` | `unrolled` |
//! `auto`, default `auto` = unrolled, with AVX2 when detected) once,
//! publishes the choice on the `math/kernel_path` gauge, and callers
//! record [`active_name`] in their run manifests so every benchmark
//! number is attributable to the kernel path that produced it.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the dispatchers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The reference loops (the pre-microkernel code, kept verbatim).
    Scalar,
    /// 4x-unrolled kernels, baseline instruction set.
    Unrolled,
    /// 4x-unrolled kernels compiled with AVX2 enabled (x86-64 only,
    /// runtime-detected). Bit-identical to both other paths.
    UnrolledAvx2,
}

impl KernelPath {
    /// Stable name for manifests and benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Unrolled => "unrolled",
            KernelPath::UnrolledAvx2 => "unrolled+avx2",
        }
    }

    fn code(self) -> u8 {
        match self {
            KernelPath::Scalar => 1,
            KernelPath::Unrolled => 2,
            KernelPath::UnrolledAvx2 => 3,
        }
    }

    fn from_code(code: u8) -> Option<KernelPath> {
        match code {
            1 => Some(KernelPath::Scalar),
            2 => Some(KernelPath::Unrolled),
            3 => Some(KernelPath::UnrolledAvx2),
            _ => None,
        }
    }
}

/// 0 = undecided; otherwise `KernelPath::code`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn detect() -> KernelPath {
    match std::env::var("TFB_KERNEL").as_deref() {
        Ok("scalar") => KernelPath::Scalar,
        Ok("unrolled") => KernelPath::Unrolled,
        _ => best_unrolled(),
    }
}

/// The widest unrolled path this CPU supports.
pub fn best_unrolled() -> KernelPath {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return KernelPath::UnrolledAvx2;
    }
    KernelPath::Unrolled
}

/// The kernel path in effect (decides on first call; one relaxed load
/// afterwards).
#[inline]
pub fn active() -> KernelPath {
    match KernelPath::from_code(ACTIVE.load(Ordering::Relaxed)) {
        Some(p) => p,
        None => init(),
    }
}

#[cold]
fn init() -> KernelPath {
    let path = detect();
    force(path);
    path
}

/// Overrides the kernel path (benchmarks and tests compare paths this
/// way; servers pick once at startup via `TFB_KERNEL`). AVX2 is taken
/// only where the CPU has it, else `Unrolled`: the AVX2 dispatchers run
/// its instructions unchecked.
pub fn force(path: KernelPath) {
    let path = match path {
        KernelPath::UnrolledAvx2 => best_unrolled(),
        other => other,
    };
    ACTIVE.store(path.code(), Ordering::Relaxed);
    tfb_obs::gauge!("math/kernel_path").set(path.code() as f64);
}

/// Name of the active path — callers put this in run manifests.
pub fn active_name() -> &'static str {
    active().name()
}

// ---------------------------------------------------------------------
// dot: serial accumulator chain starting from `init`, no zero-skip.
// ---------------------------------------------------------------------

#[inline(always)]
fn dot_acc_scalar(init: f64, x: &[f64], y: &[f64]) -> f64 {
    let mut acc = init;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// One serial accumulator, loop body unrolled 4x: the products are
/// formed in the same order and added to the same single chain, so the
/// result is bit-identical to the scalar loop — the unroll only removes
/// branch and index overhead (the add chain itself is the latency
/// floor by design).
#[inline(always)]
fn dot_acc_unrolled(init: f64, x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = init;
    let mut k = 0;
    while k + 4 <= n {
        acc += x[k] * y[k];
        acc += x[k + 1] * y[k + 1];
        acc += x[k + 2] * y[k + 2];
        acc += x[k + 3] * y[k + 3];
        k += 4;
    }
    while k < n {
        acc += x[k] * y[k];
        k += 1;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_acc_avx2(init: f64, x: &[f64], y: &[f64]) -> f64 {
    dot_acc_unrolled(init, x, y)
}

/// `init + Σ x[i]*y[i]`, accumulated left to right in one serial chain
/// (the exact order of `iter().zip().map().sum()` seeded with `init`).
#[inline]
pub fn dot_acc(init: f64, x: &[f64], y: &[f64]) -> f64 {
    match active() {
        KernelPath::Scalar => dot_acc_scalar(init, x, y),
        KernelPath::Unrolled => dot_acc_unrolled(init, x, y),
        #[cfg(target_arch = "x86_64")]
        KernelPath::UnrolledAvx2 => unsafe { dot_acc_avx2(init, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath::UnrolledAvx2 => dot_acc_unrolled(init, x, y),
    }
}

// ---------------------------------------------------------------------
// dot_skip: serial chain that skips x[i] == 0.0 terms (the GEMM
// zero-skip semantics: 0 * inf stays out of the sum).
// ---------------------------------------------------------------------

#[inline(always)]
fn dot_skip_scalar(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        if a == 0.0 {
            continue;
        }
        acc += a * b;
    }
    acc
}

#[inline(always)]
fn dot_skip_unrolled(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = 0.0;
    let mut k = 0;
    while k + 4 <= n {
        // Same chain, same skips, four loads per trip.
        if x[k] != 0.0 {
            acc += x[k] * y[k];
        }
        if x[k + 1] != 0.0 {
            acc += x[k + 1] * y[k + 1];
        }
        if x[k + 2] != 0.0 {
            acc += x[k + 2] * y[k + 2];
        }
        if x[k + 3] != 0.0 {
            acc += x[k + 3] * y[k + 3];
        }
        k += 4;
    }
    while k < n {
        if x[k] != 0.0 {
            acc += x[k] * y[k];
        }
        k += 1;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_skip_avx2(x: &[f64], y: &[f64]) -> f64 {
    dot_skip_unrolled(x, y)
}

/// `Σ x[i]*y[i]` with `x[i] == 0.0` terms skipped, one serial chain.
#[inline]
pub fn dot_skip(x: &[f64], y: &[f64]) -> f64 {
    match active() {
        KernelPath::Scalar => dot_skip_scalar(x, y),
        KernelPath::Unrolled => dot_skip_unrolled(x, y),
        #[cfg(target_arch = "x86_64")]
        KernelPath::UnrolledAvx2 => unsafe { dot_skip_avx2(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath::UnrolledAvx2 => dot_skip_unrolled(x, y),
    }
}

// ---------------------------------------------------------------------
// axpy: out[i] += a * x[i]. Elements are independent, so any unroll or
// SIMD width is bit-identical by construction.
// ---------------------------------------------------------------------

#[inline(always)]
fn axpy_scalar(a: f64, x: &[f64], out: &mut [f64]) {
    for (o, &b) in out.iter_mut().zip(x) {
        *o += a * b;
    }
}

#[inline(always)]
fn axpy_unrolled(a: f64, x: &[f64], out: &mut [f64]) {
    let n = x.len().min(out.len());
    let (x, out) = (&x[..n], &mut out[..n]);
    let mut j = 0;
    while j + 4 <= n {
        out[j] += a * x[j];
        out[j + 1] += a * x[j + 1];
        out[j + 2] += a * x[j + 2];
        out[j + 3] += a * x[j + 3];
        j += 4;
    }
    while j < n {
        out[j] += a * x[j];
        j += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(a: f64, x: &[f64], out: &mut [f64]) {
    axpy_unrolled(a, x, out)
}

/// `out[i] += a * x[i]` over the common prefix of `x` and `out`.
#[inline]
pub fn axpy(a: f64, x: &[f64], out: &mut [f64]) {
    match active() {
        KernelPath::Scalar => axpy_scalar(a, x, out),
        KernelPath::Unrolled => axpy_unrolled(a, x, out),
        #[cfg(target_arch = "x86_64")]
        KernelPath::UnrolledAvx2 => unsafe { axpy_avx2(a, x, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath::UnrolledAvx2 => axpy_unrolled(a, x, out),
    }
}

// ---------------------------------------------------------------------
// GEMM: `out += lhs · rhs` (NN) and `out += lhsᵀ · rhs` (TN) on one
// register-tiled microkernel. Every output element adds its k terms to
// its prior value in ascending k order and leaves out the terms whose
// left-hand value is ±0.0.
// ---------------------------------------------------------------------

/// The left operand of a product: the value for output row `i` and depth
/// step `k` is `data[i * row + k * step]`. NN reads row-major `m × depth`
/// (`row = depth`, `step = 1`); TN reads row-major `depth × m` as its
/// transpose (`row = 1`, `step = m`).
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f64],
    row: usize,
    step: usize,
}

impl Lhs<'_> {
    #[inline(always)]
    fn at(&self, i: usize, k: usize) -> f64 {
        self.data[i * self.row + k * self.step]
    }

    /// Whether rows `i0..i0 + r` hold a ±0.0 at any depth step, scanned
    /// along whichever index is contiguous.
    #[inline(always)]
    fn block_has_zero(&self, i0: usize, r: usize, depth: usize) -> bool {
        if self.step == 1 {
            (i0..i0 + r).any(|i| self.data[i * self.row..][..depth].contains(&0.0))
        } else {
            (0..depth).any(|k| self.data[k * self.step + i0 * self.row..][..r].contains(&0.0))
        }
    }
}

/// The reference: the plain ikj loop, skipping zero left-hand terms.
fn gemm_scalar(lhs: Lhs, depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for k in 0..depth {
            let a = lhs.at(i, k);
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(&rhs[k * n..(k + 1) * n]) {
                *o += a * b;
            }
        }
    }
}

/// Four `f64` lanes, the register a tile is built from.
///
/// # Safety
///
/// Every method may use the lane type's instruction set, which the CPU
/// must support. Pointers must be valid for the lanes they touch: all
/// four for `load`/`store`, the ones the mask selects for
/// `load_masked`/`store_masked`, one value for `splat`.
trait Lanes: Copy {
    /// Selects the first `w` lanes of a load or store.
    type Mask: Copy;
    /// Marks the lanes of a splat left-hand value that are ±0.0.
    type Zero: Copy;
    unsafe fn mask(w: usize) -> Self::Mask;
    unsafe fn load(p: *const f64) -> Self;
    /// Unselected lanes read as zero and touch no memory.
    unsafe fn load_masked(p: *const f64, mask: Self::Mask) -> Self;
    unsafe fn store(self, p: *mut f64);
    unsafe fn store_masked(self, p: *mut f64, mask: Self::Mask);
    /// Every lane set to `*p`.
    unsafe fn splat(p: *const f64) -> Self;
    /// Every lane `+0.0`.
    unsafe fn zero() -> Self;
    /// `self + other`, lane by lane.
    unsafe fn add(self, other: Self) -> Self;
    unsafe fn zero_lanes(self) -> Self::Zero;
    /// `self + a·b`, rounded after the product and after the sum, as
    /// the reference rounds (never a fused multiply-add).
    unsafe fn add_product(self, a: Self, b: Self) -> Self;
    /// As [`Lanes::add_product`], but a lane marked in `zero` adds `-0.0`
    /// in place of its product. `x + -0.0` is `x` bit for bit (`-0.0`
    /// stays `-0.0`, NaN payloads pass through), so this skips the term
    /// without a branch; `+0.0` would not, as `-0.0 + +0.0` is `+0.0`.
    unsafe fn add_product_skipping(self, a: Self, b: Self, zero: Self::Zero) -> Self;
}

/// Portable lanes for CPUs without AVX2; the compiler vectorizes them
/// as far as the target allows.
#[derive(Clone, Copy)]
struct Portable([f64; 4]);

impl Lanes for Portable {
    /// The number of selected lanes.
    type Mask = usize;
    /// All ones when the splat value is ±0.0, else zero.
    type Zero = u64;

    #[inline(always)]
    unsafe fn mask(w: usize) -> usize {
        w
    }

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Portable(*(p as *const [f64; 4]))
    }

    #[inline(always)]
    unsafe fn load_masked(p: *const f64, w: usize) -> Self {
        Portable(std::array::from_fn(|l| if l < w { *p.add(l) } else { 0.0 }))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *(p as *mut [f64; 4]) = self.0;
    }

    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f64, w: usize) {
        for (l, &v) in self.0.iter().enumerate().take(w) {
            *p.add(l) = v;
        }
    }

    #[inline(always)]
    unsafe fn splat(p: *const f64) -> Self {
        Portable([*p; 4])
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        Portable([0.0; 4])
    }

    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] + other.0[l]))
    }

    #[inline(always)]
    unsafe fn zero_lanes(self) -> u64 {
        u64::from(self.0[0] == 0.0).wrapping_neg()
    }

    #[inline(always)]
    unsafe fn add_product(self, a: Self, b: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] + a.0[l] * b.0[l]))
    }

    #[inline(always)]
    unsafe fn add_product_skipping(self, a: Self, b: Self, zero: u64) -> Self {
        const NEG_ZERO: u64 = 1 << 63;
        Portable(std::array::from_fn(|l| {
            let p = (a.0[l] * b.0[l]).to_bits();
            self.0[l] + f64::from_bits((p & !zero) | (NEG_ZERO & zero))
        }))
    }
}

/// One tile's operands: `a` points at its first left-hand value (row
/// `i0`, `k = 0`; row `i` and step `k` at `a + i·row + k·step`), `b` at
/// right-hand row 0 and `c` at output row `i0`, both at the tile's first
/// column with row stride `n`.
#[derive(Clone, Copy)]
struct Panel {
    a: *const f64,
    row: usize,
    step: usize,
    depth: usize,
    b: *const f64,
    c: *mut f64,
    n: usize,
}

/// One `R` × `4·V` output tile, held in registers across the whole depth:
/// loaded once, given every `k` term in ascending order, stored once.
/// `SKIP` (the row block holds a zero) adds `-0.0` for zero left-hand
/// values; `TAIL` loads and stores through `masks` for the last columns.
///
/// # Safety
///
/// `L`'s instruction set is available. `p.a` is valid for `R` rows and
/// `p.depth` steps; `p.b` and `p.c` for `p.depth` and `R` rows of the
/// tile's columns: all `4·V`, or with `TAIL` those `masks` select, which
/// include at least the first lane of every vector.
#[inline(always)]
unsafe fn tile<L: Lanes, const R: usize, const V: usize, const SKIP: bool, const TAIL: bool>(
    p: Panel,
    masks: [L::Mask; V],
) {
    let load = |at: *const f64, v: usize| {
        if TAIL {
            L::load_masked(at, masks[v])
        } else {
            L::load(at)
        }
    };
    let mut acc: [[L; V]; R] =
        std::array::from_fn(|i| std::array::from_fn(|v| load(p.c.add(i * p.n + 4 * v), v)));
    for k in 0..p.depth {
        let bk: [L; V] = std::array::from_fn(|v| load(p.b.add(k * p.n + 4 * v), v));
        let ak = p.a.add(k * p.step);
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let a = L::splat(ak.add(i * p.row));
            if SKIP {
                let zero = a.zero_lanes();
                for (o, &b) in acc_row.iter_mut().zip(&bk) {
                    *o = o.add_product_skipping(a, b, zero);
                }
            } else {
                for (o, &b) in acc_row.iter_mut().zip(&bk) {
                    *o = o.add_product(a, b);
                }
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        for (v, o) in acc_row.iter().enumerate() {
            let at = p.c.add(i * p.n + 4 * v);
            if TAIL {
                o.store_masked(at, masks[v]);
            } else {
                o.store(at);
            }
        }
    }
}

/// Rows `i0..i0 + R` of the product: full `4·V`-wide tiles, then one
/// masked tile, at most `V` vectors wide, over the last `n % 4V` columns.
///
/// # Safety
///
/// As [`tile`], for `R` rows and all `p.n` columns.
#[inline(always)]
unsafe fn row_block<L: Lanes, const R: usize, const V: usize, const SKIP: bool>(p: Panel) {
    let at = |j0: usize| Panel {
        b: p.b.add(j0),
        c: p.c.add(j0),
        ..p
    };
    let full = L::mask(4);
    let mut j0 = 0;
    while j0 + 4 * V <= p.n {
        tile::<L, R, V, SKIP, false>(at(j0), [full; V]);
        j0 += 4 * V;
    }
    let w = p.n - j0;
    if w == 0 {
        return;
    }
    let last = L::mask(w - (w - 1) / 4 * 4);
    match w.div_ceil(4) {
        1 => tile::<L, R, 1, SKIP, true>(at(j0), [last]),
        2 => tile::<L, R, 2, SKIP, true>(at(j0), [full, last]),
        3 => tile::<L, R, 3, SKIP, true>(at(j0), [full, full, last]),
        _ => tile::<L, R, 4, SKIP, true>(at(j0), [full, full, full, last]),
    }
}

/// [`row_block`] on the dense tile, or on the skipping tile when the
/// block holds a zero: the choice is made once per block, not per term.
///
/// # Safety
///
/// As [`row_block`].
#[inline(always)]
unsafe fn block<L: Lanes, const R: usize, const V: usize>(p: Panel, has_zero: bool) {
    if has_zero {
        row_block::<L, R, V, true>(p)
    } else {
        row_block::<L, R, V, false>(p)
    }
}

/// `out += lhs · rhs` tile by tile: blocks of four rows with 8-wide
/// tiles, the last 1–3 rows as one block, a single row with 16-wide
/// tiles so that four sums stay in flight.
///
/// # Safety
///
/// `L`'s instruction set is available; `lhs` holds `m × depth` values,
/// `rhs` `depth × n` and `out` `m × n`.
#[inline(always)]
unsafe fn gemm_tiled<L: Lanes>(
    lhs: Lhs,
    m: usize,
    depth: usize,
    rhs: &[f64],
    n: usize,
    out: &mut [f64],
) {
    let mut i0 = 0;
    while i0 < m {
        let r = (m - i0).min(4);
        let p = Panel {
            a: lhs.data.as_ptr().add(i0 * lhs.row),
            row: lhs.row,
            step: lhs.step,
            depth,
            b: rhs.as_ptr(),
            c: out.as_mut_ptr().add(i0 * n),
            n,
        };
        let has_zero = lhs.block_has_zero(i0, r, depth);
        match r {
            4 => block::<L, 4, 2>(p, has_zero),
            3 => block::<L, 3, 2>(p, has_zero),
            2 => block::<L, 2, 2>(p, has_zero),
            _ => block::<L, 1, 4>(p, has_zero),
        }
        i0 += r;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{gemm_tiled, segments_tiled, Lanes, Lhs, Segmented};
    use std::arch::x86_64::*;

    /// Four lanes in one AVX register.
    #[derive(Clone, Copy)]
    struct Avx2(__m256d);

    impl Lanes for Avx2 {
        type Mask = __m256i;
        type Zero = __m256d;

        #[inline(always)]
        unsafe fn mask(w: usize) -> __m256i {
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(w as i64), _mm256_setr_epi64x(0, 1, 2, 3))
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Avx2(_mm256_loadu_pd(p))
        }

        #[inline(always)]
        unsafe fn load_masked(p: *const f64, mask: __m256i) -> Self {
            Avx2(_mm256_maskload_pd(p, mask))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }

        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f64, mask: __m256i) {
            _mm256_maskstore_pd(p, mask, self.0)
        }

        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            Avx2(_mm256_broadcast_sd(&*p))
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Avx2(_mm256_setzero_pd())
        }

        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            Avx2(_mm256_add_pd(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn zero_lanes(self) -> __m256d {
            _mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, _mm256_setzero_pd())
        }

        #[inline(always)]
        unsafe fn add_product(self, a: Self, b: Self) -> Self {
            Avx2(_mm256_add_pd(self.0, _mm256_mul_pd(a.0, b.0)))
        }

        #[inline(always)]
        unsafe fn add_product_skipping(self, a: Self, b: Self, zero: __m256d) -> Self {
            let term = _mm256_blendv_pd(_mm256_mul_pd(a.0, b.0), _mm256_set1_pd(-0.0), zero);
            Avx2(_mm256_add_pd(self.0, term))
        }
    }

    /// The tiles on AVX2 lanes.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; the operands are as [`gemm_tiled`] requires.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm(
        lhs: Lhs,
        m: usize,
        depth: usize,
        rhs: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        gemm_tiled::<Avx2>(lhs, m, depth, rhs, n, out)
    }

    /// The segmented tiles on AVX2 lanes.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; the operands are as [`segments_tiled`]
    /// requires.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tn_segments(s: Segmented) {
        segments_tiled::<Avx2>(s)
    }
}

/// `out += lhs · rhs`: `lhs` is row-major `out.len() / n` rows by `depth`
/// columns, `rhs` row-major `depth` × `n`, `out` row-major with `n`
/// columns. The kernel path is read once for the whole product.
///
/// Every output element adds its `k` terms to its prior value in
/// ascending `k` order and skips the terms whose left-hand value is
/// `±0.0`, so `0 · inf` never reaches a sum; on every path the result
/// equals the plain ikj triple loop bit for bit (where it is NaN, the
/// payload may come from another NaN operand).
#[inline]
pub fn gemm(lhs: &[f64], depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    product(
        Lhs {
            data: lhs,
            row: depth,
            step: 1,
        },
        depth,
        rhs,
        n,
        out,
    )
}

/// `out += lhsᵀ · rhs`, read straight from `lhs`'s rows: `lhs` is
/// row-major `depth` × `m` with `m = out.len() / n`, `rhs` row-major
/// `depth` × `n`. Bit for bit [`gemm`] on the explicit transpose.
#[inline]
pub fn gemm_tn(lhs: &[f64], depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    product(
        Lhs {
            data: lhs,
            row: 1,
            step: m,
        },
        depth,
        rhs,
        n,
        out,
    )
}

fn product(lhs: Lhs, depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    if m == 0 || depth == 0 {
        return;
    }
    assert!(
        lhs.data.len() >= m * depth && rhs.len() >= depth * n,
        "gemm operand shapes"
    );
    let out = &mut out[..m * n];
    match active() {
        KernelPath::Scalar => gemm_scalar(lhs, depth, rhs, n, out),
        // SAFETY: the assert above bounds every pointer a tile forms, and
        // portable lanes need no CPU feature.
        KernelPath::Unrolled => unsafe { gemm_tiled::<Portable>(lhs, m, depth, rhs, n, out) },
        // SAFETY: as above; `force` selects the AVX2 path only where
        // `best_unrolled` detected AVX2.
        #[cfg(target_arch = "x86_64")]
        KernelPath::UnrolledAvx2 => unsafe { avx2::gemm(lhs, m, depth, rhs, n, out) },
        // SAFETY: as for `Unrolled`.
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath::UnrolledAvx2 => unsafe { gemm_tiled::<Portable>(lhs, m, depth, rhs, n, out) },
    }
}

// ---------------------------------------------------------------------
// Segmented reductions: one complete sum per segment of rows, each
// formed from +0.0 and then added to its output, in segment order. A
// weight gradient summed over a chunk of samples this way gets exactly
// the additions it got when each sample's gradient was formed on its own
// and then added to the parameter's.
// ---------------------------------------------------------------------

/// The operands of [`gemm_tn_segments`], checked.
#[derive(Clone, Copy)]
struct Segmented<'a> {
    lhs: &'a [f64],
    m: usize,
    rhs: &'a [f64],
    n: usize,
    segments: &'a [Range<usize>],
    out: *mut f64,
    out_stride: usize,
}

/// The reference: for every segment, element and row, the plain loops.
fn segments_scalar(s: Segmented) {
    for (i, seg) in s.segments.iter().enumerate() {
        for k in 0..s.m {
            for j in 0..s.n {
                let mut sum = 0.0;
                for r in seg.clone() {
                    let a = s.lhs[r * s.m + k];
                    if a != 0.0 {
                        sum += a * s.rhs[r * s.n + j];
                    }
                }
                // SAFETY: `gemm_tn_segments` checked that every segment's
                // output lies inside `out`.
                unsafe { *s.out.add(i * s.out_stride + k * s.n + j) += sum }
            }
        }
    }
}

/// One segment's `R` × `4·V` sum tile from `+0.0`: `a` points at the
/// segment's first left-hand row at the tile's first output row, `b` at
/// its first right-hand row at the tile's first column.
///
/// # Safety
///
/// As [`tile`]: `L`'s instruction set is available, `a` is valid for
/// `rows` rows of stride `m` and `R` values, `b` for `rows` rows of
/// stride `n` and the lanes `masks` select (all with `!TAIL`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn segment_sum<
    L: Lanes,
    const R: usize,
    const V: usize,
    const SKIP: bool,
    const TAIL: bool,
>(
    a: *const f64,
    m: usize,
    b: *const f64,
    n: usize,
    rows: usize,
    masks: [L::Mask; V],
) -> [[L; V]; R] {
    let mut sum = [[L::zero(); V]; R];
    for r in 0..rows {
        let br: [L; V] = std::array::from_fn(|v| {
            let at = b.add(r * n + 4 * v);
            if TAIL {
                L::load_masked(at, masks[v])
            } else {
                L::load(at)
            }
        });
        for (i, sum_row) in sum.iter_mut().enumerate() {
            let x = L::splat(a.add(r * m + i));
            if SKIP {
                let zero = x.zero_lanes();
                for (o, &y) in sum_row.iter_mut().zip(&br) {
                    *o = o.add_product_skipping(x, y, zero);
                }
            } else {
                for (o, &y) in sum_row.iter_mut().zip(&br) {
                    *o = o.add_product(x, y);
                }
            }
        }
    }
    sum
}

/// Output rows `k0..k0 + R`, columns `j0..j0 + 4·V`, over every segment:
/// with one shared output (`out_stride == 0`) the output tile stays in
/// registers from the first segment to the last.
///
/// # Safety
///
/// As [`segment_sum`] for every segment, and `s.out` is valid for the
/// tile of every segment's output.
#[inline(always)]
unsafe fn segment_tile<L: Lanes, const R: usize, const V: usize, const TAIL: bool>(
    s: Segmented,
    k0: usize,
    j0: usize,
    masks: [L::Mask; V],
) {
    let load = |at: *const f64, v: usize| {
        if TAIL {
            L::load_masked(at, masks[v])
        } else {
            L::load(at)
        }
    };
    let store = |o: L, at: *mut f64, v: usize| {
        if TAIL {
            o.store_masked(at, masks[v])
        } else {
            o.store(at)
        }
    };
    let c = s.out.add(k0 * s.n + j0);
    let shared = s.out_stride == 0;
    let mut acc: [[L; V]; R] = if shared {
        std::array::from_fn(|i| std::array::from_fn(|v| load(c.add(i * s.n + 4 * v), v)))
    } else {
        [[L::zero(); V]; R]
    };
    for (g, seg) in s.segments.iter().enumerate() {
        let a = s.lhs.as_ptr().add(seg.start * s.m + k0);
        let b = s.rhs.as_ptr().add(seg.start * s.n + j0);
        let rows = seg.len();
        let has_zero = (0..rows).any(|r| s.lhs[(seg.start + r) * s.m + k0..][..R].contains(&0.0));
        let sum = if has_zero {
            segment_sum::<L, R, V, true, TAIL>(a, s.m, b, s.n, rows, masks)
        } else {
            segment_sum::<L, R, V, false, TAIL>(a, s.m, b, s.n, rows, masks)
        };
        let cg = c.add(g * s.out_stride);
        for (i, (acc_row, sum_row)) in acc.iter_mut().zip(&sum).enumerate() {
            for (v, (o, &x)) in acc_row.iter_mut().zip(sum_row).enumerate() {
                if shared {
                    *o = o.add(x);
                } else {
                    let at = cg.add(i * s.n + 4 * v);
                    store(load(at, v).add(x), at, v);
                }
            }
        }
    }
    if shared {
        for (i, acc_row) in acc.iter().enumerate() {
            for (v, &o) in acc_row.iter().enumerate() {
                store(o, c.add(i * s.n + 4 * v), v);
            }
        }
    }
}

/// Output rows `k0..k0 + R` over all `s.n` columns: 8-wide tiles, then
/// one masked tile over the last `n % 8`.
///
/// # Safety
///
/// As [`segment_tile`] for every column.
#[inline(always)]
unsafe fn segment_rows<L: Lanes, const R: usize>(s: Segmented, k0: usize) {
    let full = L::mask(4);
    let mut j0 = 0;
    while j0 + 8 <= s.n {
        segment_tile::<L, R, 2, false>(s, k0, j0, [full; 2]);
        j0 += 8;
    }
    let w = s.n - j0;
    if w == 0 {
        return;
    }
    let last = L::mask(w - (w - 1) / 4 * 4);
    if w <= 4 {
        segment_tile::<L, R, 1, true>(s, k0, j0, [last]);
    } else {
        segment_tile::<L, R, 2, true>(s, k0, j0, [full, last]);
    }
}

/// [`gemm_tn_segments`] tile by tile: blocks of four output rows, the
/// last 1–3 rows as one block.
///
/// # Safety
///
/// `L`'s instruction set is available; `gemm_tn_segments` checked the
/// operands.
#[inline(always)]
unsafe fn segments_tiled<L: Lanes>(s: Segmented) {
    let mut k0 = 0;
    while k0 < s.m {
        match (s.m - k0).min(4) {
            4 => segment_rows::<L, 4>(s, k0),
            3 => segment_rows::<L, 3>(s, k0),
            2 => segment_rows::<L, 2>(s, k0),
            _ => segment_rows::<L, 1>(s, k0),
        }
        k0 += 4;
    }
}

/// For every segment `g` of rows, in order: `out_g += (+0.0 + Σ_{r ∈ g}
/// lhs[r]ᵀ · rhs[r])`, where `lhs` is row-major with `m` columns, `rhs`
/// with `n`, and `out_g` is the row-major `m × n` matrix at `out[g ·
/// out_stride..]`. With `out_stride == 0` every segment adds into the
/// same matrix. Within a segment, each element adds its terms in
/// ascending row order and skips those whose left-hand value is `±0.0`,
/// as [`gemm_tn`] does; the add of a segment's sum to its output is
/// unconditional, also when the sum is `+0.0` (an empty segment, or one
/// whose every term is skipped). Bit for bit, each segment's sum is
/// [`gemm_tn`] into a zeroed matrix, added to `out_g`.
pub fn gemm_tn_segments(
    lhs: &[f64],
    m: usize,
    rhs: &[f64],
    n: usize,
    segments: &[Range<usize>],
    out: &mut [f64],
    out_stride: usize,
) {
    if m == 0 || n == 0 || segments.is_empty() {
        return;
    }
    for seg in segments {
        assert!(
            seg.start <= seg.end && lhs.len() >= seg.end * m && rhs.len() >= seg.end * n,
            "gemm_tn_segments operand shapes"
        );
    }
    assert!(
        out.len() >= (segments.len() - 1) * out_stride + m * n,
        "gemm_tn_segments output shape"
    );
    let s = Segmented {
        lhs,
        m,
        rhs,
        n,
        segments,
        out: out.as_mut_ptr(),
        out_stride,
    };
    match active() {
        KernelPath::Scalar => segments_scalar(s),
        // SAFETY: the asserts above bound every pointer a tile forms, and
        // portable lanes need no CPU feature.
        KernelPath::Unrolled => unsafe { segments_tiled::<Portable>(s) },
        // SAFETY: as above; `force` selects the AVX2 path only where
        // `best_unrolled` detected AVX2.
        #[cfg(target_arch = "x86_64")]
        KernelPath::UnrolledAvx2 => unsafe { avx2::gemm_tn_segments(s) },
        // SAFETY: as for `Unrolled`.
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath::UnrolledAvx2 => unsafe { segments_tiled::<Portable>(s) },
    }
}

/// For every segment `g` of rows, in order: `out_g[j] += (+0.0 + Σ_{r ∈
/// g} term(r, j))` over the `n` columns, where `out_g` is `out[g ·
/// out_stride..][..n]`. The add is unconditional, as in
/// [`gemm_tn_segments`].
#[inline(always)]
fn col_segments(
    n: usize,
    segments: &[Range<usize>],
    out: &mut [f64],
    out_stride: usize,
    term: impl Fn(usize, usize) -> f64,
) {
    const W: usize = 8;
    for (g, seg) in segments.iter().enumerate() {
        let out_g = &mut out[g * out_stride..][..n];
        for (c, out_c) in out_g.chunks_mut(W).enumerate() {
            let mut sum = [0.0; W];
            for r in seg.clone() {
                for (l, s) in sum.iter_mut().enumerate().take(out_c.len()) {
                    *s += term(r, c * W + l);
                }
            }
            for (o, s) in out_c.iter_mut().zip(sum) {
                *o += s;
            }
        }
    }
}

/// Segmented column sums: for every segment `g` of rows of the row-major
/// `x` (`n` columns), in order, `out_g[j] += (+0.0 + Σ_{r ∈ g} x[r][j])`,
/// with `out_g` at `out[g · out_stride..]` (one shared row when
/// `out_stride == 0`). The gradient of a broadcast bias.
pub fn col_sum_segments(
    x: &[f64],
    n: usize,
    segments: &[Range<usize>],
    out: &mut [f64],
    out_stride: usize,
) {
    col_segments(n, segments, out, out_stride, |r, j| x[r * n + j])
}

/// [`col_sum_segments`] of the elementwise product of `x` and `y`:
/// `out_g[j] += (+0.0 + Σ_{r ∈ g} x[r][j] · y[r][j])`, each product
/// rounded before its add. The gradient of a broadcast gain.
pub fn col_dot_segments(
    x: &[f64],
    y: &[f64],
    n: usize,
    segments: &[Range<usize>],
    out: &mut [f64],
    out_stride: usize,
) {
    col_segments(n, segments, out, out_stride, |r, j| {
        x[r * n + j] * y[r * n + j]
    })
}

/// Runs `f` with the kernel path forced to `path`, restoring the prior
/// selection afterwards. Benchmarks and the bit-identity property tests
/// compare paths through this; it is process-global, so concurrent
/// callers must not depend on different paths at once (results are
/// bit-identical either way — only timings differ).
pub fn with_path<T>(path: KernelPath, f: impl FnOnce() -> T) -> T {
    let prior = active();
    force(path);
    let out = f();
    force(prior);
    out
}
