//! Runtime-selected dense microkernels: dot, axpy, and the blocked GEMM,
//! each in a scalar reference form and a 4x-unrolled form (compiled
//! additionally with AVX2 enabled where the CPU has it).
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
//! Selection: [`active`] reads `TFB_KERNEL` (`scalar` | `unrolled` |
//! `auto`, default `auto` = unrolled, with AVX2 when detected) once,
//! publishes the choice on the `math/kernel_path` gauge, and callers
//! record [`active_name`] in their run manifests so every benchmark
//! number is attributable to the kernel path that produced it.

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
/// way; servers pick once at startup via `TFB_KERNEL`).
pub fn force(path: KernelPath) {
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
// GEMM: out += lhs · rhs for a whole product. The path is picked once per
// product; k-tiles ascend, and within a tile every output row takes its
// k terms in ascending order, skipping lhs[k] == 0.0.
// ---------------------------------------------------------------------

/// k-tile width of [`gemm`]: 128 columns of the left operand, so one
/// k-slab of the right operand is 128 rows and stays L2-resident while
/// every output row takes its update from it.
pub const K_TILE: usize = 128;

/// The k-tile loop shared by every path: tiles outside, rows inside, so
/// a large product streams each k-slab of `rhs` once rather than once
/// per output row.
#[inline(always)]
fn gemm_tiles(
    lhs: &[f64],
    depth: usize,
    rhs: &[f64],
    n: usize,
    out: &mut [f64],
    row: impl Fn(&[f64], &[f64], usize, &mut [f64]),
) {
    if n == 0 {
        return;
    }
    for k0 in (0..depth).step_by(K_TILE) {
        let k1 = (k0 + K_TILE).min(depth);
        let slab = &rhs[k0 * n..k1 * n];
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            row(&lhs[i * depth + k0..i * depth + k1], slab, n, out_row);
        }
    }
}

/// One row's update from one k-tile, the reference loop.
#[inline(always)]
fn gemm_row_scalar(lhs: &[f64], rhs: &[f64], n: usize, out_row: &mut [f64]) {
    for (k, &a) in lhs.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let rhs_row = &rhs[k * n..(k + 1) * n];
        for (o, &b) in out_row.iter_mut().zip(rhs_row) {
            *o += a * b;
        }
    }
}

/// Register-blocked row update: four `k` steps fused per pass over the
/// output row. Each output element still receives its `k` terms in
/// ascending order (`a0` then `a1` then `a2` then `a3`), so the fused
/// pass is bit-identical to four scalar updates; it just loads and
/// stores the output row once instead of four times. A block holding a
/// zero, and the last 1–3 steps of the tile, fuse their non-zero terms
/// into one pass the same way.
#[inline(always)]
fn gemm_row_unrolled(lhs: &[f64], rhs: &[f64], n: usize, out_row: &mut [f64]) {
    let width = n.min(out_row.len());
    let out_row = &mut out_row[..width];
    let row = |k: usize| &rhs[k * n..k * n + width];
    let mut k = 0;
    while k + 4 <= lhs.len() {
        let a = [lhs[k], lhs[k + 1], lhs[k + 2], lhs[k + 3]];
        if a.iter().all(|&v| v != 0.0) {
            let b = [row(k), row(k + 1), row(k + 2), row(k + 3)];
            fused_pass(&a, &b, out_row);
        } else {
            fused_nonzero(&lhs[k..k + 4], k, row, out_row);
        }
        k += 4;
    }
    if k < lhs.len() {
        fused_nonzero(&lhs[k..], k, row, out_row);
    }
}

/// One fused pass over the non-zero terms among `a` (at most four, the
/// left-hand values of rows `first..` of the right operand).
#[inline(always)]
fn fused_nonzero<'a>(a: &[f64], first: usize, row: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
    let mut terms = [(0.0, 0); 4];
    let mut held = 0;
    for (i, &v) in a.iter().enumerate() {
        if v != 0.0 {
            terms[held] = (v, first + i);
            held += 1;
        }
    }
    let [(a0, k0), (a1, k1), (a2, k2), (a3, k3)] = terms;
    match held {
        1 => fused_pass(&[a0], &[row(k0)], out),
        2 => fused_pass(&[a0, a1], &[row(k0), row(k1)], out),
        3 => fused_pass(&[a0, a1, a2], &[row(k0), row(k1), row(k2)], out),
        4 => fused_pass(
            &[a0, a1, a2, a3],
            &[row(k0), row(k1), row(k2), row(k3)],
            out,
        ),
        _ => {}
    }
}

/// `out[j] += a[0]*b[0][j]; out[j] += a[1]*b[1][j]; …` in one pass over
/// `out`, for `T` = 1–4 terms; every `b[t]` is `out.len()` long.
#[inline(always)]
fn fused_pass<const T: usize>(a: &[f64; T], b: &[&[f64]; T], out: &mut [f64]) {
    for j in 0..out.len() {
        let mut o = out[j];
        for t in 0..T {
            o += a[t] * b[t][j];
        }
        out[j] = o;
    }
}

/// [`gemm`] on the unrolled rows, compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(lhs: &[f64], depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    gemm_tiles(lhs, depth, rhs, n, out, gemm_row_unrolled)
}

/// `out += lhs · rhs`: `lhs` is row-major `out.len() / n` rows by `depth`
/// columns, `rhs` row-major `depth` × `n`, `out` row-major with `n`
/// columns. The kernel path is read once for the whole product.
///
/// Every output element adds its `k` terms to its prior value in
/// ascending `k` order and skips the terms whose left-hand value is
/// `0.0`, so `0 · inf` never reaches a sum; on every path the result
/// equals the plain ikj triple loop bit for bit (where it is NaN, the
/// payload may come from another NaN operand).
#[inline]
pub fn gemm(lhs: &[f64], depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    match active() {
        KernelPath::Scalar => gemm_tiles(lhs, depth, rhs, n, out, gemm_row_scalar),
        KernelPath::Unrolled => gemm_tiles(lhs, depth, rhs, n, out, gemm_row_unrolled),
        // SAFETY: the AVX2 path is chosen where `best_unrolled` detected
        // AVX2, as every other dispatcher here relies on.
        #[cfg(target_arch = "x86_64")]
        KernelPath::UnrolledAvx2 => unsafe { gemm_avx2(lhs, depth, rhs, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath::UnrolledAvx2 => gemm_tiles(lhs, depth, rhs, n, out, gemm_row_unrolled),
    }
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
