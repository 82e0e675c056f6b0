//! Property tests: every unrolled/AVX2 microkernel path is bit-for-bit
//! identical to the scalar reference on random shapes — including
//! non-multiple-of-4 tails, exact zeros (the GEMM zero-skip), and
//! non-finite right-hand values the skip semantics exist for. The GEMM
//! tiles and their transposed-left entry are checked against the plain
//! triple loop, with `-0.0` outputs that only a true skip preserves, and
//! the segmented reductions (one sum from `+0.0` per segment, added to its
//! output in order) against their loops.

use tfb_math::kernel::{self, KernelPath};
use tfb_math::Matrix;

/// xorshift64* — deterministic pseudo-random doubles with exact zeros
/// mixed in to exercise the zero-skip, plus occasional non-finite
/// right-hand values where allowed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn value(&mut self, with_zeros: bool) -> f64 {
        let v = self.next_u64();
        if with_zeros && v.is_multiple_of(7) {
            0.0
        } else {
            ((v >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        }
    }

    fn vec(&mut self, n: usize, with_zeros: bool) -> Vec<f64> {
        (0..n).map(|_| self.value(with_zeros)).collect()
    }
}

/// Every non-scalar path available on this machine.
fn alt_paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Unrolled];
    if kernel::best_unrolled() == KernelPath::UnrolledAvx2 {
        paths.push(KernelPath::UnrolledAvx2);
    }
    paths
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Lengths straddling the 4-wide unroll: tails of 0..=3, tiny and
/// empty inputs, and lengths past 128.
const LENGTHS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 15, 31, 64, 100, 127, 128, 129, 300];

#[test]
fn dot_acc_matches_scalar_bitwise() {
    for &n in LENGTHS {
        let mut rng = Rng::new(n as u64 + 1);
        let x = rng.vec(n, true);
        let y = rng.vec(n, true);
        let init = rng.value(false);
        let want = kernel::with_path(KernelPath::Scalar, || kernel::dot_acc(init, &x, &y));
        for path in alt_paths() {
            let got = kernel::with_path(path, || kernel::dot_acc(init, &x, &y));
            assert_eq!(want.to_bits(), got.to_bits(), "dot_acc n={n} {path:?}");
        }
    }
}

#[test]
fn dot_skip_matches_scalar_bitwise_even_with_infinities() {
    for &n in LENGTHS {
        let mut rng = Rng::new(n as u64 + 17);
        let x = rng.vec(n, true);
        // Non-finite right-hand values paired with zero left-hand values
        // are exactly what the skip semantics protect: 0 * inf = NaN must
        // stay out of the sum on every path.
        let mut y = rng.vec(n, false);
        for (i, v) in y.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = f64::INFINITY;
            }
        }
        let want = kernel::with_path(KernelPath::Scalar, || kernel::dot_skip(&x, &y));
        for path in alt_paths() {
            let got = kernel::with_path(path, || kernel::dot_skip(&x, &y));
            assert_eq!(want.to_bits(), got.to_bits(), "dot_skip n={n} {path:?}");
        }
    }
}

#[test]
fn axpy_matches_scalar_bitwise() {
    for &n in LENGTHS {
        let mut rng = Rng::new(n as u64 + 29);
        let x = rng.vec(n, true);
        let base = rng.vec(n, false);
        let a = rng.value(true);
        let mut want = base.clone();
        kernel::with_path(KernelPath::Scalar, || kernel::axpy(a, &x, &mut want));
        for path in alt_paths() {
            let mut got = base.clone();
            kernel::with_path(path, || kernel::axpy(a, &x, &mut got));
            assert_bits_eq(&want, &got, &format!("axpy n={n} {path:?}"));
        }
    }
}

/// The plain ikj triple loop with the zero-skip, accumulating into `out`:
/// the reference every path of [`kernel::gemm`] must reproduce.
fn triple_loop(lhs: &[f64], depth: usize, rhs: &[f64], n: usize, out: &mut [f64]) {
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for k in 0..depth {
            let a = lhs[i * depth + k];
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                out_row[j] += a * rhs[k * n + j];
            }
        }
    }
}

#[test]
fn gemm_matches_the_triple_loop_on_every_path() {
    // Rows 1–24; short depths (1–9) and long ones (127–130); every width
    // 1–48 appears somewhere in the sweep.
    let depths = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 130];
    let mut paths = vec![KernelPath::Scalar];
    paths.extend(alt_paths());
    let mut case = 0usize;
    for rows in 1..=24usize {
        for &depth in &depths {
            for n in [1 + case % 48, 1 + (case * 29 + 17) % 48] {
                let mut rng = Rng::new((case * 131 + n) as u64);
                // Every third `k` row of the right operand carries ±inf
                // and NaN, and the even output rows hold exact zeros at
                // those `k`: their sums stay finite only if every path
                // skips the zero terms, so 0 · inf never reaches them.
                let mut lhs = rng.vec(rows * depth, true);
                for i in (0..rows).step_by(2) {
                    for k in (0..depth).step_by(3) {
                        lhs[i * depth + k] = 0.0;
                    }
                }
                let mut rhs = rng.vec(depth * n, false);
                for k in (0..depth).step_by(3) {
                    for j in 0..n {
                        rhs[k * n + j] = match (k + j) % 4 {
                            0 => f64::INFINITY,
                            1 => f64::NEG_INFINITY,
                            2 => f64::NAN,
                            _ => rhs[k * n + j],
                        };
                    }
                }
                let base = rng.vec(rows * n, false);
                let mut want = base.clone();
                triple_loop(&lhs, depth, &rhs, n, &mut want);
                for (i, row) in want.chunks(n).enumerate().step_by(2) {
                    assert!(row.iter().all(|v| v.is_finite()), "row {i} not finite");
                }
                for &path in &paths {
                    let mut got = base.clone();
                    kernel::with_path(path, || kernel::gemm(&lhs, depth, &rhs, n, &mut got));
                    // Bit for bit, except that a NaN matches any NaN:
                    // IEEE 754 leaves open which operand's payload an
                    // add of two NaNs keeps, and the compiler may swap
                    // the operands of an add.
                    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                            "gemm {rows}x{depth}x{n} {path:?}: element {i} differs ({x} vs {y})"
                        );
                    }
                }
            }
            case += 1;
        }
    }
}

/// One case of the tile sweep: `rows` × `depth` × `n`, dense or built so
/// that a wrong zero-skip cannot hide.
struct TileCase {
    lhs: Vec<f64>,
    rhs: Vec<f64>,
    base: Vec<f64>,
}

impl TileCase {
    /// No zero anywhere and every value finite: every row block takes the
    /// dense tile, and the sums show any change of rounding.
    fn dense(rows: usize, depth: usize, n: usize) -> TileCase {
        let mut rng = Rng::new((rows * 10_007 + depth * 101 + n) as u64);
        TileCase {
            lhs: rng.vec(rows * depth, false),
            rhs: rng.vec(depth * n, false),
            base: rng.vec(rows * n, false),
        }
    }

    /// Row `i` of the left operand is dense when `i % 3 == 0`, all zeros
    /// when `i % 3 == 1`, and ±0.0 at every third `k` otherwise, so every
    /// block of four rows mixes dense and zero-holding rows. On those `k`
    /// the even columns of the right operand carry ±inf and NaN: a zero
    /// term that reached a zero-holding row's sum would turn it
    /// non-finite, while the odd columns keep every sum finite. Outputs
    /// start at `-0.0` and `+0.0` on the all-zero rows (every term is
    /// skipped, so both must come back unchanged) and at random values
    /// elsewhere.
    fn mixed(rows: usize, depth: usize, n: usize) -> TileCase {
        let TileCase {
            mut lhs,
            mut rhs,
            mut base,
        } = TileCase::dense(rows, depth, n);
        for i in 0..rows {
            for k in 0..depth {
                match i % 3 {
                    1 => lhs[i * depth + k] = 0.0,
                    2 if k % 3 == 0 => lhs[i * depth + k] = if k % 2 == 0 { 0.0 } else { -0.0 },
                    _ => {}
                }
            }
        }
        for k in (0..depth).step_by(3) {
            for j in (0..n).step_by(2) {
                rhs[k * n + j] = match (k + j) % 3 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    _ => f64::NAN,
                };
            }
        }
        for i in (1..rows).step_by(3) {
            for j in 0..n {
                base[i * n + j] = if j % 2 == 0 { -0.0 } else { 0.0 };
            }
        }
        TileCase { lhs, rhs, base }
    }

    /// The left operand's explicit transpose, `depth` × `rows`.
    fn lhs_t(&self, rows: usize, depth: usize) -> Vec<f64> {
        let mut t = vec![0.0; rows * depth];
        for i in 0..rows {
            for k in 0..depth {
                t[k * rows + i] = self.lhs[i * depth + k];
            }
        }
        t
    }

    /// Runs `gemm` and `gemm_tn` on every path against the triple loop.
    fn check(&self, rows: usize, depth: usize, n: usize) {
        let mut want = self.base.clone();
        triple_loop(&self.lhs, depth, &self.rhs, n, &mut want);
        for (i, row) in want.chunks(n).enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert!(
                    v.is_finite() || (i % 3 == 0 && j % 2 == 0),
                    "reference {i},{j} not finite"
                );
            }
        }
        let lhs_t = self.lhs_t(rows, depth);
        let mut paths = vec![KernelPath::Scalar];
        paths.extend(alt_paths());
        for path in paths {
            let mut nn = self.base.clone();
            kernel::with_path(path, || {
                kernel::gemm(&self.lhs, depth, &self.rhs, n, &mut nn)
            });
            let mut tn = self.base.clone();
            kernel::with_path(path, || {
                kernel::gemm_tn(&lhs_t, depth, &self.rhs, n, &mut tn)
            });
            for (entry, got) in [("gemm", &nn), ("gemm_tn", &tn)] {
                for (e, (x, y)) in want.iter().zip(got.iter()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{entry} {rows}x{depth}x{n} {path:?}: element {e} differs ({x:?} vs {y:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn tiles_match_the_triple_loop_for_every_row_count_and_width() {
    // Row counts 1–9 cover full four-row blocks and every remainder;
    // widths 1–17 every tile width and masked column tail.
    for rows in 1..=9 {
        for n in 1..=17 {
            for depth in [1, 2, 3, 7, 24] {
                TileCase::dense(rows, depth, n).check(rows, depth, n);
                TileCase::mixed(rows, depth, n).check(rows, depth, n);
            }
        }
    }
}

#[test]
fn tiles_match_the_triple_loop_on_the_traffic_shapes() {
    // The products deep training and LR normal equations run most
    // (rows × depth × width): attention and ReLU-fed hidden layers, the
    // PatchTST head and its one-row input gradient, LR's `XᵀX` block.
    for (rows, depth, n) in [
        (7, 24, 24),
        (6, 48, 24),
        (24, 7, 24),
        (7, 24, 7),
        (24, 7, 7),
        (168, 1, 24),
        (1, 24, 168),
        (105, 128, 105),
    ] {
        TileCase::dense(rows, depth, n).check(rows, depth, n);
        TileCase::mixed(rows, depth, n).check(rows, depth, n);
    }
}

#[test]
fn full_matmul_and_matvec_match_across_paths() {
    // End to end through Matrix: the blocked kernel, the transposed
    // single-column fast path, and matvec all dispatch through the
    // kernel module; every path must produce the same bytes.
    for &(m, k, n) in &[
        (3usize, 5usize, 4usize),
        (17, 130, 9),
        (40, 200, 1), // transposed dot fast path
        (16, 64, 2),
        (1, 301, 1),
        (33, 7, 13),
    ] {
        let mut rng = Rng::new((m * 1009 + k * 31 + n) as u64);
        let a = Matrix::from_vec(m, k, rng.vec(m * k, true)).unwrap();
        let b = Matrix::from_vec(k, n, rng.vec(k * n, true)).unwrap();
        let v = rng.vec(k, true);
        let want_mm = kernel::with_path(KernelPath::Scalar, || a.matmul(&b).unwrap());
        let want_mv = kernel::with_path(KernelPath::Scalar, || a.matvec(&v).unwrap());
        for path in alt_paths() {
            let got_mm = kernel::with_path(path, || a.matmul(&b).unwrap());
            let got_mv = kernel::with_path(path, || a.matvec(&v).unwrap());
            assert_bits_eq(
                want_mm.data(),
                got_mm.data(),
                &format!("matmul {m}x{k}x{n} {path:?}"),
            );
            assert_bits_eq(&want_mv, &got_mv, &format!("matvec {m}x{k} {path:?}"));
        }
    }
}

/// The segmented kernel's reference: for every segment `g`, `out_g +
/// (+0.0 + Σ_{r ∈ g} lhs[r]ᵀ · rhs[r])`, terms in row order, zero
/// left-hand terms skipped.
fn segmented_triple_loop(
    lhs: &[f64],
    m: usize,
    rhs: &[f64],
    n: usize,
    segments: &[std::ops::Range<usize>],
    out: &mut [f64],
    stride: usize,
) {
    for (g, seg) in segments.iter().enumerate() {
        for k in 0..m {
            for j in 0..n {
                let mut sum = 0.0;
                for r in seg.clone() {
                    let a = lhs[r * m + k];
                    if a != 0.0 {
                        sum += a * rhs[r * n + j];
                    }
                }
                out[g * stride + k * n + j] += sum;
            }
        }
    }
}

/// Segments of the given lengths, back to back.
fn segments_of(lens: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut start = 0;
    lens.iter()
        .map(|&len| {
            start += len;
            start - len..start
        })
        .collect()
}

/// Operands for segments of `lens` rows: left-hand values with `±0.0`
/// mixed in, every third row all zeros (signs alternating) with `±inf`
/// and NaN on the right-hand side of those rows, so that a term the
/// reference skips poisons any kernel that forms it.
fn segmented_operands(rng: &mut Rng, lens: &[usize], m: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
    let rows: usize = lens.iter().sum();
    let mut lhs = rng.vec(rows * m, true);
    let mut rhs = rng.vec(rows * n, false);
    for (i, v) in lhs.iter_mut().enumerate() {
        if *v == 0.0 && i % 2 == 1 {
            *v = -0.0;
        }
    }
    for r in (0..rows).step_by(3) {
        for (k, v) in lhs[r * m..(r + 1) * m].iter_mut().enumerate() {
            *v = if k % 2 == 0 { 0.0 } else { -0.0 };
        }
        for (j, v) in rhs[r * n..(r + 1) * n].iter_mut().enumerate() {
            *v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][j % 3];
        }
    }
    (lhs, rhs)
}

fn check_segmented(rng: &mut Rng, lens: &[usize], m: usize, n: usize) {
    let (lhs, rhs) = segmented_operands(rng, lens, m, n);
    let segments = segments_of(lens);
    for stride in [0, m * n] {
        // `-0.0` outputs: a segment whose sum is `+0.0` turns them into
        // `+0.0` only if its add really happens.
        let len = (segments.len() - 1) * stride + m * n;
        let mut want = vec![-0.0; len];
        segmented_triple_loop(&lhs, m, &rhs, n, &segments, &mut want, stride);
        for path in [KernelPath::Scalar].into_iter().chain(alt_paths()) {
            let mut got = vec![-0.0; len];
            kernel::with_path(path, || {
                kernel::gemm_tn_segments(&lhs, m, &rhs, n, &segments, &mut got, stride)
            });
            let what = format!("{path:?} {m}x{n} segments {lens:?} stride {stride}");
            assert_bits_eq(&got, &want, &what);
        }
    }
}

#[test]
fn segmented_tn_matches_the_triple_loop_for_every_width_and_segment_length() {
    let mut rng = Rng::new(41);
    let lens: Vec<usize> = (1..=9).collect();
    for m in [1, 2, 3, 4, 5, 7, 8, 9, 17] {
        for n in 1..=17 {
            check_segmented(&mut rng, &lens, m, n);
            // One-row segments, and an empty one (a skipped block).
            check_segmented(&mut rng, &[1, 1, 0, 1], m, n);
        }
    }
}

#[test]
fn segmented_tn_matches_the_triple_loop_on_the_traffic_shapes() {
    let mut rng = Rng::new(43);
    // Attention and FFN weights from 7-token samples; embeddings; the
    // heads from one-row samples (PatchTST, NLinear).
    for (m, n, rows) in [
        (24, 24, 7),
        (24, 48, 7),
        (48, 24, 7),
        (6, 24, 7),
        (168, 36, 1),
        (104, 36, 1),
    ] {
        check_segmented(&mut rng, &[rows; 4], m, n);
    }
}

#[test]
fn segmented_column_sums_match_the_loops() {
    let mut rng = Rng::new(47);
    for n in 1..=17 {
        for lens in [vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9], vec![1, 0, 1, 1]] {
            let rows: usize = lens.iter().sum();
            let segments = segments_of(&lens);
            let mut x = rng.vec(rows * n, true);
            let y = rng.vec(rows * n, true);
            // A zero left value against an infinite right one: no skip
            // here, so the NaN must reach the sum on every path.
            if rows > 2 {
                x[n] = f64::INFINITY;
            }
            for stride in [0, n] {
                let len = (segments.len() - 1) * stride + n;
                let (mut want_sum, mut want_dot) = (vec![-0.0; len], vec![-0.0; len]);
                for (g, seg) in segments.iter().enumerate() {
                    for j in 0..n {
                        let (mut s, mut d) = (0.0, 0.0);
                        for r in seg.clone() {
                            s += x[r * n + j];
                            d += x[r * n + j] * y[r * n + j];
                        }
                        want_sum[g * stride + j] += s;
                        want_dot[g * stride + j] += d;
                    }
                }
                let (mut sum, mut dot) = (vec![-0.0; len], vec![-0.0; len]);
                kernel::col_sum_segments(&x, n, &segments, &mut sum, stride);
                kernel::col_dot_segments(&x, &y, n, &segments, &mut dot, stride);
                let what = format!("n {n} segments {lens:?} stride {stride}");
                assert_bits_eq(&sum, &want_sum, &format!("col_sum {what}"));
                assert_bits_eq(&dot, &want_dot, &format!("col_dot {what}"));
            }
        }
    }
}
