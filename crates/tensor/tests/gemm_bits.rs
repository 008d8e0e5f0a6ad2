//! The GEMM kernels may get faster but may not change one float bit: golden
//! serve digests, byte-compared BENCH documents and bit-identical resume all
//! sit on top of them. The three loop nests `NdArray` had before the `gemm`
//! module are kept here verbatim as oracles, and every output element of the
//! new kernels is compared to them by `f32::to_bits`.

use gnn_tensor::NdArray;
use proptest::prelude::*;

/// The module under test compiled into this test crate as well, so the
/// baseline and the dispatched instantiation of each kernel can be called
/// directly without making either public.
#[allow(dead_code)]
#[path = "../src/gemm.rs"]
mod gemm;

fn matmul_oracle(a: &NdArray, b: &NdArray) -> NdArray {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = a.row(i);
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &a_ik) in arow.iter().enumerate().take(k) {
            if a_ik == 0.0 {
                continue;
            }
            let brow = &b.data()[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += a_ik * bv;
            }
        }
    }
    NdArray::from_vec(m, n, out)
}

fn matmul_nt_oracle(a: &NdArray, b: &NdArray) -> NdArray {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = a.row(i);
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += arow[kk] * brow[kk];
            }
            *o = acc;
        }
    }
    NdArray::from_vec(m, n, out)
}

fn matmul_tn_oracle(a: &NdArray, b: &NdArray) -> NdArray {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; k * n];
    for i in 0..m {
        let arow = a.row(i);
        let brow = &b.data()[i * n..(i + 1) * n];
        for (kk, &a_ik) in arow.iter().enumerate().take(k) {
            if a_ik == 0.0 {
                continue;
            }
            let orow = &mut out[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += a_ik * bv;
            }
        }
    }
    NdArray::from_vec(k, n, out)
}

/// Bit equality of every element. Two NaNs count as equal whatever their
/// payload: which operand's payload an add of two NaNs keeps is the
/// compiler's choice of operand order, not something either loop nest fixes.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:e} ({:#010x}), oracle {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

const POISON: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// One case: `(m, k, n)`, `a` as `m × k` values with about `zeros`/10 of them
/// zero (0 = dense, 5 = after a ReLU, 9 = PubMed's bag of words), half of
/// those `-0.0`, a pool of `b` values long enough for any layout, and an
/// index `p` the tests use to place non-finite values.
///
/// Half the cases have every dimension in `0..=37`: that includes 0 and 1,
/// straddles the `4 × 16` register tile of `matmul_nt` (remainder rows, a
/// narrow last panel, more than two panels), and runs `k` past one cache
/// line. A quarter have `n` in `38..=150`: up to two full 64-column blocks
/// of `matmul`, then 16-column blocks, then a remainder that is an axpy per
/// term. A quarter have one to four output columns (remainder only) and
/// `k` up to 300, the shape of a layer that emits class logits. In every
/// case about one row of `a` in six is all zero and one in six has no zero,
/// so `matmul_tn` runs both its sparse and its dense-row path.
#[derive(Debug)]
struct Case {
    m: usize,
    k: usize,
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    p: usize,
}

fn case() -> impl Strategy<Value = Case> {
    (0usize..4, 0usize..=9, 0usize..3, 0usize..1000).prop_flat_map(|(shape, m, sparsity, p)| {
        let (k, n) = match shape {
            0 | 1 => (0usize..=37, 0usize..=37),
            2 => (0..=37, 38..=150),
            _ => (0..=300, 1..=4),
        };
        let zeros = [0u32, 5, 9][sparsity];
        (k, n).prop_flat_map(move |(k, n)| {
            (
                proptest::collection::vec(-3.0f32..3.0, m * k),
                proptest::collection::vec(0u32..20, m * k),
                proptest::collection::vec(0u32..6, m),
                proptest::collection::vec(-3.0f32..3.0, (m * n).max(k * n)),
            )
                .prop_map(move |(mut a, roll, row_kind, b)| {
                    let rows = a.chunks_mut(k.max(1)).zip(roll.chunks(k.max(1)));
                    for ((row, rolls), kind) in rows.zip(row_kind) {
                        for (x, r) in row.iter_mut().zip(rolls) {
                            let zero = match kind {
                                0 => true,
                                1 => false,
                                _ => r / 2 < zeros,
                            };
                            if zero {
                                *x = if r % 2 == 0 { 0.0 } else { -0.0 };
                            } else if *x == 0.0 {
                                *x = 1.0;
                            }
                        }
                    }
                    Case { m, k, n, a, b, p }
                })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// `matmul`: column `kk` of `a` is zeroed and row `kk` of `b` is all
    /// NaN/±inf; the skip keeps every output finite and equal to the oracle.
    #[test]
    fn matmul_matches_oracle_bit_for_bit(c in case()) {
        let Case { m, k, n, mut a, mut b, p } = c;
        b.truncate(k * n);
        if k > 0 {
            let kk = p % k;
            a.iter_mut().skip(kk).step_by(k).for_each(|x| *x = 0.0);
            for (j, x) in b[kk * n..(kk + 1) * n].iter_mut().enumerate() {
                *x = POISON[j % 3];
            }
        }
        let (a, b) = (NdArray::from_vec(m, k, a), NdArray::from_vec(k, n, b));
        let got = a.matmul(&b);
        prop_assert_eq!(got.shape(), (m, n));
        prop_assert!(!got.has_non_finite(), "a skipped term reached the output");
        assert_same_bits(got.data(), matmul_oracle(&a, &b).data(), "matmul")?;
    }

    /// `matmul_tn`: row `i` of `a` is zeroed and row `i` of `b` is all
    /// NaN/±inf; skipped again, so finite and equal to the oracle.
    #[test]
    fn matmul_tn_matches_oracle_bit_for_bit(c in case()) {
        let Case { m, k, n, mut a, mut b, p } = c;
        b.truncate(m * n);
        if m > 0 {
            let i = p % m;
            a[i * k..(i + 1) * k].fill(0.0);
            for (j, x) in b[i * n..(i + 1) * n].iter_mut().enumerate() {
                *x = POISON[j % 3];
            }
        }
        let (a, b) = (NdArray::from_vec(m, k, a), NdArray::from_vec(m, n, b));
        let got = a.matmul_tn(&b);
        prop_assert_eq!(got.shape(), (k, n));
        prop_assert!(!got.has_non_finite(), "a skipped term reached the output");
        assert_same_bits(got.data(), matmul_tn_oracle(&a, &b).data(), "matmul_tn")?;
    }

    /// `-0.0 == 0.0`, so a `-0.0` in `a` is skipped like `+0.0`. The two
    /// tests above poison `b` opposite `+0.0`; here the column (`matmul`) or
    /// row (`matmul_tn`) of `a` opposite the poison is all `-0.0`. Against a
    /// finite `b` a kept `-0.0` term changes no bit, so only this catches it.
    #[test]
    fn negative_zero_in_a_is_skipped_like_zero(c in case()) {
        let Case { m, k, n, a, b, p } = c;
        if k > 0 {
            let (mut a, mut b) = (a.clone(), b[..k * n].to_vec());
            let kk = p % k;
            a.iter_mut().skip(kk).step_by(k).for_each(|x| *x = -0.0);
            for (j, x) in b[kk * n..(kk + 1) * n].iter_mut().enumerate() {
                *x = POISON[j % 3];
            }
            let (a, b) = (NdArray::from_vec(m, k, a), NdArray::from_vec(k, n, b));
            let got = a.matmul(&b);
            prop_assert!(!got.has_non_finite(), "matmul: a -0.0 term reached the output");
            assert_same_bits(got.data(), matmul_oracle(&a, &b).data(), "matmul")?;
        }
        if m > 0 {
            let (mut a, mut b) = (a, b[..m * n].to_vec());
            let i = p % m;
            a[i * k..(i + 1) * k].fill(-0.0);
            for (j, x) in b[i * n..(i + 1) * n].iter_mut().enumerate() {
                *x = POISON[j % 3];
            }
            let (a, b) = (NdArray::from_vec(m, k, a), NdArray::from_vec(m, n, b));
            let got = a.matmul_tn(&b);
            prop_assert!(!got.has_non_finite(), "matmul_tn: a -0.0 term reached the output");
            assert_same_bits(got.data(), matmul_tn_oracle(&a, &b).data(), "matmul_tn")?;
        }
    }

    /// `matmul_nt` has no skip: one NaN/±inf in row `j` of `b`, opposite a
    /// zeroed column of `a`, turns all of output column `j` to NaN and leaves
    /// every other column as the oracle has it.
    #[test]
    fn matmul_nt_matches_oracle_bit_for_bit(c in case()) {
        let Case { m, k, n, mut a, mut b, p } = c;
        b.truncate(n * k);
        let poisoned = (k > 0 && n > 0).then(|| {
            let (j, kk) = (p % n, (p / n) % k);
            a.iter_mut().skip(kk).step_by(k).for_each(|x| *x = 0.0);
            b[j * k + kk] = POISON[p % 3];
            j
        });
        let (a, b) = (NdArray::from_vec(m, k, a), NdArray::from_vec(n, k, b));
        let got = a.matmul_nt(&b);
        prop_assert_eq!(got.shape(), (m, n));
        for (i, row) in got.data().chunks(n.max(1)).enumerate() {
            for (j, v) in row.iter().enumerate() {
                prop_assert_eq!(v.is_nan(), Some(j) == poisoned, "row {i} column {j}: {v}");
            }
        }
        assert_same_bits(got.data(), matmul_nt_oracle(&a, &b).data(), "matmul_nt")?;
    }

    /// The baseline instantiation of each kernel body and the one the
    /// dispatcher picks on this CPU give the same bits.
    #[test]
    fn baseline_and_dispatched_instantiations_agree(c in case()) {
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let Case { m, k, n, a, b, .. } = c;
        let layouts: [(&str, Kernel, Kernel, usize, usize); 3] = [
            ("matmul", gemm::nn, gemm::matmul, k * n, m * n),
            ("matmul_nt", gemm::nt, gemm::matmul_nt, n * k, m * n),
            ("matmul_tn", gemm::tn, gemm::matmul_tn, m * n, k * n),
        ];
        for (what, baseline, dispatched, b_len, out_len) in layouts {
            let (mut base, mut wide) = (vec![0.0f32; out_len], vec![0.0f32; out_len]);
            baseline(&a, &b[..b_len], &mut base, m, k, n);
            dispatched(&a, &b[..b_len], &mut wide, m, k, n);
            assert_same_bits(&wide, &base, what)?;
        }
    }
}

/// Says which comparison `baseline_and_dispatched_instantiations_agree` made.
#[test]
fn reports_the_dispatched_instruction_set() {
    #[cfg(target_arch = "x86_64")]
    let wide = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    if wide {
        println!("gemm: dispatched = avx2 instantiation, compared against the baseline");
    } else {
        println!("gemm: no avx2 here, dispatched = baseline; the comparison passes trivially");
    }
}
