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
#[allow(dead_code)]
#[path = "../src/par.rs"]
mod par;

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

/// The part counts of the partition property: one (the serial split), two
/// (this host), and counts that leave parts uneven or empty.
const PARTS: [usize; 4] = [1, 2, 3, 7];

/// `case` with one NaN and one `-0.0` placed in each of `a` and `b` by `p`
/// (when `specials`), so a boundary that moved a term across a part, or a
/// select that let a skipped term through, shows in the bits.
fn with_specials(c: Case, specials: bool) -> Case {
    let Case {
        m,
        k,
        n,
        mut a,
        mut b,
        p,
    } = c;
    if specials {
        for (v, at) in [(f32::NAN, p), (-0.0, p / 7)] {
            if !a.is_empty() {
                let i = at % a.len();
                a[i] = v;
            }
            if !b.is_empty() {
                let i = (at / 3) % b.len();
                b[i] = v;
            }
        }
    }
    Case { m, k, n, a, b, p }
}

/// Widths of the small-width paths: `n` and `k` in `1..=15`, `m` up to
/// `4 × 16 + 9` rows (whole tiles of the small-width `matmul` and a rest).
fn small_case() -> impl Strategy<Value = Case> {
    (1usize..=73, 1usize..=15, 1usize..=15, 0usize..1000).prop_flat_map(|(m, k, n, p)| {
        (
            proptest::collection::vec(-3.0f32..3.0, m * k),
            proptest::collection::vec(0u32..3, m * k),
            proptest::collection::vec(-3.0f32..3.0, (m * n).max(k * n)),
        )
            .prop_map(move |(mut a, zero, b)| {
                for (x, z) in a.iter_mut().zip(zero) {
                    match z {
                        0 => *x = 0.0,
                        1 => *x = -0.0,
                        _ => {}
                    }
                }
                Case { m, k, n, a, b, p }
            })
    })
}

/// A kernel body on row-major slices, `(a, b, out, m, k, n)`.
type Serial = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Runs each kernel in every part count of [`PARTS`] and compares it with
/// the serial body.
fn parts_equal_serial(c: &Case) -> Result<(), String> {
    type Parted = fn(usize, &[f32], &[f32], &mut [f32], usize, usize, usize);
    let Case { m, k, n, a, b, .. } = c;
    let (m, k, n) = (*m, *k, *n);
    let layouts: [(&str, Serial, Parted, usize, usize); 3] = [
        ("matmul", gemm::nn, gemm::matmul_in, k * n, m * n),
        ("matmul_nt", gemm::nt, gemm::matmul_nt_in, n * k, m * n),
        ("matmul_tn", gemm::tn, gemm::matmul_tn_in, m * n, k * n),
    ];
    for (what, serial, parted, b_len, out_len) in layouts {
        let mut want = vec![0.0f32; out_len];
        serial(a, &b[..b_len], &mut want, m, k, n);
        for parts in PARTS {
            let mut got = vec![0.0f32; out_len];
            parted(parts, a, &b[..b_len], &mut got, m, k, n);
            assert_same_bits(&got, &want, &format!("{what} in {parts} parts"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Parts split output rows (for `matmul_tn`, a window of `a`'s
    /// columns) and never `k`, so every part count gives the serial bits:
    /// with fewer rows than parts, at every width the general case draws,
    /// and with NaN and `-0.0` in either operand.
    #[test]
    fn row_parts_equal_the_serial_body(c in case(), specials in 0u8..2) {
        parts_equal_serial(&with_specials(c, specials == 1))?;
    }

    /// The same at the widths of the small-width paths, where `matmul` and
    /// `matmul_tn` skip zeros by a masked select.
    #[test]
    fn small_width_parts_equal_the_serial_body(c in small_case(), specials in 0u8..2) {
        let c = with_specials(c, specials == 1);
        parts_equal_serial(&c)?;
        let (a, b) = (NdArray::from_vec(c.m, c.k, c.a.clone()), NdArray::from_vec(c.k, c.n, c.b[..c.k * c.n].to_vec()));
        assert_same_bits(a.matmul(&b).data(), matmul_oracle(&a, &b).data(), "small-width matmul")?;
        let b = NdArray::from_vec(c.m, c.n, c.b[..c.m * c.n].to_vec());
        assert_same_bits(a.matmul_tn(&b).data(), matmul_tn_oracle(&a, &b).data(), "small-width matmul_tn")?;
    }
}

/// PubMed's shapes through the public API against the serial body. All are
/// above the part threshold, so on a host with more than one core they run
/// split (none of the goldens' smoke sizes reaches it): layer 1's on the
/// sparse-list paths, layer 2's on the small-width paths and the packed
/// `k` = 3 `matmul_nt`, and a `k` = 8 `matmul_nt` (GAT's eight heads).
#[test]
fn pubmed_shapes_through_ndarray_equal_the_serial_body() {
    /// xorshift values in `[-0.5, 0.5)`, a fraction `density` non-zero.
    fn array(seed: &mut u64, rows: usize, cols: usize, density: f32) -> NdArray {
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            (*seed >> 40) as f32 / (1u64 << 24) as f32
        };
        let data = (0..rows * cols)
            .map(|_| {
                let v = next() - 0.5;
                if next() < density {
                    v
                } else {
                    0.0
                }
            })
            .collect();
        NdArray::from_vec(rows, cols, data)
    }
    fn check(
        got: &NdArray,
        a: &NdArray,
        b: &NdArray,
        serial: Serial,
        (m, k, n): (usize, usize, usize),
        what: &str,
    ) {
        let mut want = vec![0.0f32; got.len()];
        serial(a.data(), b.data(), &mut want, m, k, n);
        assert_same_bits(got.data(), &want, what).unwrap();
    }
    let mut seed = 0x9E37_79B9_7F4A_7C15;
    let (nodes, feats, hidden, classes) = (19717, 500, 256, 3);
    // Layer 1 forward and its weight gradient: the bag-of-words input.
    let x = array(&mut seed, nodes, feats, 0.1);
    let w1 = array(&mut seed, feats, hidden, 1.0);
    check(
        &x.matmul(&w1),
        &x,
        &w1,
        gemm::nn,
        (nodes, feats, hidden),
        "[19717, 500] · [500, 256]",
    );
    let dh = array(&mut seed, nodes, hidden, 1.0);
    check(
        &x.matmul_tn(&dh),
        &x,
        &dh,
        gemm::tn,
        (nodes, feats, hidden),
        "[19717, 500]ᵀ · [19717, 256]",
    );
    // Layer 2: 3 class columns forward, `k` = 3 in backward.
    let h = array(&mut seed, nodes, hidden, 0.5);
    let w2 = array(&mut seed, hidden, classes, 1.0);
    check(
        &h.matmul(&w2),
        &h,
        &w2,
        gemm::nn,
        (nodes, hidden, classes),
        "[19717, 256] · [256, 3]",
    );
    let dy = array(&mut seed, nodes, classes, 1.0);
    check(
        &dy.matmul_nt(&w2),
        &dy,
        &w2,
        gemm::nt,
        (nodes, classes, hidden),
        "[19717, 3] · [256, 3]ᵀ",
    );
    check(
        &h.matmul_tn(&dy),
        &h,
        &dy,
        gemm::tn,
        (nodes, hidden, classes),
        "[19717, 256]ᵀ · [19717, 3]",
    );
    let (da, w) = (
        array(&mut seed, nodes, 8, 1.0),
        array(&mut seed, hidden, 8, 1.0),
    );
    check(
        &da.matmul_nt(&w),
        &da,
        &w,
        gemm::nt,
        (nodes, 8, hidden),
        "[19717, 8] · [256, 8]ᵀ",
    );
}
