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
/// straddles the `4 × 16` register tile (remainder rows, a narrow or
/// ragged last panel, more than two panels), and runs `k` past one cache
/// line. A quarter have `n` in `38..=150`: up to two full 64-column blocks
/// of the listed `matmul`, then 16-column blocks, then a remainder that is
/// an axpy per term. A quarter have one to four output columns (remainder
/// only) and `k` up to 300, the shape of a layer that emits class logits.
/// In every case about one row of `a` in six is all zero and one in six
/// has no zero.
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
    /// dispatcher picks on this CPU give the same bits, on both paths of
    /// `matmul` and `matmul_tn`.
    #[test]
    fn baseline_and_dispatched_instantiations_agree(c in case()) {
        let Case { m, k, n, a, b, .. } = c;
        for (what, baseline, dispatched, b_len, out_len) in layouts(m, k, n) {
            let (mut base, mut wide) = (vec![0.0f32; out_len], vec![0.0f32; out_len]);
            baseline(&a, &b[..b_len], &mut base, m, k, n);
            dispatched(1, &a, &b[..b_len], &mut wide, m, k, n);
            assert_same_bits(&wide, &base, what)?;
        }
    }
}

/// A kernel body on row-major slices, `(a, b, out, m, k, n)`.
type Serial = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
/// The dispatched kernel in a given part count.
type Parted = fn(usize, &[f32], &[f32], &mut [f32], usize, usize, usize);

/// Every layout and path: its name, serial baseline body, dispatched
/// kernel, and the lengths of `b` and `out` at `(m, k, n)`.
fn layouts(m: usize, k: usize, n: usize) -> [(&'static str, Serial, Parted, usize, usize); 5] {
    use gemm::Path::{List, Tile};
    [
        (
            "matmul (list)",
            |a, b, o, m, k, n| gemm::nn(List, a, b, o, m, k, n),
            |p, a, b, o, m, k, n| gemm::matmul_in(p, List, a, b, o, m, k, n),
            k * n,
            m * n,
        ),
        (
            "matmul (tile)",
            |a, b, o, m, k, n| gemm::nn(Tile, a, b, o, m, k, n),
            |p, a, b, o, m, k, n| gemm::matmul_in(p, Tile, a, b, o, m, k, n),
            k * n,
            m * n,
        ),
        ("matmul_nt", gemm::nt, gemm::matmul_nt_in, n * k, m * n),
        (
            "matmul_tn (list)",
            |a, b, o, m, k, n| gemm::tn(List, a, b, o, m, k, n),
            |p, a, b, o, m, k, n| gemm::matmul_tn_in(p, List, a, b, o, m, k, n),
            m * n,
            k * n,
        ),
        (
            "matmul_tn (tile)",
            |a, b, o, m, k, n| gemm::tn(Tile, a, b, o, m, k, n),
            |p, a, b, o, m, k, n| gemm::matmul_tn_in(p, Tile, a, b, o, m, k, n),
            m * n,
            k * n,
        ),
    ]
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

/// Runs each kernel on each path in every part count of [`PARTS`] and
/// compares it with the serial body.
fn parts_equal_serial(c: &Case) -> Result<(), String> {
    let Case { m, k, n, a, b, .. } = c;
    let (m, k, n) = (*m, *k, *n);
    for (what, serial, parted, b_len, out_len) in layouts(m, k, n) {
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

/// A case for the register tile: `m` either below one row tile or around
/// one and two of `matmul_tn`'s reduction blocks (`MB` = 256 rows), `k`
/// across several `MR` = 4 row tiles (for `matmul_tn`, column tiles), and
/// `n` from below one `NR` = 16 panel through ragged last panels to three
/// whole ones. `a` is drawn as in [`case`] (0, 5 or 9 tenths zero, half of
/// them `-0.0`); `b` is finite.
fn tile_case() -> impl Strategy<Value = Case> {
    let dims = (0usize..2, 0usize..=270, 0usize..=13, 0usize..=50);
    (dims, 0usize..3, 0usize..1000).prop_flat_map(|((tall, m, k, n), sparsity, p)| {
        let m = if tall == 1 { 250 + m } else { m % 10 };
        let zeros = [0u32, 5, 9][sparsity];
        (
            proptest::collection::vec(-3.0f32..3.0, m * k),
            proptest::collection::vec(0u32..20, m * k),
            proptest::collection::vec(-3.0f32..3.0, (m * n).max(k * n)),
        )
            .prop_map(move |(mut a, roll, b)| {
                for (x, r) in a.iter_mut().zip(roll) {
                    if r / 2 < zeros {
                        *x = if r % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                Case { m, k, n, a, b, p }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Against a finite `b` the tile, which adds every term, gives the
    /// bits of the list, which skips a zero `a` factor (module invariant
    /// 2): at every density, with a `NaN`, a `-0.0` and a `+0.0` placed in
    /// `a`, across tile edges, ragged panels and `matmul_tn`'s reduction
    /// blocks, in one part and in two.
    #[test]
    fn tile_and_list_give_the_same_bits_on_finite_b(c in tile_case()) {
        let Case { m, k, n, mut a, b, p } = c;
        if !a.is_empty() {
            let len = a.len();
            for (v, at) in [(f32::NAN, p), (-0.0, p / 7), (0.0, p / 3)] {
                a[at % len] = v;
            }
        }
        for (what, serial, parted, b_len, out_len) in layouts(m, k, n) {
            let mut want = vec![0.0f32; out_len];
            serial(&a, &b[..b_len], &mut want, m, k, n);
            let oracle = match what {
                "matmul_nt" => continue,
                "matmul (list)" | "matmul (tile)" => matmul_oracle(
                    &NdArray::from_vec(m, k, a.clone()),
                    &NdArray::from_vec(k, n, b[..b_len].to_vec()),
                ),
                _ => matmul_tn_oracle(
                    &NdArray::from_vec(m, k, a.clone()),
                    &NdArray::from_vec(m, n, b[..b_len].to_vec()),
                ),
            };
            assert_same_bits(&want, oracle.data(), what)?;
            for parts in [1, 2] {
                let mut got = vec![0.0f32; out_len];
                parted(parts, &a, &b[..b_len], &mut got, m, k, n);
                assert_same_bits(&got, oracle.data(), &format!("{what} in {parts} parts"))?;
            }
        }
    }

    /// One `NaN` or `inf` anywhere in `b` sends a dense op of 12 rows or
    /// more back to the list, so the output still has the skip's bits: a
    /// zero placed in `a` opposite the poison keeps it out. Without the
    /// fallback the tile would add `0 × inf` there.
    #[test]
    fn one_non_finite_b_anywhere_keeps_the_skip(
        m in 12usize..=300,
        k in 1usize..=24,
        n in 16usize..=40,
        p in 0usize..100_000,
        values in proptest::collection::vec(-3.0f32..3.0, 300 * 40),
    ) {
        let a: Vec<f32> = values[..m * k].iter().map(|&x| if x == 0.0 { 1.0 } else { x }).collect();
        let poison = POISON[p % 3];
        // `matmul`: b [k, n] poisoned at (kk, j), `a` zero at (i, kk).
        let (mut an, mut b) = (a.clone(), values[values.len() - k * n..].to_vec());
        let (kk, j, i) = (p % k, (p / k) % n, (p / (k * n)) % m);
        b[kk * n + j] = poison;
        an[i * k + kk] = 0.0;
        let (an, bn) = (NdArray::from_vec(m, k, an), NdArray::from_vec(k, n, b));
        let got = an.matmul(&bn);
        prop_assert!(got.row(i)[j].is_finite(), "matmul: 0 × {poison} reached row {i} column {j}");
        assert_same_bits(got.data(), matmul_oracle(&an, &bn).data(), "matmul")?;
        // `matmul_tn`: b [m, n] poisoned at (i, j), `a` zero at (i, kk).
        let (mut at, mut b) = (a, values[values.len() - m * n..].to_vec());
        b[i * n + j] = poison;
        at[i * k + kk] = 0.0;
        let (at, bt) = (NdArray::from_vec(m, k, at), NdArray::from_vec(m, n, b));
        let got = at.matmul_tn(&bt);
        prop_assert!(got.row(kk)[j].is_finite(), "matmul_tn: 0 × {poison} reached row {kk} column {j}");
        assert_same_bits(got.data(), matmul_tn_oracle(&at, &bt).data(), "matmul_tn")?;
    }
}

/// The path choice, pinned: a 1- or 8-row product (a readout over a few
/// graphs) lists whatever it holds, a 16-row readout and a 448-row dense
/// activation tile, and one `inf` in `b`, or an `a` under half non-zero,
/// sends either back to the list.
#[test]
fn the_tile_runs_on_tall_dense_inputs_against_a_finite_b() {
    use gemm::Path::{List, Tile};
    let (k, n) = (96, 96);
    let mut b = vec![0.5f32; k * n];
    let dense = (7 * k, 10 * k);
    assert_eq!(gemm::path(1, dense, &b), List);
    assert_eq!(gemm::path(8, dense, &b), List);
    assert_eq!(gemm::path(16, dense, &b), Tile);
    assert_eq!(gemm::path(448, dense, &b), Tile);
    assert_eq!(gemm::path(448, (k, 10 * k), &b), List, "10 % non-zero");
    b[k * n - 1] = f32::INFINITY;
    assert_eq!(gemm::path(16, dense, &b), List);
    assert_eq!(gemm::path(448, dense, &b), List);
}

/// PubMed's shapes through the public API against the serial body. All are
/// above the part threshold, so on a host with more than one core they run
/// split (none of the goldens' smoke sizes reaches it): layer 1's on the
/// sparse-list paths, layer 2's on the small-width paths and the packed
/// `k` = 3 `matmul_nt`, and a `k` = 8 `matmul_nt` (GAT's eight heads).
/// Then the dense activations of the minibatch workloads, which take the
/// register tile, through the public API and in one and two parts, against
/// the serial list body.
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
    let nn: Serial = |a, b, o, m, k, n| gemm::nn(gemm::Path::List, a, b, o, m, k, n);
    let tn: Serial = |a, b, o, m, k, n| gemm::tn(gemm::Path::List, a, b, o, m, k, n);
    let mut seed = 0x9E37_79B9_7F4A_7C15;
    let (nodes, feats, hidden, classes) = (19717, 500, 256, 3);
    // Layer 1 forward and its weight gradient: the bag-of-words input.
    let x = array(&mut seed, nodes, feats, 0.1);
    let w1 = array(&mut seed, feats, hidden, 1.0);
    check(
        &x.matmul(&w1),
        &x,
        &w1,
        nn,
        (nodes, feats, hidden),
        "[19717, 500] · [500, 256]",
    );
    let dh = array(&mut seed, nodes, hidden, 1.0);
    check(
        &x.matmul_tn(&dh),
        &x,
        &dh,
        tn,
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
        nn,
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
        tn,
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
    // GIN/GatedGCN's hidden layer on ENZYMES (`matmul`) and SAGE's sampled
    // weight gradient (`matmul_tn`): through `NdArray`, which tiles them,
    // and on the tile in one and two parts.
    for ((m, k, n), density, layout) in [((448, 96, 96), 0.7, 1), ((4288, 128, 32), 0.6, 4)] {
        let (what, _, tiled, b_len, out_len) = layouts(m, k, n)[layout];
        let what = format!("{what} at ({m}, {k}, {n})");
        let a = array(&mut seed, m, k, density);
        let b = array(&mut seed, b_len / n, n, 1.0);
        let (got, serial) = if layout == 1 {
            (a.matmul(&b), nn)
        } else {
            (a.matmul_tn(&b), tn)
        };
        check(&got, &a, &b, serial, (m, k, n), &what);
        for parts in [1, 2] {
            let mut out = vec![0.0f32; out_len];
            tiled(parts, a.data(), b.data(), &mut out, m, k, n);
            let got = NdArray::from_vec(got.rows(), n, out);
            check(
                &got,
                &a,
                &b,
                serial,
                (m, k, n),
                &format!("{what} in {parts} parts"),
            );
        }
    }
}
