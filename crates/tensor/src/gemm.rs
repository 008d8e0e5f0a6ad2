//! The three dense kernels behind [`NdArray`](crate::NdArray)'s `matmul`,
//! `matmul_nt` and `matmul_tn`, on row-major slices.
//!
//! Every float these kernels produce is pinned elsewhere (golden serve
//! digests, byte-compared BENCH documents, bit-identical resume), so they
//! may get faster but may not change one bit. Three invariants make that
//! hold, and `tests/gemm_bits.rs` checks them against the original loop
//! nests:
//!
//! 1. **Per-element `k` order.** Every output element is accumulated from
//!    `+0.0` by adding its terms in ascending `k`, one rounding per add.
//!    Work may be reordered *across* output elements, never within one.
//! 2. **Zero-skip per layout.** `matmul` and `matmul_tn` do not add a term
//!    whose `a` factor `== 0.0`, so a `NaN` or `inf` in `b` opposite it never
//!    reaches the output; `matmul_nt` adds every term, so there it does.
//! 3. **No FMA.** A multiply rounds, then an add rounds. The wide
//!    instantiation enables `avx2` and deliberately not `fma`; Rust never
//!    contracts `a * b + c` on its own.
//!
//! Three mechanisms buy the speed inside those rules:
//!
//! - Each kernel body is written once as an `#[inline(always)]` function and
//!   instantiated twice: as is (the portable baseline, SSE2 on x86-64) and
//!   inside a `#[target_feature(enable = "avx2")]` function chosen from what
//!   the CPU reports, so the same IEEE multiply and add run eight lanes wide.
//! - `matmul_nt` used to be one serial dot product per output — a dependent
//!   add chain that cannot be vectorised without reassociating. It now packs
//!   an [`NR`]-wide panel of `b` transposed and runs the reduction *down*
//!   that panel with an `MR × NR` block of accumulators in registers: the
//!   lanes are different output elements, each still summed in `k` order.
//! - `matmul` and `matmul_tn` skip zeros by first compacting each row of `a`
//!   to its non-zero `(k, value)` pairs, ascending in `k`, without a branch
//!   (see [`nonzeros`]). Testing `a_ik == 0.0` per element mispredicted on
//!   almost every non-zero of PubMed's 9 %-dense input, and at 3 output
//!   columns each surviving term paid that for a 3-float axpy. `matmul`
//!   then sums the list into an [`NB`]-wide block of accumulators held in
//!   registers, stored once per block, and what is left of the row in
//!   [`NT`]-wide blocks; only the last `< NT` columns are an axpy per
//!   listed term. `matmul_tn` axpys only the listed rows of `out`, except
//!   after a row of `a` with no zero: the next row then runs the plain
//!   loop that tests each element, which on a run of dense rows always
//!   predicts right and skips building a list that would hold every `k`
//!   (on dense input the list alone cost 5–15 %). The first zero it meets
//!   sends the row after it back to the list. The choice follows the input
//!   (read off the list's length, or off a skip), not a setting, and
//!   either path gives the same bits.
//!
//! An earlier `M × N` register tiling of `matmul` lost: it kept the skip as
//! a branch per row per `k` step and rescanned `a`'s zeros once per column
//! panel, which halved `matmul` on dense inputs and cut the sparse-input
//! workloads to a third. Here the list is built once per row and every
//! column block reuses it, so a zero costs a store and no branch.

/// Output columns per register-held block of `matmul` (eight AVX2 vectors,
/// enough independent add chains to hide the add latency).
const NB: usize = 64;
/// Columns per block of what is left of a `matmul` row after the [`NB`]
/// blocks (two AVX2 vectors); the last `< NT` columns are an axpy per term.
const NT: usize = 16;
/// Rows of `a` per register tile of `matmul_nt`.
const MR: usize = 4;
/// Columns of `b^T` per packed panel of `matmul_nt` (two AVX2 vectors).
const NR: usize = 16;

/// Declares `$name`, the dispatched form of the kernel body `$body`: the
/// `avx2` instantiation where the CPU has it, the baseline otherwise.
macro_rules! dispatched {
    ($(#[$doc:meta])* $name:ident => $body:ident) => {
        $(#[$doc])*
        pub(crate) fn $name(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
                    $body(a, b, out, m, k, n)
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: `avx2`'s only requirement is the CPU feature
                    // the line above just detected.
                    return unsafe { avx2(a, b, out, m, k, n) };
                }
            }
            $body(a, b, out, m, k, n)
        }
    };
}

dispatched! {
    /// `out [m,n] = a [m,k] @ b [k,n]`, skipping terms whose `a` factor is
    /// zero. Like its two siblings it expects `out` zeroed.
    matmul => nn
}
dispatched! {
    /// `out [m,n] = a [m,k] @ b^T` with `b` `[n,k]`; every term is added.
    matmul_nt => nt
}
dispatched! {
    /// `out [k,n] = a^T @ b` with `a` `[m,k]` and `b` `[m,n]`, skipping
    /// terms whose `a` factor is zero.
    matmul_tn => tn
}

/// `o += alpha * x`, elementwise.
#[inline(always)]
fn axpy(o: &mut [f32], alpha: f32, x: &[f32]) {
    for (o, &xv) in o.iter_mut().zip(x) {
        *o += alpha * xv;
    }
}

/// The non-zero entries of `row` as `(k, value)` in ascending `k`, written
/// into `scratch` (at least `row.len()` long). Every entry is stored and the
/// count advances only past a non-zero, so a row at PubMed's 9 % density
/// costs no mispredicted branch. `-0.0 == 0.0` is dropped; a NaN is kept.
#[inline(always)]
fn nonzeros<'s>(row: &[f32], scratch: &'s mut [(usize, f32)]) -> &'s [(usize, f32)] {
    let mut len = 0;
    for (kk, &v) in row.iter().enumerate() {
        scratch[len] = (kk, v);
        len += (v != 0.0) as usize;
    }
    &scratch[..len]
}

/// Body of [`matmul`]; called directly it is the baseline instantiation.
#[inline(always)]
pub(crate) fn nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    if k == 0 || n == 0 {
        return;
    }
    let mut scratch = vec![(0, 0.0f32); k];
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let terms = nonzeros(arow, &mut scratch);
        let mut j0 = 0;
        while j0 + NB <= n {
            block::<NB>(terms, b, n, j0, &mut orow[j0..j0 + NB]);
            j0 += NB;
        }
        while j0 + NT <= n {
            block::<NT>(terms, b, n, j0, &mut orow[j0..j0 + NT]);
            j0 += NT;
        }
        if j0 < n {
            for &(kk, a_ik) in terms {
                axpy(&mut orow[j0..], a_ik, &b[kk * n + j0..(kk + 1) * n]);
            }
        }
    }
}

/// Output columns `j0..j0 + W` of one `matmul` row: `W` accumulators start
/// at `+0.0`, take the listed terms in ascending `k` and are stored once.
#[inline(always)]
fn block<const W: usize>(terms: &[(usize, f32)], b: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for &(kk, a_ik) in terms {
        let brow = &b[kk * n + j0..][..W];
        for (s, &bv) in acc.iter_mut().zip(brow) {
            *s += a_ik * bv;
        }
    }
    out.copy_from_slice(&acc);
}

/// Body of [`matmul_tn`]; called directly it is the baseline instantiation.
#[inline(always)]
pub(crate) fn tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, m * n, k * n));
    if k == 0 || n == 0 {
        return;
    }
    let mut scratch = vec![(0, 0.0f32); k];
    // Whether the previous row of `a` had no zero.
    let mut dense = false;
    for (arow, brow) in a.chunks_exact(k).zip(b.chunks_exact(n)) {
        if dense {
            for (&a_ik, orow) in arow.iter().zip(out.chunks_exact_mut(n)) {
                if a_ik == 0.0 {
                    dense = false;
                    continue;
                }
                axpy(orow, a_ik, brow);
            }
        } else {
            let terms = nonzeros(arow, &mut scratch);
            for &(kk, a_ik) in terms {
                axpy(&mut out[kk * n..(kk + 1) * n], a_ik, brow);
            }
            dense = terms.len() == k;
        }
    }
}

/// Body of [`matmul_nt`]; called directly it is the baseline instantiation.
#[inline(always)]
pub(crate) fn nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, n * k, m * n));
    if k == 0 {
        return;
    }
    // One panel of `b^T`, `k` rows of `NR`; freed on return.
    let mut panel = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        // Columns `nr..NR` of a last, narrow panel keep the previous panel's
        // values: their accumulators are computed and never stored.
        for (jj, brow) in b[j0 * k..(j0 + nr) * k].chunks_exact(k).enumerate() {
            for (prow, &bv) in panel.chunks_exact_mut(NR).zip(brow) {
                prow[jj] = bv;
            }
        }
        let mut i = 0;
        while i + MR <= m {
            tile::<MR>(&a[i * k..], &panel, &mut out[i * n + j0..], k, n, nr);
            i += MR;
        }
        while i < m {
            tile::<1>(&a[i * k..], &panel, &mut out[i * n + j0..], k, n, nr);
            i += 1;
        }
    }
}

/// `R` rows of `a` (stride `k`) against one packed panel: `R × NR`
/// accumulators, each summing its own element's terms in ascending `k`;
/// the first `nr` columns are stored to `out` (row stride `n`).
#[inline(always)]
fn tile<const R: usize>(a: &[f32], panel: &[f32], out: &mut [f32], k: usize, n: usize, nr: usize) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (kk, prow) in panel.chunks_exact(NR).enumerate() {
        for (arow, acc_row) in rows.iter().zip(&mut acc) {
            let a_ik = arow[kk];
            for (s, &bv) in acc_row.iter_mut().zip(prow) {
                *s += a_ik * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n..r * n + nr].copy_from_slice(&acc_row[..nr]);
    }
}
