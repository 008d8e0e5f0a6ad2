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
//! Two mechanisms buy the speed inside those rules:
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
//!
//! `matmul` and `matmul_tn` are deliberately **not** register-tiled. Their
//! row-axpy loops already run at the no-FMA vector ceiling, and their
//! zero-skip is per `a` element: it is what makes PubMed's 90 %-zero input
//! and post-ReLU activations cheap. Inside a tile the skip becomes a branch
//! per row per `k` step and `a`'s zeros are rescanned once per column panel;
//! measured, that halved `matmul` on dense inputs and cut the sparse-input
//! workloads to a third. Tiling pays only where there is no skip.

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

/// Body of [`matmul`]; called directly it is the baseline instantiation.
#[inline(always)]
pub(crate) fn nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    if k == 0 || n == 0 {
        return;
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&a_ik, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if a_ik == 0.0 {
                continue;
            }
            axpy(orow, a_ik, brow);
        }
    }
}

/// Body of [`matmul_tn`]; called directly it is the baseline instantiation.
#[inline(always)]
pub(crate) fn tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, m * n, k * n));
    if k == 0 || n == 0 {
        return;
    }
    for (arow, brow) in a.chunks_exact(k).zip(b.chunks_exact(n)) {
        for (&a_ik, orow) in arow.iter().zip(out.chunks_exact_mut(n)) {
            if a_ik == 0.0 {
                continue;
            }
            axpy(orow, a_ik, brow);
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
