//! The three dense kernels behind [`NdArray`](crate::NdArray)'s `matmul`,
//! `matmul_nt` and `matmul_tn`, on row-major slices.
//!
//! Every float these kernels produce is pinned elsewhere (golden serve
//! digests, byte-compared BENCH documents, bit-identical resume), so they
//! may get faster but may not change one bit. Four invariants make that
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
//! 4. **Parts split output rows, never `k`.** An op large enough runs in
//!    one part per core ([`crate::par`]): `matmul` and `matmul_nt` split
//!    the rows of `out` (and of `a`), `matmul_tn` the rows of its `[k, n]`
//!    output, which is a window of `a`'s columns. A part computes whole
//!    output elements, each by invariant 1, so the part count changes no
//!    bit. Each part's scratch is allocated by the caller.
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
//!   When every panel of `b` fits in L1 together ([`NT_PACKED`]; layer 2's
//!   `k` = 3 backward), all are packed first and row tiles run outermost,
//!   so `out` is written once, not once per panel.
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
//! Below [`NT`] output columns (the class logits of layer 2 and their
//! weight gradient), `matmul` and `matmul_tn` take a path monomorphised per
//! width, with no packing of `b` and no allocation. `matmul_tn` keeps its
//! accumulators with lanes across *output rows* (columns of `a`, up to
//! [`NC_COLS`] per pass over `a`). `matmul` holds each row's output as a
//! fixed array and lists the row's non-zeros into a stack buffer; at up to
//! [`NR_LANES_W`] columns, tiles of [`NR_ROWS`] rows instead run lanes
//! across rows, so that the add chains of different rows overlap. The
//! lanes paths skip by a masked select: a zero `a` factor adds `+0.0`.
//! That is exact because an accumulator starts at `+0.0` and a
//! round-to-nearest sum is `-0.0` only when both terms are, so it never
//! holds `-0.0`, and `x + 0.0 == x` for every other `x`; the non-finite
//! product the mask drops never reaches it.
//!
//! An earlier `M × N` register tiling of `matmul` lost: it kept the skip as
//! a branch per row per `k` step and rescanned `a`'s zeros once per column
//! panel, which halved `matmul` on dense inputs and cut the sparse-input
//! workloads to a third. Here the list is built once per row and every
//! column block reuses it, so a zero costs a store and no branch.

use std::ops::Range;

use crate::par;

/// Output columns per register-held block of `matmul` (eight AVX2 vectors,
/// enough independent add chains to hide the add latency).
const NB: usize = 64;
/// Columns per block of what is left of a `matmul` row after the [`NB`]
/// blocks (two AVX2 vectors); the last `< NT` columns are an axpy per term.
/// Narrower outputs take the small-width path.
const NT: usize = 16;
/// Rows of `a` per register tile of `matmul_nt`.
const MR: usize = 4;
/// Columns of `b^T` per packed panel of `matmul_nt` (two AVX2 vectors).
const NR: usize = 16;
/// Most floats of `b` that `matmul_nt` packs all at once (16 KiB, a third
/// of a 48 KiB L1d), so that its row tiles can run outermost.
const NT_PACKED: usize = 4096;
/// Rows of `a` per lanes-across-rows tile of the small-width `matmul`
/// (two AVX2 vectors per output column).
const NR_ROWS: usize = 16;
/// Most output columns of a lanes-across-rows tile: at 8 its `2 × W`
/// accumulator vectors fill the sixteen AVX2 registers and spill, and a
/// row-at-a-time list is faster.
const NR_LANES_W: usize = 4;
/// Columns of `a` per stack-held list of non-zeros or transposed copy of
/// the small-width `matmul`.
const KC: usize = 64;
/// Rows of `a` whose non-zeros estimate the work of a large `matmul` or
/// `matmul_tn`.
const SAMPLE_ROWS: usize = 32;
/// Columns of `a` (rows of `out`) per pass of the small-width `matmul_tn`
/// over `a`; its accumulators are `NC_COLS × W` floats on the stack.
const NC_COLS: usize = 256;

/// Declares `$name`, the dispatched form of the kernel body `$body`: the
/// `avx2` instantiation where the CPU has it, the baseline otherwise.
macro_rules! dispatched {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) => $body:ident) => {
        $(#[$doc])*
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: `avx2`'s only requirement is the CPU feature
                    // the line above just detected.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

dispatched! {
    /// One part of `matmul`: the rows of `a` and `out` it owns.
    fn nn_part(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, scratch: &mut [(usize, f32)]) => nn_rows
}
dispatched! {
    /// One part of `matmul_nt` with one `b` panel packed at a time.
    fn nt_part(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, panel: &mut [f32]) => nt_rows
}
dispatched! {
    /// One part of `matmul_nt` against all of `b`, packed (`j0` = 0).
    fn nt_packed_part(a: &[f32], packed: &[f32], out: &mut [f32], k: usize, n: usize, j0: usize) => nt_tiles
}
dispatched! {
    /// One part of `matmul_tn`: the rows `cols` of `out`.
    fn tn_part(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, cols: Range<usize>, scratch: &mut [(usize, f32)]) => tn_cols
}

/// `out [m,n] = a [m,k] @ b [k,n]`, skipping terms whose `a` factor is
/// zero; in one part per core once its work reaches [`par::PAR_WORK`] (see
/// [`skip_parts`]). Like its two siblings it expects `out` zeroed.
pub(crate) fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_in(skip_parts(a, m, k, n), a, b, out, m, k, n);
}

/// `out [m,n] = a [m,k] @ b^T` with `b` `[n,k]`; every term is added.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_nt_in(par::parts(m * k.max(NT) * n.max(NT)), a, b, out, m, k, n);
}

/// `out [k,n] = a^T @ b` with `a` `[m,k]` and `b` `[m,n]`, skipping
/// terms whose `a` factor is zero.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_tn_in(skip_parts(a, m, k, n), a, b, out, m, k, n);
}

/// The part count of `matmul` or `matmul_tn` over `a [m, k]` with `n`
/// output columns: the multiply-adds the zero-skip leaves, `n` times the
/// non-zeros of `a`. Those are estimated from [`SAMPLE_ROWS`] rows spread
/// over `a`, and only for an op whose every term would reach the threshold,
/// so a small op pays nothing. Bag-of-words inputs are 1–10 % non-zero:
/// counted at `m·k·n`, a serving batch's first layer looked ten to a
/// hundred times its cost and was split to no gain. As in `matmul_nt`, `n`
/// below one [`NT`]-wide register block counts as a full block, since a
/// block costs about the same whatever fills it (the 3-column `matmul`
/// runs 2–3 G multiply-adds/s where the 32- and 64-column GEMMs of sampled
/// minibatches run 7–13 G).
fn skip_parts(a: &[f32], m: usize, k: usize, n: usize) -> usize {
    let n = n.max(NT);
    if k == 0 || par::parts(m * k * n) == 1 {
        return 1;
    }
    let rows = a.chunks_exact(k).step_by(m.div_ceil(SAMPLE_ROWS));
    let (sampled, nonzeros) = rows.fold((0, 0), |(r, z), row| {
        (r + 1, z + row.iter().filter(|&&v| v != 0.0).count())
    });
    par::parts(nonzeros * m / sampled * n)
}

/// [`matmul`] in `parts` row parts, dispatched.
pub(crate) fn matmul_in(
    parts: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nn_split(parts, a, b, out, (m, k, n), nn_part);
}

/// [`matmul_nt`] in `parts` row parts, dispatched.
pub(crate) fn matmul_nt_in(
    parts: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nt_split(parts, a, b, out, (m, k, n), (nt_part, nt_packed_part));
}

/// [`matmul_tn`] in `parts` parts of its output rows, dispatched.
pub(crate) fn matmul_tn_in(
    parts: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    tn_split(parts, a, b, out, (m, k, n), tn_part);
}

/// Body of [`matmul`], serial; called directly it is the baseline
/// instantiation: the serial reference of `tests/gemm_bits.rs`.
#[cfg(test)]
#[allow(dead_code)]
pub(crate) fn nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    nn_split(1, a, b, out, (m, k, n), nn_rows);
}

/// Body of [`matmul_nt`], serial; called directly it is the baseline
/// instantiation: the serial reference of `tests/gemm_bits.rs`.
#[cfg(test)]
#[allow(dead_code)]
pub(crate) fn nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    nt_split(1, a, b, out, (m, k, n), (nt_rows, nt_tiles));
}

/// Body of [`matmul_tn`], serial; called directly it is the baseline
/// instantiation: the serial reference of `tests/gemm_bits.rs`.
#[cfg(test)]
#[allow(dead_code)]
pub(crate) fn tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tn_split(1, a, b, out, (m, k, n), tn_cols);
}

type NnPart = fn(&[f32], &[f32], &mut [f32], usize, usize, &mut [(usize, f32)]);
type NtPart = fn(&[f32], &[f32], &mut [f32], usize, usize, &mut [f32]);
type NtPackedPart = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
type TnPart = fn(&[f32], &[f32], &mut [f32], usize, usize, Range<usize>, &mut [(usize, f32)]);

fn nn_split(
    parts: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    part: NnPart,
) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    if k == 0 || n == 0 {
        return;
    }
    // A `k`-entry list of non-zeros per part; the small-width path has none.
    let mut scratch = vec![(0, 0.0f32); if n < NT { 0 } else { parts * k }];
    let bound = |i| par::even(m, parts, i);
    par::for_rows(parts, bound, out, n, &mut scratch, |rows, out, list| {
        part(&a[rows.start * k..rows.end * k], b, out, k, n, list);
    });
}

fn nt_split(
    parts: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    (part, packed_part): (NtPart, NtPackedPart),
) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, n * k, m * n));
    if k == 0 {
        return;
    }
    let bound = |i| par::even(m, parts, i);
    let panels = n.div_ceil(NR);
    if panels * NR * k <= NT_PACKED {
        // Every panel packed once, shared read-only by all parts.
        let mut packed = vec![0.0f32; panels * NR * k];
        for (p, panel) in packed.chunks_exact_mut(NR * k).enumerate() {
            pack(b, k, p * NR, NR.min(n - p * NR), panel);
        }
        par::for_rows(parts, bound, out, n, &mut [(); 0], |rows, out, _| {
            packed_part(&a[rows.start * k..rows.end * k], &packed, out, k, n, 0);
        });
    } else {
        // One panel of `b^T`, `k` rows of `NR`, per part.
        let mut panel = vec![0.0f32; parts * k * NR];
        par::for_rows(parts, bound, out, n, &mut panel, |rows, out, panel| {
            part(&a[rows.start * k..rows.end * k], b, out, k, n, panel);
        });
    }
}

fn tn_split(
    parts: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    part: TnPart,
) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, m * n, k * n));
    if k == 0 || n == 0 {
        return;
    }
    let mut scratch = vec![(0, 0.0f32); if n < NT { 0 } else { parts * k }];
    let bound = |i| par::even(k, parts, i);
    par::for_rows(parts, bound, out, n, &mut scratch, |cols, out, list| {
        part(a, b, out, k, n, cols, list);
    });
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

/// `acc + x · y`, or `acc` unchanged when `x` is zero (the masked select
/// of the small-width paths; see the module doc for why adding `+0.0` is
/// exact).
#[inline(always)]
fn add_unless_zero(acc: f32, x: f32, y: f32) -> f32 {
    acc + if x != 0.0 { x * y } else { 0.0 }
}

/// Calls `$f::<W>($args)` for the `n` in `1..NT` it is given.
macro_rules! by_width {
    ($n:expr, $f:ident($($arg:expr),*)) => {
        match $n {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            9 => $f::<9>($($arg),*),
            10 => $f::<10>($($arg),*),
            11 => $f::<11>($($arg),*),
            12 => $f::<12>($($arg),*),
            13 => $f::<13>($($arg),*),
            14 => $f::<14>($($arg),*),
            15 => $f::<15>($($arg),*),
            _ => unreachable!("small-width path at {} columns", $n),
        }
    };
}

/// Body of one part of [`matmul`]: `out = a @ b` for the rows of `a` (row
/// stride `k`) it is given, with `b` `[k, n]`, `k, n > 0`.
#[inline(always)]
fn nn_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    scratch: &mut [(usize, f32)],
) {
    if n < NT {
        return by_width!(n, nn_narrow(a, b, out, k));
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let terms = nonzeros(arow, scratch);
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

/// The small-width `matmul` at `W` output columns. Up to [`NR_LANES_W`]
/// columns, whole tiles of [`NR_ROWS`] rows go lanes across rows
/// ([`nn_tile`]); every other row goes alone ([`nn_row`]).
#[inline(always)]
fn nn_narrow<const W: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize) {
    let tiled = if W <= NR_LANES_W {
        out.len() / W / NR_ROWS * NR_ROWS
    } else {
        0
    };
    let (a_tiles, a_rest) = a.split_at(tiled * k);
    let (out_tiles, out_rest) = out.split_at_mut(tiled * W);
    let tiles = a_tiles.chunks_exact(NR_ROWS * k);
    for (at, ot) in tiles.zip(out_tiles.chunks_exact_mut(NR_ROWS * W)) {
        nn_tile::<W, NR_ROWS>(at, b, ot, k);
    }
    let mut list = [(0, 0.0f32); KC];
    for (arow, orow) in a_rest.chunks_exact(k).zip(out_rest.chunks_exact_mut(W)) {
        nn_row::<W>(arow, b, orow, &mut list);
    }
}

/// One row of `a` against all of `b` (`[k, W]`): the row's `W`
/// accumulators are a fixed array in registers and its non-zero terms are
/// listed [`KC`] columns at a time into `list`, a stack buffer, so a zero
/// costs a store, as in the wide path. Serving's few-row batches of sparse
/// features take this path.
#[inline(always)]
fn nn_row<const W: usize>(
    arow: &[f32],
    b: &[f32],
    orow: &mut [f32],
    list: &mut [(usize, f32); KC],
) {
    let mut acc = [0.0f32; W];
    for (k0, chunk) in (0..arow.len()).step_by(KC).zip(arow.chunks(KC)) {
        for &(kk, a_ik) in nonzeros(chunk, list) {
            let brow = &b[(k0 + kk) * W..][..W];
            for (s, &bv) in acc.iter_mut().zip(brow) {
                *s += a_ik * bv;
            }
        }
    }
    orow.copy_from_slice(&acc);
}

/// `R` rows of `a` against all of `b` (`[k, W]`): `W × R` accumulators,
/// lanes across rows, each summing its element's terms in ascending `k`
/// with the zero-skip as a masked select. The rows are read through a
/// transposed stack copy of [`KC`] columns at a time, so each `k` step
/// loads its `R` factors as one vector. One add chain per row would wait
/// on the add latency at every term; here `W × R / 8` vector chains run at
/// once.
#[inline(always)]
fn nn_tile<const W: usize, const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize) {
    let mut acc = [[0.0f32; R]; W];
    let mut t = [[0.0f32; R]; KC];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for (r, arow) in a.chunks_exact(k).enumerate() {
            for (tk, &x) in t.iter_mut().zip(&arow[k0..k0 + kc]) {
                tk[r] = x;
            }
        }
        for (av, brow) in t[..kc].iter().zip(b[k0 * W..].chunks_exact(W)) {
            for (acc_j, &bv) in acc.iter_mut().zip(brow) {
                for (s, &x) in acc_j.iter_mut().zip(av) {
                    *s = add_unless_zero(*s, x, bv);
                }
            }
        }
    }
    for (r, orow) in out.chunks_exact_mut(W).enumerate() {
        for (o, acc_j) in orow.iter_mut().zip(&acc) {
            *o = acc_j[r];
        }
    }
}

/// Body of one part of [`matmul_tn`]: rows `cols` of `out = a^T @ b`,
/// i.e. the window `cols` of every row of `a` (row stride `k`) against
/// `b` `[m, n]`, `k, n > 0`. `out` holds only those rows.
#[inline(always)]
fn tn_cols(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    cols: Range<usize>,
    scratch: &mut [(usize, f32)],
) {
    if n < NT {
        return by_width!(n, tn_narrow(a, b, out, k, cols.start));
    }
    // Whether the previous row's window of `a` had no zero.
    let mut dense = false;
    for (arow, brow) in a.chunks_exact(k).zip(b.chunks_exact(n)) {
        let arow = &arow[cols.clone()];
        if dense {
            for (&a_ik, orow) in arow.iter().zip(out.chunks_exact_mut(n)) {
                if a_ik == 0.0 {
                    dense = false;
                    continue;
                }
                axpy(orow, a_ik, brow);
            }
        } else {
            let terms = nonzeros(arow, scratch);
            for &(kk, a_ik) in terms {
                axpy(&mut out[kk * n..(kk + 1) * n], a_ik, brow);
            }
            dense = terms.len() == arow.len();
        }
    }
}

/// The small-width `matmul_tn` at `W` output columns, for the output rows
/// (columns of `a`) from `c0` on that `out` holds, in blocks of up to
/// [`NC_COLS`]: `W` rows of accumulators on the stack, lanes across columns
/// of `a`, each summing its element's terms in ascending row of `a`, then
/// stored transposed into `out`.
#[inline(always)]
fn tn_narrow<const W: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, c0: usize) {
    let mut acc = [[0.0f32; NC_COLS]; W];
    for (blk, ob) in out.chunks_mut(NC_COLS * W).enumerate() {
        let (c0, c) = (c0 + blk * NC_COLS, ob.len() / W);
        for acc_j in &mut acc {
            acc_j[..c].fill(0.0);
        }
        for (arow, brow) in a.chunks_exact(k).zip(b.chunks_exact(W)) {
            let av = &arow[c0..c0 + c];
            for (acc_j, &bv) in acc.iter_mut().zip(brow) {
                for (s, &x) in acc_j[..c].iter_mut().zip(av) {
                    *s = add_unless_zero(*s, x, bv);
                }
            }
        }
        for (cc, orow) in ob.chunks_exact_mut(W).enumerate() {
            for (o, acc_j) in orow.iter_mut().zip(&acc) {
                *o = acc_j[cc];
            }
        }
    }
}

/// Packs columns `j0..j0 + nr` of `b^T` (`b` is `[n, k]`) into `panel`,
/// `k` rows of [`NR`]. Columns `nr..NR` keep what `panel` held: their
/// accumulators are computed and never stored.
#[inline(always)]
fn pack(b: &[f32], k: usize, j0: usize, nr: usize, panel: &mut [f32]) {
    for (jj, brow) in b[j0 * k..(j0 + nr) * k].chunks_exact(k).enumerate() {
        for (prow, &bv) in panel.chunks_exact_mut(NR).zip(brow) {
            prow[jj] = bv;
        }
    }
}

/// Body of one part of [`matmul_nt`], panel by panel: each [`NR`]-wide
/// panel of `b^T` is packed into `panel` and run against every row tile of
/// the part. `k > 0`.
#[inline(always)]
fn nt_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, panel: &mut [f32]) {
    for j0 in (0..n).step_by(NR) {
        pack(b, k, j0, NR.min(n - j0), panel);
        nt_tiles(a, panel, out, k, n, j0);
    }
}

/// Body of one part of [`matmul_nt`] against `packed`, consecutive panels
/// of `b^T` whose first is column `j0` of `out`: row tiles outermost, so
/// with all of `b^T` packed each tile of `out` is written once. `k > 0`.
#[inline(always)]
fn nt_tiles(a: &[f32], packed: &[f32], out: &mut [f32], k: usize, n: usize, j0: usize) {
    let m = a.len() / k;
    let mut i = 0;
    while i + MR <= m {
        row_tile::<MR>(&a[i * k..], packed, &mut out[i * n..], k, n, j0);
        i += MR;
    }
    while i < m {
        row_tile::<1>(&a[i * k..], packed, &mut out[i * n..], k, n, j0);
        i += 1;
    }
}

/// `R` rows of `a` against every panel of `packed`, the first at column
/// `j0`.
#[inline(always)]
fn row_tile<const R: usize>(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
) {
    for (p, panel) in packed.chunks_exact(NR * k).enumerate() {
        let j = j0 + p * NR;
        tile::<R>(a, panel, &mut out[j..], k, n, NR.min(n - j));
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
