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
//!    Work may be reordered *across* output elements, never within one. A
//!    partial sum may be stored to `out` and reloaded: that is exact.
//! 2. **Zero-skip, observable only opposite a non-finite `b`.** The
//!    original `matmul` and `matmul_tn` did not add a term whose `a` factor
//!    `== 0.0`; `matmul_nt` adds every term. Against a finite `b` the skip
//!    changes no bit: the skipped product is `±0.0`, and adding `±0.0`
//!    leaves an accumulator unchanged, because one that starts at `+0.0`
//!    never holds `-0.0` (a round-to-nearest sum is `-0.0` only when both
//!    terms are) and `x + 0.0 == x` for every other `x`. Only a `NaN` or
//!    `inf` in `b` opposite a zero in `a` tells the two apart, and there
//!    `matmul` and `matmul_tn` keep the skip, so it never reaches the output.
//! 3. **No FMA.** A multiply rounds, then an add rounds. The wide
//!    instantiation enables `avx2` and deliberately not `fma`; Rust never
//!    contracts `a * b + c` on its own.
//! 4. **Parts split output rows, never `k`.** An op large enough runs in
//!    one part per core ([`crate::par`]): `matmul` and `matmul_nt` split
//!    the rows of `out` (and of `a`), `matmul_tn` the rows of its `[k, n]`
//!    output, which is a window of `a`'s columns. A part computes whole
//!    output elements, each by invariant 1, so the part count changes no
//!    bit. `matmul` and `matmul_tn` allocate nothing; `matmul_nt`'s packed
//!    panels of `b^T` are allocated by the caller, once per call.
//!
//! Each kernel body is written once as an `#[inline(always)]` function and
//! instantiated twice: as is (the portable baseline, SSE2 on x86-64) and
//! inside a `#[target_feature(enable = "avx2")]` function chosen from what
//! the CPU reports, so the same IEEE multiply and add run eight lanes wide.
//!
//! **One register tile.** All three layouts share one microkernel,
//! [`tile`]: an `MR × NR` block of accumulators in registers (four rows of
//! two AVX2 vectors), which at each reduction step broadcasts one `a`
//! factor per row and multiplies it into an `NR`-wide row of `b`. The
//! lanes are different output elements, each summed in its own `k` order,
//! with no branch and no list. Only where the `a` factor and the `b` row of
//! a step sit differs:
//!
//! - `matmul` ([`Path::Tile`]): step `k` reads column `k` of `MR` rows of
//!   `a` and row `k` of `b` in place. `b` is never packed; a ragged last
//!   panel reruns the last `NR` columns and stores only the new ones.
//! - `matmul_tn` ([`Path::Tile`]): step `i` reads `MR` adjacent columns of
//!   row `i` of `a` (one window of the output rows) and row `i` of `b`. The
//!   reduction runs in blocks of [`MB`] rows, so that the block of `a` and
//!   of `b` stays in cache across the column tiles; each block's partial
//!   sums are stored to `out` and reloaded.
//! - `matmul_nt`: `b^T` has no contiguous rows, so an `NR`-wide panel of it
//!   is packed first. When every panel fits in L1 together ([`NT_PACKED`];
//!   layer 2's `k` = 3 backward), all are packed first and row tiles run
//!   outermost, so `out` is written once, not once per panel.
//!
//! **When the tile runs.** `matmul` and `matmul_tn` take the tile only
//! where it gives the skip's bits and is faster: at [`TILE_ROWS`] rows or
//! more, about half of `a` non-zero or more, and `b` all finite (see
//! [`path`]). Everything else (bag-of-words inputs at 1–10 %, a `b` holding
//! a `NaN` or `inf`, a readout over a few graphs) takes [`Path::List`]: each
//! row of `a` is compacted to its non-zero `(k, value)` pairs, ascending in
//! `k` and without a branch (see [`nonzeros`]), [`LIST`] columns at a time
//! into a stack buffer. `matmul` sums the list into an [`NB`]-wide block of
//! accumulators held in registers, then [`NT`]-wide blocks, then an axpy
//! per term for the last `< NT` columns; `matmul_tn` axpys the listed rows
//! of `out`. Testing `a_ik == 0.0` per element mispredicted on almost every
//! non-zero of PubMed's 9 %-dense input, and at 3 output columns each
//! surviving term paid that for a 3-float axpy.
//!
//! An earlier `M × N` register tiling of `matmul` lost: it kept the skip as
//! a branch per row per `k` step and rescanned `a`'s zeros once per column
//! panel, which halved `matmul` on dense inputs and cut the sparse-input
//! workloads to a third. This tile has neither: by invariant 2 it adds the
//! zeros, so a step is two vector multiplies and adds per row whatever `a`
//! holds, and it runs only where `a` is dense enough that the terms it
//! adds in vain cost less than a list. Sparse inputs keep the list.
//!
//! Below [`NT`] output columns (the class logits of layer 2 and their
//! weight gradient), `matmul` and `matmul_tn` take a path monomorphised per
//! width, with no packing of `b` and no allocation. `matmul_tn` keeps its
//! accumulators with lanes across *output rows* (columns of `a`, up to
//! [`NC_COLS`] per pass over `a`). `matmul` holds each row's output as a
//! fixed array and lists the row's non-zeros into a stack buffer; at up to
//! [`NR_LANES_W`] columns, tiles of [`NR_ROWS`] rows instead run lanes
//! across rows, so that the add chains of different rows overlap. The
//! lanes paths skip by a masked select: a zero `a` factor adds `+0.0`,
//! which is exact by invariant 2, and the non-finite product the mask
//! drops never reaches the accumulator.

use std::ops::Range;

use crate::par;

/// Output columns per register-held block of the listed `matmul` (eight
/// AVX2 vectors, enough independent add chains to hide the add latency).
const NB: usize = 64;
/// Fewest output columns of the wide paths, and columns per block of what
/// is left of a listed `matmul` row after the [`NB`] blocks (two AVX2
/// vectors); the last `< NT` columns are an axpy per term. Narrower
/// outputs take the small-width path. At least [`NR`], so that every wide
/// output has a whole tile panel.
const NT: usize = 16;
/// Rows of a register tile (rows of `a` for `matmul` and `matmul_nt`,
/// columns of `a` for `matmul_tn`).
const MR: usize = 4;
/// Output columns of a register tile (two AVX2 vectors).
const NR: usize = 16;
/// Most floats of `b` that `matmul_nt` packs all at once (16 KiB, a third
/// of a 48 KiB L1d), so that its row tiles can run outermost.
const NT_PACKED: usize = 4096;
/// Rows of `a` and `b` per block of the tiled `matmul_tn`'s reduction: at
/// `k` = 128 and `n` = 96, 128 KiB of `a` and 96 KiB of `b`, which stay in
/// L2 while every column tile of `a` runs against every panel of `b`.
const MB: usize = 256;
/// Fewest rows of `a` for which `matmul` and `matmul_tn` consider the
/// tile. Below it the tile's fixed costs (the sample of `a`, the `k·n`
/// scan of `b`, a part-filled row tile) outweigh its speed: on the dense
/// shapes of the workloads' few-row GEMMs (`k × n` of 80 × 80, 96 × 96,
/// 80 × 40, 96 × 48 and 18 × 96, 70 % and 100 % non-zero) the tile takes
/// 1.3–4.4× the list's time at one row, and the two cross between 2 and
/// 24 rows by shape. From 12 rows the tile takes at most 1.2× the list on
/// any of them, and less than the list on most. The rows are nodes or
/// graphs, not requests: a serve batch of 1–8 requests runs a full-graph
/// forward (hundreds of rows), collates whole graphs or samples a block,
/// and reads out one row per graph, so the few-row GEMMs are readouts and
/// small blocks.
const TILE_ROWS: usize = 12;
/// Least share of non-zeros in `a` (sampled, in sixteenths) for which the
/// tile, which adds every term, beats the list, which adds only the
/// non-zeros: at `[448 × 96] · [96 × 96]` the two cross at 40–50 %
/// (`matmul`) and 30–40 % (`matmul_tn`); at 70 % the tile takes 0.72× and
/// 0.60× the list's time.
const TILE_DENSITY: usize = 8;
/// Rows of `a` per lanes-across-rows tile of the small-width `matmul`
/// (two AVX2 vectors per output column).
const NR_ROWS: usize = 16;
/// Most output columns of a lanes-across-rows tile: at 8 its `2 × W`
/// accumulator vectors fill the sixteen AVX2 registers and spill, and a
/// row-at-a-time list is faster.
const NR_LANES_W: usize = 4;
/// Columns of `a` per transposed stack copy of the small-width `matmul`.
const KC: usize = 64;
/// Columns of `a` per stack-held list of non-zeros (4 KiB of `(u32, f32)`
/// entries): a wider row is listed a chunk at a time.
const LIST: usize = 512;
/// Rows of `a` whose non-zeros estimate the work of a large `matmul` or
/// `matmul_tn`, and the density that picks its path.
const SAMPLE_ROWS: usize = 32;
/// Columns of `a` (rows of `out`) per pass of the small-width `matmul_tn`
/// over `a`; its accumulators are `NC_COLS × W` floats on the stack.
const NC_COLS: usize = 256;

/// How `matmul` and `matmul_tn` treat an `a` factor of zero. Both give the
/// same bits unless `b` holds a `NaN` or `inf` (module invariant 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Path {
    /// Skip its term: list each row's non-zeros and add only those.
    List,
    /// Add its term: every term through the register tile.
    Tile,
}

/// One list of a row's non-zeros, as `(column in the chunk, value)`.
type Terms = [(u32, f32); LIST];

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

dispatched! {
    /// One part of `matmul`: the rows of `a` and `out` it owns.
    fn nn_part(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, path: Path) => nn_rows
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
    fn tn_part(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, cols: Range<usize>, path: Path) => tn_cols
}

/// `out [m,n] = a [m,k] @ b [k,n]`, skipping terms whose `a` factor is
/// zero; by the path and in the part count [`plan`] reads off the inputs.
/// Like its two siblings it expects `out` zeroed.
pub(crate) fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let (parts, path) = plan(a, b, m, k, n);
    matmul_in(parts, path, a, b, out, m, k, n);
}

/// `out [m,n] = a [m,k] @ b^T` with `b` `[n,k]`; every term is added.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_nt_in(par::parts(m * k.max(NT) * n.max(NT)), a, b, out, m, k, n);
}

/// `out [k,n] = a^T @ b` with `a` `[m,k]` and `b` `[m,n]`, skipping
/// terms whose `a` factor is zero; planned as [`matmul`].
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let (parts, path) = plan(a, b, m, k, n);
    matmul_tn_in(parts, path, a, b, out, m, k, n);
}

/// The part count and path of `matmul` or `matmul_tn` over `a [m, k]`
/// against `b`, with `n` output columns. The density of `a` is read off
/// [`SAMPLE_ROWS`] rows spread over it, and only where it can matter: for
/// an op whose every term would reach [`par::PAR_WORK`], or one wide and
/// tall enough for the tile; a small op pays nothing. The work is the
/// multiply-adds the path does: `m·k·n` for the tile, and for the list `n`
/// times the (estimated) non-zeros of `a`, since bag-of-words inputs are
/// 1–10 % non-zero and, counted at `m·k·n`, a serving batch's first layer
/// looked ten to a hundred times its cost and was split to no gain. As in
/// `matmul_nt`, `n` below one [`NT`]-wide register block counts as a full
/// block, since a block costs about the same whatever fills it (the
/// 3-column `matmul` runs 2–3 G multiply-adds/s where the 32- and
/// 64-column GEMMs of sampled minibatches run 7–13 G).
fn plan(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (usize, Path) {
    let wide = n.max(NT);
    let tall = n >= NT && m >= TILE_ROWS;
    if k == 0 || (!tall && par::parts(m * k * wide) == 1) {
        return (1, Path::List);
    }
    let rows = a.chunks_exact(k).step_by(m.div_ceil(SAMPLE_ROWS));
    let (sampled, nonzeros) = rows.fold((0, 0), |(r, z), row| {
        (r + 1, z + row.iter().filter(|&&v| v != 0.0).count())
    });
    let path = if n >= NT {
        path(m, (nonzeros, sampled * k), b)
    } else {
        Path::List
    };
    let work = match path {
        Path::Tile => m * k * wide,
        Path::List => nonzeros * m / sampled * wide,
    };
    (par::parts(work), path)
}

/// The path of a `matmul` or `matmul_tn` of [`NT`] or more output columns
/// over `rows` rows of `a`, of whose sampled `values` `nonzeros` are
/// non-zero, against `b`: the tile from [`TILE_ROWS`] rows and a
/// [`TILE_DENSITY`] share of non-zeros, and only when `b` is all finite.
/// `b` is scanned last, so a few-row or sparse op never reads it here.
pub(crate) fn path(rows: usize, (nonzeros, values): (usize, usize), b: &[f32]) -> Path {
    let dense = nonzeros * 16 >= values * TILE_DENSITY;
    if rows >= TILE_ROWS && dense && all_finite(b) {
        Path::Tile
    } else {
        Path::List
    }
}

/// Whether every value of `b` is finite; a branch per 64 values, so the
/// test within a chunk vectorises.
fn all_finite(b: &[f32]) -> bool {
    b.chunks(64)
        .all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()))
}

/// [`matmul`] in `parts` row parts on `path`, dispatched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_in(
    parts: usize,
    path: Path,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nn_split(parts, path, a, b, out, (m, k, n), nn_part);
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

/// [`matmul_tn`] in `parts` parts of its output rows on `path`, dispatched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_tn_in(
    parts: usize,
    path: Path,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    tn_split(parts, path, a, b, out, (m, k, n), tn_part);
}

/// Body of [`matmul`] on `path`, serial; called directly it is the
/// baseline instantiation: the serial reference of `tests/gemm_bits.rs`.
#[cfg(test)]
#[allow(dead_code)]
pub(crate) fn nn(path: Path, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    nn_split(1, path, a, b, out, (m, k, n), nn_rows);
}

/// Body of [`matmul_nt`], serial; called directly it is the baseline
/// instantiation: the serial reference of `tests/gemm_bits.rs`.
#[cfg(test)]
#[allow(dead_code)]
pub(crate) fn nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    nt_split(1, a, b, out, (m, k, n), (nt_rows, nt_tiles));
}

/// Body of [`matmul_tn`] on `path`, serial; called directly it is the
/// baseline instantiation: the serial reference of `tests/gemm_bits.rs`.
#[cfg(test)]
#[allow(dead_code)]
pub(crate) fn tn(path: Path, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    tn_split(1, path, a, b, out, (m, k, n), tn_cols);
}

type NnPart = fn(&[f32], &[f32], &mut [f32], usize, usize, Path);
type NtPart = fn(&[f32], &[f32], &mut [f32], usize, usize, &mut [f32]);
type NtPackedPart = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
type TnPart = fn(&[f32], &[f32], &mut [f32], usize, usize, Range<usize>, Path);

fn nn_split(
    parts: usize,
    path: Path,
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
    let bound = |i| par::even(m, parts, i);
    par::for_rows(parts, bound, out, n, &mut [(); 0], |rows, out, _| {
        part(&a[rows.start * k..rows.end * k], b, out, k, n, path);
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
    path: Path,
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
    let bound = |i| par::even(k, parts, i);
    par::for_rows(parts, bound, out, n, &mut [(); 0], |cols, out, _| {
        part(a, b, out, k, n, cols, path);
    });
}

/// The one microkernel of all three layouts: adds to the lanes `lanes` of
/// an `R × NR` block of `out` (row stride `n`) through `R × NR`
/// accumulators in registers. Each of `steps`, in order, is a step index,
/// which `factors` turns into the `R` factors of `a` (one per row of the
/// block), and a row of `b` whose first `NR` values are the factors across
/// the lanes; every accumulator adds its product, one rounding per
/// multiply and per add. The accumulators start from what `out` holds
/// (`+0.0` on entry, or a partial sum) and are stored back; the lanes
/// outside `lanes` are computed and dropped.
#[inline(always)]
fn tile<'b, const R: usize>(
    steps: impl Iterator<Item = (usize, &'b [f32])>,
    factors: impl Fn(usize) -> [f32; R],
    out: &mut [f32],
    n: usize,
    lanes: Range<usize>,
) {
    // Loaded from `out` even where it holds `+0.0`: accumulators that
    // start as constant zeros compiled to a loop that also copied every
    // accumulator register once per step.
    let whole = lanes.len() == NR;
    let mut acc = [[0.0f32; NR]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        let o = &out[r * n..];
        if whole {
            acc_r.copy_from_slice(&o[..NR]);
        } else {
            let mut w = [0.0f32; NR];
            w[lanes.clone()].copy_from_slice(&o[lanes.clone()]);
            *acc_r = w;
        }
    }
    for (t, brow) in steps {
        let brow: &[f32; NR] = brow[..NR].try_into().expect("NR columns");
        for (acc_r, x) in acc.iter_mut().zip(factors(t)) {
            for l in 0..NR {
                acc_r[l] += x * brow[l];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o = &mut out[r * n..];
        if whole {
            o[..NR].copy_from_slice(acc_r);
        } else {
            o[lanes.clone()].copy_from_slice(&acc_r[lanes.clone()]);
        }
    }
}

/// The tile panels of `n >= NR` output columns read in place: each whole
/// panel's first column and the lanes it stores, then, when `n` is ragged,
/// the last `NR` columns, storing only the lanes no whole panel stored.
fn panels(n: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let ragged = (!n.is_multiple_of(NR)).then(|| (n - NR, NR - n % NR..NR));
    (0..n / NR).map(|p| (p * NR, 0..NR)).chain(ragged)
}

/// `f::<MR>(i)` for each whole `MR`-row tile of `rows` rows, from row `i`,
/// then `f::<1>(i)` for each row left over.
macro_rules! row_tiles {
    ($rows:expr, $f:ident($($arg:expr),*)) => {{
        let rows = $rows;
        let mut i = 0;
        while i + MR <= rows {
            $f::<MR>($($arg,)* i);
            i += MR;
        }
        while i < rows {
            $f::<1>($($arg,)* i);
            i += 1;
        }
    }};
}

/// Body of one part of [`matmul`]: `out = a @ b` for the rows of `a` (row
/// stride `k`) it is given, with `b` `[k, n]`, `k, n > 0`.
#[inline(always)]
fn nn_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, path: Path) {
    if n < NT {
        return by_width!(n, nn_narrow(a, b, out, k));
    }
    match path {
        Path::Tile => row_tiles!(a.len() / k, nn_tile_rows(a, b, out, k, n)),
        Path::List => nn_list(a, b, out, k, n),
    }
}

/// `R` rows of `matmul` from row `i`, every term added: each tile panel
/// of `b` read in place, one step per column of `a`.
#[inline(always)]
fn nn_tile_rows<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
) {
    let a = &a[i * k..];
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let out = &mut out[i * n..];
    for (j, lanes) in panels(n) {
        let steps = (0..k).zip(b[j..].chunks(n));
        tile::<R>(steps, |kk| rows.map(|row| row[kk]), &mut out[j..], n, lanes);
    }
}

/// The listed `matmul`: each row's non-zeros, [`LIST`] columns at a time,
/// summed into register blocks of [`NB`] and then [`NT`] output columns,
/// and an axpy per term for the last `< NT`.
#[inline(always)]
fn nn_list(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let mut list: Terms = [(0, 0.0); LIST];
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (k0, chunk) in (0..k).step_by(LIST).zip(arow.chunks(LIST)) {
            let terms = nonzeros(chunk, &mut list);
            let b = &b[k0 * n..];
            let mut j0 = 0;
            while j0 + NB <= n {
                block::<NB>(terms, b, n, &mut orow[j0..j0 + NB], j0);
                j0 += NB;
            }
            while j0 + NT <= n {
                block::<NT>(terms, b, n, &mut orow[j0..j0 + NT], j0);
                j0 += NT;
            }
            if j0 < n {
                for &(kk, a_ik) in terms {
                    let kk = kk as usize;
                    axpy(&mut orow[j0..], a_ik, &b[kk * n + j0..(kk + 1) * n]);
                }
            }
        }
    }
}

/// `o += alpha * x`, elementwise.
#[inline(always)]
fn axpy(o: &mut [f32], alpha: f32, x: &[f32]) {
    for (o, &xv) in o.iter_mut().zip(x) {
        *o += alpha * xv;
    }
}

/// The non-zero entries of `row` (at most [`LIST`] long) as `(k, value)`
/// in ascending `k`, written into `list`. Every entry is stored and the
/// count advances only past a non-zero, so a row at PubMed's 9 % density
/// costs no mispredicted branch. `-0.0 == 0.0` is dropped; a NaN is kept.
#[inline(always)]
fn nonzeros<'s>(row: &[f32], list: &'s mut Terms) -> &'s [(u32, f32)] {
    let mut len = 0;
    for (kk, &v) in (0u32..).zip(row) {
        list[len] = (kk, v);
        len += (v != 0.0) as usize;
    }
    &list[..len]
}

/// `acc + x · y`, or `acc` unchanged when `x` is zero (the masked select
/// of the small-width paths; see the module doc for why adding `+0.0` is
/// exact).
#[inline(always)]
fn add_unless_zero(acc: f32, x: f32, y: f32) -> f32 {
    acc + if x != 0.0 { x * y } else { 0.0 }
}

/// Output columns `j0..j0 + W` of one listed `matmul` row: `W`
/// accumulators start from what `out` holds (`+0.0`, or the sum of the
/// row's earlier chunks), take the listed terms in ascending `k` and are
/// stored once.
#[inline(always)]
fn block<const W: usize>(terms: &[(u32, f32)], b: &[f32], n: usize, out: &mut [f32], j0: usize) {
    let mut acc: [f32; W] = out.try_into().expect("a block is W columns");
    for &(kk, a_ik) in terms {
        let brow = &b[kk as usize * n + j0..][..W];
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
    let mut list: Terms = [(0, 0.0); LIST];
    for (arow, orow) in a_rest.chunks_exact(k).zip(out_rest.chunks_exact_mut(W)) {
        nn_row::<W>(arow, b, orow, &mut list);
    }
}

/// One row of `a` against all of `b` (`[k, W]`): the row's `W`
/// accumulators are a fixed array in registers and its non-zero terms are
/// listed [`LIST`] columns at a time into `list`, a stack buffer, so a
/// zero costs a store, as in the wide path.
#[inline(always)]
fn nn_row<const W: usize>(arow: &[f32], b: &[f32], orow: &mut [f32], list: &mut Terms) {
    let mut acc = [0.0f32; W];
    for (k0, chunk) in (0..arow.len()).step_by(LIST).zip(arow.chunks(LIST)) {
        for &(kk, a_ik) in nonzeros(chunk, list) {
            let brow = &b[(k0 + kk as usize) * W..][..W];
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
    path: Path,
) {
    if n < NT {
        return by_width!(n, tn_narrow(a, b, out, k, cols.start));
    }
    match path {
        Path::Tile => {
            let m = a.len() / k;
            for i0 in (0..m).step_by(MB) {
                let steps = MB.min(m - i0);
                let (a, b) = (&a[i0 * k + cols.start..], &b[i0 * n..]);
                row_tiles!(cols.len(), tn_tile_rows(a, b, out, k, n, steps));
            }
        }
        Path::List => tn_list(a, b, out, k, n, cols),
    }
}

/// `R` rows of `matmul_tn`'s `out` from row `i` of the window, over the
/// `steps` rows of `a` and `b` given, every term added: step `t` reads
/// `R` adjacent columns of row `t` of `a` and row `t` of `b` in place,
/// and each tile starts from the partial sums `out` holds.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_tile_rows<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    steps: usize,
    i: usize,
) {
    let out = &mut out[i * n..];
    for (j, lanes) in panels(n) {
        let a = &a[i..];
        let factors = |t: usize| a[t * k..][..R].try_into().expect("R columns");
        tile::<R>(
            (0..steps).zip(b[j..].chunks(n)),
            factors,
            &mut out[j..],
            n,
            lanes,
        );
    }
}

/// The listed `matmul_tn`: each row's window of `a`, [`LIST`] columns at
/// a time, listed, and an axpy of the row of `b` into each listed row of
/// `out`.
#[inline(always)]
fn tn_list(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, cols: Range<usize>) {
    let mut list: Terms = [(0, 0.0); LIST];
    for (arow, brow) in a.chunks_exact(k).zip(b.chunks_exact(n)) {
        let window = &arow[cols.clone()];
        for (c0, chunk) in (0..window.len()).step_by(LIST).zip(window.chunks(LIST)) {
            for &(cc, a_ik) in nonzeros(chunk, &mut list) {
                let r = c0 + cc as usize;
                axpy(&mut out[r * n..(r + 1) * n], a_ik, brow);
            }
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
    row_tiles!(a.len() / k, nt_tile_rows(a, packed, out, k, n, j0));
}

/// `R` rows of `matmul_nt` from row `i` against every panel of `packed`,
/// the first at column `j0`: step `kk` reads column `kk` of the rows of
/// `a` and row `kk` of the packed panel.
#[inline(always)]
fn nt_tile_rows<const R: usize>(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    j0: usize,
    i: usize,
) {
    let a = &a[i * k..];
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let out = &mut out[i * n..];
    for (p, panel) in packed.chunks_exact(NR * k).enumerate() {
        let j = j0 + p * NR;
        let steps = (0..k).zip(panel.chunks_exact(NR));
        tile::<R>(
            steps,
            |kk| rows.map(|row| row[kk]),
            &mut out[j..],
            n,
            0..NR.min(n - j),
        );
    }
}
