//! One row-partitioned parallel-for over the host's cores.
//!
//! A kernel whose output is rows (`[N, F]` node features, `[E, F]` edge
//! features, a GEMM's `[m, n]`) hands [`for_rows`] its output and a
//! partition of the row range; each part computes whole output rows, every
//! element summed in the order the serial loop sums it. Which core runs a
//! row therefore changes no bit, and a kernel's result at any part count
//! equals its serial result.
//!
//! Everything thread-local stays on the calling thread: kernel records,
//! allocations, fault hooks and trace events are emitted before or after
//! the call, and the workers touch only the slices they are handed,
//! including any scratch, which the caller allocates. So the simulated
//! stream is the same at one core or many.
//!
//! The core count is read once from [`std::thread::available_parallelism`]
//! (which honours the affinity mask, so `taskset -c 0` gives one). There is
//! no setting: an op runs in parts only when its own work reaches
//! [`PAR_WORK`], so small ops (minibatches, serving batches) never pay for
//! a spawn.

use std::ops::Range;
use std::sync::OnceLock;

/// Work from which an op splits its rows across the host's cores, about
/// 3 ms of one core. The unit is one multiply-add of a GEMM whose register
/// blocks are full (each GEMM counts the multiply-adds it does; see
/// `gemm`); a kernel whose elements cost more counts each as [`SCALAR`]
/// units, so that equal work takes about equal time whatever the kernel.
/// From a sweep of the host benchmark at 8, 20 and 32 Mi on a 2-core host
/// (see `CHANGES.md`). A scoped spawn and join costs about 45 µs, but the
/// second core can start its part hundreds of µs late, so ops of a few ms
/// lost when split: sampled minibatches' 15–19 Mi GEMMs at 8 and 16 Mi, and
/// a 23 Mi serving GEMM at 20 Mi. Neither the threshold nor the spawn cost
/// has been measured with more than two cores, where an op spawns a thread
/// per core and each part of a scatter scans every index.
pub(crate) const PAR_WORK: usize = 32 << 20;

/// Work units per element of a kernel that handles its elements one at a
/// time rather than a vector of output elements at once: a row gather or
/// scatter, a dot product's add chain, an `exp`. One such element costs
/// about what an 8-lane vector of GEMM multiply-adds does.
pub(crate) const SCALAR: usize = 8;

/// The host's cores, read once.
pub(crate) fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The part count for an op of `work` units: one below [`PAR_WORK`], one
/// per core from it (with no upper limit; measured at two cores only).
pub(crate) fn parts(work: usize) -> usize {
    if work < PAR_WORK {
        1
    } else {
        threads()
    }
}

/// The part count for a kernel that handles `elements` elements one at a
/// time ([`SCALAR`] units each).
pub(crate) fn scalar_parts(elements: usize) -> usize {
    parts(SCALAR * elements)
}

/// First row of part `i` when `rows` rows split into `parts` near-equal
/// ranges.
pub(crate) fn even(rows: usize, parts: usize, i: usize) -> usize {
    i * rows / parts
}

/// First row of part `i` when rows are weighted by a CSR `indptr` (row `v`
/// weighs `indptr[v + 1] - indptr[v]` plus one for the row itself) and
/// split into `parts` ranges of near-equal weight.
pub(crate) fn balanced(indptr: &[u32], parts: usize, i: usize) -> usize {
    let rows = indptr.len() - 1;
    let total = indptr[rows] as usize + rows;
    let target = i * total / parts;
    // The first row whose end weight reaches the target; monotone in `v`.
    let weight_to = |v: usize| indptr[v] as usize + v;
    let (mut lo, mut hi) = (0, rows);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if weight_to(mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Runs `body(rows, out_rows, scratch)` once per part: part `i` owns rows
/// `bound(i)..bound(i + 1)` of `out` (`width` values a row) and the `i`-th
/// equal share of `scratch`. `bound(0)` must be `0`, `bound(parts)` the row
/// count, and `bound` non-decreasing. With one part this is a plain call;
/// otherwise part 0 runs on the calling thread and the others on scoped
/// threads, all joined before return. A panic in any part resumes on the
/// calling thread with that part's own payload (the lowest part's, if
/// several panic), so it reads the same at any core count.
pub(crate) fn for_rows<T: Send, S: Send>(
    parts: usize,
    bound: impl Fn(usize) -> usize,
    out: &mut [T],
    width: usize,
    scratch: &mut [S],
    body: impl Fn(Range<usize>, &mut [T], &mut [S]) + Sync,
) {
    if parts <= 1 {
        return body(0..bound(1), out, scratch);
    }
    let share = scratch.len() / parts;
    std::thread::scope(|s| {
        let body = &body;
        let (mut out, mut scratch) = (out, scratch);
        let mut first = None;
        let mut workers = Vec::with_capacity(parts - 1);
        for i in 0..parts {
            let rows = bound(i)..bound(i + 1);
            let (o, rest) = std::mem::take(&mut out).split_at_mut(rows.len() * width);
            let (sc, sc_rest) = std::mem::take(&mut scratch).split_at_mut(share);
            (out, scratch) = (rest, sc_rest);
            if i == 0 {
                first = Some((rows, o, sc));
            } else if !rows.is_empty() {
                workers.push(s.spawn(move || body(rows, o, sc)));
            }
        }
        if let Some((rows, o, sc)) = first {
            body(rows, o, sc);
        }
        // Joined by hand: the scope alone would replace a worker's payload
        // with its own message.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// `f(r, row)` for every `cols`-wide row `r` of `out`, in `parts` ranges of
/// near-equal row count.
pub(crate) fn each_row(
    parts: usize,
    out: &mut [f32],
    cols: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if cols == 0 {
        return;
    }
    let rows = out.len() / cols;
    let bound = |i| even(rows, parts, i);
    for_rows(parts, bound, out, cols, &mut [(); 0], |range, out, _| {
        for r in range.clone() {
            let i = r - range.start;
            f(r, &mut out[i * cols..(i + 1) * cols]);
        }
    });
}

/// A scatter: `f(r, row)` with row `idx[r]` of `out` (`cols` wide), for
/// every `r` in ascending order. Each of the `parts` owns a range of
/// near-equal row count and scans every index for its own rows, so each
/// row sees its `r`s in the same order at any part count.
pub(crate) fn scatter_rows(
    parts: usize,
    idx: &[u32],
    out: &mut [f32],
    cols: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if cols == 0 {
        return;
    }
    let rows = out.len() / cols;
    let bound = |i| even(rows, parts, i);
    for_rows(parts, bound, out, cols, &mut [(); 0], |range, out, _| {
        for (r, &i) in idx.iter().enumerate() {
            let i = i as usize;
            if range.contains(&i) {
                let i = i - range.start;
                f(r, &mut out[i * cols..(i + 1) * cols]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_bounds_cover_every_row_once() {
        for rows in [0, 1, 2, 5, 19717] {
            for parts in [1, 2, 3, 7] {
                let b: Vec<usize> = (0..=parts).map(|i| even(rows, parts, i)).collect();
                assert_eq!((b[0], b[parts]), (0, rows));
                assert!(b
                    .windows(2)
                    .all(|w| w[0] <= w[1] && w[1] - w[0] <= rows / parts + 1));
            }
        }
    }

    #[test]
    fn balanced_bounds_split_the_weight() {
        // One heavy row (100 edges) among nine empty ones.
        let mut indptr = vec![0u32; 11];
        indptr[4..].fill(100);
        for parts in [1, 2, 3, 7] {
            let b: Vec<usize> = (0..=parts).map(|i| balanced(&indptr, parts, i)).collect();
            assert_eq!((b[0], b[parts]), (0, 10));
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
        }
        assert_eq!(
            balanced(&indptr, 2, 1),
            4,
            "the heavy row closes the first half"
        );
        assert_eq!(balanced(&[0], 3, 2), 0, "no rows");
    }

    #[test]
    fn parts_get_their_rows_and_scratch_share() {
        for parts in [1, 2, 3, 7] {
            let mut out = vec![0usize; 5 * 2];
            let mut scratch = vec![0u8; parts * 4];
            for_rows(
                parts,
                |i| even(5, parts, i),
                &mut out,
                2,
                &mut scratch,
                |rows, o, sc| {
                    assert_eq!((o.len(), sc.len()), (rows.len() * 2, 4));
                    for (r, orow) in rows.zip(o.chunks_exact_mut(2)) {
                        orow.fill(r);
                    }
                },
            );
            assert_eq!(out, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        }
    }

    /// A worker's panic reaches the caller with its own message, as the
    /// same panic in part 0 or on one core would.
    #[test]
    #[should_panic(expected = "row 3 out of bounds")]
    fn a_worker_panic_keeps_its_payload() {
        let mut out = vec![0u8; 4];
        for_rows(
            2,
            |i| even(4, 2, i),
            &mut out,
            1,
            &mut [(); 0],
            |rows, _, _| {
                if rows.contains(&3) {
                    panic!("row 3 out of bounds");
                }
            },
        );
    }
}
