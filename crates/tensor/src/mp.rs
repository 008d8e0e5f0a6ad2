//! Fused message passing over a destination-grouped CSR.
//!
//! Both frameworks compute their sparse aggregations here. A kernel takes
//! the [`Edges`] and a [`Lowering`]: the lowering decides what is
//! *recorded* — the simulated kernels, allocations and host charges of the
//! framework's own formulation, such as PyG's gather → edge op → scatter
//! with its per-edge `[E, F]` tensors or DGL's frame writes and one GSpMM —
//! and this module decides how the op is *computed*: one pass over each
//! destination's in-edges, with no `[E, F]` buffer forward or backward.
//!
//! **Bits.** A kernel returns exactly what the unfused tensor-op chain
//! returns. A destination row sums its in-edges in ascending edge id from
//! `0.0`, as `scatter_add_rows` does (the CSC is a stable sort); a
//! source-side gradient sums in ascending edge id per source, as the
//! backward of `gather_rows` does; products keep the chain's operand order.
//!
//! **Events.** The fused op is one tape node standing in for a chain of
//! them. Its lowering replays, in order, every event the chain emits:
//! allocations of per-edge tensors that are never built included, and
//! [`charge_node`] for each chain node beyond the one the engine charges.
//! The tape's post-order walk pops a chain's nodes one after another, and
//! the fused node lists its parents in the order the chain reaches them,
//! so the rest of the walk is unchanged.

use std::ops::Range;

use gnn_graph::Csc;

pub use crate::autograd::charge_node;
use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;
use crate::ops::index::scatter_add_raw;
use crate::ops::Ids;
use crate::par;

/// The edges an op runs over: edge `e` carries `src[e] -> dst[e]`, and
/// `csc` ([`Csc::from_coo`] of the two) groups them by destination.
#[derive(Debug, Clone, Copy)]
pub struct Edges<'a> {
    /// Source row of every edge.
    pub src: &'a Ids,
    /// Destination row of every edge.
    pub dst: &'a Ids,
    /// The same edges grouped by destination.
    pub csc: &'a Csc,
}

/// The sizes of one op, as its lowering sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Edge count `E`.
    pub edges: usize,
    /// Rows of the node operand the messages read.
    pub in_rows: usize,
    /// Feature width `F`.
    pub cols: usize,
    /// Width `H` of the edge operand (`0` when there is none).
    pub heads: usize,
}

impl Shape {
    /// The part count of the op's `[E, F]` loop.
    fn parts(self) -> usize {
        par::scalar_parts(self.edges * self.cols)
    }
}

/// The simulated events of one framework's formulation of an op.
pub trait Lowering {
    /// Emits the forward events up to the output's allocation, which the op
    /// registers itself as every tensor op does.
    fn forward(&self, shape: Shape);

    /// Emits the backward events after the engine's charge for the fused
    /// node. `grad(i)` computes and accumulates parent `i`'s gradient (a
    /// no-op unless `needs[i]`), wherever the lowering's order puts it.
    fn backward(&self, shape: Shape, needs: [bool; 2], grad: &mut dyn FnMut(usize));
}

#[derive(Clone, Copy)]
enum Pattern {
    CopyUSum,
    UMulESum,
    UAddV,
}

struct MpBack {
    pattern: Pattern,
    src: Ids,
    dst: Ids,
    shape: Shape,
    lowering: &'static dyn Lowering,
}

impl Backward for MpBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let needs = [
            parents[0].needs_grad(),
            parents.get(1).is_some_and(Tensor::needs_grad),
        ];
        let (src, dst) = (&self.src[..], &self.dst[..]);
        let parts = self.shape.parts();
        self.lowering.backward(self.shape, needs, &mut |i| {
            if !needs[i] {
                return;
            }
            let g = match (self.pattern, i) {
                (Pattern::CopyUSum, _) => {
                    scatter_sum(grad, None, src, dst, self.shape.in_rows, parts)
                }
                (Pattern::UMulESum, 0) => {
                    let w = parents[1].data();
                    scatter_sum(grad, Some(&w), src, dst, self.shape.in_rows, parts)
                }
                (Pattern::UMulESum, _) => {
                    let x = parents[0].data();
                    edge_dots(grad, &x, src, dst, self.shape.heads, parts)
                }
                (Pattern::UAddV, 0) => scatter_add_raw(grad, src, self.shape.in_rows),
                (Pattern::UAddV, _) => scatter_add_raw(grad, dst, parents[1].shape().0),
            };
            accumulate(&parents[i], g);
        });
    }
    fn name(&self) -> &'static str {
        match self.pattern {
            Pattern::CopyUSum => "copy_u_sum",
            Pattern::UMulESum => "u_mul_e_sum",
            Pattern::UAddV => "u_add_v",
        }
    }
}

/// `x[s] · w[e, h]` accumulated into `out` head block by head block; an
/// unweighted message scales by `1.0`, which is `x` bit for bit. Callers
/// pass a literal `None` for unweighted sums, so that once inlined those
/// compile to plain adds.
#[inline(always)]
fn add_scaled(out: &mut [f32], x: &[f32], w: Option<&NdArray>, e: usize) {
    let heads = w.map_or(1, NdArray::cols);
    let d = x.len() / heads;
    for h in 0..heads {
        let wv = w.map_or(1.0, |w| w.at(e, h));
        for (o, &xv) in out[h * d..(h + 1) * d].iter_mut().zip(&x[h * d..]) {
            *o += xv * wv;
        }
    }
}

/// `out[v] = Σ_{e: src_e → v} x[src_e] · w[e]`, per destination in
/// ascending `e`; in `parts` destination ranges of near-equal edge count.
fn gather_sum(x: &NdArray, w: Option<&NdArray>, csc: &Csc, parts: usize) -> NdArray {
    let cols = x.cols();
    let mut out = NdArray::zeros(csc.num_dst(), cols);
    if cols == 0 {
        return out;
    }
    let bound = |i| par::balanced(&csc.indptr, parts, i);
    par::for_rows(
        parts,
        bound,
        out.data_mut(),
        cols,
        &mut [(); 0],
        |dsts, out, _| match w {
            None => sum_in_edges(x, None, csc, dsts, out),
            Some(w) => sum_in_edges(x, Some(w), csc, dsts, out),
        },
    );
    out
}

/// Rows `dsts` of [`gather_sum`]'s output, which `out` holds.
#[inline(always)]
fn sum_in_edges(x: &NdArray, w: Option<&NdArray>, csc: &Csc, dsts: Range<usize>, out: &mut [f32]) {
    let cols = x.cols();
    for v in dsts.clone() {
        let range = csc.indptr[v] as usize..csc.indptr[v + 1] as usize;
        let row = &mut out[(v - dsts.start) * cols..(v - dsts.start + 1) * cols];
        for (&s, &e) in csc.src[range.clone()].iter().zip(&csc.edge_ids[range]) {
            add_scaled(row, x.row(s as usize), w, e as usize);
        }
    }
}

/// The source-side gradient of [`gather_sum`]:
/// `dx[src_e] += g[dst_e] · w[e]` in ascending `e`, in `parts` source
/// ranges.
fn scatter_sum(
    g: &NdArray,
    w: Option<&NdArray>,
    src: &[u32],
    dst: &[u32],
    rows: usize,
    parts: usize,
) -> NdArray {
    let mut dx = NdArray::zeros(rows, g.cols());
    let (cols, out) = (g.cols(), dx.data_mut());
    match w {
        None => par::scatter_rows(parts, src, out, cols, |e, row| {
            add_scaled(row, g.row(dst[e] as usize), None, e);
        }),
        Some(w) => par::scatter_rows(parts, src, out, cols, |e, row| {
            add_scaled(row, g.row(dst[e] as usize), Some(w), e);
        }),
    }
    dx
}

/// The edge-side gradient of [`gather_sum`]: `dw[e, h]` is the dot product
/// of head `h`'s blocks of `g[dst_e]` and `x[src_e]`, summed from `0.0` —
/// or, for one-column heads, the product itself, as the elementwise `mul`
/// rule computes it. In `parts` edge ranges.
fn edge_dots(
    g: &NdArray,
    x: &NdArray,
    src: &[u32],
    dst: &[u32],
    heads: usize,
    parts: usize,
) -> NdArray {
    let d = g.cols() / heads;
    let mut dw = NdArray::zeros(src.len(), heads);
    par::each_row(parts, dw.data_mut(), heads, |e, dwr| {
        let (gr, xr) = (g.row(dst[e] as usize), x.row(src[e] as usize));
        for (h, out) in dwr.iter_mut().enumerate() {
            let block = gr[h * d..(h + 1) * d].iter().zip(&xr[h * d..]);
            *out = match d {
                1 => gr[h] * xr[h],
                _ => block.fold(0.0, |acc, (&gv, &xv)| acc + gv * xv),
            };
        }
    });
    dw
}

/// `out[e] = u[src_e] + v[dst_e]`.
fn add_ends(u: &NdArray, v: &NdArray, src: &[u32], dst: &[u32]) -> NdArray {
    let mut out = NdArray::zeros(src.len(), u.cols());
    for (e, (&s, &t)) in src.iter().zip(dst).enumerate() {
        let ends = u.row(s as usize).iter().zip(v.row(t as usize));
        for (o, (&a, &b)) in out.row_mut(e).iter_mut().zip(ends) {
            *o = a + b;
        }
    }
    out
}

/// Emits the lowering's forward events, computes the output and records
/// the fused node.
fn fused(
    pattern: Pattern,
    edges: Edges<'_>,
    parents: Vec<Tensor>,
    lowering: &'static dyn Lowering,
) -> Tensor {
    let e = edges.src.len();
    assert!(
        edges.dst.len() == e && edges.csc.edge_ids.len() == e,
        "mp: src, dst and CSC disagree on the edge count"
    );
    let (in_rows, cols) = parents[0].shape();
    let heads = match pattern {
        Pattern::UMulESum => parents[1].shape().1,
        _ => 0,
    };
    let shape = Shape {
        edges: e,
        in_rows,
        cols,
        heads,
    };
    lowering.forward(shape);
    let out = {
        let x = parents[0].data();
        match pattern {
            Pattern::CopyUSum => gather_sum(&x, None, edges.csc, shape.parts()),
            Pattern::UMulESum => gather_sum(&x, Some(&parents[1].data()), edges.csc, shape.parts()),
            Pattern::UAddV => add_ends(&x, &parents[1].data(), edges.src, edges.dst),
        }
    };
    let back = MpBack {
        pattern,
        src: edges.src.clone(),
        dst: edges.dst.clone(),
        shape,
        lowering,
    };
    Tensor::from_op(out, parents, Box::new(back))
}

/// Copy-from-source, sum-by-destination:
/// `out[v] = Σ_{e: src_e → v} x[src_e]`, `[csc.num_dst(), F]`.
///
/// # Panics
///
/// Panics if the edge arrays disagree or a source is not a row of `x`.
pub fn copy_u_sum(edges: Edges<'_>, x: &Tensor, lowering: &'static dyn Lowering) -> Tensor {
    fused(Pattern::CopyUSum, edges, vec![x.clone()], lowering)
}

/// Multiply-by-edge, sum-by-destination:
/// `out[v, h·D+k] = Σ_{e: src_e → v} x[src_e, h·D+k] · w[e, h]`,
/// `[csc.num_dst(), F]`. `w` is `[E, H]` with `F` divisible by `H`: `H = 1`
/// scales whole messages (MoNet), `H = heads` each head's block (GAT),
/// `H = F` each element (GatedGCN's gates).
///
/// # Panics
///
/// Panics on shape mismatch, if the edge arrays disagree, or if a source is
/// not a row of `x`.
pub fn u_mul_e_sum(
    edges: Edges<'_>,
    x: &Tensor,
    w: &Tensor,
    lowering: &'static dyn Lowering,
) -> Tensor {
    let ((_, cols), (w_rows, heads)) = (x.shape(), w.shape());
    assert_eq!(w_rows, edges.src.len(), "mp: edge weight rows mismatch");
    assert!(
        heads > 0 && cols.is_multiple_of(heads),
        "mp: cols {cols} not divisible by heads {heads}"
    );
    fused(
        Pattern::UMulESum,
        edges,
        vec![x.clone(), w.clone()],
        lowering,
    )
}

/// Per-edge sum of both endpoints: `out[e] = u[src_e] + v[dst_e]`, `[E, F]`.
///
/// # Panics
///
/// Panics if `u` and `v` differ in width, the edge arrays disagree, or an
/// endpoint is not a row of its operand.
pub fn u_add_v(
    edges: Edges<'_>,
    u: &Tensor,
    v: &Tensor,
    lowering: &'static dyn Lowering,
) -> Tensor {
    assert_eq!(
        u.shape().1,
        v.shape().1,
        "mp: u_add_v operand widths differ"
    );
    fused(Pattern::UAddV, edges, vec![u.clone(), v.clone()], lowering)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 values over several binades, with `-0.0` and NaN.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn array(&mut self, rows: usize, cols: usize) -> NdArray {
            let data = (0..rows * cols)
                .map(|_| match self.below(12) {
                    0 => -0.0,
                    1 => f32::NAN,
                    b => (self.below(1 << 20) as f32 - (1 << 19) as f32) * 2f32.powi(b as i32 - 24),
                })
                .collect();
            NdArray::from_vec(rows, cols, data)
        }
    }

    fn bits(a: &NdArray) -> Vec<u32> {
        a.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every kernel at 2, 3 and 7 parts against its serial run: destination
    /// ranges balanced on the CSC, source ranges that scan every edge, and
    /// edge ranges; on bipartite blocks, rows with no edge, `E = 0` and
    /// more parts than rows.
    #[test]
    fn parts_equal_the_serial_kernels() {
        let mut rng = Rng(30);
        for case in 0..64 {
            let (n_in, n_out) = (1 + rng.below(9), 1 + rng.below(9));
            let edges = if case % 8 == 0 { 0 } else { rng.below(40) };
            // Half the edges on row 0, so one destination outweighs the rest.
            let dst: Vec<u32> = (0..edges)
                .map(|_| {
                    if rng.below(2) == 0 {
                        0
                    } else {
                        rng.below(n_out) as u32
                    }
                })
                .collect();
            let src: Vec<u32> = (0..edges).map(|_| rng.below(n_in) as u32).collect();
            let csc = Csc::from_coo(n_out, &src, &dst);
            let heads = 1 + rng.below(3);
            let cols = heads * (1 + rng.below(3));
            let x = rng.array(n_in, cols);
            let w = rng.array(edges, heads);
            let g = rng.array(n_out, cols);
            let serial = [
                bits(&gather_sum(&x, None, &csc, 1)),
                bits(&gather_sum(&x, Some(&w), &csc, 1)),
                bits(&scatter_sum(&g, Some(&w), &src, &dst, n_in, 1)),
                bits(&edge_dots(&g, &x, &src, &dst, heads, 1)),
            ];
            for parts in [2, 3, 7] {
                let parted = [
                    bits(&gather_sum(&x, None, &csc, parts)),
                    bits(&gather_sum(&x, Some(&w), &csc, parts)),
                    bits(&scatter_sum(&g, Some(&w), &src, &dst, n_in, parts)),
                    bits(&edge_dots(&g, &x, &src, &dst, heads, parts)),
                ];
                let names = ["copy_u_sum", "u_mul_e_sum", "scatter_sum", "edge_dots"];
                for ((name, got), want) in names.iter().zip(&parted).zip(&serial) {
                    assert_eq!(got, want, "case {case}: {name} in {parts} parts");
                }
            }
        }
    }
}
