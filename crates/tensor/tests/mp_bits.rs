//! Bit parity of the fused message-passing kernels of `gnn_tensor::mp`.
//!
//! Each kernel runs under each framework's lowering next to the code it
//! replaces, and the two must agree bit for bit: on the forward output, on
//! every parent's gradient, and on the whole simulated event stream under a
//! `Session` — each kernel's name, kind, FLOPs and bytes, each allocation
//! and each host charge, in order.
//!
//! - PyG (`rustyg::message`) is compared on everything with the tensor-op
//!   chain it stands for, `gather_rows → edge op → scatter_add_rows`.
//! - DGL (`rgl::kernels`) is compared with the same chain on values and
//!   gradients, and on events with the fused host kernels `rgl` ran before
//!   `mp`, kept below as the reference `old_rgl`.
//!
//! Cases cover duplicate edges, self-loops, rows with no in-edge, `E = 0`,
//! bipartite blocks (output rows ≠ input rows), edge weights of width
//! `H ∈ {1, mid, F}`, and values that include `-0.0` and NaN. Every case
//! runs forward and backward twice, so the second pass accumulates into
//! gradients that already exist.

use std::rc::Rc;

use gnn_device::{session, CostModel, Session};
use gnn_graph::Csc;
use gnn_obs::{Collector, EventKind};
use gnn_tensor::mp::{self, Edges};
use gnn_tensor::{Ids, NdArray, Tensor};
use proptest::prelude::*;

/// SplitMix64: the case generator's own stream, so a case is a seed.
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

    /// Magnitudes over sixteen binades, so a sum's bits depend on its
    /// order; with `specials`, also zeros of both signs and NaN.
    fn value(&mut self, specials: bool) -> f32 {
        if specials {
            match self.below(10) {
                0 => return -0.0,
                1 => return 0.0,
                2 => return f32::NAN,
                _ => {}
            }
        }
        let mantissa = 1.0 + self.below(1 << 20) as f32 / (1 << 20) as f32;
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * mantissa * 2f32.powi(self.below(16) as i32 - 8)
    }

    fn array(&mut self, rows: usize, cols: usize, specials: bool) -> NdArray {
        let data = (0..rows * cols).map(|_| self.value(specials)).collect();
        NdArray::from_vec(rows, cols, data)
    }
}

/// One generated graph and operand set.
struct Case {
    src: Ids,
    dst: Ids,
    csc: Csc,
    n_in: usize,
    n_out: usize,
    cols: usize,
    heads: usize,
    rng: Rng,
    specials: bool,
}

impl Case {
    /// `width` picks the edge operand: 0 → `H = 1` (with `F ≥ 2`), 1 → a
    /// middle `H` with at least two columns per head, 2 → `H = F`.
    fn new(seed: u64, width: usize) -> Case {
        let mut rng = Rng(seed);
        let bipartite = rng.below(3) == 0;
        let n_in = 1 + rng.below(6);
        let n_out = if bipartite { 1 + rng.below(6) } else { n_in };
        let edges = if rng.below(8) == 0 { 0 } else { rng.below(24) };
        // Half the edges land on row 0, so some row sums many messages;
        // the other rows often get none.
        let dst: Vec<u32> = (0..edges)
            .map(|_| match rng.below(2) {
                0 => 0,
                _ => rng.below(n_out) as u32,
            })
            .collect();
        let src: Vec<u32> = dst
            .iter()
            .map(|&d| match rng.below(4) {
                0 if !bipartite => d, // a self-loop
                _ => rng.below(n_in) as u32,
            })
            .collect();
        let (cols, heads) = match width {
            0 => (2 + rng.below(4), 1),
            1 => {
                let h = 2 + rng.below(2);
                (h * (2 + rng.below(2)), h)
            }
            _ => {
                let f = 1 + rng.below(5);
                (f, f)
            }
        };
        let specials = rng.below(2) == 0;
        Case {
            csc: Csc::from_coo(n_out, &src, &dst),
            src: Rc::new(src),
            dst: Rc::new(dst),
            n_in,
            n_out,
            cols,
            heads,
            rng,
            specials,
        }
    }

    fn edges(&self) -> Edges<'_> {
        Edges {
            src: &self.src,
            dst: &self.dst,
            csc: &self.csc,
        }
    }

    fn array(&mut self, rows: usize, cols: usize) -> NdArray {
        self.rng.array(rows, cols, self.specials)
    }

    /// Which parents take gradients: both, either, or neither.
    fn needs(&mut self) -> [bool; 2] {
        [[true, true], [true, false], [false, true], [false, false]][self.rng.below(4)]
    }
}

/// Everything one run observes, as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    out: Vec<u32>,
    grads: Vec<Option<Vec<u32>>>,
    /// Kernel slices (name, kind, FLOPs, bytes, timing) and device-memory
    /// samples, in emission order.
    events: Vec<String>,
    /// Host charges and launches on the device timeline, in order.
    schedule: Vec<String>,
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` over leaves holding `values` (trainable where `needs` says)
/// forward and backward twice under a fresh session and trace collector.
fn observe(
    values: &[NdArray],
    needs: &[bool],
    seed: &NdArray,
    op: impl Fn(&[Tensor]) -> Tensor,
) -> Observed {
    let trace = gnn_obs::install(Collector::new());
    let device = session::install(Session::new(CostModel::rtx2080ti()));
    let leaves: Vec<Tensor> = values
        .iter()
        .zip(needs)
        .map(|(v, &need)| match need {
            true => Tensor::param(v.clone()),
            false => Tensor::new(v.clone()),
        })
        .collect();
    let mut out = Vec::new();
    for _ in 0..2 {
        let y = op(&leaves);
        out = bits(&y.data());
        y.backward_with(seed.clone());
    }
    session::finish(device);
    let trace = gnn_obs::finish(trace);
    let events = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Complete { .. } | EventKind::Counter { .. }
            )
        })
        .map(|e| format!("{} {:?} @{:x}", e.track, e.kind, e.sim.to_bits()))
        .collect();
    let schedule = trace
        .schedule
        .iter()
        .map(|s| format!("{:?}", s.op))
        .collect();
    Observed {
        out,
        grads: leaves.iter().map(|t| t.grad().map(|g| bits(&g))).collect(),
        events,
        schedule,
    }
}

/// `gather_rows → edge op → scatter_add_rows`, the edge op picked by the
/// weight's width as the frameworks' callers pick it.
fn chain(case: &Case, x: &Tensor, w: Option<&Tensor>) -> Tensor {
    let msg = x.gather_rows(&case.src);
    let msg = match w {
        None => msg,
        Some(w) if case.heads == case.cols => msg.mul(w),
        Some(w) if case.heads == 1 => msg.mul_col(w),
        Some(w) => msg.mul_per_head(w, case.heads),
    };
    msg.scatter_add_rows(&case.dst, case.n_out)
}

fn pyg_mul(case: &Case) -> &'static rustyg::message::GatherScatter {
    match case.heads {
        h if h == case.cols => &rustyg::message::MUL,
        1 => &rustyg::message::MUL_COL,
        _ => &rustyg::message::MUL_PER_HEAD,
    }
}

fn same_values(fused: &Observed, reference: &Observed, what: &str) -> Result<(), String> {
    prop_assert_eq!(&fused.out, &reference.out, "{}: forward bits", what);
    prop_assert_eq!(&fused.grads, &reference.grads, "{}: gradient bits", what);
    Ok(())
}

fn same_events(fused: &Observed, reference: &Observed, what: &str) -> Result<(), String> {
    for (i, (a, b)) in fused.events.iter().zip(&reference.events).enumerate() {
        prop_assert_eq!(a, b, "{}: event {}", what, i);
    }
    prop_assert_eq!(
        fused.events.len(),
        reference.events.len(),
        "{}: event count",
        what
    );
    prop_assert_eq!(
        &fused.schedule,
        &reference.schedule,
        "{}: host/launch schedule",
        what
    );
    Ok(())
}

fn copy_u_sum_case(seed: u64) -> Result<(), String> {
    let mut case = Case::new(seed, 0);
    let x = [case.array(case.n_in, case.cols)];
    let seed_grad = case.array(case.n_out, case.cols);
    let needs = [case.needs()[0]];
    let run = |op: &dyn Fn(&Tensor) -> Tensor| observe(&x, &needs, &seed_grad, |p| op(&p[0]));
    let unfused = run(&|x| chain(&case, x, None));
    let pyg = run(&|x| mp::copy_u_sum(case.edges(), x, &rustyg::message::COPY));
    same_values(&pyg, &unfused, "copy_u_sum/pyg")?;
    same_events(&pyg, &unfused, "copy_u_sum/pyg")?;
    let dgl = run(&|x| mp::copy_u_sum(case.edges(), x, &rgl::kernels::CopySum));
    same_values(&dgl, &unfused, "copy_u_sum/dgl")?;
    same_events(
        &dgl,
        &run(&|x| old_rgl::copy_sum(&case, x)),
        "copy_u_sum/dgl",
    )
}

fn u_mul_e_sum_case(seed: u64, width: usize) -> Result<(), String> {
    let mut case = Case::new(seed, width);
    let values = [
        case.array(case.n_in, case.cols),
        case.array(case.src.len(), case.heads),
    ];
    let seed_grad = case.array(case.n_out, case.cols);
    let needs = case.needs();
    let run = |op: &dyn Fn(&Tensor, &Tensor) -> Tensor| {
        observe(&values, &needs, &seed_grad, |p| op(&p[0], &p[1]))
    };
    let unfused = run(&|x, w| chain(&case, x, Some(w)));
    let pyg = run(&|x, w| mp::u_mul_e_sum(case.edges(), x, w, pyg_mul(&case)));
    same_values(&pyg, &unfused, "u_mul_e_sum/pyg")?;
    same_events(&pyg, &unfused, "u_mul_e_sum/pyg")?;
    let dgl = run(&|x, w| mp::u_mul_e_sum(case.edges(), x, w, &rgl::kernels::MulSum));
    same_values(&dgl, &unfused, "u_mul_e_sum/dgl")?;
    same_events(
        &dgl,
        &run(&|x, w| old_rgl::mul_sum(&case, x, w)),
        "u_mul_e_sum/dgl",
    )
}

fn u_add_v_case(seed: u64) -> Result<(), String> {
    let mut case = Case::new(seed, 2);
    let values = [
        case.array(case.n_in, case.cols),
        case.array(case.n_out, case.cols),
    ];
    let seed_grad = case.array(case.src.len(), case.cols);
    let needs = case.needs();
    // On a square graph, sometimes both operands are one tensor, so its
    // gradient is accumulated twice within one rule.
    let shared = case.n_in == case.n_out && case.rng.below(3) == 0;
    let run = |op: &dyn Fn(&Tensor, &Tensor) -> Tensor| {
        observe(&values, &needs, &seed_grad, |p| {
            op(&p[0], if shared { &p[0] } else { &p[1] })
        })
    };
    let unfused = run(&|u, v| u.gather_rows(&case.src).add(&v.gather_rows(&case.dst)));
    let dgl = run(&|u, v| mp::u_add_v(case.edges(), u, v, &rgl::kernels::AddUV));
    same_values(&dgl, &unfused, "u_add_v/dgl")?;
    same_events(
        &dgl,
        &run(&|u, v| old_rgl::u_add_v(&case, u, v)),
        "u_add_v/dgl",
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn copy_u_sum_matches_what_it_replaces(seed in 0u64..u64::MAX) {
        copy_u_sum_case(seed)?;
    }

    #[test]
    fn u_mul_e_sum_matches_what_it_replaces(seed in 0u64..u64::MAX, width in 0usize..3) {
        u_mul_e_sum_case(seed, width)?;
    }

    #[test]
    fn u_add_v_matches_what_it_replaces(seed in 0u64..u64::MAX) {
        u_add_v_case(seed)?;
    }
}

/// One graph at PubMed's layer-1 GAT width with `E·F` well above the part
/// threshold, so on a host with more than one core the fused kernels and
/// the chain's gather and scatter all run in parts: the two must still
/// agree on every bit and event.
#[test]
fn above_the_part_threshold_matches_the_chain() {
    let mut rng = Rng(28);
    let (nodes, edges, cols, heads) = (4096, 20_000, 256, 8);
    let dst: Vec<u32> = (0..edges).map(|_| rng.below(nodes) as u32).collect();
    let src: Vec<u32> = (0..edges).map(|_| rng.below(nodes) as u32).collect();
    let mut case = Case {
        csc: Csc::from_coo(nodes, &src, &dst),
        src: Rc::new(src),
        dst: Rc::new(dst),
        n_in: nodes,
        n_out: nodes,
        cols,
        heads,
        rng,
        specials: true,
    };
    let x = case.array(nodes, cols);
    let w = case.array(edges, heads);
    let seed_grad = case.array(nodes, cols);

    let copy = |op: &dyn Fn(&Tensor) -> Tensor| {
        observe(std::slice::from_ref(&x), &[true], &seed_grad, |p| op(&p[0]))
    };
    let unfused = copy(&|x| chain(&case, x, None));
    let pyg = copy(&|x| mp::copy_u_sum(case.edges(), x, &rustyg::message::COPY));
    same_values(&pyg, &unfused, "copy_u_sum/pyg").unwrap();
    same_events(&pyg, &unfused, "copy_u_sum/pyg").unwrap();

    let values = [x.clone(), w];
    let mul = |op: &dyn Fn(&Tensor, &Tensor) -> Tensor| {
        observe(&values, &[true, true], &seed_grad, |p| op(&p[0], &p[1]))
    };
    let unfused = mul(&|x, w| chain(&case, x, Some(w)));
    let pyg = mul(&|x, w| mp::u_mul_e_sum(case.edges(), x, w, pyg_mul(&case)));
    same_values(&pyg, &unfused, "u_mul_e_sum/pyg").unwrap();
    same_events(&pyg, &unfused, "u_mul_e_sum/pyg").unwrap();
    let dgl = mul(&|x, w| mp::u_mul_e_sum(case.edges(), x, w, &rgl::kernels::MulSum));
    same_values(&dgl, &unfused, "u_mul_e_sum/dgl").unwrap();
}

/// The fused host kernels `rgl` ran before `mp`, from their last version:
/// the reference for the DGL lowerings' events. Only the row counts are
/// generalized to bipartite blocks (`x`'s rows for the source side, the
/// case's output rows for the destination side).
#[allow(clippy::needless_range_loop)]
mod old_rgl {
    use gnn_device::{host, record, Kernel, KernelKind};
    use gnn_tensor::{accumulate, Backward, Ids, NdArray, Tensor};
    use rgl::costs;

    use super::Case;

    fn frame_write(rows: usize, cols: usize) {
        gnn_device::alloc((4 * rows * cols) as u64);
        record(Kernel::elementwise("frame_write", rows * cols, 0, 2));
        host(costs::FRAME_WRITE_PER_ROW * rows as f64);
    }

    fn spmm_kernel(name: &'static str, edges: usize, cols: usize, mul: bool) -> Kernel {
        let elems = edges as u64 * cols as u64;
        Kernel::new(
            name,
            KernelKind::SpMM,
            if mul { 2 * elems } else { elems },
            8 * elems + 8 * edges as u64 + if mul { 4 * edges as u64 } else { 0 },
        )
    }

    fn sddmm_kernel(name: &'static str, edges: usize, cols: usize) -> Kernel {
        let elems = edges as u64 * cols as u64;
        Kernel::new(
            name,
            KernelKind::SDDMM,
            elems,
            12 * elems + 8 * edges as u64,
        )
    }

    fn copy_sum_raw(x: &NdArray, src: &[u32], dst: &[u32], out_rows: usize) -> NdArray {
        let cols = x.cols();
        let mut out = NdArray::zeros(out_rows, cols);
        for e in 0..src.len() {
            let (s, d) = (src[e] as usize, dst[e] as usize);
            for c in 0..cols {
                out.data_mut()[d * cols + c] += x.data()[s * cols + c];
            }
        }
        out
    }

    struct CopySumBack {
        src: Ids,
        dst: Ids,
        in_rows: usize,
    }

    impl Backward for CopySumBack {
        fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
            host(costs::OP_DISPATCH);
            record(spmm_kernel(
                "gspmm_copy_sum_back",
                self.src.len(),
                grad.cols(),
                false,
            ));
            accumulate(
                &parents[0],
                copy_sum_raw(grad, &self.dst, &self.src, self.in_rows),
            );
        }
        fn name(&self) -> &'static str {
            "gspmm_copy_sum"
        }
    }

    pub fn copy_sum(case: &Case, x: &Tensor) -> Tensor {
        let xv = x.data();
        host(costs::OP_DISPATCH);
        frame_write(xv.rows(), xv.cols());
        record(spmm_kernel(
            "gspmm_copy_sum",
            case.src.len(),
            xv.cols(),
            false,
        ));
        let out = copy_sum_raw(&xv, &case.src, &case.dst, case.n_out);
        Tensor::from_op(
            out,
            vec![x.clone()],
            Box::new(CopySumBack {
                src: case.src.clone(),
                dst: case.dst.clone(),
                in_rows: xv.rows(),
            }),
        )
    }

    struct MulSumBack {
        src: Ids,
        dst: Ids,
    }

    impl Backward for MulSumBack {
        fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
            let (x, w) = (parents[0].data(), parents[1].data());
            let cols = grad.cols();
            let heads = w.cols();
            let d = cols / heads;
            host(costs::OP_DISPATCH);
            if parents[0].needs_grad() {
                record(spmm_kernel(
                    "gspmm_mul_sum_back_x",
                    self.src.len(),
                    cols,
                    true,
                ));
                let mut dx = NdArray::zeros(x.rows(), cols);
                for e in 0..self.src.len() {
                    let (s, dn) = (self.src[e] as usize, self.dst[e] as usize);
                    for h in 0..heads {
                        for k in 0..d {
                            *dx.at_mut(s, h * d + k) += w.at(e, h) * grad.at(dn, h * d + k);
                        }
                    }
                }
                accumulate(&parents[0], dx);
            }
            if parents[1].needs_grad() {
                record(sddmm_kernel("gsddmm_dot_back_w", self.src.len(), cols));
                let mut dw = NdArray::zeros(self.src.len(), heads);
                for e in 0..self.src.len() {
                    let (s, dn) = (self.src[e] as usize, self.dst[e] as usize);
                    for h in 0..heads {
                        let mut acc = 0.0;
                        for k in 0..d {
                            acc += grad.at(dn, h * d + k) * x.at(s, h * d + k);
                        }
                        *dw.at_mut(e, h) = acc;
                    }
                }
                accumulate(&parents[1], dw);
            }
        }
        fn name(&self) -> &'static str {
            "gspmm_mul_sum"
        }
    }

    pub fn mul_sum(case: &Case, x: &Tensor, w: &Tensor) -> Tensor {
        let (xv, wv) = (x.data(), w.data());
        let heads = wv.cols();
        let d = xv.cols() / heads;
        host(costs::OP_DISPATCH);
        frame_write(xv.rows(), xv.cols());
        frame_write(case.src.len(), heads);
        record(spmm_kernel(
            "gspmm_mul_sum",
            case.src.len(),
            xv.cols(),
            true,
        ));
        let mut out = NdArray::zeros(case.n_out, xv.cols());
        for e in 0..case.src.len() {
            let (s, dn) = (case.src[e] as usize, case.dst[e] as usize);
            for h in 0..heads {
                for k in 0..d {
                    *out.at_mut(dn, h * d + k) += wv.at(e, h) * xv.at(s, h * d + k);
                }
            }
        }
        Tensor::from_op(
            out,
            vec![x.clone(), w.clone()],
            Box::new(MulSumBack {
                src: case.src.clone(),
                dst: case.dst.clone(),
            }),
        )
    }

    struct AddBack {
        src: Ids,
        dst: Ids,
        u_rows: usize,
        v_rows: usize,
    }

    impl Backward for AddBack {
        fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
            host(costs::OP_DISPATCH);
            if parents[0].needs_grad() {
                record(spmm_kernel(
                    "gsddmm_add_back_u",
                    self.src.len(),
                    grad.cols(),
                    false,
                ));
                let mut du = NdArray::zeros(self.u_rows, grad.cols());
                for (e, &s) in self.src.iter().enumerate() {
                    let dr = du.row_mut(s as usize);
                    for (c, &g) in grad.row(e).iter().enumerate() {
                        dr[c] += g;
                    }
                }
                accumulate(&parents[0], du);
            }
            if parents[1].needs_grad() {
                record(spmm_kernel(
                    "gsddmm_add_back_v",
                    self.dst.len(),
                    grad.cols(),
                    false,
                ));
                let mut dv = NdArray::zeros(self.v_rows, grad.cols());
                for (e, &dn) in self.dst.iter().enumerate() {
                    let dr = dv.row_mut(dn as usize);
                    for (c, &g) in grad.row(e).iter().enumerate() {
                        dr[c] += g;
                    }
                }
                accumulate(&parents[1], dv);
            }
        }
        fn name(&self) -> &'static str {
            "gsddmm_u_add_v"
        }
    }

    pub fn u_add_v(case: &Case, u: &Tensor, v: &Tensor) -> Tensor {
        let (uv, vv) = (u.data(), v.data());
        host(costs::OP_DISPATCH);
        record(sddmm_kernel("gsddmm_u_add_v", case.src.len(), uv.cols()));
        frame_write(case.src.len(), uv.cols());
        let mut out = NdArray::zeros(case.src.len(), uv.cols());
        for e in 0..case.src.len() {
            let (s, dn) = (case.src[e] as usize, case.dst[e] as usize);
            for c in 0..uv.cols() {
                *out.at_mut(e, c) = uv.at(s, c) + vv.at(dn, c);
            }
        }
        Tensor::from_op(
            out,
            vec![u.clone(), v.clone()],
            Box::new(AddBack {
                src: case.src.clone(),
                dst: case.dst.clone(),
                u_rows: uv.rows(),
                v_rows: vv.rows(),
            }),
        )
    }
}
