//! Static memory certification: closed-form peak-footprint proofs per cell.
//!
//! Every cell's lowering ([`crate::lower`]) is already an exact op-for-op
//! replay of what the runtime executes; this pass walks it once more and
//! prices each op's *allocations* instead of its shapes. The result is a
//! [`MemExpr`] — bytes as a linear form `a·N + b·E + c·G + d` over the
//! batch's node/edge/graph counts — for the forward activations of one
//! pass, the gradient buffers `accumulate` allocates, and the loader's
//! per-batch tensors. Evaluated against a concrete dataset this yields two
//! certified numbers per cell:
//!
//! - **`peak_upper`**: persistent footprint (parameters, Adam moments,
//!   pinned features) plus the largest step interval the supervisor can
//!   execute. The runtime allocator is a bump allocator within a step
//!   (op outputs are never freed before `end_step`), so the bound is the
//!   sum of a step's allocations — and a ceiling at or above `peak_upper`
//!   provably never fires a `MemLimit` fault.
//! - **`floor_fatal`**: persistent footprint plus the *smallest mandatory*
//!   attempt — the full-batch train step for node cells, the worst single
//!   sample at batch size 1 for graph cells. A ceiling below `floor_fatal`
//!   provably kills the cell: batch halving bottoms out at 1 and the
//!   supervisor's retries exhaust (the statically computed fixed point of
//!   the degradation loop).
//!
//! Ceilings between the two bounds depend on shuffle order and epoch
//! timing; [`MemVerdict::Unknown`] says so honestly.
//!
//! The certified bounds are cross-checked against the runtime allocator's
//! observed high-water mark (`DeviceReport::peak_memory`) for all 60 cells
//! by the conformance suite in `tests/`, including under canonical fault
//! plans. Findings land in `lint.json`; the full per-cell table exports as
//! `memory.json` next to it (see EXPERIMENTS.md).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gnn_datasets::{GraphDataset, NodeDataset};
use gnn_device::CostModel;
use gnn_models::config::{FrameworkKind, ModelKind};
use gnn_obs::Value;

use crate::ir::{NodeId, OpGraph, Rows, SymShape};
use crate::liveness;
use crate::lower::{lower_stack, StackPlan};
use crate::report::{Finding, FindingKind};

/// Bytes as a closed-form linear expression over the symbolic batch sizes:
/// `per_node·N + per_edge·E + per_graph·G + constant`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemExpr {
    /// Coefficient on the batch's node count.
    pub per_node: u64,
    /// Coefficient on the batch's edge count.
    pub per_edge: u64,
    /// Coefficient on the batch's graph count.
    pub per_graph: u64,
    /// Constant bytes (parameter-shaped activations, the loss scalar).
    pub constant: u64,
}

impl MemExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        MemExpr::default()
    }

    /// Evaluates at concrete batch sizes.
    pub fn eval(&self, nodes: u64, edges: u64, graphs: u64) -> u64 {
        self.per_node * nodes + self.per_edge * edges + self.per_graph * graphs + self.constant
    }

    /// Term-wise sum.
    pub fn add(&self, o: &MemExpr) -> MemExpr {
        MemExpr {
            per_node: self.per_node + o.per_node,
            per_edge: self.per_edge + o.per_edge,
            per_graph: self.per_graph + o.per_graph,
            constant: self.constant + o.constant,
        }
    }

    /// Term-wise doubling (ops that materialize two buffers of one shape).
    pub fn double(&self) -> MemExpr {
        self.add(self)
    }

    /// Subtracts constant bytes (dropping the loss scalar for no-grad
    /// forwards), saturating at zero.
    pub fn minus_const(&self, bytes: u64) -> MemExpr {
        MemExpr {
            constant: self.constant.saturating_sub(bytes),
            ..*self
        }
    }
}

impl fmt::Display for MemExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut terms = Vec::new();
        for (coeff, sym) in [
            (self.per_node, "N"),
            (self.per_edge, "E"),
            (self.per_graph, "G"),
        ] {
            if coeff != 0 {
                terms.push(format!("{coeff}*{sym}"));
            }
        }
        if self.constant != 0 || terms.is_empty() {
            terms.push(self.constant.to_string());
        }
        write!(f, "{}", terms.join(" + "))
    }
}

/// The byte size of one materialized tensor of symbolic shape `s` (f32).
pub fn shape_bytes(s: SymShape) -> MemExpr {
    let row = 4 * s.cols as u64;
    match s.rows {
        Rows::Nodes => MemExpr {
            per_node: row,
            ..MemExpr::zero()
        },
        Rows::Edges => MemExpr {
            per_edge: row,
            ..MemExpr::zero()
        },
        Rows::Graphs => MemExpr {
            per_graph: row,
            ..MemExpr::zero()
        },
        Rows::Const(r) => MemExpr {
            constant: row * r as u64,
            ..MemExpr::zero()
        },
    }
}

/// Device bytes the runtime allocates when computing IR node `id`'s forward
/// value. Exact by construction: leaves are charged to the loader or the
/// persistent footprint, fused rgl scopes charge the kernels' message
/// frames instead of the gather/scatter dataflow the IR spells out, and the
/// few places the runtime inserts an extra buffer (MoNet's `scale` before
/// `exp`, rustyg's two-step mean pool) are doubled to match.
pub fn forward_alloc(g: &OpGraph, id: NodeId) -> MemExpr {
    let n = &g.nodes[id];
    let out = shape_bytes(n.shape);
    match n.op {
        // Batch leaves live in the loader's allocation (`batch_load`) and
        // parameters in the persistent footprint — except rgl GatedGCN's
        // edge-ones seed, which the runtime re-materializes every forward.
        "x" | "inv_deg" | "inv_sqrt_deg" | "src" | "dst" | "labels" | "graph_ids" | "param" => {
            return MemExpr::zero()
        }
        "edge_ones" => return out,
        _ => {}
    }
    if n.path.contains("/gspmm_copy_sum/") {
        return match n.op {
            // The fused kernel stages an N-row accumulation frame, not the
            // per-edge gather the dataflow view spells out.
            "gather_rows" => MemExpr {
                per_node: 4 * n.shape.cols as u64,
                ..MemExpr::zero()
            },
            _ => out, // scatter_add_rows: the kernel's output tensor
        };
    }
    if n.path.contains("/gspmm_mul_sum/") {
        return match n.op {
            "gather_rows" => MemExpr {
                per_node: 4 * n.shape.cols as u64,
                ..MemExpr::zero()
            },
            // The per-edge weight frame is `[E, heads]`.
            "mul_per_head" => MemExpr {
                per_edge: 4 * g.nodes[n.inputs[1]].shape.cols as u64,
                ..MemExpr::zero()
            },
            _ => out,
        };
    }
    if n.path.contains("/gsddmm_u_add_v/") {
        return match n.op {
            // One E-row staging frame (charged to the src gather) plus the
            // kernel output; the dst gather is fused away.
            "gather_rows" if g.nodes[n.inputs[1]].op == "src" => out,
            "gather_rows" => MemExpr::zero(),
            _ => out,
        };
    }
    if n.path.contains("/edge_softmax/") {
        return out.double(); // segment frame + normalized output
    }
    if n.path.contains("/batch_norm/") {
        return match n.op {
            "mul_row" => MemExpr::zero(), // fused into one affine kernel
            _ => out,
        };
    }
    if n.op == "exp" && n.path.contains("/kernel") {
        // The runtime computes `sum.scale(-0.5).exp()`: two buffers.
        return out.double();
    }
    if n.op == "global_mean_pool" {
        return out.double(); // rustyg sums then divides: two G-row tensors
    }
    out
}

/// Device bytes `accumulate` allocates for node `id`'s gradient, assuming
/// the node is in the grad-receiver set. Fused-scope interiors have no
/// runtime tensor and receive nothing; the producers at scope boundaries
/// get one buffer of their output shape.
pub fn grad_alloc(g: &OpGraph, id: NodeId) -> MemExpr {
    let n = &g.nodes[id];
    let out = shape_bytes(n.shape);
    if n.op == "param" {
        // One grad buffer per step: `zero_grad` drops it, the first
        // accumulation of the next step re-allocates.
        return out;
    }
    if n.path.contains("/gspmm_copy_sum/") || n.path.contains("/gspmm_mul_sum/") {
        return match n.op {
            "scatter_add_rows" => out,
            _ => MemExpr::zero(),
        };
    }
    if n.path.contains("/gsddmm_u_add_v/") {
        return match n.op {
            "add" => out,
            _ => MemExpr::zero(),
        };
    }
    if n.path.contains("/batch_norm/") {
        return match n.op {
            "add_bias" => out,
            _ => MemExpr::zero(),
        };
    }
    if n.op == "exp" && n.path.contains("/kernel") {
        return out.double(); // both the scale and exp tensors receive grads
    }
    if n.op == "global_mean_pool" {
        return out.double();
    }
    out
}

/// Which nodes receive a gradient buffer during `backward()`: reachable
/// from the loss through differentiable ops, restricted to nodes that
/// require a gradient (`accumulate` returns early otherwise).
pub fn grad_receivers(g: &OpGraph) -> Vec<bool> {
    let mut recv = vec![false; g.nodes.len()];
    let Some(loss) = g.loss else { return recv };
    recv[loss] = true; // backward seeds the loss gradient unconditionally
    let mut stack = vec![loss];
    while let Some(m) = stack.pop() {
        if !g.nodes[m].differentiable {
            continue;
        }
        for &i in &g.nodes[m].inputs {
            if g.nodes[i].requires_grad && !recv[i] {
                recv[i] = true;
                stack.push(i);
            }
        }
    }
    recv
}

/// A cell's symbolic memory footprint, split the way the runtime spends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFootprint {
    /// All forward-pass allocations of one training forward (includes the
    /// 4-byte loss scalar).
    pub forward: MemExpr,
    /// All gradient buffers one `backward()` allocates.
    pub backward: MemExpr,
    /// The loader's per-batch allocation (features, topology, degree and
    /// segment tensors).
    pub load: MemExpr,
    /// Total parameter bytes (f32).
    pub param_bytes: u64,
}

/// The loader's per-batch bytes: `Batch::from_parts` for rustyg,
/// `HeteroBatch::from_parts` (with its reverse-graph and segment extras)
/// for rgl. `F` is the stack's input feature width.
fn batch_load(plan: &StackPlan) -> MemExpr {
    let f = plan.in_dim as u64;
    match plan.framework {
        FrameworkKind::RustyG => MemExpr {
            per_node: 4 * f + 12,
            per_edge: 8,
            ..MemExpr::zero()
        },
        FrameworkKind::Rgl => MemExpr {
            per_node: 4 * f + 20,
            per_edge: 20,
            ..MemExpr::zero()
        },
    }
}

/// Prices an already-lowered cell. `g` must be `lower_stack(plan, _)`.
pub fn footprint_of(g: &OpGraph, plan: &StackPlan) -> CellFootprint {
    let recv = grad_receivers(g);
    let mut forward = MemExpr::zero();
    let mut backward = MemExpr::zero();
    for (id, receives) in recv.iter().enumerate() {
        forward = forward.add(&forward_alloc(g, id));
        if *receives {
            backward = backward.add(&grad_alloc(g, id));
        }
    }
    if plan.model == ModelKind::GatedGcn && plan.framework == FrameworkKind::Rgl {
        // rgl's gated layers stage three extra E×out message frames per
        // layer (gate logits, gated messages, gate sums) that the IR's
        // fused scopes don't surface.
        for layer in &plan.layers {
            forward.per_edge += 12 * layer.out as u64;
        }
    }
    CellFootprint {
        forward,
        backward,
        load: batch_load(plan),
        param_bytes: g.param_bytes(),
    }
}

/// Lowers and prices a cell in one call.
pub fn footprint(plan: &StackPlan) -> CellFootprint {
    footprint_of(&lower_stack(plan, ""), plan)
}

/// The certifier's answer for one (cell, memory ceiling) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemVerdict {
    /// The ceiling is at or above `peak_upper`: no `MemLimit` fault can
    /// fire, the run ends ok and undegraded.
    Fits,
    /// The ceiling is below `floor_fatal`: even the smallest mandatory
    /// attempt overflows, so retries exhaust and the cell fails.
    Fatal,
    /// Between the bounds: the outcome depends on shuffle order and which
    /// interval the ceiling lands in; not statically decided.
    Unknown,
}

/// One cell's certified footprint at its dataset's concrete sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCert {
    /// Sweep experiment (`"table4"` or `"table5"`).
    pub experiment: &'static str,
    /// Dataset name as generated.
    pub dataset: String,
    /// Architecture.
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// Node count the upper bound is evaluated at (full graph for node
    /// cells, worst batch composition for graph cells).
    pub nodes: u64,
    /// Edge count the upper bound is evaluated at.
    pub edges: u64,
    /// Graph count the upper bound is evaluated at (1 for node cells).
    pub graphs: u64,
    /// Effective mini-batch size (0 = full batch).
    pub batch: u64,
    /// Parameter bytes.
    pub param_bytes: u64,
    /// Persistent bytes: parameters + Adam moments (+ pinned features for
    /// node cells).
    pub persistent: u64,
    /// Certified upper bound on the allocator's high-water mark.
    pub peak_upper: u64,
    /// Certified fatal floor: any ceiling below this kills the cell.
    pub floor_fatal: u64,
    /// Ideal free-at-last-use peak (liveness analysis): what a reusing
    /// allocator would need for the same step.
    pub ideal_peak: u64,
    /// Symbolic forward-activation bytes per training pass.
    pub forward: MemExpr,
    /// Symbolic gradient bytes per backward pass.
    pub backward: MemExpr,
    /// Symbolic loader bytes per batch.
    pub load: MemExpr,
}

impl CellCert {
    /// The sweep cell path, e.g. `table4/Cora/GCN/PyG`.
    pub fn path(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.experiment,
            self.dataset,
            self.model.label(),
            self.framework.label()
        )
    }

    /// Statically decides a memory ceiling for this cell.
    pub fn ceiling_verdict(&self, ceiling: u64) -> MemVerdict {
        if ceiling >= self.peak_upper {
            MemVerdict::Fits
        } else if ceiling < self.floor_fatal {
            MemVerdict::Fatal
        } else {
            MemVerdict::Unknown
        }
    }
}

/// Certifies one node-classification cell against its dataset.
///
/// The node loop (`gnn_train::run_node_task_supervised`, which the plain
/// `run_node_task` also runs) pins `2P` of parameter copies plus the
/// feature matrix persistently and Adam pins another `2P`; each epoch runs
/// one full-batch train step (forward + train-split logits gather + loss +
/// backward) and one eval step (no-grad forward + val gather + a test
/// gather on best-so-far epochs). Node training cannot shrink its batch,
/// so the train step is both the peak interval and the fatal floor.
pub fn certify_node_cell(model: ModelKind, fw: FrameworkKind, ds: &NodeDataset) -> CellCert {
    let plan = StackPlan::node(model, fw, ds.features.cols(), ds.num_classes);
    let g = lower_stack(&plan, "");
    let fp = footprint_of(&g, &plan);
    let n = ds.graph.num_nodes() as u64;
    let e = ds.graph.num_edges() as u64;
    let c = ds.num_classes as u64;
    let (tr, va, te) = (
        ds.train_idx.len() as u64,
        ds.val_idx.len() as u64,
        ds.test_idx.len() as u64,
    );
    let feature_bytes = 4 * n * ds.features.cols() as u64;
    let persistent = 4 * fp.param_bytes + feature_bytes;
    let fwd = fp.forward.eval(n, e, 1);
    let bwd = fp.backward.eval(n, e, 1);
    // Train interval: forward, the [Tr, C] logits gather, its gradient,
    // and every activation/parameter gradient.
    let train = fwd + bwd + 8 * tr * c;
    // Eval interval: a no-grad forward (no loss scalar) plus the val
    // gather, plus the test gather when validation improves.
    let eval_hi = fp.forward.minus_const(4).eval(n, e, 1) + 4 * va * c + 4 * te * c;
    let ideal_peak = persistent + liveness::ideal_step_peak(&g, n, e, 1);
    CellCert {
        experiment: "table4",
        dataset: ds.name.clone(),
        model,
        framework: fw,
        nodes: n,
        edges: e,
        graphs: 1,
        batch: 0,
        param_bytes: fp.param_bytes,
        persistent,
        peak_upper: persistent + train.max(eval_hi),
        floor_fatal: persistent + train,
        ideal_peak,
        forward: fp.forward,
        backward: fp.backward,
        load: fp.load,
    }
}

/// Certifies one graph-classification cell at effective batch size `batch`
/// (post the sweep's fold-size clamp).
///
/// The upper bound takes the worst batch composition the shuffled loader
/// can assemble — the `batch` largest node counts and, independently, the
/// `batch` largest edge counts — which dominates every train, val, and
/// test chunk by monotonicity. The fatal floor is the worst *single*
/// sample (loader + no-grad forward): every sample is mandatory in fold
/// 0's train, val, or test split, and any chunk containing it demands at
/// least that much, so a ceiling below the floor fails training even after
/// batch halving reaches 1 and fails evaluation retries outright.
pub fn certify_graph_cell(
    model: ModelKind,
    fw: FrameworkKind,
    ds: &GraphDataset,
    batch: usize,
) -> CellCert {
    let plan = StackPlan::graph(model, fw, ds.feature_dim, ds.num_classes);
    let g = lower_stack(&plan, "");
    let fp = footprint_of(&g, &plan);
    let persistent = 4 * fp.param_bytes;
    let b = batch.clamp(1, ds.samples.len().max(1)) as u64;
    let mut node_counts: Vec<u64> = ds
        .samples
        .iter()
        .map(|s| s.graph.num_nodes() as u64)
        .collect();
    let mut edge_counts: Vec<u64> = ds
        .samples
        .iter()
        .map(|s| s.graph.num_edges() as u64)
        .collect();
    node_counts.sort_unstable_by(|a, b| b.cmp(a));
    edge_counts.sort_unstable_by(|a, b| b.cmp(a));
    let n_top: u64 = node_counts.iter().take(b as usize).sum();
    let e_top: u64 = edge_counts.iter().take(b as usize).sum();
    let chunk = fp.load.eval(n_top, e_top, b)
        + fp.forward.eval(n_top, e_top, b)
        + fp.backward.eval(n_top, e_top, b);
    let floor = ds
        .samples
        .iter()
        .map(|s| {
            let (ni, ei) = (s.graph.num_nodes() as u64, s.graph.num_edges() as u64);
            fp.load.eval(ni, ei, 1) + fp.forward.minus_const(4).eval(ni, ei, 1)
        })
        .max()
        .unwrap_or(0);
    let ideal_peak =
        persistent + fp.load.eval(n_top, e_top, b) + liveness::ideal_step_peak(&g, n_top, e_top, b);
    CellCert {
        experiment: "table5",
        dataset: ds.name.clone(),
        model,
        framework: fw,
        nodes: n_top,
        edges: e_top,
        graphs: b,
        batch: b,
        param_bytes: fp.param_bytes,
        persistent,
        peak_upper: persistent + chunk,
        floor_fatal: persistent + floor,
        ideal_peak,
        forward: fp.forward,
        backward: fp.backward,
        load: fp.load,
    }
}

/// Certifies one neighbor-sampled training cell against its spec — without
/// generating the (possibly million-node) RMAT graph. The fan-out schedule
/// bounds every union block in closed form ([`SampleSpec::max_batch_nodes`]
/// / [`SampleSpec::max_batch_edges`]), and those bounds hold for both
/// sampler kinds, so one certificate per (spec, kind, framework) prices
/// the worst block any chunk can assemble.
///
/// The sampled loop (`gnn_train::run_sampled_task_supervised`, which the
/// plain `run_sampled_task` also runs) pins `2P` of parameter copies plus
/// the resident feature cache persistently and Adam pins another `2P`. It
/// ends an allocator step after every train chunk (load + forward +
/// seed-logits gather + loss + backward), while the per-epoch val eval
/// and best-so-far test eval (no-grad forward + accuracy gather each)
/// share one step — so the peak interval is the larger of one train chunk
/// and two eval chunks, each bounded at the worst union block. The fatal
/// floor is the smallest mandatory attempt after batch halving bottoms
/// out: one single-seed train chunk at its own (much smaller) union
/// bound.
pub fn certify_sample_cell(
    fw: FrameworkKind,
    spec: &gnn_sample::SampleSpec,
    kind: gnn_sample::SamplerKind,
) -> CellCert {
    let model = ModelKind::Sage;
    let plan = StackPlan::node(model, fw, spec.rmat.feature_dim, spec.rmat.num_classes);
    let g = lower_stack(&plan, "");
    let fp = footprint_of(&g, &plan);
    let b = spec.batch_seeds as u64;
    let c = spec.rmat.num_classes as u64;
    let (n, e) = (spec.max_batch_nodes(), spec.max_batch_edges());
    let cache_bytes = spec.cache_rows as u64 * spec.row_bytes();
    let persistent = 4 * fp.param_bytes + cache_bytes;
    // One full train chunk: block load, forward, the [B, C] seed-logits
    // gather, its gradient, and every activation/parameter gradient.
    let train_chunk =
        fp.load.eval(n, e, 1) + fp.forward.eval(n, e, 1) + fp.backward.eval(n, e, 1) + 8 * b * c;
    // One eval chunk: block load plus a no-grad forward (no loss scalar)
    // and the [B, C] accuracy gather.
    let eval_chunk = fp.load.eval(n, e, 1) + fp.forward.minus_const(4).eval(n, e, 1) + 4 * b * c;
    let step = train_chunk.max(2 * eval_chunk);
    // Smallest mandatory attempt: one seed's union block, trained.
    let (n1, e1) = (
        gnn_sample::max_union_nodes(1, &spec.fanouts),
        gnn_sample::max_union_edges(1, &spec.fanouts),
    );
    let floor =
        fp.load.eval(n1, e1, 1) + fp.forward.eval(n1, e1, 1) + fp.backward.eval(n1, e1, 1) + 8 * c;
    let ideal_peak = persistent + fp.load.eval(n, e, 1) + liveness::ideal_step_peak(&g, n, e, 1);
    CellCert {
        experiment: "sample",
        dataset: format!("{}-{}", spec.name, kind.label()),
        model,
        framework: fw,
        nodes: n,
        edges: e,
        graphs: 1,
        batch: b,
        param_bytes: fp.param_bytes,
        persistent,
        peak_upper: persistent + step,
        floor_fatal: persistent + floor,
        ideal_peak,
        forward: fp.forward,
        backward: fp.backward,
        load: fp.load,
    }
}

/// Emits `peak-exceeds-device-memory` when a cell provably cannot run on a
/// device: its fatal floor (no batch size admissible) exceeds the
/// capacity. Configured-batch headroom is reported informationally in
/// `memory.json` instead, since batch halving can recover from it.
pub fn check_device_fit(cert: &CellCert, findings: &mut Vec<Finding>) {
    for (name, capacity) in [
        ("rtx2080ti", CostModel::rtx2080ti().device_memory),
        ("a100", CostModel::a100().device_memory),
    ] {
        if cert.floor_fatal > capacity {
            findings.push(Finding::new(
                FindingKind::PeakExceedsDeviceMemory,
                format!("{}/memory", cert.path()),
                format!(
                    "certified minimum footprint {} B (persistent {} B + smallest \
                     mandatory step) exceeds the {name}'s {capacity} B of device \
                     memory: no admissible batch size exists",
                    cert.floor_fatal, cert.persistent
                ),
            ));
        }
    }
}

/// The certifier's run-level result: one [`CellCert`] per sweep cell plus
/// any findings (device fits, unsatisfiable fault ceilings).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryReport {
    /// Per-cell certificates, in sweep order.
    pub cells: Vec<CellCert>,
    /// Memory findings (also merged into the lint report).
    pub findings: Vec<Finding>,
}

impl MemoryReport {
    /// Whether certification raised no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Looks a cell up by its sweep path.
    pub fn cell(&self, path: &str) -> Option<&CellCert> {
        self.cells.iter().find(|c| c.path() == path)
    }

    /// The report as a JSON tree (the `memory.json` schema; see
    /// EXPERIMENTS.md). Field order is fixed, so equal reports serialize
    /// byte-identically.
    pub fn to_value(&self) -> Value {
        let rtx = CostModel::rtx2080ti().device_memory;
        let a100 = CostModel::a100().device_memory;
        Value::Obj(vec![
            ("clean".into(), Value::Bool(self.is_clean())),
            (
                "cells".into(),
                Value::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Value::Obj(vec![
                                ("cell".into(), Value::Str(c.path())),
                                ("nodes".into(), Value::Num(c.nodes as f64)),
                                ("edges".into(), Value::Num(c.edges as f64)),
                                ("graphs".into(), Value::Num(c.graphs as f64)),
                                ("batch".into(), Value::Num(c.batch as f64)),
                                ("param_bytes".into(), Value::Num(c.param_bytes as f64)),
                                ("persistent".into(), Value::Num(c.persistent as f64)),
                                ("peak_upper".into(), Value::Num(c.peak_upper as f64)),
                                ("floor_fatal".into(), Value::Num(c.floor_fatal as f64)),
                                ("ideal_peak".into(), Value::Num(c.ideal_peak as f64)),
                                (
                                    "bump_over_ideal".into(),
                                    Value::Num(c.peak_upper as f64 / c.ideal_peak.max(1) as f64),
                                ),
                                ("forward".into(), Value::Str(c.forward.to_string())),
                                ("backward".into(), Value::Str(c.backward.to_string())),
                                ("load".into(), Value::Str(c.load.to_string())),
                                ("fits_rtx2080ti".into(), Value::Bool(c.peak_upper <= rtx)),
                                ("fits_a100".into(), Value::Bool(c.peak_upper <= a100)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings".into(),
                Value::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Value::Obj(vec![
                                ("kind".into(), Value::Str(f.kind.label().into())),
                                ("path".into(), Value::Str(f.path.clone())),
                                ("message".into(), Value::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `memory.json` into `dir` (created if missing), next to
    /// `lint.json`, returning its path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join("memory.json");
        fs::write(&path, self.to_value().to_json())?;
        Ok(path)
    }
}

impl fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let worst = self.cells.iter().max_by_key(|c| c.peak_upper);
        write!(
            f,
            "gnn-lint memory: {} cell(s) certified — {}",
            self.cells.len(),
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        )?;
        if let Some(c) = worst {
            write!(
                f,
                " (largest: {} at {} B certified peak)",
                c.path(),
                c.peak_upper
            )?;
        }
        writeln!(f)?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_datasets::{CitationSpec, TudSpec};
    use gnn_models::config::{ALL_FRAMEWORKS, ALL_MODELS};

    #[test]
    fn mem_expr_algebra_and_display() {
        let a = MemExpr {
            per_node: 4,
            per_edge: 8,
            per_graph: 0,
            constant: 12,
        };
        assert_eq!(a.eval(10, 5, 99), 40 + 40 + 12);
        assert_eq!(a.to_string(), "4*N + 8*E + 12");
        assert_eq!(MemExpr::zero().to_string(), "0");
        assert_eq!(a.double().eval(1, 1, 1), 2 * a.eval(1, 1, 1));
        assert_eq!(a.minus_const(20).constant, 0);
        let b = a.add(&shape_bytes(SymShape::new(Rows::Graphs, 3)));
        assert_eq!(b.per_graph, 12);
        assert_eq!(b.to_string(), "4*N + 8*E + 12*G + 12");
    }

    #[test]
    fn footprints_are_positive_and_loss_is_counted() {
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                for plan in [
                    StackPlan::node(model, fw, 50, 7),
                    StackPlan::graph(model, fw, 18, 6),
                ] {
                    let fp = footprint(&plan);
                    assert!(fp.forward.per_node > 0, "{model:?}/{fw:?}");
                    assert!(fp.backward.per_node > 0, "{model:?}/{fw:?}");
                    assert!(fp.param_bytes > 0, "{model:?}/{fw:?}");
                    // The 4-byte loss scalar is part of the forward.
                    assert!(fp.forward.constant >= 4, "{model:?}/{fw:?}");
                    assert!(fp.load.per_node >= 4 * plan.in_dim as u64 + 12);
                }
            }
        }
    }

    #[test]
    fn anisotropic_models_pay_edge_bytes() {
        // GAT materializes per-edge attention tensors; GCN's rustyg form
        // still gathers per-edge messages. Both must price E terms.
        for fw in ALL_FRAMEWORKS {
            let gat = footprint(&StackPlan::node(ModelKind::Gat, fw, 50, 7));
            let gcn = footprint(&StackPlan::node(ModelKind::Gcn, fw, 50, 7));
            assert!(gat.forward.per_edge > 0, "{fw:?}");
            assert!(
                gat.forward.per_edge > gcn.forward.per_edge,
                "{fw:?}: GAT should out-spend GCN per edge"
            );
        }
    }

    #[test]
    fn grad_receivers_cover_params_but_not_inputs() {
        let plan = StackPlan::node(ModelKind::Gcn, FrameworkKind::RustyG, 50, 7);
        let g = lower_stack(&plan, "");
        let recv = grad_receivers(&g);
        for (id, node) in g.nodes.iter().enumerate() {
            if node.op == "param" {
                assert!(recv[id], "param {:?} must receive a grad", node.param_name);
            }
            if matches!(node.op, "x" | "src" | "dst" | "inv_deg" | "inv_sqrt_deg") {
                assert!(!recv[id], "leaf {} must not receive a grad", node.op);
            }
        }
        assert!(recv[g.loss.unwrap()]);
    }

    #[test]
    fn node_cert_orders_bounds_and_scales_with_the_graph() {
        let ds = CitationSpec::cora().scaled(0.05).generate(0);
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                let cert = certify_node_cell(model, fw, &ds);
                assert!(cert.persistent > 4 * cert.param_bytes, "{}", cert.path());
                assert!(cert.floor_fatal > cert.persistent, "{}", cert.path());
                assert!(cert.peak_upper >= cert.floor_fatal, "{}", cert.path());
                assert!(cert.ideal_peak <= cert.peak_upper, "{}", cert.path());
                assert!(cert.ideal_peak >= cert.persistent, "{}", cert.path());
                assert_eq!(cert.batch, 0);
                assert_eq!(cert.ceiling_verdict(cert.peak_upper), MemVerdict::Fits);
                assert_eq!(
                    cert.ceiling_verdict(cert.floor_fatal - 1),
                    MemVerdict::Fatal
                );
            }
        }
        let big = CitationSpec::cora().scaled(0.1).generate(0);
        let small = certify_node_cell(ModelKind::Gcn, FrameworkKind::RustyG, &ds);
        let large = certify_node_cell(ModelKind::Gcn, FrameworkKind::RustyG, &big);
        assert!(large.peak_upper > small.peak_upper);
    }

    #[test]
    fn graph_cert_floor_uses_worst_single_sample() {
        let ds = TudSpec::enzymes().scaled(0.1).generate(0);
        for fw in ALL_FRAMEWORKS {
            let b8 = certify_graph_cell(ModelKind::Gin, fw, &ds, 8);
            let b1 = certify_graph_cell(ModelKind::Gin, fw, &ds, 1);
            // The fatal floor is batch-independent (worst single sample)...
            assert_eq!(b8.floor_fatal, b1.floor_fatal, "{fw:?}");
            // ...while the upper bound grows with the batch.
            assert!(b8.peak_upper > b1.peak_upper, "{fw:?}");
            assert!(b8.floor_fatal > b8.persistent, "{fw:?}");
            assert!(b8.peak_upper >= b8.floor_fatal, "{fw:?}");
            assert!(b8.ideal_peak <= b8.peak_upper, "{fw:?}");
            assert_eq!(
                b8.ceiling_verdict((b8.floor_fatal + b8.peak_upper) / 2),
                MemVerdict::Unknown
            );
        }
    }

    #[test]
    fn sample_cert_prices_the_union_not_the_graph() {
        use gnn_sample::{SampleSpec, SamplerKind};
        let spec = SampleSpec::get("rmat-1m").unwrap();
        for fw in ALL_FRAMEWORKS {
            let cert = certify_sample_cell(fw, &spec, SamplerKind::Neighbor);
            assert_eq!(cert.experiment, "sample");
            assert_eq!(cert.dataset, "rmat-1m-neighbor");
            assert_eq!(
                cert.path(),
                format!("sample/rmat-1m-neighbor/SAGE/{}", fw.label())
            );
            // The bound is the fan-out union of one seed batch, orders of
            // magnitude below the million-node graph.
            assert_eq!(cert.nodes, spec.max_batch_nodes());
            assert!(cert.nodes < (spec.rmat.num_nodes() as u64) / 10);
            // Persistent = 4P + the resident feature cache.
            assert_eq!(
                cert.persistent,
                4 * cert.param_bytes + spec.cache_rows as u64 * spec.row_bytes()
            );
            assert!(cert.persistent < cert.floor_fatal, "{}", cert.path());
            assert!(cert.floor_fatal <= cert.peak_upper, "{}", cert.path());
            // The headline cell must fit the paper's 11 GB card.
            let mut findings = Vec::new();
            check_device_fit(&cert, &mut findings);
            assert!(findings.is_empty(), "{findings:?}");
            // Both sampler kinds share the same closed-form bounds; only
            // the dataset label differs.
            let lw = certify_sample_cell(fw, &spec, SamplerKind::LayerWise);
            assert_eq!(lw.dataset, "rmat-1m-layerwise");
            assert_eq!(lw.peak_upper, cert.peak_upper);
            assert_eq!(lw.floor_fatal, cert.floor_fatal);
        }
    }

    #[test]
    fn paper_scale_cells_fit_no_fatal_floor() {
        // At full scale every cell must be runnable on the paper's 11 GB
        // card (the paper ran them); the certifier must agree.
        let cora = CitationSpec::cora().generate(0);
        let pubmed = CitationSpec::pubmed().generate(0);
        let mut findings = Vec::new();
        for ds in [&cora, &pubmed] {
            for model in ALL_MODELS {
                for fw in ALL_FRAMEWORKS {
                    check_device_fit(&certify_node_cell(model, fw, ds), &mut findings);
                }
            }
        }
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn device_fit_flags_tiny_capacities_via_report() {
        let ds = CitationSpec::cora().scaled(0.05).generate(0);
        let cert = certify_node_cell(ModelKind::Gcn, FrameworkKind::RustyG, &ds);
        // Fabricate an impossible cell by checking against a tiny capacity:
        // the production path only knows the two real cards, so drive the
        // comparison directly.
        assert!(cert.floor_fatal < CostModel::rtx2080ti().device_memory);
        let mut report = MemoryReport {
            cells: vec![cert.clone()],
            findings: Vec::new(),
        };
        report.findings.push(Finding::new(
            FindingKind::PeakExceedsDeviceMemory,
            format!("{}/memory", cert.path()),
            "synthetic",
        ));
        assert!(!report.is_clean());
        let json = report.to_value().to_json();
        let v = gnn_obs::json::parse(&json).unwrap();
        assert_eq!(v.get("clean"), Some(&Value::Bool(false)));
        let cells = v.get("cells").and_then(|c| c.as_arr()).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("cell").and_then(|c| c.as_str()),
            Some("table4/Cora/GCN/PyG")
        );
        assert!(cells[0].get("forward").and_then(|e| e.as_str()).is_some());
        assert_eq!(
            v.get("findings").and_then(|f| f.as_arr()).map(|f| f.len()),
            Some(1)
        );
    }

    #[test]
    fn report_lookup_and_display() {
        let ds = CitationSpec::cora().scaled(0.05).generate(0);
        let report = MemoryReport {
            cells: vec![certify_node_cell(ModelKind::Gat, FrameworkKind::Rgl, &ds)],
            findings: Vec::new(),
        };
        assert!(report.cell("table4/Cora/GAT/DGL").is_some());
        assert!(report.cell("table4/Cora/GCN/PyG").is_none());
        let s = report.to_string();
        assert!(s.contains("1 cell(s) certified"), "{s}");
        assert!(s.contains("clean"), "{s}");
    }
}
