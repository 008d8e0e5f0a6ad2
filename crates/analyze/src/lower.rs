//! Symbolic lowering of the study's model zoo.
//!
//! [`lower_stack`] walks the [`StackPlan`] that `gnn_models::build`
//! instantiates — the per-layer dimensions from Tables II/III,
//! batch-norm/ReLU/residual wiring, and the readout head — through a
//! [`GraphBuilder`], emitting the *same op sequence* each framework executes
//! at runtime: gather/scatter pairs for the PyG-like `rustyg`, fused
//! GSpMM/GSDDMM kernels for the DGL-like `rgl`. Shape defects anywhere in
//! the stack therefore surface with the runtime's own op names and scope
//! paths (`conv2/matmul`, `conv3/gspmm_mul_sum`, ...).
//!
//! Plans are plain data so tests (and the seeded-defect conformance suite)
//! can mutate a layer's dimensions and assert the analyzer pinpoints the
//! break.

use gnn_models::build::{LayerPlan, StackPlan, Task};
use gnn_models::config::{FrameworkKind, ModelKind};

use crate::ir::{GraphBuilder, NodeId, OpGraph, Rows};

/// The batch-level leaves every lowering reads.
struct Env {
    /// Edge sources, addressing nodes.
    src: NodeId,
    /// Edge destinations, addressing nodes.
    dst: NodeId,
    /// `1 / deg` column.
    inv_deg: NodeId,
    /// `1 / sqrt(deg)` column.
    inv_sqrt_deg: NodeId,
}

fn linear(
    b: &mut GraphBuilder,
    x: NodeId,
    in_dim: usize,
    out_dim: usize,
    bias: bool,
    name: &str,
) -> NodeId {
    let w = b.param(format!("{name}.w"), in_dim, out_dim);
    let h = b.matmul(x, w);
    if bias {
        let bb = b.param(format!("{name}.b"), 1, out_dim);
        b.add_bias(h, bb)
    } else {
        h
    }
}

fn batch_norm(b: &mut GraphBuilder, x: NodeId, width: usize, name: &str) -> NodeId {
    b.push_scope("batch_norm");
    let gamma = b.param(format!("{name}.gamma"), 1, width);
    let beta = b.param(format!("{name}.beta"), 1, width);
    let h = b.mul_row(x, gamma);
    let h = b.add_bias(h, beta);
    b.pop_scope();
    h
}

/// DGL's fused copy-sum GSpMM, modelled as its gather/scatter dataflow under
/// a `gspmm_copy_sum` scope so findings name the fused kernel.
fn gspmm_copy_sum(b: &mut GraphBuilder, env: &Env, x: NodeId) -> NodeId {
    b.push_scope("gspmm_copy_sum");
    let msg = b.gather(x, env.src);
    let agg = b.scatter_add(msg, env.dst, Rows::Nodes);
    b.pop_scope();
    agg
}

/// DGL's fused multiply-sum GSpMM (`w` is `[E, heads]`).
fn gspmm_mul_sum(b: &mut GraphBuilder, env: &Env, x: NodeId, w: NodeId, heads: usize) -> NodeId {
    b.push_scope("gspmm_mul_sum");
    let msg = b.gather(x, env.src);
    let weighted = b.mul_per_head(msg, w, heads);
    let agg = b.scatter_add(weighted, env.dst, Rows::Nodes);
    b.pop_scope();
    agg
}

/// DGL's fused per-edge `u_add_v` GSDDMM.
fn gsddmm_u_add_v(b: &mut GraphBuilder, env: &Env, u: NodeId, v: NodeId) -> NodeId {
    b.push_scope("gsddmm_u_add_v");
    let us = b.gather(u, env.src);
    let vs = b.gather(v, env.dst);
    let out = b.add(us, vs);
    b.pop_scope();
    out
}

/// DGL's `edge_softmax` (segment softmax keyed by destination).
fn edge_softmax(b: &mut GraphBuilder, env: &Env, scores: NodeId) -> NodeId {
    b.push_scope("edge_softmax");
    let alpha = b.segment_softmax(scores, env.dst, Rows::Nodes);
    b.pop_scope();
    alpha
}

/// Lowers one conv layer. `edge_state` threads rgl GatedGCN's persistent
/// edge features between layers.
fn lower_conv(
    b: &mut GraphBuilder,
    env: &Env,
    plan: &StackPlan,
    layer: &LayerPlan,
    x: NodeId,
    edge_state: &mut Option<NodeId>,
) -> NodeId {
    let pyg = plan.framework == FrameworkKind::RustyG;
    match plan.model {
        ModelKind::Gcn => {
            if pyg {
                let h = linear(b, x, layer.in_dim, layer.out, true, "lin");
                let msg = b.gather(h, env.src);
                let agg = b.scatter_add(msg, env.dst, Rows::Nodes);
                let agg = b.add(agg, h);
                b.mul_col(agg, env.inv_deg)
            } else {
                let xn = b.mul_col(x, env.inv_sqrt_deg);
                let h = linear(b, xn, layer.in_dim, layer.out, true, "lin");
                let agg = gspmm_copy_sum(b, env, h);
                let agg = b.add(agg, h);
                b.mul_col(agg, env.inv_sqrt_deg)
            }
        }
        ModelKind::Gat => {
            let width = layer.width();
            let z = linear(b, x, layer.in_dim, width, false, "lin");
            let attn_l = b.param("attn_l", 1, width);
            let attn_r = b.param("attn_r", 1, width);
            let al = b.head_dot(z, attn_l, layer.heads);
            let ar = b.head_dot(z, attn_r, layer.heads);
            if pyg {
                let sd = b.gather(al, env.dst);
                let ss = b.gather(ar, env.src);
                let scores = b.add(sd, ss);
                let scores = b.unary("leaky_relu", scores);
                let alpha = b.segment_softmax(scores, env.dst, Rows::Nodes);
                let msg = b.gather(z, env.src);
                let weighted = b.mul_per_head(msg, alpha, layer.heads);
                b.scatter_add(weighted, env.dst, Rows::Nodes)
            } else {
                let scores = gsddmm_u_add_v(b, env, ar, al);
                let scores = b.unary("leaky_relu", scores);
                let alpha = edge_softmax(b, env, scores);
                gspmm_mul_sum(b, env, z, alpha, layer.heads)
            }
        }
        ModelKind::Sage => {
            let pooled = linear(b, x, layer.in_dim, layer.in_dim, true, "pool");
            let pooled = b.unary("relu", pooled);
            let agg = if pyg {
                let msg = b.gather(pooled, env.src);
                let summed = b.scatter_add(msg, env.dst, Rows::Nodes);
                b.mul_col(summed, env.inv_deg)
            } else {
                let summed = gspmm_copy_sum(b, env, pooled);
                b.mul_col(summed, env.inv_deg)
            };
            let cat = b.concat_cols(x, agg);
            let h = linear(b, cat, 2 * layer.in_dim, layer.out, true, "lin");
            b.unary("l2_normalize", h)
        }
        ModelKind::Gin => {
            let agg = if pyg {
                let msg = b.gather(x, env.src);
                b.scatter_add(msg, env.dst, Rows::Nodes)
            } else {
                gspmm_copy_sum(b, env, x)
            };
            let eps = b.param("eps", 1, 1);
            let one_plus_eps = b.unary("add_scalar", eps);
            let scaled = b.scale_by(x, one_plus_eps);
            let mixed = b.add(scaled, agg);
            let h = linear(b, mixed, layer.in_dim, layer.out, true, "v");
            let h = batch_norm(b, h, layer.out, "bn");
            let h = b.unary("relu", h);
            linear(b, h, layer.out, layer.out, true, "w")
        }
        ModelKind::MoNet => {
            let u_dst = b.gather(env.inv_sqrt_deg, env.dst);
            let u_src = b.gather(env.inv_sqrt_deg, env.src);
            let u = b.concat_cols(u_dst, u_src);
            let proj = linear(b, u, 2, layer.pseudo_dim, true, "pseudo_proj");
            let pseudo = b.unary("tanh", proj);
            let mut out = None;
            for k in 0..layer.kernels {
                b.push_scope(format!("kernel{k}"));
                let mu = b.param("mu", 1, layer.pseudo_dim);
                let inv_sigma = b.param("inv_sigma", 1, layer.pseudo_dim);
                let neg_mu = b.unary("scale", mu);
                let diff = b.add_bias(pseudo, neg_mu);
                let sq = b.mul(diff, diff);
                let prec = b.mul(inv_sigma, inv_sigma);
                let scaled = b.mul_row(sq, prec);
                let w = b.sum_cols(scaled);
                let w = b.unary("exp", w);
                let fc = linear(b, x, layer.in_dim, layer.out, false, "fc");
                let agg = if pyg {
                    let msg = b.gather(fc, env.src);
                    let weighted = b.mul_col(msg, w);
                    b.scatter_add(weighted, env.dst, Rows::Nodes)
                } else {
                    gspmm_mul_sum(b, env, fc, w, 1)
                };
                out = Some(match out {
                    Some(acc) => b.add(acc, agg),
                    None => agg,
                });
                b.pop_scope();
            }
            out.expect("at least one kernel")
        }
        ModelKind::GatedGcn => {
            let ah = linear(b, x, layer.in_dim, layer.out, true, "a");
            let bh = linear(b, x, layer.in_dim, layer.out, true, "b");
            let dh = linear(b, x, layer.in_dim, layer.out, true, "d");
            let eh = linear(b, x, layer.in_dim, layer.out, true, "e");
            if pyg {
                let gd = b.gather(dh, env.dst);
                let gs = b.gather(eh, env.src);
                let logits = b.add(gd, gs);
                let gates = b.unary("sigmoid", logits);
                let denom = b.scatter_add(gates, env.dst, Rows::Nodes);
                let denom = b.unary("add_scalar", denom);
                let msg = b.gather(bh, env.src);
                let msg = b.mul(msg, gates);
                let num = b.scatter_add(msg, env.dst, Rows::Nodes);
                let frac = b.div(num, denom);
                b.add(ah, frac)
            } else {
                // DGL threads an explicit per-edge feature tensor; the first
                // layer seeds it with constant ones.
                let e_in = match *edge_state {
                    Some(e) => e,
                    None => b.input("edge_ones", Rows::Edges, layer.in_dim),
                };
                let ce = linear(b, e_in, layer.in_dim, layer.out, true, "c");
                let uv = gsddmm_u_add_v(b, env, eh, dh);
                let e_out = b.add(ce, uv);
                let gates = b.unary("sigmoid", e_out);
                let num = gspmm_mul_sum(b, env, bh, gates, layer.out);
                let gate_sums = b.segment_reduce("segment_sum", gates, env.dst, Rows::Nodes);
                let denom = b.unary("add_scalar", gate_sums);
                let frac = b.div(num, denom);
                *edge_state = Some(e_out);
                b.add(ah, frac)
            }
        }
    }
}

/// Lowers a complete stack (convs + head + loss) into an [`OpGraph`], with
/// op paths rooted at `prefix`.
pub fn lower_stack(plan: &StackPlan, prefix: &str) -> OpGraph {
    let mut b = GraphBuilder::with_prefix(prefix);
    let mut h = b.input("x", Rows::Nodes, plan.in_dim);
    let env = Env {
        src: b.index_input("src", Rows::Edges, Rows::Nodes),
        dst: b.index_input("dst", Rows::Edges, Rows::Nodes),
        inv_deg: b.input("inv_deg", Rows::Nodes, 1),
        inv_sqrt_deg: b.input("inv_sqrt_deg", Rows::Nodes, 1),
    };
    let mut edge_state = None;
    for (i, layer) in plan.layers.iter().enumerate() {
        b.push_scope(format!("conv{}", i + 1));
        let mut out = lower_conv(&mut b, &env, plan, layer, h, &mut edge_state);
        if plan.bn.get(i).copied().unwrap_or(false) {
            let width = b.shape(out).cols;
            out = batch_norm(&mut b, out, width, "bn");
        }
        if plan.relu.get(i).copied().unwrap_or(false) {
            out = b.unary("relu", out);
        }
        // Mirror the runtime exactly: residuals apply only when shapes match.
        if plan.residual && b.shape(out) == b.shape(h) {
            out = b.residual_add(out, h);
        }
        b.pop_scope();
        h = out;
    }
    match plan.task {
        Task::Node => {
            let labels = b.index_input("labels", Rows::Nodes, Rows::Const(plan.num_classes));
            b.push_scope("loss");
            b.cross_entropy(h, labels, plan.num_classes);
            b.pop_scope();
        }
        Task::Graph => {
            b.push_scope("readout");
            let graph_ids = b.index_input("graph_ids", Rows::Nodes, Rows::Graphs);
            let pool_op = match plan.framework {
                FrameworkKind::RustyG => "global_mean_pool",
                FrameworkKind::Rgl => "segment_mean_pool",
            };
            let mut g = b.segment_reduce(pool_op, h, graph_ids, Rows::Graphs);
            let last = plan.mlp_dims.len().saturating_sub(2);
            for (i, w) in plan.mlp_dims.windows(2).enumerate() {
                g = linear(&mut b, g, w[0], w[1], true, &format!("mlp{i}"));
                if i != last {
                    g = b.unary("relu", g);
                }
            }
            b.pop_scope();
            let labels = b.index_input("labels", Rows::Graphs, Rows::Const(plan.num_classes));
            b.push_scope("loss");
            b.cross_entropy(g, labels, plan.num_classes);
            b.pop_scope();
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_models::config::{ALL_FRAMEWORKS, ALL_MODELS};

    #[test]
    fn all_twelve_node_lowerings_are_clean() {
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                let plan = StackPlan::node(model, fw, 1433, 7);
                let g = lower_stack(&plan, "node");
                assert!(g.findings.is_empty(), "{model:?}/{fw:?}: {:?}", g.findings);
                assert!(g.loss.is_some());
            }
        }
    }

    #[test]
    fn all_twelve_graph_lowerings_are_clean() {
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                let plan = StackPlan::graph(model, fw, 18, 6);
                let g = lower_stack(&plan, "graph");
                assert!(g.findings.is_empty(), "{model:?}/{fw:?}: {:?}", g.findings);
                assert_eq!(plan.layers.len(), 4);
            }
        }
    }

    #[test]
    fn gat_graph_width_is_heads_times_hidden() {
        let plan = StackPlan::graph(ModelKind::Gat, FrameworkKind::Rgl, 18, 6);
        assert_eq!(plan.layers[0].width(), 256);
        assert_eq!(plan.layers[1].in_dim, 256);
    }

    #[test]
    fn wrong_hidden_dim_yields_matmul_finding_at_conv2() {
        let mut plan = StackPlan::node(ModelKind::Gcn, FrameworkKind::RustyG, 1433, 7);
        plan.layers[1].in_dim = 64; // true width is 80
        let g = lower_stack(&plan, "fixture");
        assert_eq!(g.findings.len(), 1, "{:?}", g.findings);
        let f = &g.findings[0];
        assert!(f.path.contains("conv2"), "{}", f.path);
        assert!(f.path.ends_with("matmul"), "{}", f.path);
        assert!(
            f.message
                .contains("inner dimensions disagree (lhs cols = 80, rhs rows = 64)"),
            "{}",
            f.message
        );
    }

    #[test]
    fn every_lowered_plan_holds_the_built_stacks_parameter_bytes() {
        use gnn_models::build::{model_rgl, model_rustyg};
        use rand::SeedableRng;
        // The plan is shared; what stays twinned is `lower_conv`'s op list,
        // whose parameters must add up to the runtime conv's.
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                for plan in [
                    StackPlan::node(model, fw, 1433, 7),
                    StackPlan::graph(model, fw, 18, 6),
                ] {
                    let rng = &mut rand::rngs::StdRng::seed_from_u64(0);
                    let built = match fw {
                        FrameworkKind::RustyG => model_rustyg(&plan, rng).param_bytes(),
                        FrameworkKind::Rgl => model_rgl(&plan, rng).param_bytes(),
                    };
                    let lowered = lower_stack(&plan, "").param_bytes();
                    assert_eq!(lowered, built, "{model:?}/{fw:?}/{:?}", plan.task);
                }
            }
        }
    }

    #[test]
    fn param_inventory_matches_runtime_families() {
        // GatedGCN under DGL has 5 linears/layer vs 4 under PyG.
        let pyg = lower_stack(
            &StackPlan::node(ModelKind::GatedGcn, FrameworkKind::RustyG, 10, 3),
            "",
        );
        let dgl = lower_stack(
            &StackPlan::node(ModelKind::GatedGcn, FrameworkKind::Rgl, 10, 3),
            "",
        );
        assert_eq!(pyg.params().count(), 2 * 4 * 2);
        assert_eq!(dgl.params().count(), 2 * 5 * 2);
    }
}
