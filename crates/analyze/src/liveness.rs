//! Per-op liveness over a lowered cell.
//!
//! The runtime device allocator is a bump allocator within a step: every
//! forward activation stays live until `end_step`, whether or not any
//! later op reads it. This pass computes what a *reusing* allocator would
//! need instead — each value's last forward use, the autograd-saved set
//! that must survive into the backward pass, and the resulting ideal peak
//! under free-at-last-use discipline. The certifier reports the ratio
//! between the bump bound and this ideal in `memory.json`
//! (`bump_over_ideal`): it is the statically proven headroom a
//! buffer-reuse optimization could reclaim per cell.

use crate::ir::{NodeId, OpGraph};
use crate::memory::{forward_alloc, grad_alloc, grad_receivers};

/// Liveness facts for one lowered graph.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// For each node, the index of its last forward use (itself if unused).
    pub last_use: Vec<NodeId>,
    /// Whether the node's forward value must survive into the backward
    /// pass: it receives a gradient, or a gradient-receiving op consumes it
    /// (its value is needed to compute that op's input gradients).
    pub saved: Vec<bool>,
}

/// Computes last uses and the autograd-saved set.
pub fn analyze(g: &OpGraph) -> Liveness {
    let recv = grad_receivers(g);
    let mut last_use: Vec<NodeId> = (0..g.nodes.len()).collect();
    for (id, node) in g.nodes.iter().enumerate() {
        for &i in &node.inputs {
            // Node ids ascend in insertion order, so the final assignment
            // is the maximal user.
            last_use[i] = id;
        }
    }
    let mut saved = recv.clone();
    for (id, node) in g.nodes.iter().enumerate() {
        if recv[id] && node.differentiable {
            for &i in &node.inputs {
                saved[i] = true;
            }
        }
    }
    Liveness { last_use, saved }
}

/// The ideal train-step peak at concrete batch sizes: forward allocations
/// freed at their last use unless saved for backward, then the gradient
/// buffers on top of the retained set. Always at most the bump-allocator
/// bound (which frees nothing), and the gap is the reuse headroom.
pub fn ideal_step_peak(g: &OpGraph, nodes: u64, edges: u64, graphs: u64) -> u64 {
    let lv = analyze(g);
    let recv = grad_receivers(g);
    let bytes: Vec<u64> = (0..g.nodes.len())
        .map(|id| forward_alloc(g, id).eval(nodes, edges, graphs))
        .collect();
    let mut current: u64 = 0;
    let mut peak: u64 = 0;
    let mut freed = vec![false; g.nodes.len()];
    for id in 0..g.nodes.len() {
        current += bytes[id];
        peak = peak.max(current);
        for &i in &g.nodes[id].inputs {
            if lv.last_use[i] == id && !lv.saved[i] && !freed[i] {
                freed[i] = true;
                current -= bytes[i];
            }
        }
        if lv.last_use[id] == id && !lv.saved[id] && !freed[id] {
            freed[id] = true;
            current -= bytes[id];
        }
    }
    let grads: u64 = (0..g.nodes.len())
        .filter(|&id| recv[id])
        .map(|id| grad_alloc(g, id).eval(nodes, edges, graphs))
        .sum();
    peak.max(current + grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_stack;
    use crate::memory::footprint_of;
    use gnn_models::build::StackPlan;
    use gnn_models::config::{ALL_FRAMEWORKS, ALL_MODELS};

    #[test]
    fn last_use_is_monotone_and_saved_includes_receiver_operands() {
        let plan = StackPlan::node(
            gnn_models::config::ModelKind::Gcn,
            gnn_models::config::FrameworkKind::RustyG,
            50,
            7,
        );
        let g = lower_stack(&plan, "");
        let lv = analyze(&g);
        for (id, node) in g.nodes.iter().enumerate() {
            assert!(lv.last_use[id] >= id);
            for &i in &node.inputs {
                assert!(lv.last_use[i] >= id, "use at {id} after recorded last use");
            }
        }
        // The loss' logits operand must be saved for backward.
        let loss = g.loss.unwrap();
        assert!(lv.saved[g.nodes[loss].inputs[0]]);
    }

    #[test]
    fn ideal_peak_is_below_the_bump_bound_for_every_cell() {
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                for plan in [
                    StackPlan::node(model, fw, 50, 7),
                    StackPlan::graph(model, fw, 18, 6),
                ] {
                    let g = lower_stack(&plan, "");
                    let fp = footprint_of(&g, &plan);
                    let (n, e, gr) = (500, 2000, 8);
                    let ideal = ideal_step_peak(&g, n, e, gr);
                    let bump = fp.forward.eval(n, e, gr) + fp.backward.eval(n, e, gr);
                    assert!(
                        ideal <= bump,
                        "{model:?}/{fw:?}: ideal {ideal} > bump {bump}"
                    );
                    assert!(ideal > 0, "{model:?}/{fw:?}");
                }
            }
        }
    }

    #[test]
    fn reuse_headroom_exists_where_transients_exist() {
        // Dense stacks like GCN save every activation for backward, so
        // free-at-last-use reclaims nothing and ideal == bump. rgl's
        // GatedGCN, by contrast, stages per-edge message frames inside its
        // fused kernels that no backward reads; a reusing allocator frees
        // them, so the ideal peak must beat the bump bound strictly.
        let plan = StackPlan::graph(
            gnn_models::config::ModelKind::GatedGcn,
            gnn_models::config::FrameworkKind::Rgl,
            18,
            6,
        );
        let g = lower_stack(&plan, "");
        let fp = footprint_of(&g, &plan);
        let ideal = ideal_step_peak(&g, 5000, 20000, 128);
        let bump = fp.forward.eval(5000, 20000, 128) + fp.backward.eval(5000, 20000, 128);
        assert!(ideal < bump, "ideal {ideal} should be < bump {bump}");
    }
}
