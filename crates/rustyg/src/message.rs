//! PyG's lowering of message passing: what `gather_rows → edge op →
//! scatter_add_rows` records.
//!
//! PyG's `MessagePassing` lowers an aggregation onto `index_select`, an
//! elementwise edge op and `scatter_add`, and materialises every per-edge
//! `[E, F]` tensor on the way. The study models exactly that: each
//! lowering here replays the chain's kernels, its allocations (the
//! per-edge tensors and their gradients included) and the autograd
//! engine's charge for each of its nodes. The host computes the same sums
//! fused in `gnn_tensor::mp`, bit for bit, without building the per-edge
//! tensors.

use gnn_device::{alloc, record, Kernel};
use gnn_tensor::mp::{charge_node, Lowering, Shape};

/// `gather_rows → [edge op] → scatter_add_rows`; the edge op is named by
/// the kernels its forward and backward record.
#[derive(Debug)]
pub struct GatherScatter {
    edge_op: Option<(&'static str, &'static str)>,
}

/// `gather_rows → scatter_add_rows` (GCN, GIN, SAGE).
pub static COPY: GatherScatter = GatherScatter { edge_op: None };
/// `gather_rows → mul_per_head → scatter_add_rows` (GAT).
pub static MUL_PER_HEAD: GatherScatter = GatherScatter {
    edge_op: Some(("mul_per_head", "mul_per_head_back")),
};
/// `gather_rows → mul_col → scatter_add_rows` (MoNet).
pub static MUL_COL: GatherScatter = GatherScatter {
    edge_op: Some(("mul_col", "mul_col_back")),
};
/// `gather_rows → mul → scatter_add_rows` (GatedGCN).
pub static MUL: GatherScatter = GatherScatter {
    edge_op: Some(("mul", "mul_back")),
};

impl Lowering for GatherScatter {
    fn forward(&self, s: Shape) {
        let edge_bytes = 4 * (s.edges * s.cols) as u64;
        record(Kernel::gather("gather_rows", s.edges, s.cols));
        alloc(edge_bytes);
        if let Some((name, _)) = self.edge_op {
            record(Kernel::elementwise(name, s.edges * s.cols, 1, 3));
            alloc(edge_bytes);
        }
        record(Kernel::scatter("scatter_add_rows", s.edges, s.cols));
    }

    fn backward(&self, s: Shape, needs: [bool; 2], grad: &mut dyn FnMut(usize)) {
        let edge_bytes = 4 * (s.edges * s.cols) as u64;
        // scatter_add_rows' rule: the message's gradient.
        record(Kernel::gather("scatter_add_back", s.edges, s.cols));
        alloc(edge_bytes);
        if let Some((_, back)) = self.edge_op {
            charge_node();
            record(Kernel::elementwise(back, s.edges * s.cols, 2, 4));
            if needs[0] {
                alloc(edge_bytes); // the gathered rows' gradient
            }
            grad(1);
        }
        if needs[0] {
            charge_node();
            record(Kernel::scatter("gather_back", s.edges, s.cols));
            grad(0);
        }
    }
}
