//! The PyG-style batch: flat COO arrays plus per-node bookkeeping.

use std::rc::Rc;

use gnn_graph::{Csc, Graph};
use gnn_tensor::mp::Edges;
use gnn_tensor::{Ids, NdArray, Tensor};

/// A collated mini-batch (or a full graph for node-level tasks), ready for
/// message passing.
///
/// Cloning is cheap: tensor values and index arrays are shared.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Node features `[N, F]` (constant leaf).
    pub x: Tensor,
    /// Edge sources.
    pub src: Ids,
    /// Edge destinations.
    pub dst: Ids,
    /// The edges grouped by destination: the host computes message passing
    /// over it; the simulated device never sees it.
    pub csc: Rc<Csc>,
    /// Total node count.
    pub num_nodes: usize,
    /// Number of graphs collated into this batch (1 for node tasks).
    pub num_graphs: usize,
    /// Per-node graph membership.
    pub graph_ids: Ids,
    /// In-degree + 1 (self-loop renormalization), as `[N, 1]`.
    pub deg: Tensor,
    /// `1 / (in-degree + 1)`, as `[N, 1]`.
    pub inv_deg: Tensor,
    /// `1 / sqrt(in-degree + 1)`, as `[N, 1]` (GCN both-side norm, MoNet
    /// pseudo-coordinates).
    pub inv_sqrt_deg: Tensor,
    /// Target labels: per-graph for graph tasks, per-node for node tasks.
    pub labels: Vec<u32>,
    /// Bytes of node features (used for transfer modelling).
    pub feature_bytes: u64,
}

impl Batch {
    /// Assembles a batch from an already-collated graph. Degree tensors and
    /// the host-side CSC are derived here; features are registered as a
    /// device allocation.
    pub fn from_parts(
        graph: &Graph,
        features: NdArray,
        graph_ids: Vec<u32>,
        num_graphs: usize,
        labels: Vec<u32>,
    ) -> Self {
        assert_eq!(
            features.rows(),
            graph.num_nodes(),
            "feature/node count mismatch"
        );
        let feature_bytes = features.byte_size();
        debug_assert!(
            graph
                .src()
                .iter()
                .chain(graph.dst())
                .all(|&v| (v as usize) < graph.num_nodes()),
            "edge index out of bounds (num_nodes = {})",
            graph.num_nodes()
        );
        debug_assert!(
            graph_ids.iter().all(|&g| (g as usize) < num_graphs),
            "graph id out of bounds (num_graphs = {num_graphs})"
        );
        let deg_raw: Vec<f32> = graph.in_degrees().iter().map(|&d| (d + 1) as f32).collect();
        let n = deg_raw.len();
        let inv: Vec<f32> = deg_raw.iter().map(|&d| 1.0 / d).collect();
        let inv_sqrt: Vec<f32> = deg_raw.iter().map(|&d| 1.0 / d.sqrt()).collect();
        gnn_device::alloc(feature_bytes + 12 * n as u64 + 8 * graph.num_edges() as u64);
        Batch {
            x: Tensor::new(features),
            src: Rc::new(graph.src().to_vec()),
            dst: Rc::new(graph.dst().to_vec()),
            csc: Rc::new(graph.csc()),
            num_nodes: graph.num_nodes(),
            num_graphs,
            graph_ids: Rc::new(graph_ids),
            deg: Tensor::new(NdArray::from_vec(n, 1, deg_raw)),
            inv_deg: Tensor::new(NdArray::from_vec(n, 1, inv)),
            inv_sqrt_deg: Tensor::new(NdArray::from_vec(n, 1, inv_sqrt)),
            labels,
            feature_bytes,
        }
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// The edges, for `gnn_tensor::mp`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            src: &self.src,
            dst: &self.dst,
            csc: &self.csc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_tensors_are_renormalized() {
        // 0 -> 1, 0 -> 2: in-degrees 0,1,1 -> renormalized 1,2,2
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let b = Batch::from_parts(&g, NdArray::zeros(3, 4), vec![0, 0, 0], 1, vec![0]);
        assert_eq!(b.deg.data().data(), &[1., 2., 2.]);
        assert_eq!(b.inv_deg.data().data(), &[1., 0.5, 0.5]);
        let isd = b.inv_sqrt_deg.data();
        assert!((isd.data()[1] - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "feature/node count mismatch")]
    fn wrong_feature_rows_rejected() {
        let g = Graph::from_edges(2, &[]);
        Batch::from_parts(&g, NdArray::zeros(3, 1), vec![0, 0], 1, vec![]);
    }
}
