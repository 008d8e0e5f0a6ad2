//! The DGL-style heterograph batch.

use std::cell::RefCell;
use std::rc::Rc;

use gnn_graph::{Csc, Graph};
use gnn_tensor::mp::Edges;
use gnn_tensor::{Ids, NdArray, Tensor};

/// A collated mini-batch wrapped as a (single-type) heterograph.
///
/// Beyond the COO arrays the PyG-like batch carries, a heterograph
/// materializes node/edge **type arrays** and the **CSC layout** its fused
/// kernels aggregate over — even though every type id is 0 for the study's
/// homogeneous datasets. That generality is DGL's design choice and the
/// source of the collation overhead the paper measures.
#[derive(Debug)]
pub struct HeteroBatch {
    /// Node features `[N, F]` (constant leaf).
    pub x: Tensor,
    /// Edge sources (COO).
    pub src: Ids,
    /// Edge destinations (COO).
    pub dst: Ids,
    /// CSC layout (in-edges grouped per destination), which the fused
    /// kernels aggregate over.
    pub csc: Csc,
    /// Node type of every node (all zero for homogeneous data, still built).
    pub ntypes: Vec<u32>,
    /// Edge type of every edge (all zero for homogeneous data, still built).
    pub etypes: Vec<u32>,
    /// Total node count.
    pub num_nodes: usize,
    /// Number of graphs collated into this batch.
    pub num_graphs: usize,
    /// Per-node graph membership.
    pub graph_ids: Ids,
    /// In-degree + 1, as `[N, 1]`.
    pub deg: Tensor,
    /// `1 / (in-degree + 1)`, as `[N, 1]`.
    pub inv_deg: Tensor,
    /// `1 / sqrt(in-degree + 1)`, as `[N, 1]`.
    pub inv_sqrt_deg: Tensor,
    /// Target labels (per-graph or per-node).
    pub labels: Vec<u32>,
    /// Bytes of node features.
    pub feature_bytes: u64,
    /// GatedGCN's persistent edge-feature state, threaded between layers.
    pub edge_state: RefCell<Option<Tensor>>,
}

impl HeteroBatch {
    /// Assembles a heterograph batch: builds type arrays and CSC and
    /// registers the corresponding device allocations.
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
        let n = graph.num_nodes();
        let e = graph.num_edges();
        let feature_bytes = features.byte_size();
        // Heterograph bookkeeping: type arrays + CSC (real compute, real
        // allocations).
        let ntypes = vec![0u32; n];
        let etypes = vec![0u32; e];
        let csc = graph.csc();
        let deg_raw: Vec<f32> = graph.in_degrees().iter().map(|&d| (d + 1) as f32).collect();
        let inv: Vec<f32> = deg_raw.iter().map(|&d| 1.0 / d).collect();
        let inv_sqrt: Vec<f32> = deg_raw.iter().map(|&d| 1.0 / d.sqrt()).collect();
        // features + deg triple + COO + CSC + type arrays.
        gnn_device::alloc(
            feature_bytes
                + 12 * n as u64
                + 8 * e as u64
                + (8 * e + 4 * n) as u64
                + 4 * (n + e) as u64,
        );
        HeteroBatch {
            x: Tensor::new(features),
            src: Rc::new(graph.src().to_vec()),
            dst: Rc::new(graph.dst().to_vec()),
            csc,
            ntypes,
            etypes,
            num_nodes: n,
            num_graphs,
            graph_ids: Rc::new(graph_ids),
            deg: Tensor::new(NdArray::from_vec(n, 1, deg_raw)),
            inv_deg: Tensor::new(NdArray::from_vec(n, 1, inv)),
            inv_sqrt_deg: Tensor::new(NdArray::from_vec(n, 1, inv_sqrt)),
            labels,
            feature_bytes,
            edge_state: RefCell::new(None),
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

    /// Clears per-forward state (GatedGCN edge features). Model stacks call
    /// this at the start of every forward pass.
    pub fn begin_forward(&self) {
        *self.edge_state.borrow_mut() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_bookkeeping_is_materialized() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let b = HeteroBatch::from_parts(&g, NdArray::zeros(3, 2), vec![0; 3], 1, vec![0]);
        assert_eq!(b.ntypes, vec![0, 0, 0]);
        assert_eq!(b.etypes, vec![0, 0, 0]);
        assert_eq!(b.csc.in_sources(1), &[0]);
        assert_eq!(b.num_edges(), 3);
    }

    #[test]
    fn edge_state_resets_on_begin_forward() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let b = HeteroBatch::from_parts(&g, NdArray::zeros(2, 2), vec![0; 2], 1, vec![0]);
        *b.edge_state.borrow_mut() = Some(Tensor::new(NdArray::zeros(1, 2)));
        b.begin_forward();
        assert!(b.edge_state.borrow().is_none());
    }
}
