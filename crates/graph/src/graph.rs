//! COO edge-list graphs and CSC conversion.

use std::collections::HashSet;

/// A directed graph in COO (coordinate) form: parallel `src`/`dst` arrays.
///
/// Edges are message-passing directed: edge `e` carries information from
/// `src[e]` to `dst[e]`. Datasets that are conceptually undirected store both
/// directions (see [`Graph::to_symmetric`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_nodes: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl Graph {
    /// Creates a graph from parallel endpoint arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length or any endpoint is out of range.
    pub fn new(num_nodes: usize, src: Vec<u32>, dst: Vec<u32>) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert!(
            src.iter().chain(&dst).all(|&v| (v as usize) < num_nodes),
            "edge endpoint out of range (num_nodes = {num_nodes})"
        );
        Graph {
            num_nodes,
            src,
            dst,
        }
    }

    /// Creates a graph from `(src, dst)` pairs.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let src = edges.iter().map(|&(s, _)| s).collect();
        let dst = edges.iter().map(|&(_, d)| d).collect();
        Graph::new(num_nodes, src, dst)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Source endpoint of every edge.
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Destination endpoint of every edge.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Edge iterator over `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.src.iter().copied().zip(self.dst.iter().copied())
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Out-degree of every node.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes];
        for &s in &self.src {
            deg[s as usize] += 1;
        }
        deg
    }

    /// Undirected view: both directions of every edge, deduplicated, with
    /// self-loops preserved once.
    pub fn to_symmetric(&self) -> Graph {
        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(self.src.len() * 2);
        let mut src = Vec::with_capacity(self.src.len() * 2);
        let mut dst = Vec::with_capacity(self.src.len() * 2);
        for (s, d) in self.edges() {
            for &(a, b) in &[(s, d), (d, s)] {
                if (a != b || (a, b) == (s, d)) && seen.insert((a, b)) {
                    src.push(a);
                    dst.push(b);
                }
            }
        }
        Graph {
            num_nodes: self.num_nodes,
            src,
            dst,
        }
    }

    /// Copy with one self-loop added to every node (GCN's renormalization
    /// trick); pre-existing self-loops are kept as-is.
    pub fn with_self_loops(&self) -> Graph {
        let mut has_loop = vec![false; self.num_nodes];
        for (s, d) in self.edges() {
            if s == d {
                has_loop[s as usize] = true;
            }
        }
        let mut src = self.src.clone();
        let mut dst = self.dst.clone();
        for (n, &has) in has_loop.iter().enumerate() {
            if !has {
                src.push(n as u32);
                dst.push(n as u32);
            }
        }
        Graph {
            num_nodes: self.num_nodes,
            src,
            dst,
        }
    }

    /// Converts to CSC (in-edges grouped per destination node).
    ///
    /// This is the format DGL-style frameworks aggregate over; the conversion
    /// cost is part of their batching overhead. The grouping is a stable
    /// counting sort: within each destination, [`Csc::in_edges`] lists edge
    /// ids in strictly ascending order, so a sum over a destination's
    /// in-edges adds them in COO order — the order a scatter-add over the
    /// COO arrays uses, which every fused aggregation's bits depend on.
    pub fn csc(&self) -> Csc {
        Csc::from_coo(self.num_nodes, &self.src, &self.dst)
    }
}

/// Compressed sparse column storage: for each destination node, the slice of
/// in-edge sources and original edge ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csc {
    /// `indptr[d]..indptr[d+1]` is the in-edge range of node `d`.
    pub indptr: Vec<u32>,
    /// Source node of each in-edge, grouped by destination.
    pub src: Vec<u32>,
    /// Original COO edge id of each in-edge, grouped by destination.
    pub edge_ids: Vec<u32>,
}

impl Csc {
    /// Groups the COO edges `src[e] -> dst[e]` by destination with a stable
    /// counting sort (see [`Graph::csc`]). Sources need not be below
    /// `num_dst`: a bipartite block reads sources from its own row space.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length or a destination is not below
    /// `num_dst`.
    pub fn from_coo(num_dst: usize, src: &[u32], dst: &[u32]) -> Csc {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        let mut indptr = vec![0u32; num_dst + 1];
        for &d in dst {
            indptr[d as usize + 1] += 1;
        }
        for i in 0..num_dst {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr.clone();
        let mut src_sorted = vec![0u32; src.len()];
        let mut edge_ids = vec![0u32; src.len()];
        for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
            let pos = cursor[d as usize] as usize;
            cursor[d as usize] += 1;
            src_sorted[pos] = s;
            edge_ids[pos] = e as u32;
        }
        Csc {
            indptr,
            src: src_sorted,
            edge_ids,
        }
    }

    /// Number of destination nodes.
    pub fn num_dst(&self) -> usize {
        self.indptr.len() - 1
    }

    /// In-neighbour sources of node `d`.
    pub fn in_sources(&self, d: usize) -> &[u32] {
        &self.src[self.indptr[d] as usize..self.indptr[d + 1] as usize]
    }

    /// Original edge ids of node `d`'s in-edges.
    pub fn in_edges(&self, d: usize) -> &[u32] {
        &self.edge_ids[self.indptr[d] as usize..self.indptr[d + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 -> 1 -> 2
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn degrees() {
        let g = path3();
        assert_eq!(g.in_degrees(), vec![0, 1, 1]);
        assert_eq!(g.out_degrees(), vec![1, 1, 0]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn symmetric_dedups_and_handles_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2)]);
        let u = g.to_symmetric();
        assert_eq!(
            u.num_edges(),
            3,
            "0<->1 once each direction + one self-loop"
        );
        let mut pairs: Vec<(u32, u32)> = u.edges().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn self_loops_added_once() {
        let g = Graph::from_edges(2, &[(0, 0)]);
        let l = g.with_self_loops();
        assert_eq!(l.num_edges(), 2);
        assert_eq!(l.in_degrees(), vec![1, 1]);
        // idempotent
        assert_eq!(l.with_self_loops().num_edges(), 2);
    }

    #[test]
    fn csc_groups_in_edges() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2), (2, 0)]);
        let csc = g.csc();
        assert_eq!(csc.in_sources(2), &[0, 1]);
        assert_eq!(csc.in_sources(0), &[2]);
        assert_eq!(csc.in_sources(1), &[] as &[u32]);
        assert_eq!(csc.in_edges(2), &[0, 1]);
    }

    #[test]
    fn csc_roundtrips_edge_count() {
        let g = path3().to_symmetric();
        let csc = g.csc();
        let total: usize = (0..g.num_nodes()).map(|d| csc.in_sources(d).len()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn oob_edge_rejected() {
        Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_arrays_rejected() {
        Graph::new(3, vec![0], vec![1, 2]);
    }
}
