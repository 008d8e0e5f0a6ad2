//! Property-based tests of the graph substrate.

use gnn_graph::{disjoint_union, knn_graph, Graph};
use proptest::prelude::*;

fn edges_strategy(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Degree sums equal edge counts.
    #[test]
    fn degree_sums_match_edge_count(edges in edges_strategy(12, 40)) {
        let g = Graph::from_edges(12, &edges);
        let in_sum: u32 = g.in_degrees().iter().sum();
        let out_sum: u32 = g.out_degrees().iter().sum();
        prop_assert_eq!(in_sum as usize, g.num_edges());
        prop_assert_eq!(out_sum as usize, g.num_edges());
    }

    /// to_symmetric is idempotent and produces a symmetric edge set.
    #[test]
    fn symmetrize_idempotent(edges in edges_strategy(10, 30)) {
        let g = Graph::from_edges(10, &edges).to_symmetric();
        let set: std::collections::HashSet<(u32, u32)> = g.edges().collect();
        for &(s, d) in &set {
            prop_assert!(set.contains(&(d, s)), "missing reverse of ({s},{d})");
        }
        let again = g.to_symmetric();
        prop_assert_eq!(again.num_edges(), g.num_edges());
    }

    /// CSC holds exactly the COO edges, grouped by destination.
    #[test]
    fn csc_is_a_permutation_of_coo(edges in edges_strategy(9, 30)) {
        let g = Graph::from_edges(9, &edges);
        let csc = g.csc();
        let mut coo: Vec<(u32, u32)> = g.edges().collect();
        let mut from_csc: Vec<(u32, u32)> = (0..9)
            .flat_map(|d| {
                csc.in_sources(d).iter().map(move |&s| (s, d as u32))
            })
            .collect();
        coo.sort_unstable();
        from_csc.sort_unstable();
        prop_assert_eq!(coo, from_csc);
        // Edge ids are a permutation of 0..E.
        let mut ids: Vec<u32> = (0..9).flat_map(|d| csc.in_edges(d).to_vec()).collect();
        ids.sort_unstable();
        let expect: Vec<u32> = (0..g.num_edges() as u32).collect();
        prop_assert_eq!(ids, expect);
    }

    /// Within each destination, `in_edges` ascends strictly and pairs each
    /// edge id with its own source: the CSC is a stable sort of the COO
    /// edges, so a sum over a destination adds its messages in COO order.
    #[test]
    fn csc_in_edges_ascend_within_each_destination(edges in edges_strategy(9, 30)) {
        let g = Graph::from_edges(9, &edges);
        let csc = g.csc();
        for d in 0..9 {
            let ids = csc.in_edges(d);
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "node {}: {:?}", d, ids);
            for (&e, &s) in ids.iter().zip(csc.in_sources(d)) {
                prop_assert_eq!((g.src()[e as usize], g.dst()[e as usize]), (s, d as u32));
            }
        }
    }

    /// Disjoint union preserves node/edge counts and never crosses
    /// component boundaries.
    #[test]
    fn union_preserves_and_isolates(
        e1 in edges_strategy(5, 12),
        e2 in edges_strategy(7, 16),
    ) {
        let a = Graph::from_edges(5, &e1);
        let b = Graph::from_edges(7, &e2);
        let u = disjoint_union(&[&a, &b]);
        prop_assert_eq!(u.graph.num_nodes(), 12);
        prop_assert_eq!(u.graph.num_edges(), e1.len() + e2.len());
        for (s, d) in u.graph.edges() {
            prop_assert_eq!(s < 5, d < 5, "edge crosses components");
        }
        prop_assert_eq!(u.graph_ids.iter().filter(|&&g| g == 0).count(), 5);
        prop_assert_eq!(u.graph_ids.iter().filter(|&&g| g == 1).count(), 7);
        // Per-graph degree structure survives relabelling.
        let mut u_deg = u.graph.in_degrees();
        let tail = u_deg.split_off(5);
        prop_assert_eq!(u_deg, a.in_degrees());
        prop_assert_eq!(tail, b.in_degrees());
    }

    /// k-NN graphs: every node has in-degree min(k, n-1) and no self loops.
    #[test]
    fn knn_degree_and_no_self_loops(
        pts in proptest::collection::vec(-10.0f32..10.0, 6..40),
        k in 1usize..6,
    ) {
        // 2-D points: need an even number of coordinates.
        let pts = &pts[..pts.len() / 2 * 2];
        let n = pts.len() / 2;
        let g = knn_graph(pts, 2, k);
        let expect = k.min(n - 1) as u32;
        for (node, &d) in g.in_degrees().iter().enumerate() {
            prop_assert_eq!(d, expect, "node {} in-degree", node);
        }
        prop_assert!(g.edges().all(|(s, d)| s != d));
    }

    /// Self-loop insertion adds exactly the missing loops.
    #[test]
    fn self_loops_complete(edges in edges_strategy(8, 20)) {
        let g = Graph::from_edges(8, &edges);
        let with = g.with_self_loops();
        // Every node ends up with at least one loop...
        for n in 0..8u32 {
            prop_assert!(
                with.edges().any(|(s, d)| s == n && d == n),
                "node {n} missing self loop"
            );
        }
        // ...and exactly the missing loops were added.
        let had_loop = (0..8u32)
            .filter(|&n| g.edges().any(|(s, d)| s == n && d == n))
            .count();
        prop_assert_eq!(with.num_edges(), g.num_edges() + (8 - had_loop));
    }
}
