//! Seeded RMAT (recursive-matrix) graph generation to CSR adjacency.
//!
//! The generator follows the Graph500 recipe: each edge picks one of four
//! quadrants per scale bit with probabilities `(a, b, c, d)`, which yields
//! the power-law degree distribution production graphs (social,
//! recommendation, fraud) exhibit. The output is stored as CSR over
//! *incoming* edges — `neighbors(v)` are the message sources of `v` —
//! because that is exactly the set a GraphSAGE-style sampler expands.
//!
//! Generation holds nothing edge-sized but the CSR it returns: the edge
//! stream is replayed from the seed twice, once to count in-degrees and
//! once to scatter sources into place (see [`RmatGraph::generate`]), so
//! at `rmat-1m` the transient peak is the ~42 MB CSR itself.
//!
//! Two properties matter more than realism here:
//!
//! - **Determinism**: the same [`RmatConfig`] (including its seed)
//!   produces a bit-identical graph on every run, platform, and rerun —
//!   the property the determinism proptests and CI `cmp` checks enforce.
//! - **No materialized features**: a million-node graph at 64 features
//!   would be a 256 MB dense matrix. Features and labels are derived
//!   on demand from a counter-based hash ([`RmatGraph::feature_into`],
//!   [`RmatGraph::label`]), so only sampled unions are ever materialized.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::SampleConfigError;

/// Configuration of one synthetic RMAT graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the node count (`scale` 20 = 1,048,576 nodes).
    pub scale: u32,
    /// Edges per node (total edges = `edge_factor << scale`).
    pub edge_factor: usize,
    /// Quadrant probability a (top-left: hub→hub).
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Quadrant probability d (bottom-right).
    pub d: f64,
    /// Synthetic feature dimension.
    pub feature_dim: usize,
    /// Synthetic label classes.
    pub num_classes: usize,
    /// Generator seed: everything (edges, features, labels) derives from it.
    pub seed: u64,
}

impl RmatConfig {
    /// The Graph500 quadrant weights at the given scale/edge factor.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            feature_dim: 64,
            num_classes: 8,
            seed,
        }
    }

    /// Node count (`1 << scale`).
    pub fn num_nodes(&self) -> usize {
        1usize << self.scale
    }

    /// Edge count (`edge_factor << scale`).
    pub fn num_edges(&self) -> usize {
        self.edge_factor << self.scale
    }

    /// Checks the configuration for degeneracy.
    ///
    /// # Errors
    ///
    /// Returns the [`SampleConfigError`] naming the first bad field.
    pub fn validate(&self) -> Result<(), SampleConfigError> {
        if self.scale == 0 {
            return Err(SampleConfigError::ZeroScale);
        }
        if self.scale > 31 {
            return Err(SampleConfigError::ScaleTooLarge(self.scale));
        }
        if self.edge_factor == 0 {
            return Err(SampleConfigError::ZeroEdgeFactor);
        }
        let sum = self.a + self.b + self.c + self.d;
        let finite = [self.a, self.b, self.c, self.d]
            .iter()
            .all(|w| w.is_finite() && *w >= 0.0);
        if !finite || (sum - 1.0).abs() > 1e-6 {
            return Err(SampleConfigError::BadRmatWeights {
                a: self.a,
                b: self.b,
                c: self.c,
                d: self.d,
            });
        }
        if self.feature_dim == 0 {
            return Err(SampleConfigError::ZeroFeatureDim);
        }
        if self.num_classes == 0 {
            return Err(SampleConfigError::ZeroClasses);
        }
        Ok(())
    }
}

/// SplitMix64: the counter-based hash behind on-demand features/labels.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Edges drawn per chunk: the buffer stays in L1/L2 while the chunk is
/// counted or scattered in a tight loop.
const EDGE_CHUNK: usize = 4096;

/// Integer quadrant thresholds `[ta, tb, tc]`, so a quadrant needs one
/// `u64` draw per scale bit. Ordered `ta <= tb <= tc` for every config
/// [`RmatConfig::validate`] accepts: the weights are non-negative, and
/// float addition, the scaling and the saturating cast are all monotone.
fn thresholds(cfg: &RmatConfig) -> [u64; 3] {
    let ta = (cfg.a * u64::MAX as f64) as u64;
    let tb = ((cfg.a + cfg.b) * u64::MAX as f64) as u64;
    let tc = ((cfg.a + cfg.b + cfg.c) * u64::MAX as f64) as u64;
    debug_assert!(ta <= tb && tb <= tc, "unordered thresholds {ta} {tb} {tc}");
    [ta, tb, tc]
}

/// One scale bit of an edge, `(source bit, destination bit)`, without a
/// branch: quadrant a is `r < ta`, b is `ta <= r < tb`, c is
/// `tb <= r < tc` and d is `r >= tc`. The source bit is set in c and d;
/// the destination bit is the parity of the three comparisons, set in b
/// and d. Equal to the `if r < ta .. else if` chain whenever the
/// thresholds are ordered, which [`thresholds`] guarantees.
#[inline]
fn quadrant(r: u64, [ta, tb, tc]: [u64; 3]) -> (u32, u32) {
    let hi = u32::from(r >= tb);
    (hi, u32::from(r >= ta) ^ hi ^ u32::from(r >= tc))
}

/// Replays `cfg`'s edge stream from its seed, handing `sink` the
/// `(source, destination)` pairs in edge-index order, [`EDGE_CHUNK`] at a
/// time.
fn for_each_edge_chunk(cfg: &RmatConfig, mut sink: impl FnMut(&[(u32, u32)])) {
    let t = thresholds(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut chunk = Vec::with_capacity(EDGE_CHUNK);
    let mut left = cfg.num_edges();
    while left > 0 {
        let len = left.min(EDGE_CHUNK);
        chunk.clear();
        chunk.extend((0..len).map(|_| {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..cfg.scale {
                let (ubit, vbit) = quadrant(rng.next_u64(), t);
                u = (u << 1) | ubit;
                v = (v << 1) | vbit;
            }
            (u, v)
        }));
        sink(&chunk);
        left -= len;
    }
}

/// A generated RMAT graph in CSR (incoming-edge) form.
#[derive(Debug, Clone)]
pub struct RmatGraph {
    cfg: RmatConfig,
    /// CSR row pointers over destinations: `indptr[v]..indptr[v+1]` indexes
    /// `adj` with the in-neighbors (message sources) of `v`.
    indptr: Vec<u64>,
    /// Flattened in-neighbor lists.
    adj: Vec<u32>,
}

impl RmatGraph {
    /// Generates the graph for `cfg`. Deterministic per seed: the edge
    /// stream is a pure function of `cfg.seed`.
    ///
    /// The CSR is built in two passes over one replayed stream, so nothing
    /// edge-sized is held but the `adj` that is returned. Every edge takes
    /// exactly `scale` draws, so re-seeding the generator replays the same
    /// edges in the same order:
    ///
    /// 1. count each destination's in-degree into `indptr[v + 2]`, then
    ///    prefix-sum, which leaves `v`'s first slot in `indptr[v + 1]`;
    /// 2. replay, placing each source at `indptr[v + 1]` and bumping it,
    ///    which leaves `indptr[v + 1]` at `v`'s end (= `v + 1`'s start);
    ///    the spare last entry is then popped.
    ///
    /// Each neighbour list holds its sources in edge-index order.
    ///
    /// # Errors
    ///
    /// Returns the config's validation error; generation itself cannot fail.
    pub fn generate(cfg: RmatConfig) -> Result<RmatGraph, SampleConfigError> {
        cfg.validate()?;
        let mut indptr = vec![0u64; cfg.num_nodes() + 2];
        for_each_edge_chunk(&cfg, |edges| {
            for &(_, v) in edges {
                indptr[v as usize + 2] += 1;
            }
        });
        for i in 1..indptr.len() {
            indptr[i] += indptr[i - 1];
        }
        let mut adj = vec![0u32; cfg.num_edges()];
        for_each_edge_chunk(&cfg, |edges| {
            for &(u, v) in edges {
                let slot = &mut indptr[v as usize + 1];
                adj[*slot as usize] = u;
                *slot += 1;
            }
        });
        indptr.pop();
        Ok(RmatGraph { cfg, indptr, adj })
    }

    /// The generating configuration.
    pub fn config(&self) -> &RmatConfig {
        &self.cfg
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.cfg.num_nodes()
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        self.cfg.num_edges()
    }

    /// In-neighbors (message sources) of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.indptr[v as usize] as usize;
        let hi = self.indptr[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// In-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Fills `out` (length `feature_dim`) with node `v`'s synthetic
    /// features: a hash-derived stream in `[-0.5, 0.5)` plus a `+1.0` bump
    /// on the class-owned dimension block, so labels are learnable from
    /// features alone.
    pub fn feature_into(&self, v: u32, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cfg.feature_dim);
        let base = splitmix64(self.cfg.seed ^ (u64::from(v) << 1) ^ 0xFEA7);
        for (j, slot) in out.iter_mut().enumerate() {
            let h = splitmix64(base.wrapping_add(j as u64));
            *slot = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        }
        let label = self.label(v) as usize;
        let block = (self.cfg.feature_dim / self.cfg.num_classes).max(1);
        let start = (label * block).min(self.cfg.feature_dim - 1);
        let end = (start + block).min(self.cfg.feature_dim);
        for slot in &mut out[start..end] {
            *slot += 1.0;
        }
    }

    /// Node `v`'s synthetic label in `0..num_classes`.
    pub fn label(&self, v: u32) -> u32 {
        (splitmix64(self.cfg.seed ^ (u64::from(v) << 1) ^ 0x1ABE1) % self.cfg.num_classes as u64)
            as u32
    }

    /// A deterministic pool of `count` distinct node ids, hash-scattered
    /// over the graph; `salt` separates train/validation pools.
    pub fn seed_pool(&self, count: usize, salt: u64) -> Vec<u32> {
        let n = self.num_nodes();
        let count = count.min(n);
        let mut pool = Vec::with_capacity(count);
        let mut seen = vec![0u64; n.div_ceil(64)];
        let mut i = 0u64;
        while pool.len() < count {
            let v = (splitmix64(self.cfg.seed ^ salt.wrapping_add(i)) % n as u64) as u32;
            let (word, bit) = (&mut seen[v as usize / 64], 1u64 << (v % 64));
            if *word & bit == 0 {
                *word |= bit;
                pool.push(v);
            }
            i += 1;
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RmatConfig {
        RmatConfig::graph500(10, 4, 7)
    }

    /// The `if r < ta .. else if` chain the branch-free draw replaces.
    fn quadrant_chain(r: u64, [ta, tb, tc]: [u64; 3]) -> (u32, u32) {
        if r < ta {
            (0, 0)
        } else if r < tb {
            (0, 1)
        } else if r < tc {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn branch_free_quadrant_matches_the_chain_at_every_boundary() {
        let weights = [
            (0.57, 0.19, 0.19, 0.05),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (0.0, 0.5, 0.5, 0.0),
        ];
        for (a, b, c, d) in weights {
            let cfg = RmatConfig {
                a,
                b,
                c,
                d,
                ..tiny()
            };
            assert_eq!(cfg.validate(), Ok(()));
            let t @ [ta, tb, tc] = thresholds(&cfg);
            let probes = [0, ta, tb, tc, u64::MAX]
                .into_iter()
                .chain([ta, tb, tc].map(|x| x.saturating_sub(1)));
            for r in probes {
                assert_eq!(
                    quadrant(r, t),
                    quadrant_chain(r, t),
                    "weights ({a}, {b}, {c}, {d}), r = {r:#x}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g1 = RmatGraph::generate(tiny()).unwrap();
        let g2 = RmatGraph::generate(tiny()).unwrap();
        assert_eq!(g1.indptr, g2.indptr);
        assert_eq!(g1.adj, g2.adj);
        let other = RmatGraph::generate(RmatConfig::graph500(10, 4, 8)).unwrap();
        assert_ne!(g1.adj, other.adj, "different seeds should differ");
    }

    #[test]
    fn csr_is_consistent() {
        let g = RmatGraph::generate(tiny()).unwrap();
        assert_eq!(g.num_nodes(), 1024);
        assert_eq!(g.num_edges(), 4096);
        assert_eq!(*g.indptr.last().unwrap() as usize, g.num_edges());
        let total: usize = (0..g.num_nodes() as u32).map(|v| g.degree(v)).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn degrees_are_skewed() {
        // RMAT with Graph500 weights concentrates edges on low-id hubs.
        let g = RmatGraph::generate(tiny()).unwrap();
        let max_deg = (0..g.num_nodes() as u32)
            .map(|v| g.degree(v))
            .max()
            .unwrap();
        let mean = g.num_edges() / g.num_nodes();
        assert!(
            max_deg > 4 * mean,
            "power-law graph should have hubs: max {max_deg}, mean {mean}"
        );
    }

    #[test]
    fn features_and_labels_are_on_demand_and_stable() {
        let g = RmatGraph::generate(tiny()).unwrap();
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        g.feature_into(3, &mut a);
        g.feature_into(3, &mut b);
        assert_eq!(a, b);
        assert!(g.label(3) < 8);
        // The label's dimension block carries the +1 bump.
        let block = 64 / 8;
        let start = g.label(3) as usize * block;
        assert!(a[start] >= 0.5, "bumped dims sit above the noise band");
    }

    #[test]
    fn seed_pool_is_distinct_and_deterministic() {
        let g = RmatGraph::generate(tiny()).unwrap();
        let p1 = g.seed_pool(100, 1);
        let p2 = g.seed_pool(100, 1);
        assert_eq!(p1, p2);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "pool ids are distinct");
        assert_ne!(p1, g.seed_pool(100, 2), "salt separates pools");
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let mut cfg = tiny();
        cfg.scale = 0;
        assert_eq!(cfg.validate(), Err(SampleConfigError::ZeroScale));
        let mut cfg = tiny();
        cfg.scale = 40;
        assert_eq!(cfg.validate(), Err(SampleConfigError::ScaleTooLarge(40)));
        let mut cfg = tiny();
        cfg.edge_factor = 0;
        assert_eq!(cfg.validate(), Err(SampleConfigError::ZeroEdgeFactor));
        let mut cfg = tiny();
        cfg.a = 0.9;
        assert!(matches!(
            cfg.validate(),
            Err(SampleConfigError::BadRmatWeights { .. })
        ));
        let mut cfg = tiny();
        cfg.feature_dim = 0;
        assert_eq!(cfg.validate(), Err(SampleConfigError::ZeroFeatureDim));
        let mut cfg = tiny();
        cfg.num_classes = 0;
        assert_eq!(cfg.validate(), Err(SampleConfigError::ZeroClasses));
    }
}
