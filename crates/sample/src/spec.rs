//! The named catalog of giant-graph sampling cells.
//!
//! A [`SampleSpec`] bundles everything one sampled cell needs — the RMAT
//! graph, the fan-out schedule, the per-batch seed count, and the
//! feature-cache/partition placement policy — under a stable name that
//! appears in cell paths (`sample/rmat-1m/SAGE/PyG`), CSV rows, and lint
//! findings. The catalog is closed so a path component always resolves
//! to the same graph on every machine.

use crate::error::SampleConfigError;
use crate::rmat::RmatConfig;
use crate::sampler::{max_union_edges, max_union_nodes, validate_fanouts};

/// One named sampled-workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSpec {
    /// Catalog name (the cell path's dataset component).
    pub name: &'static str,
    /// The synthetic graph.
    pub rmat: RmatConfig,
    /// Per-hop fan-outs, seed-outward.
    pub fanouts: Vec<usize>,
    /// Seed nodes per training mini-batch.
    pub batch_seeds: usize,
    /// Device feature-cache capacity in rows (0 = no cache).
    pub cache_rows: usize,
    /// Host partitions the features are placed across.
    pub partitions: usize,
    /// The partition the device is attached to.
    pub home_partition: usize,
}

impl SampleSpec {
    /// The full catalog, in sweep order.
    ///
    /// - `rmat-1m` — the million-node headline cell (scale 20, edge
    ///   factor 8): features never fit on-device, the cache earns its keep.
    /// - `rmat-64k` — a mid-size cell for CI-speed sweeps.
    /// - `rmat-4k` — a tiny cell for unit tests and the training sweep.
    pub fn catalog() -> Vec<SampleSpec> {
        vec![
            SampleSpec {
                name: "rmat-1m",
                rmat: RmatConfig::graph500(20, 8, 0x6e1),
                fanouts: vec![10, 5],
                batch_seeds: 512,
                cache_rows: 65_536,
                partitions: 4,
                home_partition: 0,
            },
            SampleSpec {
                name: "rmat-64k",
                rmat: RmatConfig::graph500(16, 8, 0x6e2),
                fanouts: vec![8, 4],
                batch_seeds: 256,
                cache_rows: 8_192,
                partitions: 2,
                home_partition: 0,
            },
            SampleSpec {
                name: "rmat-4k",
                rmat: RmatConfig::graph500(12, 4, 0x6e3),
                fanouts: vec![4, 2],
                batch_seeds: 64,
                cache_rows: 512,
                partitions: 2,
                home_partition: 0,
            },
        ]
    }

    /// Catalog names, in sweep order.
    pub fn names() -> Vec<&'static str> {
        Self::catalog().into_iter().map(|s| s.name).collect()
    }

    /// Looks a spec up by name.
    ///
    /// # Errors
    ///
    /// [`SampleConfigError::UnknownSpec`] when the name is not cataloged.
    pub fn get(name: &str) -> Result<SampleSpec, SampleConfigError> {
        Self::catalog()
            .into_iter()
            .find(|s| s.name == name)
            .ok_or_else(|| SampleConfigError::UnknownSpec(name.to_owned()))
    }

    /// Every hard rule the spec breaks, in precedence order: the RMAT
    /// parameters' and the fan-outs' first defects, then the batch, cache
    /// and placement rules. The node count is closed-form (`2^scale`), so
    /// the seed-range and cache rules hold before any graph exists; they
    /// wait for valid RMAT parameters.
    ///
    /// A batch of more seeds than the graph has nodes is refused, not
    /// clamped: `RmatGraph::seed_pool` clamps every pool to the node
    /// count, so the training, validation and test pools would all be the
    /// whole graph and the reported accuracy would be training accuracy.
    pub fn violations(&self) -> Vec<SampleConfigError> {
        use SampleConfigError::*;
        let rmat = self.rmat.validate();
        let nodes = rmat.is_ok().then(|| self.rmat.num_nodes());
        let beyond = |count: usize| nodes.filter(|&n| count > n);
        let mut out: Vec<_> = rmat.err().into_iter().collect();
        out.extend(validate_fanouts(&self.fanouts).err());
        if self.batch_seeds == 0 {
            out.push(ZeroBatchSeeds);
        }
        if let Some(num_nodes) = beyond(self.batch_seeds) {
            out.push(SeedOutOfRange {
                seed: (self.batch_seeds - 1) as u32,
                num_nodes,
            });
        }
        if let Some(num_nodes) = beyond(self.cache_rows) {
            out.push(CacheExceedsFeatures {
                cache_rows: self.cache_rows,
                num_nodes,
            });
        }
        if self.partitions == 0 {
            out.push(ZeroPartitions);
        } else if self.home_partition >= self.partitions {
            out.push(HomePartitionOutOfRange {
                home: self.home_partition,
                partitions: self.partitions,
            });
        }
        out
    }

    /// Validates the whole spec.
    ///
    /// # Errors
    ///
    /// Returns the first of [`SampleSpec::violations`].
    pub fn validate(&self) -> Result<(), SampleConfigError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Upper bound on a training batch's union node count.
    pub fn max_batch_nodes(&self) -> u64 {
        max_union_nodes(self.batch_seeds, &self.fanouts)
    }

    /// Upper bound on a training batch's sampled edge count.
    pub fn max_batch_edges(&self) -> u64 {
        max_union_edges(self.batch_seeds, &self.fanouts)
    }

    /// Feature-row bytes (one cache row).
    pub fn row_bytes(&self) -> u64 {
        self.rmat.feature_dim as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_specs_all_validate() {
        let specs = SampleSpec::catalog();
        assert_eq!(specs.len(), 3);
        for spec in &specs {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn headline_cell_is_a_million_nodes() {
        let spec = SampleSpec::get("rmat-1m").unwrap();
        assert_eq!(spec.rmat.num_nodes(), 1 << 20);
        assert!(spec.rmat.num_edges() >= 8 << 20);
        // The cache holds a fraction of the features, not all of them.
        assert!(spec.cache_rows < spec.rmat.num_nodes());
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        assert_eq!(
            SampleSpec::get("rmat-9000"),
            Err(SampleConfigError::UnknownSpec("rmat-9000".into()))
        );
    }

    #[test]
    fn every_hard_rule_is_one_violation_in_precedence_order() {
        use SampleConfigError::*;
        let base = SampleSpec::get("rmat-4k").unwrap(); // 4096 nodes
        type Rule = (fn(&mut SampleSpec), SampleConfigError);
        let rules: &[Rule] = &[
            (|s| s.rmat.scale = 0, ZeroScale),
            (|s| s.fanouts = vec![4, 0], ZeroFanout { hop: 1 }),
            (|s| s.batch_seeds = 0, ZeroBatchSeeds),
            (
                |s| s.batch_seeds = 4097,
                SeedOutOfRange {
                    seed: 4096,
                    num_nodes: 4096,
                },
            ),
            (
                |s| s.cache_rows = 4097,
                CacheExceedsFeatures {
                    cache_rows: 4097,
                    num_nodes: 4096,
                },
            ),
            (|s| s.partitions = 0, ZeroPartitions),
            (
                |s| s.home_partition = 2,
                HomePartitionOutOfRange {
                    home: 2,
                    partitions: 2,
                },
            ),
        ];
        assert_eq!(base.violations(), []);
        for (break_field, err) in rules {
            let mut spec = base.clone();
            break_field(&mut spec);
            assert_eq!(spec.violations(), std::slice::from_ref(err));
            assert_eq!(spec.validate(), Err(err.clone()));
        }
        // Broken RMAT parameters leave no node count to range-check, and
        // zero partitions leave no home partition to place; the rest pair
        // off over one field.
        for set in [&[0, 1, 2, 5][..], &[1, 3, 4, 6]] {
            let mut spec = base.clone();
            set.iter().for_each(|&i| rules[i].0(&mut spec));
            let expect: Vec<_> = set.iter().map(|&i| rules[i].1.clone()).collect();
            assert_eq!(spec.violations(), expect);
        }
    }

    #[test]
    fn validate_catches_cache_and_placement_degeneracy() {
        let mut spec = SampleSpec::get("rmat-4k").unwrap();
        spec.cache_rows = spec.rmat.num_nodes() + 1;
        assert!(matches!(
            spec.validate(),
            Err(SampleConfigError::CacheExceedsFeatures { .. })
        ));
        let mut spec = SampleSpec::get("rmat-4k").unwrap();
        spec.partitions = 0;
        assert_eq!(spec.validate(), Err(SampleConfigError::ZeroPartitions));
        let mut spec = SampleSpec::get("rmat-4k").unwrap();
        spec.home_partition = 5;
        assert!(matches!(
            spec.validate(),
            Err(SampleConfigError::HomePartitionOutOfRange { .. })
        ));
    }
}
