//! Typed configuration errors for the sampling subsystem.
//!
//! Generator and sampler construction never panics on bad input and never
//! returns `Result<_, String>`: every degenerate configuration maps to a
//! [`SampleConfigError`] variant. The `Display` strings are the
//! diagnostics the `sample-config` lint pass and the `gnn-bench sample`
//! binary surface.

use std::fmt;

/// Everything that can be wrong with an RMAT generator, sampler, or cache
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleConfigError {
    /// The RMAT scale is zero — the graph would have one node.
    ZeroScale,
    /// The RMAT scale exceeds 31, overflowing `u32` node ids.
    ScaleTooLarge(u32),
    /// The edge factor is zero — the graph would have no edges.
    ZeroEdgeFactor,
    /// The RMAT quadrant weights are degenerate: non-finite, negative, or
    /// not summing to 1 (within 1e-6).
    BadRmatWeights {
        /// Quadrant probability a (top-left).
        a: f64,
        /// Quadrant probability b (top-right).
        b: f64,
        /// Quadrant probability c (bottom-left).
        c: f64,
        /// Quadrant probability d (bottom-right).
        d: f64,
    },
    /// The synthetic feature dimension is zero.
    ZeroFeatureDim,
    /// The synthetic label space is empty.
    ZeroClasses,
    /// The sampler has no fan-out list: zero hops samples nothing.
    NoFanouts,
    /// A hop's fan-out is zero — the frontier would die at that hop.
    ZeroFanout {
        /// Hop index (0 = the seeds' own neighbors).
        hop: usize,
    },
    /// The per-batch seed count is zero.
    ZeroBatchSeeds,
    /// A requested seed node is outside the graph's node range.
    SeedOutOfRange {
        /// The offending seed node id.
        seed: u32,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// The feature cache is larger than the feature matrix itself — the
    /// cache would never miss and the sweep point is meaningless.
    CacheExceedsFeatures {
        /// Configured cache capacity in rows.
        cache_rows: usize,
        /// Total feature rows (graph nodes).
        num_nodes: usize,
    },
    /// The placement model has zero partitions.
    ZeroPartitions,
    /// The home partition index is outside the partition count.
    HomePartitionOutOfRange {
        /// Configured home partition.
        home: usize,
        /// Configured partition count.
        partitions: usize,
    },
    /// A named spec is not in the catalog.
    UnknownSpec(String),
}

impl SampleConfigError {
    /// The [`crate::SampleSpec`] field a spec violation names, the last
    /// component of its lint finding path (`sample/<name>/<field>`).
    pub fn field(&self) -> &'static str {
        use SampleConfigError::*;
        match self {
            ZeroScale
            | ScaleTooLarge(_)
            | ZeroEdgeFactor
            | BadRmatWeights { .. }
            | ZeroFeatureDim
            | ZeroClasses => "rmat",
            NoFanouts | ZeroFanout { .. } => "fanouts",
            ZeroBatchSeeds | SeedOutOfRange { .. } => "batch_seeds",
            CacheExceedsFeatures { .. } => "cache_rows",
            ZeroPartitions => "partitions",
            HomePartitionOutOfRange { .. } => "home_partition",
            UnknownSpec(_) => "name",
        }
    }
}

impl fmt::Display for SampleConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleConfigError::ZeroScale => write!(f, "rmat scale must be at least 1"),
            SampleConfigError::ScaleTooLarge(scale) => {
                write!(f, "rmat scale {scale} exceeds 31 (u32 node ids)")
            }
            SampleConfigError::ZeroEdgeFactor => write!(f, "edge factor must be at least 1"),
            SampleConfigError::BadRmatWeights { a, b, c, d } => write!(
                f,
                "rmat weights ({a}, {b}, {c}, {d}) must be non-negative and sum to 1"
            ),
            SampleConfigError::ZeroFeatureDim => write!(f, "feature dimension must be at least 1"),
            SampleConfigError::ZeroClasses => write!(f, "need at least one label class"),
            SampleConfigError::NoFanouts => write!(f, "sampler needs at least one hop fan-out"),
            SampleConfigError::ZeroFanout { hop } => {
                write!(f, "fan-out at hop {hop} must be at least 1")
            }
            SampleConfigError::ZeroBatchSeeds => write!(f, "batch seeds must be at least 1"),
            SampleConfigError::SeedOutOfRange { seed, num_nodes } => {
                write!(f, "seed node {seed} out of range for {num_nodes} nodes")
            }
            SampleConfigError::CacheExceedsFeatures {
                cache_rows,
                num_nodes,
            } => write!(
                f,
                "cache of {cache_rows} rows exceeds the {num_nodes}-row feature matrix"
            ),
            SampleConfigError::ZeroPartitions => write!(f, "need at least one partition"),
            SampleConfigError::HomePartitionOutOfRange { home, partitions } => {
                write!(
                    f,
                    "home partition {home} out of range for {partitions} partitions"
                )
            }
            SampleConfigError::UnknownSpec(name) => write!(f, "unknown sample spec `{name}`"),
        }
    }
}

impl std::error::Error for SampleConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(
            SampleConfigError::ZeroFanout { hop: 1 }.to_string(),
            "fan-out at hop 1 must be at least 1"
        );
        assert_eq!(
            SampleConfigError::SeedOutOfRange {
                seed: 9,
                num_nodes: 4
            }
            .to_string(),
            "seed node 9 out of range for 4 nodes"
        );
        assert_eq!(
            SampleConfigError::UnknownSpec("x".into()).to_string(),
            "unknown sample spec `x`"
        );
    }
}
