//! Device-resident feature cache with a partition-aware placement model,
//! for neighbor-sampled loaders over graphs whose feature matrix does not
//! fit in device memory.
//!
//! Sampled mini-batch training gathers a different union of node features
//! every step. Production systems keep a hot subset resident on the device
//! and fetch the rest from the host — or, when the graph is partitioned
//! across machines, from a *remote* partition over the network. This module
//! prices exactly that split on the existing roofline cost model:
//!
//! - **hit** — the row is resident: priced as one row of a [`Gather`]
//!   kernel (`cache_hit_gather`), the same kind the runtime uses for
//!   `index_select`.
//! - **local miss** — the row lives in the home partition's host memory:
//!   priced as H2D [`Transfer`] bytes (`h2d_feature_miss`).
//! - **remote miss** — the row lives in another partition: priced as
//!   [`Transfer`] bytes inflated by [`FeatureCache::REMOTE_FACTOR`]
//!   (`net_feature_remote`), modelling the slower network leg in the same
//!   currency as PCIe.
//!
//! Replacement is direct-mapped on the node id, so cache behaviour is a
//! pure function of the fetch sequence: deterministic across reruns and
//! byte-identical in the metrics CSVs.
//!
//! [`Gather`]: crate::kernel::KernelKind::Gather
//! [`Transfer`]: crate::kernel::KernelKind::Transfer

use crate::kernel::Kernel;
use crate::session;
use gnn_obs::tracks;

/// Counters for one [`FeatureCache::fetch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Rows found resident on the device.
    pub hits: u64,
    /// Rows fetched from the home partition's host memory.
    pub local_misses: u64,
    /// Rows fetched from a remote partition.
    pub remote_misses: u64,
    /// Total bytes moved onto the device (before the remote inflation).
    pub bytes_moved: u64,
}

/// A direct-mapped, partition-aware device feature cache.
///
/// Rows are node ids in `0..num_nodes`; nodes are placed on `partitions`
/// hosts in contiguous ranges and the cache lives on `home_partition`.
/// A zero-capacity cache is valid and misses every row (the "no cache"
/// policy point of the fan-out sweep).
#[derive(Debug, Clone)]
pub struct FeatureCache {
    /// Slot table: `slots[node % capacity]` holds the resident node id.
    slots: Vec<u32>,
    capacity: usize,
    row_bytes: u64,
    num_nodes: usize,
    partitions: usize,
    home_partition: usize,
    /// Cumulative counters over the cache's lifetime.
    total: FetchStats,
}

/// Sentinel for an empty cache slot.
const EMPTY: u32 = u32::MAX;

impl FeatureCache {
    /// Byte-inflation factor applied to remote-partition fetches: the
    /// network leg is priced at this multiple of the PCIe leg.
    pub const REMOTE_FACTOR: u64 = 4;

    /// Builds a cache of `capacity` feature rows of `row_bytes` each, over
    /// a graph of `num_nodes` nodes split into `partitions` contiguous
    /// ranges, resident on partition `home_partition`.
    pub fn new(
        capacity: usize,
        row_bytes: u64,
        num_nodes: usize,
        partitions: usize,
        home_partition: usize,
    ) -> Self {
        let partitions = partitions.max(1);
        FeatureCache {
            slots: vec![EMPTY; capacity],
            capacity,
            row_bytes,
            num_nodes: num_nodes.max(1),
            partitions,
            home_partition: home_partition.min(partitions - 1),
            total: FetchStats::default(),
        }
    }

    /// The contiguous-range partition a node id lives on.
    pub fn partition_of(&self, node: u32) -> usize {
        ((node as u64 * self.partitions as u64) / self.num_nodes as u64) as usize
    }

    /// Cumulative counters since construction.
    pub fn totals(&self) -> FetchStats {
        self.total
    }

    /// Fetches `rows` onto the device, pricing hits as a gather and misses
    /// as (possibly remote-inflated) transfers on the installed session,
    /// and publishing cumulative hit/miss counters on the `sample` obs
    /// track. Returns this call's stats.
    pub fn fetch(&mut self, rows: &[u32]) -> FetchStats {
        let mut stats = FetchStats::default();
        for &node in rows {
            if self.capacity > 0 {
                let slot = node as usize % self.capacity;
                if self.slots[slot] == node {
                    stats.hits += 1;
                    continue;
                }
                self.slots[slot] = node;
            }
            if self.partition_of(node) == self.home_partition {
                stats.local_misses += 1;
            } else {
                stats.remote_misses += 1;
            }
        }
        stats.bytes_moved = (stats.local_misses + stats.remote_misses) * self.row_bytes;

        let row_elems = (self.row_bytes / 4) as usize;
        if stats.hits > 0 {
            session::record(Kernel::gather(
                "cache_hit_gather",
                stats.hits as usize,
                row_elems,
            ));
        }
        if stats.local_misses > 0 {
            session::record(Kernel::transfer(
                "h2d_feature_miss",
                stats.local_misses * self.row_bytes,
            ));
        }
        if stats.remote_misses > 0 {
            session::record(Kernel::transfer(
                "net_feature_remote",
                stats.remote_misses * self.row_bytes * Self::REMOTE_FACTOR,
            ));
        }

        self.total.hits += stats.hits;
        self.total.local_misses += stats.local_misses;
        self.total.remote_misses += stats.remote_misses;
        self.total.bytes_moved += stats.bytes_moved;

        let now = session::sim_now();
        gnn_obs::counter(tracks::SAMPLE, "cache_hits", self.total.hits as f64, now);
        gnn_obs::counter(
            tracks::SAMPLE,
            "cache_misses",
            (self.total.local_misses + self.total.remote_misses) as f64,
            now,
        );
        gnn_obs::counter(
            tracks::SAMPLE,
            "remote_misses",
            self.total.remote_misses as f64,
            now,
        );
        stats
    }

    /// Hit rate over the cache's lifetime (0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total.hits + self.total.local_misses + self.total.remote_misses;
        if total == 0 {
            0.0
        } else {
            self.total.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::session::Session;

    #[test]
    fn zero_capacity_cache_misses_everything() {
        let handle = session::install(Session::new(CostModel::rtx2080ti()));
        let mut cache = FeatureCache::new(0, 256, 1000, 1, 0);
        let s = cache.fetch(&[1, 2, 3, 1]);
        assert_eq!(s.hits, 0);
        assert_eq!(s.local_misses, 4);
        assert_eq!(s.bytes_moved, 4 * 256);
        let report = session::finish(handle);
        assert!(report.transfer_time() > 0.0);
    }

    #[test]
    fn repeat_fetch_hits_after_fill() {
        let handle = session::install(Session::new(CostModel::rtx2080ti()));
        let mut cache = FeatureCache::new(16, 128, 64, 1, 0);
        cache.fetch(&[1, 2, 3]);
        let s = cache.fetch(&[1, 2, 3]);
        assert_eq!(s.hits, 3);
        assert_eq!(s.local_misses + s.remote_misses, 0);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        session::finish(handle);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let handle = session::install(Session::new(CostModel::rtx2080ti()));
        let mut cache = FeatureCache::new(4, 64, 64, 1, 0);
        cache.fetch(&[0]);
        cache.fetch(&[4]); // same slot as 0
        let s = cache.fetch(&[0]);
        assert_eq!(s.hits, 0, "node 0 was evicted by node 4");
        session::finish(handle);
    }

    #[test]
    fn remote_partitions_pay_inflated_transfer() {
        let handle = session::install(Session::new(CostModel::rtx2080ti()));
        // Two partitions of 50 nodes each; home is partition 0.
        let mut cache = FeatureCache::new(0, 100, 100, 2, 0);
        assert_eq!(cache.partition_of(0), 0);
        assert_eq!(cache.partition_of(99), 1);
        let s = cache.fetch(&[10, 90]);
        assert_eq!(s.local_misses, 1);
        assert_eq!(s.remote_misses, 1);
        let report = session::finish(handle);
        assert!(report.transfer_time() > 0.0);
        // `bytes_moved` counts real bytes; the remote inflation only
        // affects pricing, not the counter.
        assert_eq!(s.bytes_moved, 200);
    }

    #[test]
    fn determinism_same_sequence_same_totals() {
        let run = || {
            let handle = session::install(Session::new(CostModel::rtx2080ti()));
            let mut cache = FeatureCache::new(8, 64, 256, 4, 1);
            for step in 0..10u32 {
                cache.fetch(&[step, step * 7 % 256, step * 13 % 256]);
            }
            session::finish(handle);
            cache.totals()
        };
        assert_eq!(run(), run());
    }
}
