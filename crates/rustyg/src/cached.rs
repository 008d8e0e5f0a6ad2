//! Pre-collated batching — the optimization the paper's conclusion calls
//! for ("more efficient graph batching strategies will greatly speed up GNN
//! training").
//!
//! [`CachedLoader`] collates each distinct index chunk **once**, keeps the
//! result resident on the device, and replays it on later epochs for a tiny
//! fixed host cost. The trade-off is fixed batch composition (no per-epoch
//! reshuffling across chunk boundaries), which is how real pre-batching
//! pipelines work. The `ablation_batching` command quantifies the effect:
//! the data-loading phase collapses and GPU utilization rises accordingly.

use std::cell::RefCell;
use std::collections::HashMap;

use gnn_datasets::GraphDataset;

use crate::batch::Batch;
use crate::loader::DataLoader;

/// Host cost of replaying an already-collated, device-resident batch
/// (a dictionary lookup and a few pointer swaps).
pub const REPLAY_COST: f64 = 8e-6;

/// A loader that collates each distinct chunk once and replays it afterwards.
#[derive(Debug)]
pub struct CachedLoader<'a> {
    inner: DataLoader<'a>,
    cache: RefCell<HashMap<Vec<u32>, Batch>>,
}

impl<'a> CachedLoader<'a> {
    /// Creates a caching loader over `dataset`.
    pub fn new(dataset: &'a GraphDataset) -> Self {
        CachedLoader {
            inner: DataLoader::new(dataset),
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Loads (or replays) the batch for `indices`.
    ///
    /// The first call for a given chunk pays the full collation cost; later
    /// calls pay only [`REPLAY_COST`].
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds.
    pub fn load(&self, indices: &[u32]) -> Batch {
        if let Some(hit) = self.cache.borrow().get(indices) {
            gnn_device::host(REPLAY_COST);
            return hit.clone();
        }
        let batch = self.inner.load(indices);
        self.cache
            .borrow_mut()
            .insert(indices.to_vec(), batch.clone());
        batch
    }

    /// Number of distinct chunks collated so far.
    pub fn cached_chunks(&self) -> usize {
        self.cache.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_datasets::TudSpec;

    #[test]
    fn replay_is_nearly_free() {
        let ds = TudSpec::enzymes().scaled(0.1).generate(0);
        let loader = CachedLoader::new(&ds);
        let idx: Vec<u32> = (0..16).collect();

        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        loader.load(&idx);
        let first = gnn_device::session::finish(h).total_time;

        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        loader.load(&idx);
        let replay = gnn_device::session::finish(h).total_time;

        assert!(replay < first / 50.0, "replay {replay} vs first {first}");
        assert_eq!(loader.cached_chunks(), 1);
    }

    #[test]
    fn replayed_batch_shares_device_tensors() {
        let ds = TudSpec::enzymes().scaled(0.1).generate(1);
        let loader = CachedLoader::new(&ds);
        let idx: Vec<u32> = (0..8).collect();
        let a = loader.load(&idx);
        let b = loader.load(&idx);
        // Same underlying tensor (shared id), not a re-collation.
        assert_eq!(a.x.id(), b.x.id());
        // Different chunks collate separately.
        let other: Vec<u32> = (8..16).collect();
        let c = loader.load(&other);
        assert_ne!(a.x.id(), c.x.id());
        assert_eq!(loader.cached_chunks(), 2);
    }
}
