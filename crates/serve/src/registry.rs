//! The immutable model registry: every endpoint's dataset + model, with
//! weights restored from `gnn-ckpt v1` training checkpoints when available.
//!
//! The registry builds an endpoint with the code the training sweep builds
//! its cell with — [`gnn_train::cell`]'s dataset generators, its
//! architecture seed for run 0 and its framework-erased [`Built`] cell — so
//! a checkpoint written by `gnn_core::sweep` pours back into an identical
//! architecture via [`Built::restore`]. What is left here is serving:
//! which rows of a forward answer which request, and where a checkpoint
//! comes from. Endpoints without a checkpoint serve their (deterministic)
//! initialization weights; [`Endpoint::restored`] records which happened,
//! and the serving report surfaces it.

use std::path::Path;

use gnn_train::cell::{build, Built, CellData};
use gnn_train::Checkpoint;

use crate::cell::{sample_dataset, CellError, CellId, TaskKind};
use crate::error::ServeConfigError;

/// The fixed sampling salt of the serving path. Serving is a pure function
/// of (endpoint, targets): the same seed nodes are answered from the same
/// sampled blocks on every rerun, which keeps replies bit-reproducible.
pub const SERVE_SAMPLE_SALT: u64 = 0x5EED;

/// One loaded, servable endpoint: an immutable (dataset, model) pair.
pub struct Endpoint {
    /// The cell this endpoint serves.
    pub cell: CellId,
    /// Whether weights came from a checkpoint (`true`) or are the
    /// deterministic initialization (`false`).
    pub restored: bool,
    data: CellData,
    built: Box<dyn Built>,
}

impl Endpoint {
    /// How many distinct targets a request can name: nodes for node and
    /// sampled endpoints, graphs for graph endpoints.
    pub fn num_targets(&self) -> u32 {
        num_targets(&self.data)
    }

    /// Answers a batch of requests: one logits row per target, in request
    /// order. Runs in inference mode (no tape) with `training = false`
    /// (dropout identity, batch norm on running stats), through the
    /// framework's batch path — full-graph forward for node endpoints,
    /// concat/hetero collation for graph endpoints, the sampled union block
    /// for sampled ones. Device kernels land on whatever `gnn-device`
    /// session is installed.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range (the workload generator and the
    /// serve-config lint both keep targets in range).
    pub fn serve_batch(&self, targets: &[u32]) -> Vec<Vec<f32>> {
        let logits = gnn_tensor::inference(|| self.built.forward(targets, SERVE_SAMPLE_SALT));
        let data = logits.data();
        let cols = data.shape().1;
        let row = |r: usize| data.data()[r * cols..(r + 1) * cols].to_vec();
        match &self.data {
            CellData::Node(_) => targets.iter().map(|&t| row(t as usize)).collect(),
            // One row per collated graph; for a sampled block the seeds
            // come first in the union's node order, so either way the
            // answers are the first `targets.len()` rows.
            CellData::Graph(..) | CellData::Sample(..) => (0..targets.len()).map(row).collect(),
        }
    }

    /// Ground-truth labels for `targets` (accuracy bookkeeping).
    pub fn labels(&self, targets: &[u32]) -> Vec<u32> {
        let targets = targets.iter().map(|&t| t as usize);
        match &self.data {
            CellData::Node(ds) => targets.map(|t| ds.labels[t]).collect(),
            CellData::Graph(ds, _) => targets.map(|t| ds.samples[t].label).collect(),
            CellData::Sample(graph, ..) => targets.map(|t| graph.label(t as u32)).collect(),
        }
    }

    /// Top-1 accuracy (percent) of served predictions over `targets`,
    /// answered in chunks of `batch_size`. Used by the train→serve
    /// round-trip test: a checkpoint-restored endpoint must reproduce the
    /// training loop's eval accuracy exactly.
    pub fn eval_accuracy(&self, targets: &[u32], batch_size: usize) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        if targets.is_empty() {
            return 0.0;
        }
        let labels = self.labels(targets);
        let mut correct = 0usize;
        let mut seen = 0usize;
        for chunk in targets.chunks(batch_size) {
            for (row, &label) in self.serve_batch(chunk).iter().zip(&labels[seen..]) {
                if argmax(row) == label {
                    correct += 1;
                }
            }
            seen += chunk.len();
        }
        100.0 * correct as f64 / targets.len() as f64
    }

    /// The node indices of the dataset's test split (node endpoints), every
    /// graph (graph endpoints), or the training sweep's deterministic test
    /// seed pool (sampled endpoints).
    pub fn test_targets(&self) -> Vec<u32> {
        match &self.data {
            CellData::Node(ds) => ds.test_idx.clone(),
            CellData::Graph(ds, _) => (0..ds.samples.len() as u32).collect(),
            CellData::Sample(graph, spec, _) => {
                graph.seed_pool(spec.batch_seeds, gnn_train::TEST_POOL_SALT)
            }
        }
    }
}

fn num_targets(data: &CellData) -> u32 {
    match data {
        CellData::Node(ds) => ds.graph.num_nodes() as u32,
        CellData::Graph(ds, _) => ds.samples.len() as u32,
        CellData::Sample(graph, ..) => graph.num_nodes() as u32,
    }
}

/// Index of the largest value in a logits row.
pub fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best as u32
}

/// The immutable registry of loaded endpoints a serving run answers from.
pub struct ModelRegistry {
    endpoints: Vec<Endpoint>,
}

impl ModelRegistry {
    /// Builds the registry for `cells`: generates each cell's dataset once
    /// (endpoints naming the same dataset share it), builds its
    /// architecture as the sweep's run 0 does, and restores weights from
    /// `<ckpt_dir>/<cell>_0.ckpt` when the directory is given and the file
    /// exists.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeConfigError`] for an unknown cell path or an
    /// unreadable / mismatched checkpoint. A *missing* checkpoint file is
    /// not an error — the endpoint serves its initialization weights
    /// (`restored = false`).
    pub fn build(
        cells: &[CellId],
        scale: f64,
        seed: u64,
        ckpt_dir: Option<&Path>,
    ) -> Result<ModelRegistry, ServeConfigError> {
        let mut endpoints: Vec<Endpoint> = Vec::with_capacity(cells.len());
        for cell in cells {
            let shared = endpoints
                .iter()
                .find(|e| (e.cell.task, &e.cell.dataset) == (cell.task, &cell.dataset));
            let data = match shared {
                Some(endpoint) => endpoint.data.clone(),
                None => CellData::generate(cell.task, &cell.dataset, scale, seed)?,
            };
            let built = build(cell.framework, cell.model, &data, data.arch_seed(seed, 0));
            let mut restored = false;
            if let Some(dir) = ckpt_dir {
                let path = dir.join(cell.ckpt_file(0));
                if path.exists() {
                    let ckpt =
                        Checkpoint::load(&path).map_err(|e| ServeConfigError::Checkpoint {
                            cell: cell.to_string(),
                            message: e.to_string(),
                        })?;
                    built.restore(&ckpt);
                    restored = true;
                }
            }
            endpoints.push(Endpoint {
                cell: cell.clone(),
                restored,
                data,
                built,
            });
        }
        Ok(ModelRegistry { endpoints })
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The endpoint at registry index `idx`.
    pub fn get(&self, idx: usize) -> &Endpoint {
        &self.endpoints[idx]
    }

    /// All endpoints, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Endpoint> {
        self.endpoints.iter()
    }

    /// `(cell path, target count)` pairs, the shape the workload generator
    /// consumes.
    pub fn target_space(&self) -> Vec<(String, u32)> {
        self.endpoints
            .iter()
            .map(|e| (e.cell.path(), e.num_targets()))
            .collect()
    }
}

/// Target count (nodes or graphs) of `cell`'s dataset at `scale`/`seed`,
/// without building the model — the cheap path the `serve-config` lint
/// uses to bound admissible batch sizes before anything executes.
///
/// # Errors
///
/// Returns a typed [`ServeConfigError`] for an unknown dataset name.
pub fn target_count(cell: &CellId, scale: f64, seed: u64) -> Result<u32, ServeConfigError> {
    // Sampled endpoints have a closed-form target space (every node of the
    // RMAT graph) — no generation needed even for the million-node spec.
    if cell.task == TaskKind::Sample {
        let (spec, _) = sample_dataset(&cell.dataset)
            .ok_or_else(|| CellError::UnknownSampleDataset(cell.dataset.clone()))?;
        return Ok(spec.rmat.num_nodes() as u32);
    }
    let data = CellData::generate(cell.task, &cell.dataset, scale, seed)?;
    Ok(num_targets(&data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_serves_both_task_kinds() {
        let cells = [
            CellId::parse("table4/Cora/GCN/PyG").unwrap(),
            CellId::parse("table5/ENZYMES/GIN/DGL").unwrap(),
        ];
        let reg = ModelRegistry::build(&cells, 0.05, 0, None).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(!reg.get(0).restored, "no checkpoint dir given");

        let node = reg.get(0);
        assert!(node.num_targets() > 10);
        let rows = node.serve_batch(&[0, 3, 7]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 7), "Cora has 7 classes");

        let graph = reg.get(1);
        let rows = graph.serve_batch(&[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 6), "ENZYMES has 6 classes");
    }

    #[test]
    fn served_outputs_are_independent_of_batch_composition() {
        // The property OOM split-and-retry rests on: a request's logits do
        // not depend on which other requests share its batch (eval mode,
        // running-stat BN, per-graph segments).
        let cells = [CellId::parse("table5/ENZYMES/GatedGCN/PyG").unwrap()];
        let reg = ModelRegistry::build(&cells, 0.05, 0, None).unwrap();
        let ep = reg.get(0);
        let together = ep.serve_batch(&[0, 1, 2, 3]);
        let first_half = ep.serve_batch(&[0, 1]);
        let second_half = ep.serve_batch(&[2, 3]);
        assert_eq!(&together[..2], &first_half[..]);
        assert_eq!(&together[2..], &second_half[..]);
    }

    #[test]
    fn target_space_names_cells() {
        let cells = [CellId::parse("table4/PubMed/SAGE/PyG").unwrap()];
        let reg = ModelRegistry::build(&cells, 0.05, 0, None).unwrap();
        let space = reg.target_space();
        assert_eq!(space[0].0, "table4/PubMed/SAGE/PyG");
        assert!(space[0].1 > 0);
    }

    #[test]
    fn sampled_endpoints_serve_seed_rows() {
        let cells = [
            CellId::parse("sample/rmat-4k-neighbor/SAGE/PyG").unwrap(),
            CellId::parse("sample/rmat-4k-layerwise/SAGE/DGL").unwrap(),
        ];
        let reg = ModelRegistry::build(&cells, 0.05, 0, None).unwrap();
        assert_eq!(reg.len(), 2);
        for i in 0..2 {
            let ep = reg.get(i);
            assert_eq!(ep.num_targets(), 1 << 12, "rmat-4k has 2^12 nodes");
            let rows = ep.serve_batch(&[5, 9, 11]);
            assert_eq!(rows.len(), 3, "one answer row per seed");
            assert!(rows.iter().all(|r| r.len() == 8), "8 RMAT classes");
            assert_eq!(ep.labels(&[5, 9]).len(), 2);
            assert!(!ep.test_targets().is_empty());
        }
        // Same seeds, same salt: replies are bit-identical across calls.
        let ep = reg.get(0);
        assert_eq!(ep.serve_batch(&[5, 9, 11]), ep.serve_batch(&[5, 9, 11]));
    }

    #[test]
    fn sample_target_count_is_closed_form() {
        let cell = CellId::parse("sample/rmat-1m-neighbor/SAGE/PyG").unwrap();
        // Cheap: answers without generating the million-node graph.
        assert_eq!(target_count(&cell, 0.05, 0).unwrap(), 1 << 20);
        let bogus = CellId {
            task: TaskKind::Sample,
            dataset: "rmat-1m".into(),
            model: cell.model,
            framework: cell.framework,
        };
        assert_eq!(
            target_count(&bogus, 0.05, 0).unwrap_err(),
            ServeConfigError::from(CellError::UnknownSampleDataset("rmat-1m".into()))
        );
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
