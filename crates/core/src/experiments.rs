//! The experiment registry: one entry per table/figure, linking the paper's
//! artifact to the workload, the implementing modules, and the checked-in
//! `results/` files that hold it, each with the `gnn-bench` command line
//! whose stdout it is — the machine-readable form of DESIGN.md's experiment
//! index.

/// Identifier of a reproduced experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table I — dataset statistics.
    Table1,
    /// Table IV — node classification time/accuracy.
    Table4,
    /// Table V — graph classification time/accuracy.
    Table5,
    /// Fig. 1 — ENZYMES epoch-time breakdown.
    Fig1,
    /// Fig. 2 — DD epoch-time breakdown.
    Fig2,
    /// Fig. 3 — layer-wise execution time.
    Fig3,
    /// Fig. 4 — peak memory vs batch size.
    Fig4,
    /// Fig. 5 — GPU utilization vs batch size.
    Fig5,
    /// Fig. 6 — multi-GPU scaling.
    Fig6,
}

/// One checked-in output: a `results/` file and the command that writes
/// it. The file is that command's stdout, byte for byte, so its first line
/// is the command itself (`gnn-bench` echoes its command line first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    /// Path from the repository root, e.g. `results/table4.txt`.
    pub file: &'static str,
    /// The `gnn-bench` command line, e.g.
    /// `gnn-bench table4 --scale 0.3 --epochs 60 --seeds 2`.
    pub command: &'static str,
}

const fn out(file: &'static str, command: &'static str) -> Output {
    Output { file, command }
}

const TABLE1: Output = out("results/table1.txt", "gnn-bench table1 --scale 1");
const TABLE4: Output = out(
    "results/table4.txt",
    "gnn-bench table4 --scale 0.3 --epochs 60 --seeds 2",
);
const TABLE5: Output = out(
    "results/table5.txt",
    "gnn-bench table5 --scale 0.15 --epochs 10 --folds 2",
);
const FIG1: Output = out("results/fig1.txt", "gnn-bench fig1_2 --scale 0.5");
const FIG2: Output = out(
    "results/fig2.txt",
    "gnn-bench fig1_2 --dataset dd --scale 0.2",
);
const FIG3: Output = out("results/fig3.txt", "gnn-bench fig3 --scale 0.5");
const FIG6: Output = out("results/fig6.txt", "gnn-bench fig6 --scale 0.15");

/// Registry entry describing one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Experiment {
    /// Which table/figure.
    pub id: ExperimentId,
    /// Paper location, e.g. `"Table IV, Section IV-A"`.
    pub paper_ref: &'static str,
    /// Workload description (datasets, models, parameters).
    pub workload: &'static str,
    /// Key implementing modules.
    pub modules: &'static str,
    /// The checked-in outputs that hold it, with their commands.
    pub outputs: &'static [Output],
}

/// All reproduced experiments, in paper order.
pub const EXPERIMENTS: [Experiment; 9] = [
    Experiment {
        id: ExperimentId::Table1,
        paper_ref: "Table I, Section III-C",
        workload: "statistics of Cora, PubMed, ENZYMES, MNIST, DD",
        modules: "gnn_datasets::{citation, tud, superpixel}, types::DatasetStats",
        outputs: &[TABLE1],
    },
    Experiment {
        id: ExperimentId::Table4,
        paper_ref: "Table IV, Section IV-A",
        workload: "6 models x 2 frameworks, full-batch node classification on Cora/PubMed, max 200 epochs, Table II hyper-parameters",
        modules: "gnn_models::build::node_model_*, gnn_train::node_task, gnn_core::runner::table4",
        outputs: &[TABLE4],
    },
    Experiment {
        id: ExperimentId::Table5,
        paper_ref: "Table V, Section IV-B",
        workload: "6 models x 2 frameworks, batch-128 graph classification on ENZYMES/DD, 10-fold stratified CV, plateau lr decay to 1e-6, Table III hyper-parameters",
        modules: "gnn_models::build::graph_model_*, gnn_train::graph_task, gnn_core::runner::table5",
        outputs: &[TABLE5],
    },
    Experiment {
        id: ExperimentId::Fig1,
        paper_ref: "Fig. 1, Section IV-C",
        workload: "epoch-time breakdown (load/fwd/bwd/update/other) on ENZYMES, batch 64/128/256",
        modules: "gnn_device::session (phases), gnn_core::runner::profile_sweep",
        outputs: &[FIG1],
    },
    Experiment {
        id: ExperimentId::Fig2,
        paper_ref: "Fig. 2, Section IV-C",
        workload: "epoch-time breakdown on DD, batch 64/128/256",
        modules: "gnn_device::session (phases), gnn_core::runner::profile_sweep",
        outputs: &[FIG2],
    },
    Experiment {
        id: ExperimentId::Fig3,
        paper_ref: "Fig. 3, Section IV-C",
        workload: "per-conv-layer + readout execution time of one ENZYMES training batch (128 graphs)",
        modules: "gnn_device::session (scopes), gnn_core::runner::layer_times",
        outputs: &[FIG3],
    },
    Experiment {
        id: ExperimentId::Fig4,
        paper_ref: "Fig. 4, Section IV-D",
        workload: "peak device memory vs batch size on ENZYMES and DD (the Fig. 1/2 rows)",
        modules: "gnn_device::memory, gnn_core::runner::profile_sweep",
        outputs: &[FIG1, FIG2],
    },
    Experiment {
        id: ExperimentId::Fig5,
        paper_ref: "Fig. 5, Section IV-D",
        workload: "GPU compute utilization (Eq. 5) vs batch size on ENZYMES and DD (the Fig. 1/2 rows)",
        modules: "gnn_device::timeline, gnn_core::runner::profile_sweep",
        outputs: &[FIG1, FIG2],
    },
    Experiment {
        id: ExperimentId::Fig6,
        paper_ref: "Fig. 6, Section IV-E",
        workload: "DataParallel epoch time of GCN/GAT on MNIST superpixels, 1/2/4/8 GPUs, batch 128/256/512",
        modules: "gnn_device::multi, gnn_train::multi_gpu, gnn_core::runner::multi_gpu",
        outputs: &[FIG6],
    },
];

/// Looks up the registry entry for `id`.
pub fn experiment(id: ExperimentId) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .expect("registry covers all ids")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        for id in [
            ExperimentId::Table1,
            ExperimentId::Table4,
            ExperimentId::Table5,
            ExperimentId::Fig1,
            ExperimentId::Fig2,
            ExperimentId::Fig3,
            ExperimentId::Fig4,
            ExperimentId::Fig5,
            ExperimentId::Fig6,
        ] {
            let e = experiment(id);
            assert_eq!(e.id, id);
            assert!(!e.outputs.is_empty());
            for out in e.outputs {
                assert!(out.command.starts_with("gnn-bench "), "{}", out.command);
                assert!(out.file.starts_with("results/"), "{}", out.file);
            }
            assert!(!e.workload.is_empty());
        }
        assert_eq!(EXPERIMENTS.len(), 9);
    }
}
