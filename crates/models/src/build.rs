//! Model builders: (model kind, framework) → ready-to-train [`GnnStack`].
//!
//! A [`StackPlan`] is the one description of a stack: its per-layer widths
//! (Tables II/III), the batch-norm/ReLU/residual wiring and the readout
//! head. Node-classification plans follow the paper's Section IV-A setup
//! (2 layers, `input → hidden → output`, Table II widths); graph-
//! classification plans follow Section IV-B (4 conv layers with batch norm,
//! ReLU and residual connections, mean readout into an MLP classifier,
//! Table III widths). The builders below instantiate a plan with one
//! framework's conv layers, and `gnn-lint` lowers the same plan.

use gnn_tensor::nn::{BatchNorm1d, Mlp};
use rand::Rng;

use crate::config::{graph_hparams, node_hparams, FrameworkKind, ModelKind};
use crate::stack::{Conv, GnnStack, Head};

/// Which of the paper's two protocols the stack follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Full-batch 2-layer node classification (Section IV-A).
    Node,
    /// Mini-batched 4-layer graph classification (Section IV-B).
    Graph,
}

/// One conv layer's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    /// Input feature width.
    pub in_dim: usize,
    /// Output width per head (total width is `out * heads`).
    pub out: usize,
    /// Attention heads (1 for non-GAT layers).
    pub heads: usize,
    /// Gaussian kernels (MoNet).
    pub kernels: usize,
    /// Pseudo-coordinate dims (MoNet).
    pub pseudo_dim: usize,
}

impl LayerPlan {
    /// Total output width (`out * heads`).
    pub fn width(&self) -> usize {
        self.out * self.heads
    }
}

/// A full model stack: what the builders instantiate and `gnn-lint` lowers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackPlan {
    /// Architecture.
    pub model: ModelKind,
    /// Framework whose layers implement it.
    pub framework: FrameworkKind,
    /// Protocol (decides head, residual wiring, batching).
    pub task: Task,
    /// Dataset feature width.
    pub in_dim: usize,
    /// Dataset class count.
    pub num_classes: usize,
    /// Conv layers in order.
    pub layers: Vec<LayerPlan>,
    /// Outer batch norm per layer (graph task, except GIN's internal norm).
    pub bn: Vec<bool>,
    /// ReLU after each layer.
    pub relu: Vec<bool>,
    /// Residual connections (applied only where a layer keeps its width).
    pub residual: bool,
    /// Readout MLP dims (empty for the node head).
    pub mlp_dims: Vec<usize>,
}

impl StackPlan {
    /// The 2-layer node-classification stack with Table II
    /// hyper-parameters.
    pub fn node(
        model: ModelKind,
        framework: FrameworkKind,
        in_dim: usize,
        num_classes: usize,
    ) -> Self {
        let hp = node_hparams(model);
        let layer = |in_dim, out, heads| LayerPlan {
            in_dim,
            out,
            heads,
            kernels: hp.kernels,
            pseudo_dim: hp.pseudo_dim,
        };
        let layers = match model {
            ModelKind::Gat => vec![
                layer(in_dim, hp.hidden, hp.heads),
                layer(hp.hidden * hp.heads, num_classes, 1),
            ],
            _ => vec![
                layer(in_dim, hp.hidden, 1),
                layer(hp.hidden, num_classes, 1),
            ],
        };
        StackPlan {
            model,
            framework,
            task: Task::Node,
            in_dim,
            num_classes,
            layers,
            bn: vec![false; 2],
            relu: vec![true, false],
            residual: false,
            mlp_dims: vec![],
        }
    }

    /// The 4-layer graph-classification stack with Table III
    /// hyper-parameters.
    pub fn graph(
        model: ModelKind,
        framework: FrameworkKind,
        in_dim: usize,
        num_classes: usize,
    ) -> Self {
        let hp = graph_hparams(model);
        let width = hp.out;
        let (out, heads) = match model {
            ModelKind::Gat => (hp.hidden, hp.heads),
            _ => (width, 1),
        };
        let layers = (0..hp.layers)
            .map(|l| LayerPlan {
                in_dim: if l == 0 { in_dim } else { width },
                out,
                heads,
                kernels: hp.kernels,
                pseudo_dim: hp.pseudo_dim,
            })
            .collect();
        let internal_norm = matches!(model, ModelKind::Gin);
        StackPlan {
            model,
            framework,
            task: Task::Graph,
            in_dim,
            num_classes,
            layers,
            bn: vec![!internal_norm; hp.layers],
            relu: vec![true; hp.layers],
            residual: true,
            mlp_dims: vec![width, width / 2, num_classes],
        }
    }
}

macro_rules! framework_builders {
    (
        $plan_fn:ident, $node_fn:ident, $graph_fn:ident,
        $fw:ident, $framework:expr, $batch:ty, $gcn:ident, $pool:expr
    ) => {
        /// Instantiates `plan` with this framework's layers: one conv per
        /// plan layer, then the plan's batch norms and head. Weights are
        /// drawn from `rng` layer by layer, then the readout MLP's.
        ///
        /// # Panics
        ///
        /// Panics if `plan` names the other framework.
        pub fn $plan_fn<R: Rng + ?Sized>(plan: &StackPlan, rng: &mut R) -> GnnStack<$batch> {
            assert_eq!(plan.framework, $framework, "plan names another framework");
            let convs = (plan.layers.iter())
                .map(|l| -> Box<dyn Conv<$batch>> {
                    match plan.model {
                        ModelKind::Gcn => Box::new($fw::$gcn::new(l.in_dim, l.out, rng)),
                        ModelKind::Gat => {
                            Box::new($fw::GatConv::new(l.in_dim, l.out, l.heads, rng))
                        }
                        ModelKind::Sage => Box::new($fw::SageConv::new(l.in_dim, l.out, rng)),
                        ModelKind::Gin => Box::new($fw::GinConv::new(l.in_dim, l.out, rng)),
                        ModelKind::MoNet => Box::new($fw::MoNetConv::new(
                            l.in_dim,
                            l.out,
                            l.kernels,
                            l.pseudo_dim,
                            rng,
                        )),
                        ModelKind::GatedGcn => {
                            Box::new($fw::GatedGcnConv::new(l.in_dim, l.out, rng))
                        }
                    }
                })
                .collect();
            let bns = (plan.layers.iter().zip(&plan.bn))
                .map(|(l, &bn)| bn.then(|| BatchNorm1d::new(l.width())))
                .collect();
            let head = match plan.task {
                Task::Node => Head::NodeLogits,
                Task::Graph => Head::GraphClassifier {
                    pool: $pool,
                    mlp: Mlp::new(&plan.mlp_dims, rng),
                },
            };
            GnnStack::new(
                plan.model.label(),
                convs,
                bns,
                plan.relu.clone(),
                plan.residual,
                head,
            )
        }

        /// Builds the 2-layer node-classification variant of `kind` for this
        /// framework ([`StackPlan::node`]).
        pub fn $node_fn<R: Rng + ?Sized>(
            kind: ModelKind,
            in_dim: usize,
            num_classes: usize,
            rng: &mut R,
        ) -> GnnStack<$batch> {
            $plan_fn(&StackPlan::node(kind, $framework, in_dim, num_classes), rng)
        }

        /// Builds the 4-layer graph-classification variant of `kind` for
        /// this framework ([`StackPlan::graph`]).
        pub fn $graph_fn<R: Rng + ?Sized>(
            kind: ModelKind,
            in_dim: usize,
            num_classes: usize,
            rng: &mut R,
        ) -> GnnStack<$batch> {
            $plan_fn(
                &StackPlan::graph(kind, $framework, in_dim, num_classes),
                rng,
            )
        }
    };
}

framework_builders!(
    model_rustyg,
    node_model_rustyg,
    graph_model_rustyg,
    rustyg,
    FrameworkKind::RustyG,
    rustyg::Batch,
    GcnConv,
    rustyg::global_mean_pool
);
framework_builders!(
    model_rgl,
    node_model_rgl,
    graph_model_rgl,
    rgl,
    FrameworkKind::Rgl,
    rgl::HeteroBatch,
    GraphConv,
    rgl::segment_mean_pool
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{Loader, RglLoader, RustygLoader};
    use crate::config::ALL_MODELS;
    use gnn_datasets::TudSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_twelve_graph_variants_forward() {
        let ds = TudSpec::enzymes().scaled(0.05).generate(0);
        let pyg = RustygLoader::new(&ds);
        let dgl = RglLoader::new(&ds);
        let pb = pyg.load(&[0, 1, 2]);
        let db = dgl.load(&[0, 1, 2]);
        for kind in ALL_MODELS {
            let mut rng = StdRng::seed_from_u64(7);
            let m1 = graph_model_rustyg(kind, 18, 6, &mut rng);
            assert_eq!(m1.forward(&pb, true).shape(), (3, 6), "{kind:?} rustyg");
            let mut rng = StdRng::seed_from_u64(7);
            let m2 = graph_model_rgl(kind, 18, 6, &mut rng);
            assert_eq!(m2.forward(&db, true).shape(), (3, 6), "{kind:?} rgl");
        }
    }

    #[test]
    fn all_twelve_node_variants_forward() {
        let ds = gnn_datasets::CitationSpec::cora().scaled(0.08).generate(1);
        let pb = rustyg::loader::full_graph_batch(&ds);
        let db = rgl::loader::full_graph_batch(&ds);
        let n = ds.graph.num_nodes();
        for kind in ALL_MODELS {
            let mut rng = StdRng::seed_from_u64(3);
            let m1 = node_model_rustyg(kind, 1433, 7, &mut rng);
            assert_eq!(m1.forward(&pb, false).shape(), (n, 7), "{kind:?} rustyg");
            let mut rng = StdRng::seed_from_u64(3);
            let m2 = node_model_rgl(kind, 1433, 7, &mut rng);
            assert_eq!(m2.forward(&db, false).shape(), (n, 7), "{kind:?} rgl");
        }
    }

    #[test]
    fn gat_graph_model_width_is_heads_times_hidden() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = graph_model_rustyg(ModelKind::Gat, 18, 6, &mut rng);
        // 4 GAT layers with 8 heads of 32 + BN + MLP; forward above already
        // checks shapes — here check the parameter inventory is substantial.
        assert!(m.params().len() >= 4 * 3 + 4 * 2 + 4);
    }

    #[test]
    fn gin_stacks_have_no_outer_bn() {
        let mut rng = StdRng::seed_from_u64(0);
        let gin = graph_model_rustyg(ModelKind::Gin, 18, 6, &mut rng);
        let gcn = graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        // GIN carries its BN inside each conv (2 extra params per conv) and
        // none outside; GCN has 2 outer BN params per layer. Distinguish by
        // counting: both must simply be > 0; structural check is that GIN's
        // epsilon params exist.
        assert!(
            gin.params().iter().any(|p| p.shape() == (1, 1)),
            "GIN eps present"
        );
        assert!(!gcn.params().iter().any(|p| p.shape() == (1, 1)));
    }
}
