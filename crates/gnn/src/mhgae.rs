//! The Multi-Hop Graph AutoEncoder (MH-GAE, Sec. V-B of the paper).
//!
//! MH-GAE is a GAE whose structure-reconstruction target captures multi-hop
//! information: either a standardized adjacency power `A^k` (Eqn. 3) or the
//! GraphSNN weighted adjacency `Ã` (Eqn. 4). Reconstructing these targets
//! forces the encoder to notice *long-range inconsistency* — nodes that blend
//! in with their one-hop neighbors inside an anomaly group but differ from
//! nodes further away — which vanilla GAE misses (Fig. 3 / Fig. 8 of the
//! paper).

use grgad_graph::algorithms::{graphsnn_adjacency, khop_matrix};
use grgad_graph::Graph;
use grgad_linalg::CsrMatrix;

use crate::gae::{Gae, GaeConfig, NodeErrors};

/// Which matrix the structure decoder must reconstruct.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReconstructionTarget {
    /// The plain adjacency `A` (vanilla GAE behaviour; Table IV column "A").
    Adjacency,
    /// The standardized k-hop power `A^k` (Table IV columns A³, A⁵, A⁷).
    KHop(usize),
    /// The GraphSNN weighted adjacency `Ã` with exponent `lambda`
    /// (the paper's recommended target; Table IV column Ã).
    GraphSnn {
        /// The `λ` exponent of Eqn. 4.
        lambda: f32,
    },
}

impl ReconstructionTarget {
    /// Materializes the target matrix for a graph.
    pub fn build(&self, graph: &Graph) -> CsrMatrix {
        match *self {
            ReconstructionTarget::Adjacency => graph.adjacency(),
            ReconstructionTarget::KHop(k) => khop_matrix(graph, k),
            ReconstructionTarget::GraphSnn { lambda } => graphsnn_adjacency(graph, lambda),
        }
    }

    /// Short label used in experiment tables ("A", "A^3", "A~", ...).
    pub fn label(&self) -> String {
        match *self {
            ReconstructionTarget::Adjacency => "A".to_string(),
            ReconstructionTarget::KHop(k) => format!("A^{k}"),
            ReconstructionTarget::GraphSnn { .. } => "A~".to_string(),
        }
    }
}

// The vendored serde derive supports only named-field structs, so the enum
// (de)serializes through a tagged map by hand.
impl serde::Serialize for ReconstructionTarget {
    fn to_value(&self) -> serde::Value {
        let mut entries = Vec::new();
        let kind = match *self {
            ReconstructionTarget::Adjacency => "adjacency",
            ReconstructionTarget::KHop(k) => {
                entries.push(("k".to_string(), serde::Serialize::to_value(&k)));
                "khop"
            }
            ReconstructionTarget::GraphSnn { lambda } => {
                entries.push(("lambda".to_string(), serde::Serialize::to_value(&lambda)));
                "graphsnn"
            }
        };
        entries.insert(0, ("kind".to_string(), serde::Value::Str(kind.to_string())));
        serde::Value::Map(entries)
    }
}

impl serde::Deserialize for ReconstructionTarget {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let kind = String::from_value(value.field("kind")?)?;
        match kind.as_str() {
            "adjacency" => Ok(ReconstructionTarget::Adjacency),
            "khop" => Ok(ReconstructionTarget::KHop(usize::from_value(
                value.field("k")?,
            )?)),
            "graphsnn" => Ok(ReconstructionTarget::GraphSnn {
                lambda: f32::from_value(value.field("lambda")?)?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown reconstruction target kind `{other}`"
            ))),
        }
    }
}

/// The Multi-Hop Graph AutoEncoder: a [`Gae`] plus a multi-hop reconstruction
/// target kind. It holds only weights, configuration and loss history; the
/// target matrix is built per call and dropped, and the per-node errors that
/// pick the anchor nodes ([`crate::select_anchor_nodes`]) are return values.
pub struct MhGae {
    gae: Gae,
    target_kind: ReconstructionTarget,
}

impl MhGae {
    /// Creates an untrained MH-GAE.
    pub fn new(feature_dim: usize, target: ReconstructionTarget, config: GaeConfig) -> Self {
        Self {
            gae: Gae::new(feature_dim, config),
            target_kind: target,
        }
    }

    /// The configured reconstruction target kind.
    pub fn target_kind(&self) -> ReconstructionTarget {
        self.target_kind
    }

    /// Builds the reconstruction target for `graph`, trains on it and
    /// returns the per-node reconstruction errors of the trained model on
    /// `graph` — bit-identical to [`MhGae::infer_errors`] on the same graph.
    /// The target is dropped on return.
    pub fn fit(&mut self, graph: &Graph) -> NodeErrors {
        let target = self.target_kind.build(graph);
        self.gae.fit(graph, &target)
    }

    /// Computes per-node errors for an arbitrary graph with the trained
    /// weights — zero training epochs. The structure target is built fresh
    /// for the given graph.
    pub fn infer_errors(&self, graph: &Graph) -> NodeErrors {
        let target = self.target_kind.build(graph);
        self.gae.node_errors_on(graph, &target)
    }

    /// Input feature dimensionality this model was built for.
    pub fn feature_dim(&self) -> usize {
        self.gae.feature_dim()
    }

    /// Snapshots the trainable weights (see [`Gae::export_weights`]).
    pub fn export_weights(&self) -> Vec<grgad_linalg::Matrix> {
        self.gae.export_weights()
    }

    /// Restores weights from an [`MhGae::export_weights`] snapshot.
    pub fn import_weights(&self, weights: &[grgad_linalg::Matrix]) {
        self.gae.import_weights(weights);
    }

    /// Access to the inner GAE (configuration, loss history).
    pub fn gae(&self) -> &Gae {
        &self.gae
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select_anchor_nodes;
    use grgad_linalg::Matrix;

    /// Builds a graph with a "deeply embedded" anomaly group: a path of
    /// attribute-consistent nodes hanging off a homogeneous community. The
    /// interior path nodes match their one-hop neighbors but differ from the
    /// rest of the graph — the long-range inconsistency scenario.
    fn long_range_graph() -> (Graph, Vec<usize>) {
        let n = 40;
        let mut features = Matrix::zeros(n, 3);
        for i in 0..32 {
            features[(i, 0)] = 1.0;
            features[(i, 1)] = 1.0;
        }
        // Anomalous path nodes 32..40 share attributes with each other only.
        for i in 32..40 {
            features[(i, 1)] = -2.0;
            features[(i, 2)] = 3.0;
        }
        let mut g = Graph::new(n, features);
        for i in 0..32 {
            g.add_edge(i, (i + 1) % 32);
            g.add_edge(i, (i + 5) % 32);
        }
        // The anomalous path attaches to the community at one end.
        g.add_edge(0, 32);
        for i in 32..39 {
            g.add_edge(i, i + 1);
        }
        (g, (32..40).collect())
    }

    fn quick_config() -> GaeConfig {
        GaeConfig {
            hidden_dim: 16,
            embed_dim: 8,
            epochs: 50,
            lr: 0.02,
            lambda: 0.5,
            negative_samples: 1,
            seed: 11,
        }
    }

    #[test]
    fn target_builders_have_expected_shapes() {
        let (g, _) = long_range_graph();
        let n = g.num_nodes();
        for target in [
            ReconstructionTarget::Adjacency,
            ReconstructionTarget::KHop(3),
            ReconstructionTarget::GraphSnn { lambda: 1.0 },
        ] {
            let m = target.build(&g);
            assert_eq!(m.shape(), (n, n), "target {}", target.label());
            assert!(m.nnz() > 0);
        }
        assert_eq!(ReconstructionTarget::Adjacency.label(), "A");
        assert_eq!(ReconstructionTarget::KHop(5).label(), "A^5");
        assert_eq!(ReconstructionTarget::GraphSnn { lambda: 1.0 }.label(), "A~");
    }

    #[test]
    fn fit_produces_errors_and_anchors() {
        let (g, _) = long_range_graph();
        let mut model = MhGae::new(
            g.feature_dim(),
            ReconstructionTarget::GraphSnn { lambda: 1.0 },
            quick_config(),
        );
        let errors = model.fit(&g);
        assert_eq!(errors.combined.len(), g.num_nodes());
        let anchors = select_anchor_nodes(&errors.combined, 0.1);
        assert_eq!(anchors.len(), 4); // 10% of 40
    }

    #[test]
    fn anchors_hit_the_anomalous_region() {
        let (g, anomalous) = long_range_graph();
        let mut model = MhGae::new(
            g.feature_dim(),
            ReconstructionTarget::GraphSnn { lambda: 1.0 },
            quick_config(),
        );
        let anchors = select_anchor_nodes(&model.fit(&g).combined, 0.25);
        let hits = anchors.iter().filter(|a| anomalous.contains(a)).count();
        assert!(
            hits >= 1,
            "expected at least one anchor inside the anomaly group, got anchors {anchors:?}"
        );
    }

    #[test]
    fn fit_errors_match_infer_errors_bitwise() {
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (g, _) = long_range_graph();
        for target in [
            ReconstructionTarget::Adjacency,
            ReconstructionTarget::KHop(3),
            ReconstructionTarget::GraphSnn { lambda: 1.0 },
        ] {
            let mut model = MhGae::new(g.feature_dim(), target, quick_config());
            let fitted = model.fit(&g);
            let inferred = model.infer_errors(&g);
            let label = target.label();
            assert_eq!(
                bits(&fitted.structure),
                bits(&inferred.structure),
                "{label}"
            );
            assert_eq!(
                bits(&fitted.attribute),
                bits(&inferred.attribute),
                "{label}"
            );
            assert_eq!(bits(&fitted.combined), bits(&inferred.combined), "{label}");
        }
    }

    #[test]
    fn exported_weights_round_trip_through_a_fresh_model() {
        let (g, _) = long_range_graph();
        let target = ReconstructionTarget::GraphSnn { lambda: 1.0 };
        let mut model = MhGae::new(g.feature_dim(), target, quick_config());
        model.fit(&g);
        let weights = model.export_weights();

        let mut other_config = quick_config();
        other_config.seed = 999; // different init — must be fully overwritten
        let fresh = MhGae::new(g.feature_dim(), target, other_config);
        fresh.import_weights(&weights);
        assert_eq!(
            model.infer_errors(&g).combined,
            fresh.infer_errors(&g).combined
        );
        assert_eq!(model.feature_dim(), 3);
    }

    #[test]
    fn reconstruction_target_serde_round_trip() {
        for target in [
            ReconstructionTarget::Adjacency,
            ReconstructionTarget::KHop(5),
            ReconstructionTarget::GraphSnn { lambda: 0.75 },
        ] {
            let json = serde_json::to_string(&target).unwrap();
            let back: ReconstructionTarget = serde_json::from_str(&json).unwrap();
            assert_eq!(target, back);
        }
        assert!(serde_json::from_str::<ReconstructionTarget>("{\"kind\":\"nope\"}").is_err());
    }
}
