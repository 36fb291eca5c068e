//! Node-level anomaly scorers implementing the five baselines.

use std::collections::BTreeMap;

use grgad_autograd::nn::Activation;
use grgad_autograd::{Adam, Mlp, Optimizer, Tensor};
use grgad_gnn::{Gae, GaeConfig, ReconstructionTarget};
use grgad_graph::Graph;
use grgad_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters shared by all baseline scorers.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Hidden dimensionality of encoders.
    pub hidden_dim: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Structure-vs-attribute weight (GAE-based methods).
    pub lambda: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            embed_dim: 32,
            epochs: 100,
            lr: 0.01,
            lambda: 0.5,
            seed: 0,
        }
    }
}

impl BaselineConfig {
    /// A small configuration for unit tests and CI.
    pub fn fast_test() -> Self {
        Self {
            hidden_dim: 16,
            embed_dim: 8,
            epochs: 30,
            lr: 0.02,
            lambda: 0.5,
            seed: 7,
        }
    }

    fn to_gae_config(&self) -> GaeConfig {
        GaeConfig {
            hidden_dim: self.hidden_dim,
            embed_dim: self.embed_dim,
            epochs: self.epochs,
            lr: self.lr,
            lambda: self.lambda,
            negative_samples: 1,
            seed: self.seed,
        }
    }
}

/// A method that assigns an anomaly score to every node of a graph
/// (higher = more anomalous).
pub trait NodeAnomalyScorer {
    /// Scores every node of the graph.
    fn score_nodes(&self, graph: &Graph) -> Vec<f32>;

    /// The method's name as used in the paper's tables.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// DOMINANT
// ---------------------------------------------------------------------------

/// DOMINANT (Ding et al., SDM 2019): a GAE with a shared GCN encoder and dual
/// decoders reconstructing the adjacency matrix and the attribute matrix;
/// node anomaly score = weighted reconstruction error.
pub struct Dominant {
    config: BaselineConfig,
}

impl Dominant {
    /// Creates a DOMINANT scorer.
    pub fn new(config: BaselineConfig) -> Self {
        Self { config }
    }
}

impl NodeAnomalyScorer for Dominant {
    fn score_nodes(&self, graph: &Graph) -> Vec<f32> {
        let target = ReconstructionTarget::Adjacency.build(graph);
        let mut gae = Gae::new(graph.feature_dim(), self.config.to_gae_config());
        gae.fit(graph, &target).combined
    }

    fn name(&self) -> &'static str {
        "DOMINANT"
    }
}

// ---------------------------------------------------------------------------
// DeepAE
// ---------------------------------------------------------------------------

/// DeepAE: a structure-agnostic deep attribute autoencoder; node anomaly
/// score = attribute reconstruction error. Serves as the pure-attribute
/// N-GAD reference in the paper's comparison.
pub struct DeepAe {
    config: BaselineConfig,
}

impl DeepAe {
    /// Creates a DeepAE scorer.
    pub fn new(config: BaselineConfig) -> Self {
        Self { config }
    }

    fn autoencode(&self, features: &Matrix) -> Vec<f32> {
        let d = features.cols();
        if d == 0 {
            return vec![0.0; features.rows()];
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let sizes = [
            d,
            self.config.hidden_dim,
            self.config.embed_dim,
            self.config.hidden_dim,
            d,
        ];
        let ae = Mlp::new(&sizes, Activation::Relu, Activation::Identity, &mut rng);
        let mut opt = Adam::new(ae.parameters(), self.config.lr);
        let x = Tensor::constant(features.clone());
        for _ in 0..self.config.epochs {
            opt.zero_grad();
            let recon = ae.forward(&x);
            let loss = recon.mse_loss(features);
            loss.backward();
            opt.step();
        }
        let recon = ae.forward(&x).value_clone();
        (0..features.rows())
            .map(|i| {
                features
                    .row(i)
                    .iter()
                    .zip(recon.row(i))
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt()
            })
            .collect()
    }
}

impl NodeAnomalyScorer for DeepAe {
    fn score_nodes(&self, graph: &Graph) -> Vec<f32> {
        self.autoencode(graph.features())
    }

    fn name(&self) -> &'static str {
        "DeepAE"
    }
}

// ---------------------------------------------------------------------------
// ComGA
// ---------------------------------------------------------------------------

/// ComGA (Luo et al., WSDM 2022): community-aware attributed-graph anomaly
/// detection. Community membership is detected by label propagation and
/// injected into the GAE's input features so the reconstruction must respect
/// community structure; node score = weighted reconstruction error.
pub struct ComGa {
    config: BaselineConfig,
    max_communities: usize,
}

impl ComGa {
    /// Creates a ComGA scorer.
    pub fn new(config: BaselineConfig) -> Self {
        Self {
            config,
            max_communities: 16,
        }
    }

    /// Label-propagation community detection, returning a community index per
    /// node (compacted to `0..num_communities`).
    pub fn detect_communities(graph: &Graph, iterations: usize) -> Vec<usize> {
        let n = graph.num_nodes();
        let mut labels: Vec<usize> = (0..n).collect();
        for _ in 0..iterations {
            let mut changed = false;
            for v in 0..n {
                let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
                for &u in graph.neighbors(v) {
                    *counts.entry(labels[u]).or_insert(0) += 1;
                }
                if let Some((&best, _)) = counts
                    .iter()
                    .max_by_key(|&(&label, &count)| (count, std::cmp::Reverse(label)))
                {
                    if best != labels[v] {
                        labels[v] = best;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Compact labels.
        let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = remap.len();
                *remap.entry(l).or_insert(next)
            })
            .collect()
    }
}

impl NodeAnomalyScorer for ComGa {
    fn score_nodes(&self, graph: &Graph) -> Vec<f32> {
        let communities = Self::detect_communities(graph, 10);
        let num_communities = communities.iter().copied().max().map_or(1, |m| m + 1);
        let one_hot_dim = num_communities.min(self.max_communities);
        let n = graph.num_nodes();
        let mut augmented = Matrix::zeros(n, graph.feature_dim() + one_hot_dim);
        for i in 0..n {
            augmented.row_mut(i)[..graph.feature_dim()].copy_from_slice(graph.features().row(i));
            let c = communities[i] % one_hot_dim;
            augmented[(i, graph.feature_dim() + c)] = 1.0;
        }
        let mut community_graph = graph.clone();
        community_graph.set_features(augmented);
        let target = ReconstructionTarget::Adjacency.build(&community_graph);
        let mut gae = Gae::new(community_graph.feature_dim(), self.config.to_gae_config());
        gae.fit(&community_graph, &target).combined
    }

    fn name(&self) -> &'static str {
        "ComGA"
    }
}

// ---------------------------------------------------------------------------
// DeepFD
// ---------------------------------------------------------------------------

/// DeepFD (Wang et al., ICDM 2018): deep structure learning for fraud
/// detection. Each node is described by structural statistics of its
/// neighborhood (degree, neighbor degrees, clustering, two-hop reach,
/// attribute similarity to neighbors) concatenated with its attributes, and a
/// deep autoencoder's reconstruction error is the anomaly score.
pub struct DeepFd {
    config: BaselineConfig,
}

impl DeepFd {
    /// Creates a DeepFD scorer.
    pub fn new(config: BaselineConfig) -> Self {
        Self { config }
    }

    /// Structural feature vector of a node.
    fn structural_features(graph: &Graph, v: usize) -> [f32; 6] {
        let deg = graph.degree(v) as f32;
        let nbrs = graph.neighbors(v);
        let mean_nbr_deg = if nbrs.is_empty() {
            0.0
        } else {
            nbrs.iter().map(|&u| graph.degree(u) as f32).sum::<f32>() / nbrs.len() as f32
        };
        // Local clustering coefficient.
        let mut triangles = 0usize;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if graph.has_edge(a, b) {
                    triangles += 1;
                }
            }
        }
        let possible = nbrs.len() * nbrs.len().saturating_sub(1) / 2;
        let clustering = if possible > 0 {
            triangles as f32 / possible as f32
        } else {
            0.0
        };
        // Two-hop reach.
        let mut two_hop: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for &u in nbrs {
            for &w in graph.neighbors(u) {
                if w != v {
                    two_hop.insert(w);
                }
            }
        }
        // Mean attribute similarity to neighbors.
        let mean_sim = if nbrs.is_empty() || graph.feature_dim() == 0 {
            0.0
        } else {
            nbrs.iter()
                .map(|&u| {
                    grgad_linalg::ops::cosine_similarity(
                        graph.features().row(v),
                        graph.features().row(u),
                    )
                })
                .sum::<f32>()
                / nbrs.len() as f32
        };
        let attr_norm = graph.features().row_norm(v);
        [
            deg,
            mean_nbr_deg,
            clustering,
            two_hop.len() as f32,
            mean_sim,
            attr_norm,
        ]
    }
}

impl NodeAnomalyScorer for DeepFd {
    fn score_nodes(&self, graph: &Graph) -> Vec<f32> {
        let n = graph.num_nodes();
        let d = graph.feature_dim();
        let mut combined = Matrix::zeros(n, d + 6);
        for i in 0..n {
            combined.row_mut(i)[..d].copy_from_slice(graph.features().row(i));
            combined.row_mut(i)[d..].copy_from_slice(&Self::structural_features(graph, i));
        }
        grgad_linalg::stats::standardize_columns(&mut combined);
        DeepAe::new(self.config.clone()).autoencode(&combined)
    }

    fn name(&self) -> &'static str {
        "DeepFD"
    }
}

// ---------------------------------------------------------------------------
// AS-GAE
// ---------------------------------------------------------------------------

/// AS-GAE (Zhang & Zhao, ICDM 2022): unsupervised deep subgraph anomaly
/// detection. A GAE provides node-level errors; the location-aware scoring
/// then smooths each node's error with its neighborhood's so that whole
/// anomalous substructures (not just their boundary nodes) receive high
/// scores before connected-component extraction.
pub struct AsGae {
    config: BaselineConfig,
    /// Mixing weight between a node's own error and its neighborhood mean.
    neighborhood_weight: f32,
}

impl AsGae {
    /// Creates an AS-GAE scorer.
    pub fn new(config: BaselineConfig) -> Self {
        Self {
            config,
            neighborhood_weight: 0.5,
        }
    }
}

impl NodeAnomalyScorer for AsGae {
    fn score_nodes(&self, graph: &Graph) -> Vec<f32> {
        let target = ReconstructionTarget::Adjacency.build(graph);
        let mut gae = Gae::new(graph.feature_dim(), self.config.to_gae_config());
        let base = gae.fit(graph, &target).combined;
        // Location-aware smoothing over the one-hop neighborhood.
        (0..graph.num_nodes())
            .map(|v| {
                let nbrs = graph.neighbors(v);
                let nbr_mean = if nbrs.is_empty() {
                    base[v]
                } else {
                    nbrs.iter().map(|&u| base[u]).sum::<f32>() / nbrs.len() as f32
                };
                (1.0 - self.neighborhood_weight) * base[v] + self.neighborhood_weight * nbr_mean
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "AS-GAE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Community graph with an attribute-anomalous path attached.
    fn toy_graph() -> (Graph, Vec<usize>) {
        let n = 30;
        let mut features = Matrix::zeros(n, 4);
        for i in 0..24 {
            features[(i, 0)] = 1.0;
            features[(i, 1)] = 1.0;
        }
        for i in 24..30 {
            features[(i, 0)] = -3.0;
            features[(i, 2)] = 3.0;
        }
        let mut g = Graph::new(n, features);
        for i in 0..24 {
            g.add_edge(i, (i + 1) % 24);
            g.add_edge(i, (i + 5) % 24);
        }
        g.add_edge(0, 24);
        for i in 24..29 {
            g.add_edge(i, i + 1);
        }
        (g, (24..30).collect())
    }

    fn scores_rank_anomalies(scorer: &dyn NodeAnomalyScorer) {
        let (g, anomalous) = toy_graph();
        let scores = scorer.score_nodes(&g);
        assert_eq!(scores.len(), g.num_nodes());
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "{} produced NaN",
            scorer.name()
        );
        let anom_mean: f32 =
            anomalous.iter().map(|&v| scores[v]).sum::<f32>() / anomalous.len() as f32;
        let normal_mean: f32 = (0..24).map(|v| scores[v]).sum::<f32>() / 24.0;
        assert!(
            anom_mean > normal_mean,
            "{}: anomalous nodes should outscore normal ones ({anom_mean} vs {normal_mean})",
            scorer.name()
        );
    }

    #[test]
    fn deepae_ranks_attribute_outliers() {
        scores_rank_anomalies(&DeepAe::new(BaselineConfig::fast_test()));
    }

    #[test]
    fn deepfd_ranks_attribute_outliers() {
        scores_rank_anomalies(&DeepFd::new(BaselineConfig::fast_test()));
    }

    #[test]
    fn dominant_produces_finite_scores() {
        let (g, _) = toy_graph();
        let scores = Dominant::new(BaselineConfig::fast_test()).score_nodes(&g);
        assert_eq!(scores.len(), g.num_nodes());
        assert!(scores
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }

    #[test]
    fn comga_produces_finite_scores_and_communities() {
        let (g, _) = toy_graph();
        let communities = ComGa::detect_communities(&g, 10);
        assert_eq!(communities.len(), g.num_nodes());
        let scores = ComGa::new(BaselineConfig::fast_test()).score_nodes(&g);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn asgae_smoothing_lifts_interior_nodes() {
        let (g, anomalous) = toy_graph();
        let scores = AsGae::new(BaselineConfig::fast_test()).score_nodes(&g);
        assert_eq!(scores.len(), g.num_nodes());
        assert!(scores.iter().all(|s| s.is_finite()));
        // interior anomalous nodes (away from the attachment point) should not
        // be zero-scored thanks to the smoothing
        let interior_mean: f32 =
            anomalous[2..].iter().map(|&v| scores[v]).sum::<f32>() / (anomalous.len() - 2) as f32;
        assert!(interior_mean > 0.0);
    }

    #[test]
    fn label_propagation_groups_connected_cliques() {
        // two disjoint triangles -> two communities
        let mut g = Graph::new(6, Matrix::zeros(6, 1));
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(3, 5);
        let communities = ComGa::detect_communities(&g, 20);
        assert_eq!(communities[0], communities[1]);
        assert_eq!(communities[1], communities[2]);
        assert_eq!(communities[3], communities[4]);
        assert_ne!(communities[0], communities[3]);
    }

    #[test]
    fn structural_features_are_sensible() {
        let (g, _) = toy_graph();
        let f = DeepFd::structural_features(&g, 0);
        assert!(f[0] >= 4.0); // degree of node 0 (ring + chords + anomaly link)
        assert!(f[2] >= 0.0 && f[2] <= 1.0); // clustering coefficient
        let names: Vec<&str> = vec![
            Dominant::new(BaselineConfig::fast_test()).name(),
            DeepAe::new(BaselineConfig::fast_test()).name(),
            ComGa::new(BaselineConfig::fast_test()).name(),
            DeepFd::new(BaselineConfig::fast_test()).name(),
            AsGae::new(BaselineConfig::fast_test()).name(),
        ];
        assert_eq!(
            names,
            vec!["DOMINANT", "DeepAE", "ComGA", "DeepFD", "AS-GAE"]
        );
    }
}
