//! Graph AutoEncoder (GAE) for unsupervised node-level reconstruction.
//!
//! The GAE here follows the architecture used by DOMINANT and the paper's
//! MH-GAE: a shared GCN encoder produces node embeddings `Z`, an attribute
//! decoder (a GCN layer) reconstructs the feature matrix `X'`, and an
//! inner-product structure decoder reconstructs a *structure target matrix*
//! (plain `A` for vanilla GAE; `A^k` or the GraphSNN `Ã` for MH-GAE).
//!
//! To stay scalable on graphs with tens of thousands of nodes the structure
//! decoder never materializes an `n × n` reconstruction: it scores the stored
//! (positive) entries of the target matrix plus a set of sampled negative
//! pairs each epoch.
//!
//! A [`Gae`] holds only its weights, configuration and loss history — no
//! embeddings or reconstructions outlive a call. Per-node errors are a
//! return value: [`Gae::fit`] returns them for the training graph and
//! [`Gae::node_errors_on`] for any graph, both through one shared path.

use grgad_autograd::nn::Activation;
use grgad_autograd::{Adam, Optimizer, Tensor};
use grgad_graph::Graph;
use grgad_linalg::ops::sigmoid_scalar;
use grgad_linalg::{CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gcn::{GcnEncoder, GcnInference, GcnLayer};

/// Hyperparameters of the GAE / MH-GAE training loop.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct GaeConfig {
    /// Hidden dimensionality of the GCN encoder.
    pub hidden_dim: usize,
    /// Embedding dimensionality (output of the encoder).
    pub embed_dim: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight `λ` of the structure error versus the attribute error
    /// (Eqn. 1 of the paper).
    pub lambda: f32,
    /// Number of negative (non-edge) pairs sampled per positive entry.
    pub negative_samples: usize,
    /// RNG seed for weight initialization and negative sampling.
    pub seed: u64,
}

impl Default for GaeConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            embed_dim: 32,
            epochs: 100,
            lr: 0.01,
            lambda: 0.5,
            negative_samples: 1,
            seed: 0,
        }
    }
}

/// Per-node reconstruction errors produced by a trained GAE.
#[derive(Clone, Debug)]
pub struct NodeErrors {
    /// Structure reconstruction error per node (`r_stru`).
    pub structure: Vec<f32>,
    /// Attribute reconstruction error per node (`r_attr`).
    pub attribute: Vec<f32>,
    /// Combined error `λ·r_stru + (1−λ)·r_attr` after min-max normalizing
    /// each component (so the two scales are comparable).
    pub combined: Vec<f32>,
}

impl NodeErrors {
    pub(crate) fn combine(structure: Vec<f32>, attribute: Vec<f32>, lambda: f32) -> Self {
        let normalize = |xs: &[f32]| -> Vec<f32> {
            let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let range = hi - lo;
            xs.iter()
                .map(|&x| if range > 0.0 { (x - lo) / range } else { 0.0 })
                .collect()
        };
        let sn = normalize(&structure);
        let an = normalize(&attribute);
        let combined = sn
            .iter()
            .zip(&an)
            .map(|(&s, &a)| lambda * s + (1.0 - lambda) * a)
            .collect();
        Self {
            structure,
            attribute,
            combined,
        }
    }
}

/// A trained (or trainable) graph autoencoder.
pub struct Gae {
    encoder: GcnEncoder,
    attr_decoder: GcnLayer,
    config: GaeConfig,
    loss_history: Vec<f32>,
}

impl Gae {
    /// Creates an untrained GAE for a graph with `feature_dim` node features.
    pub fn new(feature_dim: usize, config: GaeConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = GcnEncoder::new(
            &[feature_dim, config.hidden_dim, config.embed_dim],
            &mut rng,
        );
        let attr_decoder = GcnLayer::new(
            config.embed_dim,
            feature_dim,
            Activation::Identity,
            &mut rng,
        );
        Self {
            encoder,
            attr_decoder,
            config,
            loss_history: Vec::new(),
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &GaeConfig {
        &self.config
    }

    /// Per-epoch total losses recorded during the last call to [`Gae::fit`].
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// Trains the autoencoder on `graph`, reconstructing node attributes and
    /// the given structure `target` matrix, and returns the trained model's
    /// per-node errors on `graph` — computed by the same code as
    /// [`Gae::node_errors_on`], bit for bit. The per-epoch losses are in
    /// [`Gae::loss_history`].
    pub fn fit(&mut self, graph: &Graph, target: &CsrMatrix) -> NodeErrors {
        assert_eq!(
            target.rows(),
            graph.num_nodes(),
            "fit: target matrix must be n × n"
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let adj_norm = graph.normalized_adjacency();
        let x = Tensor::constant(graph.features().clone());
        let positives: Vec<(usize, usize, f32)> =
            target.iter().filter(|&(u, v, _)| u <= v).collect();

        let mut params = self.encoder.parameters();
        params.extend(self.attr_decoder.parameters());
        let mut opt = Adam::new(params, self.config.lr);

        self.loss_history.clear();
        for _epoch in 0..self.config.epochs {
            opt.zero_grad();
            let z = self.encoder.forward(&adj_norm, &x);
            let x_hat = self.attr_decoder.forward(&adj_norm, &z);
            let attr_loss = x_hat.mse_loss(graph.features());

            let (pairs, targets) = self.sample_structure_batch(graph, &positives, &mut rng);
            let structure_loss = if pairs.is_empty() {
                Tensor::scalar(0.0)
            } else {
                let logits = z.edge_dot(&pairs);
                logits.sigmoid().mse_loss(&targets)
            };
            // The ops captured what they need; free the caller-side batch
            // before backward so only one copy is live during the peak.
            drop(pairs);
            drop(targets);

            let loss = structure_loss
                .scale(self.config.lambda)
                .add(&attr_loss.scale(1.0 - self.config.lambda));
            self.loss_history.push(loss.scalar_value());
            loss.backward();
            opt.step();
        }

        self.errors_with(&adj_norm, graph, target)
    }

    fn sample_structure_batch(
        &self,
        graph: &Graph,
        positives: &[(usize, usize, f32)],
        rng: &mut StdRng,
    ) -> (Vec<(usize, usize)>, Matrix) {
        let n = graph.num_nodes();
        let mut pairs = Vec::with_capacity(positives.len() * (1 + self.config.negative_samples));
        let mut targets = Vec::with_capacity(pairs.capacity());
        for &(u, v, w) in positives {
            pairs.push((u, v));
            targets.push(w);
            for _ in 0..self.config.negative_samples {
                if n < 2 {
                    break;
                }
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                let mut attempts = 0;
                while (b == a || graph.has_edge(a, b)) && attempts < 10 {
                    b = rng.gen_range(0..n);
                    attempts += 1;
                }
                if b != a && !graph.has_edge(a, b) {
                    pairs.push((a, b));
                    targets.push(0.0);
                }
            }
        }
        let m = Matrix::from_vec(targets.len(), 1, targets);
        (pairs, m)
    }

    /// Computes per-node reconstruction errors for an arbitrary graph using
    /// the current (trained) weights — the zero-training scoring path.
    ///
    /// The attribute decode is fused into the per-node error map: row `i` of
    /// the reconstruction is computed (`gcn::layer_row`), reduced to
    /// its error, and dropped — the `n × feature_dim` matrix `X'` is never
    /// materialized, so scoring stays `O(n · embed_dim)` beyond the input
    /// features (which may themselves be mmap-backed). Bit-identical to
    /// decoding `X'` in full and erroring against it.
    pub fn node_errors_on(&self, graph: &Graph, target: &CsrMatrix) -> NodeErrors {
        self.errors_with(&graph.normalized_adjacency(), graph, target)
    }

    /// The error path shared by [`Gae::fit`] and [`Gae::node_errors_on`],
    /// on the autodiff-free chunked kernels (bit-identical to the `Tensor`
    /// forward) over a normalized adjacency the caller already holds.
    ///
    /// Structure error (Eqn. 1 / Eqn. 3): per stored entry of the target
    /// matrix, the deviation between the target weight and the decoded
    /// link probability. With a multi-hop / GraphSNN target the entries of
    /// planted groups carry weights their embeddings cannot match (their
    /// attributes bind them together while their multi-hop structure does
    /// not), which is the long-range inconsistency signal.
    ///
    /// Both decode heads are embarrassingly parallel per node: each node's
    /// error reads only its own target row / embedding rows and lands in
    /// its own slot, so the output is identical at any thread count.
    fn errors_with(&self, adj_norm: &CsrMatrix, graph: &Graph, target: &CsrMatrix) -> NodeErrors {
        let z = GcnInference::from_snapshots(self.encoder_snapshot())
            .forward(adj_norm, graph.features());
        let decoder = self.decoder_snapshot();
        let n = graph.num_nodes();
        let structure: Vec<f32> =
            grgad_parallel::par_map_range_min(n, 64, |i| structure_error_row(&z, target, i));
        let attribute: Vec<f32> = grgad_parallel::par_map_range_min(n, 256, |i| {
            attribute_error_row(adj_norm, &z, &decoder, graph.features(), i)
        });
        NodeErrors::combine(structure, attribute, self.config.lambda)
    }

    /// Per-layer `(weight, bias, activation)` snapshots of the encoder, in
    /// forward order — consumed by the incremental error cache.
    pub(crate) fn encoder_snapshot(&self) -> Vec<(Matrix, Matrix, Activation)> {
        self.encoder.layer_snapshots()
    }

    /// `(weight, bias, activation)` snapshot of the attribute decoder.
    pub(crate) fn decoder_snapshot(&self) -> (Matrix, Matrix, Activation) {
        self.attr_decoder.snapshot()
    }

    /// Input feature dimensionality this GAE was built for.
    pub fn feature_dim(&self) -> usize {
        self.encoder.layer_sizes()[0]
    }

    /// Snapshots all trainable weights: encoder layers first, then the
    /// attribute decoder, each as `[weight, bias]`.
    pub fn export_weights(&self) -> Vec<Matrix> {
        let mut weights = self.encoder.export_weights();
        let (w, b) = self.attr_decoder.export_weights();
        weights.push(w);
        weights.push(b);
        weights
    }

    /// Restores weights from an [`Gae::export_weights`] snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot does not match this GAE's architecture.
    pub fn import_weights(&self, weights: &[Matrix]) {
        assert!(
            weights.len() >= 2,
            "import_weights: snapshot too short ({} matrices)",
            weights.len()
        );
        let split = weights.len() - 2;
        self.encoder.import_weights(&weights[..split]);
        self.attr_decoder
            .import_weights(weights[split].clone(), weights[split + 1].clone());
    }
}

/// One node's structure reconstruction error: per stored entry of its
/// target row, the deviation between the target weight and the decoded
/// link probability, averaged over the row (0 for an empty row).
///
/// This is the exact per-slot closure body of the parallel structure-error
/// map in [`Gae`]: the incremental error cache recomputes single rows
/// through this same function, so a spliced value is bit-identical to a
/// full recomputation.
pub(crate) fn structure_error_row(z: &Matrix, target: &CsrMatrix, i: usize) -> f32 {
    let mut err = 0.0;
    let mut count = 0usize;
    for (j, t) in target.row_iter(i) {
        let dot: f32 = z.row(i).iter().zip(z.row(j)).map(|(&a, &b)| a * b).sum();
        err += (t - sigmoid_scalar(dot)).abs();
        count += 1;
    }
    if count > 0 {
        err / count as f32
    } else {
        0.0
    }
}

/// One node's attribute reconstruction error — the Euclidean distance
/// between its feature row and its reconstruction — with the decode fused
/// in: row `i` of `X'` is decoded from the embeddings `z`
/// (`gcn::layer_row`), reduced to its error and dropped, so `X'` never
/// exists as a full matrix. Shared between the full parallel map and the
/// incremental row patcher (see [`structure_error_row`]); bit-identical
/// to decoding `X'` in full and erroring against it.
pub(crate) fn attribute_error_row(
    adj_norm: &CsrMatrix,
    z: &Matrix,
    decoder: &(Matrix, Matrix, Activation),
    features: &Matrix,
    i: usize,
) -> f32 {
    let (dw, db, dact) = decoder;
    let x_hat_row = crate::gcn::layer_row(adj_norm, z, dw, db, *dact, i);
    features
        .row(i)
        .iter()
        .zip(&x_hat_row)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph with a dense "normal" community and a few attribute outliers.
    fn graph_with_outliers() -> (Graph, Vec<usize>) {
        let n = 30;
        let mut features = Matrix::zeros(n, 4);
        for i in 0..n {
            for j in 0..4 {
                features[(i, j)] = 1.0;
            }
        }
        // Outlier nodes with very different attributes.
        let outliers = vec![27, 28, 29];
        for &o in &outliers {
            for j in 0..4 {
                features[(o, j)] = -5.0;
            }
        }
        let mut g = Graph::new(n, features);
        // Ring among normal nodes plus chords.
        for i in 0..27 {
            g.add_edge(i, (i + 1) % 27);
            g.add_edge(i, (i + 3) % 27);
        }
        // Outliers attach sparsely.
        g.add_edge(27, 0);
        g.add_edge(28, 5);
        g.add_edge(29, 10);
        (g, outliers)
    }

    fn quick_config() -> GaeConfig {
        GaeConfig {
            hidden_dim: 16,
            embed_dim: 8,
            epochs: 60,
            lr: 0.02,
            lambda: 0.5,
            negative_samples: 1,
            seed: 7,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (g, _) = graph_with_outliers();
        let mut gae = Gae::new(g.feature_dim(), quick_config());
        gae.fit(&g, &g.adjacency());
        let history = gae.loss_history();
        assert_eq!(history.len(), 60);
        let first = history[..5].iter().sum::<f32>() / 5.0;
        let last = history[history.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn attribute_outliers_receive_higher_attribute_errors() {
        let (g, outliers) = graph_with_outliers();
        let mut config = quick_config();
        config.epochs = 150;
        let mut gae = Gae::new(g.feature_dim(), config);
        let errors = gae.fit(&g, &g.adjacency());
        // The attribute decoder is trained to reproduce the dominant feature
        // pattern; rare attribute outliers must reconstruct worse than the
        // typical normal node.
        let outlier_mean: f32 =
            outliers.iter().map(|&o| errors.attribute[o]).sum::<f32>() / outliers.len() as f32;
        let normal_mean: f32 = (0..27).map(|i| errors.attribute[i]).sum::<f32>() / 27.0;
        assert!(
            outlier_mean > normal_mean,
            "outliers should score higher: {outlier_mean} vs {normal_mean}"
        );
    }

    #[test]
    fn errors_are_finite_and_in_range() {
        let (g, _) = graph_with_outliers();
        let mut gae = Gae::new(g.feature_dim(), quick_config());
        let errors = gae.fit(&g, &g.adjacency());
        assert_eq!(errors.structure.len(), g.num_nodes());
        assert_eq!(errors.attribute.len(), g.num_nodes());
        assert_eq!(errors.combined.len(), g.num_nodes());
        assert!(errors.structure.iter().all(|e| e.is_finite()));
        assert!(errors.attribute.iter().all(|e| e.is_finite()));
        for &e in &errors.combined {
            assert!(e.is_finite());
            assert!((0.0..=1.0).contains(&e));
        }
    }
}
