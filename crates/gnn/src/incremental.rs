//! Incremental anchor localization: the [`ErrorCache`] and the dirty-region
//! row patching behind [`MhGae::infer_errors_cached`].
//!
//! # Receptive-field locality
//!
//! A delta confined to a node set `D` (both endpoints of every changed
//! edge, re-featured nodes, appended nodes) can change the output of an
//! `L`-layer GCN forward only within the closed hop ball `N_L[D]`: each
//! propagation step `act(Â·H·W + b)` reads one hop of neighborhood, and
//! every changed row of `Â` (degrees change only at `D`) or `X` belongs to
//! `N_1[D]`. So the cache keeps the full per-layer activations from the
//! previous round and recomputes **rows only**:
//!
//! * encoder layer `l` (1-based): rows in `N_l[D]`,
//! * structure errors: changed target rows ∪ `N_{L+1}[D]` (a node's
//!   structure error reads its target row plus the embeddings of its
//!   target-neighbors, and the target's sparsity equals the adjacency's),
//! * attribute errors: rows in `N_{L+1}[D]`, each decoding its own row of
//!   the attribute reconstruction and dropping it (the decoder output is
//!   read only by the attribute error, so it is never cached).
//!
//! # Bit-for-bit parity
//!
//! Every patched row goes through `layer_row`, which replays the exact
//! per-row kernels of the full forward (`CsrMatrix::matmul_dense` row
//! accumulation, the dense ikj zero-skip product, the bias broadcast, the
//! scalar activation) in the same order — so a patched row is bitwise equal
//! to the row a full recomputation would produce, and untouched rows are
//! bitwise equal by the locality argument. The reconstruction target is
//! rebuilt through [`graphsnn_adjacency_cached`] (raw weights are local;
//! the global rescale is exact), and rows whose stored values moved — e.g.
//! because the global maximum shifted — are detected by bitwise comparison
//! and folded into the structure-error recompute set. `A^k` targets are
//! global (matrix powers), so [`ReconstructionTarget::KHop`] models always
//! take the full-recompute path; their caches still repopulate so the
//! downstream stages (sampling, embeddings) stay incremental.

use std::collections::BTreeSet;

use grgad_autograd::nn::Activation;
use grgad_graph::algorithms::{graphsnn_adjacency_cached, hop_ball};
use grgad_graph::Graph;
use grgad_linalg::{CsrMatrix, Matrix};

use crate::gae::{attribute_error_row, structure_error_row, NodeErrors};
use crate::gcn::{forward_layer_rows, layer_row};
use crate::mhgae::{MhGae, ReconstructionTarget};

/// Cross-round cache of everything stage 1 derives from the graph: the
/// per-layer encoder activations, the reconstruction target (plus raw
/// GraphSNN overlap weights), and the raw per-node error vectors. Owned by
/// the pipeline's `IncrementalState`; opaque outside this crate.
#[derive(Clone, Debug)]
pub struct ErrorCache {
    /// Output of each encoder layer, in forward order (last = embeddings).
    layer_outputs: Vec<Matrix>,
    /// The reconstruction target of the previous round.
    target: CsrMatrix,
    /// Raw (pre-standardization) GraphSNN overlap weight per edge of the
    /// previous round's graph, in `Graph::edges()` order — the order of the
    /// target's upper triangle; empty for other target kinds.
    raw_overlap: Vec<f32>,
    /// Per-node structure errors (raw, pre-normalization).
    structure: Vec<f32>,
    /// Per-node attribute errors (raw, pre-normalization).
    attribute: Vec<f32>,
}

impl ErrorCache {
    /// Number of nodes the cache covers.
    pub fn nodes(&self) -> usize {
        self.structure.len()
    }

    /// The previous round's edges `(min, max)` — read off the target's
    /// upper triangle, whose sparsity is the adjacency's — paired with
    /// their raw overlap weights.
    fn previous_overlap(&self) -> impl Iterator<Item = ((usize, usize), f32)> + '_ {
        let target = &self.target;
        (0..target.rows())
            .flat_map(move |i| {
                target
                    .row_iter(i)
                    .filter(move |&(j, _)| j > i)
                    .map(move |(j, _)| (i, j))
            })
            .zip(self.raw_overlap.iter().copied())
    }
}

/// CSR matrices carry no serde of their own; the cache persists them as
/// `{rows, cols, triplets}` and rebuilds through `from_triplets`, which is
/// bit-exact for the already-sorted, duplicate-free triplets `iter()`
/// yields.
fn csr_to_value(m: &CsrMatrix) -> serde::Value {
    use serde::Serialize;
    let triplets: Vec<(usize, usize, f32)> = m.iter().collect();
    serde::Value::Map(vec![
        ("rows".to_string(), m.rows().to_value()),
        ("cols".to_string(), m.cols().to_value()),
        ("triplets".to_string(), triplets.to_value()),
    ])
}

fn csr_from_value(value: &serde::Value) -> Result<CsrMatrix, serde::Error> {
    use serde::Deserialize;
    let rows = usize::from_value(value.field("rows")?)?;
    let cols = usize::from_value(value.field("cols")?)?;
    let triplets = Vec::<(usize, usize, f32)>::from_value(value.field("triplets")?)?;
    Ok(CsrMatrix::from_triplets(rows, cols, triplets))
}

impl serde::Serialize for ErrorCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("layer_outputs".to_string(), self.layer_outputs.to_value()),
            ("target".to_string(), csr_to_value(&self.target)),
            ("raw_overlap".to_string(), self.raw_overlap.to_value()),
            ("structure".to_string(), self.structure.to_value()),
            ("attribute".to_string(), self.attribute.to_value()),
        ])
    }
}

impl serde::Deserialize for ErrorCache {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let target = csr_from_value(value.field("target")?)?;
        let raw_overlap = Vec::<f32>::from_value(value.field("raw_overlap")?)?;
        // One weight per target edge, or none at all (non-GraphSNN target).
        if !raw_overlap.is_empty() && 2 * raw_overlap.len() != target.nnz() {
            return Err(serde::Error::custom(format!(
                "raw_overlap holds {} weights for a target with {} stored entries",
                raw_overlap.len(),
                target.nnz()
            )));
        }
        Ok(Self {
            layer_outputs: Vec::<Matrix>::from_value(value.field("layer_outputs")?)?,
            target,
            raw_overlap,
            structure: Vec::<f32>::from_value(value.field("structure")?)?,
            attribute: Vec::<f32>::from_value(value.field("attribute")?)?,
        })
    }
}

/// Full per-layer encoder forward with the chunked inference kernels
/// ([`forward_layer_rows`]), returning every layer output. Bit-identical to
/// the `Tensor` forward (`gcn` test
/// `inference_snapshot_matches_tensor_forward_bitwise` pins the kernel
/// identity).
fn full_forward(
    adj: &CsrMatrix,
    graph: &Graph,
    encoder: &[(Matrix, Matrix, Activation)],
) -> Vec<Matrix> {
    let mut outputs: Vec<Matrix> = Vec::with_capacity(encoder.len());
    for (w, b, act) in encoder {
        let input = outputs.last().unwrap_or_else(|| graph.features());
        let h = forward_layer_rows(adj, input, w, b, *act);
        outputs.push(h);
    }
    outputs
}

/// Rows `0..n` whose stored target entries differ bitwise between the old
/// and new target (rows beyond the old target count as changed).
fn changed_rows(old: &CsrMatrix, new: &CsrMatrix, n: usize) -> Vec<usize> {
    (0..n)
        .filter(|&i| {
            if i >= old.rows() {
                return true;
            }
            let a: Vec<(usize, u32)> = old.row_iter(i).map(|(j, v)| (j, v.to_bits())).collect();
            let b: Vec<(usize, u32)> = new.row_iter(i).map(|(j, v)| (j, v.to_bits())).collect();
            a != b
        })
        .collect()
}

/// Appends zero rows to `m` until it has `rows` rows (no-op if it already
/// does). The appended rows are always members of the dirty set, so they
/// are recomputed before being read.
fn grow_rows(m: &Matrix, rows: usize) -> Matrix {
    if m.rows() >= rows {
        return m.clone();
    }
    let mut out = Matrix::zeros(rows, m.cols());
    for i in 0..m.rows() {
        out.row_mut(i).copy_from_slice(m.row(i));
    }
    out
}

impl MhGae {
    /// [`MhGae::infer_errors`] with a cross-round [`ErrorCache`]: recomputes
    /// reconstruction errors only for nodes inside the GCN receptive field
    /// of `dirty` (every node a delta touched since the cache was filled),
    /// splicing them into the cached per-node vectors. Returns the errors
    /// plus the number of nodes whose errors were actually recomputed.
    ///
    /// `topology_dirty` is the subset of `dirty` whose *neighborhood*
    /// changed (the endpoints of every inserted or removed edge). When it
    /// is empty and no node was appended, the reconstruction target — a
    /// pure function of topology — is provably unchanged, so the target
    /// rebuild, its global rescale, and the all-rows change scan are all
    /// skipped; feature-drift rounds then cost only the hop-ball forward.
    ///
    /// The result is **bit-for-bit identical** to `self.infer_errors(graph)`
    /// (module docs give the locality argument). A `None` cache — or a
    /// [`ReconstructionTarget::KHop`] model, whose target is global — takes
    /// the full-recompute path and (re)fills the cache, so the next round
    /// can patch.
    pub fn infer_errors_cached(
        &self,
        graph: &Graph,
        cache: &mut Option<ErrorCache>,
        dirty: &BTreeSet<usize>,
        topology_dirty: &BTreeSet<usize>,
    ) -> (NodeErrors, usize) {
        let n = graph.num_nodes();
        let lambda = self.gae().config().lambda;
        let khop = matches!(self.target_kind(), ReconstructionTarget::KHop(_));
        let patchable = matches!(cache, Some(c) if !khop && c.nodes() <= n);
        if !patchable {
            let filled = self.populate_cache(graph);
            let errors =
                NodeErrors::combine(filled.structure.clone(), filled.attribute.clone(), lambda);
            *cache = Some(filled);
            return (errors, n);
        }
        let c = match cache {
            Some(c) => c,
            None => unreachable!("patchable implies a cache"),
        };
        let encoder = self.gae().encoder_snapshot();
        let decoder = self.gae().decoder_snapshot();

        // Appended nodes: widen every cached row container. The new ids are
        // part of `dirty`, so their rows are recomputed below before use.
        if c.nodes() < n {
            for m in &mut c.layer_outputs {
                *m = grow_rows(m, n);
            }
            c.structure.resize(n, 0.0);
            c.attribute.resize(n, 0.0);
        }

        let adj = graph.normalized_adjacency();

        // Rebuild the target (incrementally for GraphSNN — raw overlap
        // weights are 1-hop-local; exactly for plain adjacency), then find
        // the rows whose stored values moved at all, global rescale
        // included. Feature-only rounds skip all of it: with no edge
        // inserted or removed and no node appended, the cached target is
        // bitwise what a rebuild would produce.
        let target_changed: Vec<usize> = if topology_dirty.is_empty() && c.target.rows() == n {
            Vec::new()
        } else {
            let new_target = match self.target_kind() {
                ReconstructionTarget::Adjacency => graph.adjacency(),
                ReconstructionTarget::GraphSnn { lambda } => {
                    let (target, raw) = graphsnn_adjacency_cached(
                        graph,
                        lambda,
                        c.previous_overlap(),
                        topology_dirty,
                    );
                    c.raw_overlap = raw;
                    target
                }
                ReconstructionTarget::KHop(_) => {
                    unreachable!("KHop targets take the full-recompute path")
                }
            };
            let changed = changed_rows(&c.target, &new_target, n);
            c.target = new_target;
            changed
        };

        // Patch encoder layer l (1-based) on N_l[dirty]. Each patched row
        // reads the *previous* layer's full matrix, which is already correct
        // everywhere: patched inside its ball, untouched-and-valid outside
        // it.
        for (l, (w, b, act)) in encoder.iter().enumerate() {
            let ball = hop_ball(graph, dirty.iter().copied(), l + 1);
            let rows: Vec<(usize, Vec<f32>)> = {
                let input = if l == 0 {
                    graph.features()
                } else {
                    &c.layer_outputs[l - 1]
                };
                ball.iter()
                    .map(|&i| (i, layer_row(&adj, input, w, b, *act, i)))
                    .collect()
            };
            for (i, row) in rows {
                c.layer_outputs[l].row_mut(i).copy_from_slice(&row);
            }
        }
        let decoder_ball = hop_ball(graph, dirty.iter().copied(), encoder.len() + 1);

        // Splice the error rows: structure errors re-read changed target
        // rows and every node whose embedding (or a target-neighbor's
        // embedding) moved — all inside target_changed ∪ N_{L+1}[dirty];
        // attribute errors decode and re-read N_{L+1}[dirty].
        let mut rescore: BTreeSet<usize> = target_changed.into_iter().collect();
        rescore.extend(decoder_ball.iter().copied());
        {
            let z = match c.layer_outputs.last() {
                Some(z) => z,
                None => graph.features(),
            };
            for &i in &rescore {
                c.structure[i] = structure_error_row(z, &c.target, i);
            }
            for &i in &decoder_ball {
                c.attribute[i] = attribute_error_row(&adj, z, &decoder, graph.features(), i);
            }
        }

        let nodes_rescored = rescore.len();
        let errors = NodeErrors::combine(c.structure.clone(), c.attribute.clone(), lambda);
        (errors, nodes_rescored)
    }

    /// Full stage-1 recompute through the inference (matrix) kernels,
    /// returning a freshly filled cache.
    fn populate_cache(&self, graph: &Graph) -> ErrorCache {
        let n = graph.num_nodes();
        let encoder = self.gae().encoder_snapshot();
        let decoder = self.gae().decoder_snapshot();
        let (target, raw_overlap) = match self.target_kind() {
            ReconstructionTarget::GraphSnn { lambda } => {
                graphsnn_adjacency_cached(graph, lambda, std::iter::empty(), &BTreeSet::new())
            }
            other => (other.build(graph), Vec::new()),
        };
        let adj = graph.normalized_adjacency();
        let layer_outputs = full_forward(&adj, graph, &encoder);
        let z = match layer_outputs.last() {
            Some(z) => z,
            None => graph.features(),
        };
        let structure: Vec<f32> =
            grgad_parallel::par_map_range_min(n, 64, |i| structure_error_row(z, &target, i));
        let attribute: Vec<f32> = grgad_parallel::par_map_range_min(n, 256, |i| {
            attribute_error_row(&adj, z, &decoder, graph.features(), i)
        });
        ErrorCache {
            layer_outputs,
            target,
            raw_overlap,
            structure,
            attribute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gae::GaeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Matrix::zeros(n, 4);
        for i in 0..n {
            for j in 0..4 {
                features[(i, j)] = rng.gen_range(-1.0..1.0);
            }
        }
        let mut g = Graph::new(n, features);
        for i in 1..n {
            g.add_edge(i, rng.gen_range(0..i));
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let _ = g.try_add_edge(u, v).expect("in range");
        }
        g
    }

    fn quick_model(feature_dim: usize, target: ReconstructionTarget) -> MhGae {
        let mut model = MhGae::new(
            feature_dim,
            target,
            GaeConfig {
                hidden_dim: 8,
                embed_dim: 4,
                epochs: 5,
                lr: 0.02,
                lambda: 0.5,
                negative_samples: 1,
                seed: 3,
            },
        );
        // Training only shapes the weights; any trained state works here.
        let g = random_graph(25, 10, 7);
        model.fit(&g);
        model
    }

    fn assert_bitwise(a: &NodeErrors, b: &NodeErrors, round: usize) {
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.structure), bits(&b.structure), "round {round}");
        assert_eq!(bits(&a.attribute), bits(&b.attribute), "round {round}");
        assert_eq!(bits(&a.combined), bits(&b.combined), "round {round}");
    }

    #[test]
    fn cached_errors_match_full_inference_across_delta_rounds() {
        for target in [
            ReconstructionTarget::Adjacency,
            ReconstructionTarget::GraphSnn { lambda: 1.0 },
        ] {
            let model = quick_model(4, target);
            let mut g = random_graph(40, 20, 11);
            let mut cache = None;

            // Round 0: cold cache — full populate.
            let (errors, rescored) =
                model.infer_errors_cached(&g, &mut cache, &BTreeSet::new(), &BTreeSet::new());
            assert_eq!(rescored, g.num_nodes());
            assert_bitwise(&errors, &model.infer_errors(&g), 0);

            let mut rng = StdRng::seed_from_u64(99);
            for round in 1..=6 {
                let mut dirty = BTreeSet::new();
                let mut topology = BTreeSet::new();
                // A couple of edge flips...
                for _ in 0..2 {
                    let u = rng.gen_range(0..g.num_nodes());
                    let v = rng.gen_range(0..g.num_nodes());
                    let changed = if g.has_edge(u, v) {
                        g.try_remove_edge(u, v).expect("in range")
                    } else {
                        g.try_add_edge(u, v).expect("in range")
                    };
                    if changed {
                        dirty.insert(u);
                        dirty.insert(v);
                        topology.insert(u);
                        topology.insert(v);
                    }
                }
                // ...a feature rewrite...
                let node = rng.gen_range(0..g.num_nodes());
                let dim = g.feature_dim();
                g.try_set_node_features(node, &vec![rng.gen_range(-1.0..1.0); dim])
                    .expect("in range");
                dirty.insert(node);
                // ...and on some rounds an appended node with an edge.
                if round % 2 == 0 {
                    let id = g.try_add_node(&vec![0.5; dim]).expect("add node");
                    dirty.insert(id);
                    let peer = rng.gen_range(0..id);
                    if g.try_add_edge(id, peer).expect("in range") {
                        dirty.insert(peer);
                        topology.insert(id);
                        topology.insert(peer);
                    }
                }

                let (errors, rescored) =
                    model.infer_errors_cached(&g, &mut cache, &dirty, &topology);
                assert!(rescored <= g.num_nodes());
                assert_bitwise(&errors, &model.infer_errors(&g), round);
            }
        }
    }

    #[test]
    fn khop_targets_fall_back_to_full_recompute_but_stay_exact() {
        let model = quick_model(4, ReconstructionTarget::KHop(3));
        let mut g = random_graph(30, 10, 5);
        let mut cache = None;
        let (_, rescored) =
            model.infer_errors_cached(&g, &mut cache, &BTreeSet::new(), &BTreeSet::new());
        assert_eq!(rescored, g.num_nodes());
        assert!(g.try_add_edge(0, 9).expect("in range"));
        let dirty: BTreeSet<usize> = [0, 9].into_iter().collect();
        let (errors, rescored) = model.infer_errors_cached(&g, &mut cache, &dirty, &dirty);
        assert_eq!(rescored, g.num_nodes(), "KHop always recomputes fully");
        assert_bitwise(&errors, &model.infer_errors(&g), 1);
    }

    #[test]
    fn error_cache_serde_round_trips_and_keeps_scoring_incrementally() {
        use serde::{Deserialize, Serialize};

        let model = quick_model(4, ReconstructionTarget::GraphSnn { lambda: 1.0 });
        let mut g = random_graph(30, 12, 8);
        let mut cache = None;
        let _ = model.infer_errors_cached(&g, &mut cache, &BTreeSet::new(), &BTreeSet::new());

        let value = cache.as_ref().expect("populated").to_value();
        let mut restored = Some(ErrorCache::from_value(&value).expect("round trip"));

        // The restored cache must behave exactly like the original across a
        // delta: same rescore count, bitwise-equal errors.
        assert!(g.try_add_edge(2, 17).expect("in range"));
        let dirty: BTreeSet<usize> = [2, 17].into_iter().collect();
        let (a, ra) = model.infer_errors_cached(&g, &mut cache, &dirty, &dirty);
        let (b, rb) = model.infer_errors_cached(&g, &mut restored, &dirty, &dirty);
        assert_eq!(ra, rb);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.combined), bits(&b.combined));
    }

    #[test]
    fn empty_dirty_set_rescores_nothing() {
        let model = quick_model(4, ReconstructionTarget::GraphSnn { lambda: 1.0 });
        let g = random_graph(30, 10, 6);
        let mut cache = None;
        let _ = model.infer_errors_cached(&g, &mut cache, &BTreeSet::new(), &BTreeSet::new());
        let (errors, rescored) =
            model.infer_errors_cached(&g, &mut cache, &BTreeSet::new(), &BTreeSet::new());
        assert_eq!(rescored, 0);
        assert_bitwise(&errors, &model.infer_errors(&g), 1);
    }

    #[test]
    fn feature_only_rounds_skip_the_target_rebuild_but_stay_exact() {
        let model = quick_model(4, ReconstructionTarget::GraphSnn { lambda: 1.0 });
        let mut g = random_graph(40, 20, 13);
        let mut cache = None;
        let _ = model.infer_errors_cached(&g, &mut cache, &BTreeSet::new(), &BTreeSet::new());
        let target_before: Vec<(usize, usize, u32)> = cache
            .as_ref()
            .expect("populated")
            .target
            .iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect();

        let mut rng = StdRng::seed_from_u64(41);
        for round in 1..=4 {
            let node = rng.gen_range(0..g.num_nodes());
            let dim = g.feature_dim();
            g.try_set_node_features(node, &vec![rng.gen_range(-1.0..1.0); dim])
                .expect("in range");
            let dirty: BTreeSet<usize> = [node].into_iter().collect();
            let (errors, rescored) =
                model.infer_errors_cached(&g, &mut cache, &dirty, &BTreeSet::new());
            assert!(
                rescored < g.num_nodes(),
                "round {round} must patch, not refill"
            );
            assert_bitwise(&errors, &model.infer_errors(&g), round);
        }

        // The cached target was never rebuilt — and never needed to be.
        let target_after: Vec<(usize, usize, u32)> = cache
            .as_ref()
            .expect("populated")
            .target
            .iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect();
        assert_eq!(target_before, target_after);
    }
}
