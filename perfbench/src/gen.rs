//! Seeded load generators. Every delta they emit is valid against the graph
//! it is applied to, in order: no self-loops, insertions only of absent
//! edges, removals only of existing edges, one touch per edge per batch,
//! and finite feature rows of the right width. A failed operation in the
//! benchmark is therefore a real failure, never a generator artefact.

use std::collections::BTreeSet;

use grgad_graph::Graph;
use grgad_serve::GraphDelta;
use rand::rngs::StdRng;
use rand::Rng;

/// Attempts per edge delta before the generator gives up on that slot;
/// never reached on the benchmark's graphs, it only bounds the loop.
const MAX_EDGE_TRIES: usize = 10_000;

/// One churn round of `count` deltas against `graph`, cycling through a
/// feature rewrite (uniform in `[-1, 1)`), the insertion of an absent edge
/// and the removal of an existing edge.
pub fn churn_round(rng: &mut StdRng, graph: &Graph, count: usize) -> Vec<GraphDelta> {
    let n = graph.num_nodes();
    let dim = graph.feature_dim();
    let mut touched: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut deltas = Vec::with_capacity(count);
    for k in 0..count {
        let delta = match k % 3 {
            0 => Some(GraphDelta::SetFeatures {
                node: rng.gen_range(0..n),
                features: (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
            }),
            1 => (0..MAX_EDGE_TRIES).find_map(|_| {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                let edge = (u.min(v), u.max(v));
                (u != v && !graph.has_edge(u, v) && touched.insert(edge))
                    .then_some(GraphDelta::AddEdge { u, v })
            }),
            _ => (0..MAX_EDGE_TRIES).find_map(|_| {
                let u = rng.gen_range(0..n);
                let degree = graph.degree(u);
                if degree == 0 {
                    return None;
                }
                let v = graph.neighbors(u)[rng.gen_range(0..degree)];
                touched
                    .insert((u.min(v), u.max(v)))
                    .then_some(GraphDelta::RemoveEdge { u, v })
            }),
        };
        deltas.extend(delta);
    }
    deltas
}

/// A client's view of a served graph's feature matrix (`n × dim`,
/// row-major), kept in step with the nudges it sends.
pub struct FeatureMirror {
    dim: usize,
    rows: Vec<f32>,
}

impl FeatureMirror {
    /// Copies the features of `graph`.
    pub fn of(graph: &Graph) -> Self {
        let features = graph.features();
        FeatureMirror {
            dim: graph.feature_dim(),
            rows: (0..graph.num_nodes())
                .flat_map(|i| features.row(i).iter().copied())
                .collect(),
        }
    }

    /// Nodes mirrored.
    pub fn num_nodes(&self) -> usize {
        self.rows.len() / self.dim.max(1)
    }
}

/// One drift round: `count` random nodes each get every feature nudged by
/// a uniform amount in `[-nudge, nudge)`. Topology is untouched. The mirror
/// is updated so the next round nudges from the new values.
pub fn drift_round(
    rng: &mut StdRng,
    mirror: &mut FeatureMirror,
    count: usize,
    nudge: f32,
) -> Vec<GraphDelta> {
    let n = mirror.num_nodes();
    let dim = mirror.dim;
    (0..count)
        .map(|_| {
            let node = rng.gen_range(0..n);
            let row = &mut mirror.rows[node * dim..(node + 1) * dim];
            for x in row.iter_mut() {
                *x += rng.gen_range(-nudge..nudge);
            }
            GraphDelta::SetFeatures {
                node,
                features: row.to_vec(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grgad_datasets::powerlaw;
    use grgad_serve::ScoringEngine;
    use rand::SeedableRng;

    fn graph(seed: u64) -> Graph {
        powerlaw::generate_sized(600, seed).graph
    }

    /// Applies `deltas` to `graph`, asserting each one changes it exactly
    /// as a valid delta must.
    fn apply_checked(graph: &mut Graph, deltas: &[GraphDelta]) {
        for delta in deltas {
            match delta {
                GraphDelta::AddEdge { u, v } => {
                    assert_ne!(u, v, "self-loop insertion");
                    assert!(graph.try_add_edge(*u, *v).unwrap(), "edge {u}-{v} present");
                }
                GraphDelta::RemoveEdge { u, v } => {
                    assert_ne!(u, v, "self-loop removal");
                    assert!(
                        graph.try_remove_edge(*u, *v).unwrap(),
                        "edge {u}-{v} absent"
                    );
                }
                GraphDelta::SetFeatures { node, features } => {
                    assert!(features.iter().all(|x| x.is_finite()));
                    graph.try_set_node_features(*node, features).unwrap();
                }
                GraphDelta::AddNode { .. } => panic!("generators never add nodes"),
            }
        }
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let g = graph(3);
        let a = churn_round(&mut StdRng::seed_from_u64(11), &g, 24);
        let b = churn_round(&mut StdRng::seed_from_u64(11), &g, 24);
        let c = churn_round(&mut StdRng::seed_from_u64(12), &g, 24);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn churn_rounds_stay_valid_over_many_rounds() {
        for seed in 0..3 {
            let mut g = graph(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..40 {
                let deltas = churn_round(&mut rng, &g, 24);
                assert_eq!(deltas.len(), 24);
                apply_checked(&mut g, &deltas);
            }
            g.validate("churn").unwrap();
        }
    }

    #[test]
    fn churn_deltas_apply_cleanly_to_an_engine() {
        let dataset = powerlaw::generate_sized(400, 5);
        let config = grgad_bench::suite::bench_config(400, 5);
        let model = grgad_core::TpGrGad::new(config)
            .fit(&dataset.graph)
            .unwrap();
        let mut engine = ScoringEngine::new(model, dataset.graph).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let deltas = churn_round(&mut rng, engine.graph(), 24);
            let outcome = engine.apply_deltas(&deltas);
            assert_eq!(outcome.error, None);
            assert_eq!(outcome.applied, 24);
        }
    }

    #[test]
    fn drift_is_deterministic_and_valid() {
        let g = graph(4);
        let run = |seed| {
            let mut mirror = FeatureMirror::of(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| drift_round(&mut rng, &mut mirror, 2, 0.02))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));

        let mut h = g.clone();
        let mut mirror = FeatureMirror::of(&g);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let deltas = drift_round(&mut rng, &mut mirror, 2, 0.02);
            assert_eq!(deltas.len(), 2);
            for delta in &deltas {
                let GraphDelta::SetFeatures { node, features } = delta else {
                    panic!("drift emits feature rewrites only");
                };
                let before = h.features().row(*node).to_vec();
                assert!(before
                    .iter()
                    .zip(features)
                    .all(|(a, b)| (a - b).abs() <= 0.02 + 1e-6));
            }
            apply_checked(&mut h, &deltas);
        }
        assert_eq!(h.num_edges(), g.num_edges());
    }
}
