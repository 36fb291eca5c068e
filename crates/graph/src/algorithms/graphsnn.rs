//! GraphSNN weighted adjacency `Ã` (Eqn. 4 of the paper).
//!
//! For every edge `(v, µ)` GraphSNN (Wijesinghe & Wang, ICLR 2022) measures
//! how strongly the closed neighborhoods of the endpoints overlap:
//!
//! ```text
//! Ã_vµ = |E_vµ| / (|V_vµ| · (|V_vµ| − 1)) · |V_vµ|^λ
//! ```
//!
//! where `S_vµ = (V_vµ, E_vµ)` is the overlap subgraph of the closed
//! neighborhood subgraphs `S_v` and `S_µ`. The paper adopts `Ã` as the
//! recommended MH-GAE reconstruction target because reconstructing these
//! structure-aware weights forces the model to be sensitive to information
//! beyond one-hop neighborhoods (comparable to a higher-order WL test),
//! capturing the long-range inconsistency that defines group anomalies.

use std::collections::BTreeSet;

use grgad_linalg::CsrMatrix;

use crate::Graph;

/// Computes the GraphSNN weighted adjacency `Ã` with exponent `lambda`.
///
/// The sparsity pattern equals that of the original adjacency; each stored
/// value is the (normalized) overlap weight of that edge. After computing raw
/// weights the matrix is scaled into `[0, 1]` by its maximum entry so it can
/// serve directly as a sigmoid-decoder reconstruction target.
pub fn graphsnn_adjacency(graph: &Graph, lambda: f32) -> CsrMatrix {
    graphsnn_adjacency_cached(graph, lambda, std::iter::empty(), &BTreeSet::new()).0
}

/// [`graphsnn_adjacency`] reusing the raw per-edge overlap weights of a
/// previous snapshot, recomputing only the weights a mutation can have
/// changed. Returns the target plus the raw (pre-standardization) weight
/// of every edge of `graph`, in [`Graph::edges`] order — the `previous` of
/// the next call.
///
/// `previous` yields each edge `(min, max)` of the earlier snapshot with
/// its raw weight, sorted by edge (as [`Graph::edges`] and the upper
/// triangle of the earlier target both are), so one merge walk against
/// the current edge list finds every reusable weight. `affected` is any
/// superset of the nodes whose *neighborhood* changed (the endpoints of
/// every inserted or removed edge). The raw weight of edge `(v, µ)` reads
/// only the closed neighborhoods of `v` and `µ` and the edges among their
/// overlap — all within one hop of `v` — so it can change only when `v` or
/// `µ` lies in the closed 1-hop ball of `affected`. Those weights (plus any
/// edge missing from `previous`, e.g. a new edge) are recomputed; all
/// others are reused verbatim.
///
/// The global standardization is re-derived from scratch every call: `max`
/// over a set of floats is exact regardless of order, and the scale is
/// applied per-entry, so the result is **bit-for-bit identical** to
/// [`graphsnn_adjacency`] on the same graph.
pub fn graphsnn_adjacency_cached(
    graph: &Graph,
    lambda: f32,
    previous: impl IntoIterator<Item = ((usize, usize), f32)>,
    affected: &BTreeSet<usize>,
) -> (CsrMatrix, Vec<f32>) {
    let n = graph.num_nodes();
    // Closed 1-hop ball of the affected set: the endpoints whose raw
    // weights must be recomputed.
    let near: BTreeSet<usize> = {
        let mut near: BTreeSet<usize> = affected.iter().copied().filter(|&v| v < n).collect();
        for &v in affected {
            if v < n {
                near.extend(graph.neighbors(v).iter().copied());
            }
        }
        near
    };
    let mut previous = previous.into_iter().peekable();
    let raw_weights: Vec<f32> = graph
        .edges()
        .map(|(v, mu)| {
            let mut cached = None;
            while let Some(&(edge, w)) = previous.peek() {
                if edge > (v, mu) {
                    break;
                }
                if edge == (v, mu) {
                    cached = Some(w);
                }
                previous.next();
            }
            match cached {
                Some(w) if !near.contains(&v) && !near.contains(&mu) => w,
                _ => overlap_weight(graph, v, mu, lambda),
            }
        })
        .collect();

    // Standardize into [0, 1] by the largest raw weight.
    let max = raw_weights.iter().copied().fold(0.0_f32, f32::max);
    let scale = 1.0 / max;
    let standardize = |w: f32| if max > 0.0 { w * scale } else { w };
    // Lay the weights out straight into CSR rows, in the adjacency's
    // sparsity. Row `i`'s entries `j > i` are the next edges in edge order;
    // an entry `j < i` mirrors edge `(j, i)`, and rows `i` reach row `j`'s
    // upper edges in the same ascending order, so `mirror[j]` (the index
    // of row `j`'s next unmirrored edge) finds it.
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(2 * raw_weights.len());
    let mut values = Vec::with_capacity(2 * raw_weights.len());
    let mut mirror: Vec<usize> = Vec::with_capacity(n);
    let mut next_edge = 0;
    indptr.push(0);
    for i in 0..n {
        mirror.push(next_edge);
        for &j in graph.neighbors(i) {
            let edge = if j < i {
                mirror[j] += 1;
                mirror[j] - 1
            } else {
                next_edge += 1;
                next_edge - 1
            };
            indices.push(j);
            values.push(standardize(raw_weights[edge]));
        }
        indptr.push(indices.len());
    }
    let target = CsrMatrix::from_sorted_parts(n, n, indptr, indices, values)
        .expect("sorted adjacency lists are valid CSR by construction");
    (target, raw_weights)
}

/// The raw (unnormalized) overlap weight of a single edge.
fn overlap_weight(graph: &Graph, v: usize, mu: usize, lambda: f32) -> f32 {
    // Closed neighborhoods.
    let nv = closed_neighborhood(graph, v);
    let nmu = closed_neighborhood(graph, mu);
    // Overlap node set V_vµ.
    let overlap: Vec<usize> = nv
        .iter()
        .copied()
        .filter(|x| nmu.binary_search(x).is_ok())
        .collect();
    let nodes = overlap.len();
    if nodes < 2 {
        // Degenerate overlap (should not happen for an existing edge since
        // both endpoints belong to the overlap): fall back to a small weight.
        return f32::MIN_POSITIVE;
    }
    // Edges internal to the overlap subgraph.
    let mut edges = 0usize;
    for (idx, &a) in overlap.iter().enumerate() {
        for &b in &overlap[idx + 1..] {
            if graph.has_edge(a, b) {
                edges += 1;
            }
        }
    }
    let nodes_f = nodes as f32;
    (edges as f32 / (nodes_f * (nodes_f - 1.0))) * nodes_f.powf(lambda)
}

fn closed_neighborhood(graph: &Graph, v: usize) -> Vec<usize> {
    let mut out = graph.neighbors(v).to_vec();
    match out.binary_search(&v) {
        Ok(_) => {}
        Err(pos) => out.insert(pos, v),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_edges_get_higher_weight_than_bridge() {
        // Triangle 0-1-2 plus a bridge edge 2-3.
        let mut g = Graph::with_no_features(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        let a = graphsnn_adjacency(&g, 1.0);
        let triangle_w = a.get(0, 1);
        let bridge_w = a.get(2, 3);
        assert!(
            triangle_w > bridge_w,
            "triangle weight {triangle_w} should exceed bridge weight {bridge_w}"
        );
    }

    #[test]
    fn same_sparsity_as_adjacency_and_symmetric() {
        let mut g = Graph::with_no_features(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 0);
        let a = graphsnn_adjacency(&g, 1.0);
        assert_eq!(a.nnz(), g.adjacency().nnz());
        let d = a.to_dense();
        grgad_linalg::assert_close(&d, &d.transpose(), 1e-6);
    }

    #[test]
    fn values_in_unit_interval() {
        let mut g = Graph::with_no_features(6);
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        let a = graphsnn_adjacency(&g, 1.5);
        for (_, _, v) in a.iter() {
            assert!(v > 0.0 && v <= 1.0 + 1e-6);
        }
        assert!(a.iter().any(|(_, _, v)| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn lambda_changes_relative_weights() {
        // A denser motif should gain relatively more weight with larger lambda.
        let mut g = Graph::with_no_features(6);
        // K4 on {0,1,2,3}
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        // pendant path 3-4-5
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        let a_small = graphsnn_adjacency(&g, 0.5);
        let a_large = graphsnn_adjacency(&g, 2.0);
        let ratio_small = a_small.get(0, 1) / a_small.get(4, 5).max(f32::MIN_POSITIVE);
        let ratio_large = a_large.get(0, 1) / a_large.get(4, 5).max(f32::MIN_POSITIVE);
        assert!(ratio_large > ratio_small);
    }

    #[test]
    fn empty_graph_yields_empty_matrix() {
        let g = Graph::with_no_features(3);
        let a = graphsnn_adjacency(&g, 1.0);
        assert_eq!(a.nnz(), 0);
    }

    fn assert_bitwise_eq(a: &CsrMatrix, b: &CsrMatrix) {
        let av: Vec<(usize, usize, u32)> = a.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect();
        let bv: Vec<(usize, usize, u32)> = b.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn cached_target_is_bitwise_identical_across_mutations() {
        let mut g = Graph::with_no_features(8);
        for i in 0..7 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(0, 2);
        g.add_edge(3, 5);

        let full = graphsnn_adjacency(&g, 1.0);
        let (cached, mut raw) =
            graphsnn_adjacency_cached(&g, 1.0, std::iter::empty(), &BTreeSet::new());
        assert_bitwise_eq(&full, &cached);
        assert_eq!(raw.len(), g.num_edges());

        // Mutate: add one edge, remove another; affected = their endpoints.
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        assert!(g.try_add_edge(1, 6).expect("add"));
        assert!(g.try_remove_edge(3, 5).expect("remove"));
        let affected: BTreeSet<usize> = [1, 6, 3, 5].into_iter().collect();
        let full = graphsnn_adjacency(&g, 1.0);
        let (cached, next) =
            graphsnn_adjacency_cached(&g, 1.0, edges.into_iter().zip(raw), &affected);
        assert_bitwise_eq(&full, &cached);
        assert_eq!(next.len(), g.num_edges(), "removed edge pruned from cache");
        raw = next;

        // A second round on top of the refreshed weights, touching the
        // max-weight region too (global rescale must still agree).
        edges = g.edges().collect();
        assert!(g.try_add_edge(0, 3).expect("add"));
        let affected: BTreeSet<usize> = [0, 3].into_iter().collect();
        let full = graphsnn_adjacency(&g, 1.0);
        let (cached, _) = graphsnn_adjacency_cached(&g, 1.0, edges.into_iter().zip(raw), &affected);
        assert_bitwise_eq(&full, &cached);
    }
}
