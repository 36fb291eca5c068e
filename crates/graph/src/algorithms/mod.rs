//! Graph algorithms used across the TP-GrGAD pipeline.
//!
//! * [`bfs`] — breadth-first traversal, unweighted shortest paths (Alg. 1's
//!   Bellman–Ford path search with unit edge weights) and the bounded BFS
//!   trees used by Alg. 1's tree search.
//! * [`cycles`] — bounded enumeration of simple cycles through a node
//!   (the paper's cycle search, after Birmelé et al.).
//! * [`components`] — connected components, both of a whole graph and of an
//!   induced node subset (used to generalize node-level detectors to groups).
//! * [`khop`] — standardized k-hop adjacency powers `A^k` (MH-GAE ablation,
//!   Table IV).
//! * [`graphsnn`] — the GraphSNN weighted adjacency `Ã` of Eqn. (4), the
//!   recommended MH-GAE reconstruction target.

pub mod bfs;
pub mod components;
pub mod cycles;
pub mod graphsnn;
pub mod khop;

pub use bfs::{
    bfs_distances, bounded_bfs_tree, hop_ball, multi_source_bfs_distances, shortest_path,
};
pub use components::{connected_components, connected_components_of_subset};
pub use cycles::{cycles_through, cycles_through_budgeted};
pub use graphsnn::{graphsnn_adjacency, graphsnn_adjacency_cached};
pub use khop::khop_matrix;
