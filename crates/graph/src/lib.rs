//! Attributed graph engine for the TP-GrGAD reproduction.
//!
//! Everything in the paper operates on a single undirected attributed graph
//! `G = (V, E)` with a node-feature matrix `X`. This crate provides:
//!
//! * [`Graph`] — an adjacency-list attributed graph with CSR export,
//!   induced-subgraph extraction and mutation helpers used by dataset
//!   generators and augmentations.
//! * [`Group`] — a set of nodes (a candidate or ground-truth anomaly group).
//! * [`algorithms`] — BFS / unweighted shortest paths, bounded BFS trees,
//!   cycle enumeration, connected components, standardized k-hop adjacency
//!   powers (`A^k`) and the GraphSNN weighted adjacency `Ã` (Eqn. 4 of the
//!   paper).
//! * [`patterns`] — classification of a group's topology pattern
//!   (path / tree / cycle / other), used for Table II and by the PPA/PBA
//!   augmentations.

// The serving contract extends workspace-wide: no `unwrap()` outside
// test code — fallible paths return `Result<_, GrgadError>` or justify
// themselves with `expect` + a `grgad-lint` suppression where truly
// infallible. Enforced per-crate so the vendored shims stay untouched.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod algorithms;
pub mod dirty;
pub mod graph;
pub mod group;
pub mod patterns;

pub use dirty::DirtyRegion;
pub use graph::Graph;
pub use group::Group;
pub use patterns::TopologyPattern;
