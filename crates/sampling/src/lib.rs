//! Candidate-group sampling (Alg. 1 of the paper).
//!
//! Starting from the anchor nodes located by MH-GAE, three pattern-search
//! primitives produce candidate anomaly groups:
//!
//! * **path search** between every ordered pair of anchors (BFS shortest
//!   paths — the paper's Bellman–Ford with unit edge weights),
//! * **tree search**: a depth-bounded BFS tree rooted at the first anchor of
//!   each pair (hyperparameter `t` in Alg. 1), and
//! * **cycle search**: simple cycles through each anchor (bounded
//!   Birmelé-style enumeration).
//!
//! The union of the discovered node sets — deduplicated, size-capped and
//! count-capped — forms the candidate-group set handed to TPGCL. Overlapping
//! and repeated patterns are *intentionally kept* when they come from
//! different searches (the paper notes they enrich the contrastive training
//! set); only exact duplicates of the same node set are removed.

// The serving contract extends workspace-wide: no `unwrap()` outside
// test code — fallible paths return `Result<_, GrgadError>` or justify
// themselves with `expect` + a `grgad-lint` suppression where truly
// infallible. Enforced per-crate so the vendored shims stay untouched.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
mod cache;
mod sampler;

pub use cache::DrawCache;
pub use sampler::{
    sample_candidate_groups, sample_candidate_groups_cached, SamplingConfig, SamplingStats,
};
