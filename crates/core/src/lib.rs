//! TP-GrGAD: the end-to-end Group-level Graph Anomaly Detection pipeline
//! proposed by the paper (Fig. 2).
//!
//! The pipeline has four stages ([`PipelineStage`]):
//!
//! 1. **Anchor localization** — a Multi-Hop Graph AutoEncoder
//!    ([`grgad_gnn::MhGae`]) is trained to reconstruct node attributes and a
//!    multi-hop structure target (GraphSNN `Ã` by default); the top-`p%`
//!    nodes by reconstruction error become anchor nodes.
//! 2. **Candidate group sampling** — paths, trees and cycles around the
//!    anchors are collected (Alg. 1, [`grgad_sampling`]).
//! 3. **TPGCL** — a contrastive group encoder is trained against PPA/PBA
//!    augmented views (Alg. 2 + Eqn. 8, [`grgad_tpgcl`]) and embeds every
//!    candidate group.
//! 4. **Outlier scoring** — an unsupervised detector (ECOD by default,
//!    [`grgad_outlier`]) scores the group embeddings; the top-scoring groups
//!    are reported as anomalies.
//!
//! The public API follows the sklearn/PyOD fit-once/score-many split:
//! [`TpGrGad::fit`] trains every learned stage once and returns a
//! [`TrainedTpGrGad`] artifact that scores arbitrarily many graphs/snapshots
//! ([`TrainedTpGrGad::score`], [`TrainedTpGrGad::score_groups`]) with zero
//! training epochs and persists itself as JSON
//! ([`TrainedTpGrGad::save`]/[`TrainedTpGrGad::load`]). The legacy
//! [`TpGrGad::detect`] remains as a thin `fit(g)?.score(g)` wrapper, and
//! [`TpGrGad::evaluate`] compares a run against a dataset's ground truth
//! with the paper's metrics (CR / F1 / AUC). Every stage reports wall-clock
//! and workload diagnostics through the [`PipelineObserver`] seam.
//!
//! Every fallible entry point returns `Result<_, `[`GrgadError`]`>`, with
//! input validated at the boundary ([`grgad_graph::Graph::validate`],
//! [`TrainedTpGrGad::check_compat`], [`TpGrGadConfig::validate`]) so the
//! panic sites inside the numeric stages are unreachable for input that
//! passed — the serving layer (`grgad-serve`) maps the error taxonomy
//! straight onto its wire protocol. [`IncrementalState`] is the seam that
//! layer uses to re-score evolving graphs incrementally with bit-identical
//! output: it persists cached reconstruction errors, memoized candidate
//! draws, and group embeddings across
//! [`TrainedTpGrGad::score_incremental`] rounds, recomputing only inside
//! the dirty region (see DESIGN.md §8–9). [`TrainedTpGrGad::score`] is the
//! same path run on a cold state that is dropped on return.

// The serving contract: no `unwrap()` on the core public path — every
// fallible surface returns `Result<_, GrgadError>` instead. Enforced here
// (and re-checked by the CI clippy job) rather than via command-line flags,
// which would also hit the vendored workspace members.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
pub mod error;
pub mod incremental;
pub mod pipeline;
pub mod stage;

pub use config::{DetectorKind, TpGrGadConfig, TpGrGadConfigBuilder};
pub use error::GrgadError;
pub use incremental::{IncrementalState, IncrementalStats, ScoreMode};
pub use pipeline::{TpGrGad, TpGrGadResult, TrainedTpGrGad};
pub use stage::{
    peak_rss_bytes, NullObserver, PipelineObserver, PipelinePhase, PipelineStage, StageTimings,
    TimingObserver,
};
