//! # TP-GrGAD — Topology Pattern Enhanced Unsupervised Group-level Graph Anomaly Detection
//!
//! Umbrella crate for the TP-GrGAD reproduction workspace. It re-exports the
//! individual crates so examples and downstream users can depend on a single
//! crate:
//!
//! ```rust
//! use tp_grgad::prelude::*;
//!
//! # fn main() -> Result<(), GrgadError> {
//! let dataset = datasets::example::generate(60, 0);
//! let pipeline = TpGrGad::new(TpGrGadConfig::fast().with_seed(0));
//! // Fit once, then score any number of graphs/snapshots without retraining.
//! // Every public fallible entry point returns `Result<_, GrgadError>`;
//! // malformed input (empty graph, NaN features, shape mismatch) is a typed
//! // error at the boundary, never a panic deep inside the pipeline.
//! let trained = pipeline.fit(&dataset.graph)?;
//! let result = trained.score(&dataset.graph)?;
//! assert_eq!(result.scores.len(), result.candidate_groups.len());
//! // The trained model round-trips through JSON with exact score parity.
//! let reloaded = TrainedTpGrGad::from_json(&trained.to_json()?)?;
//! assert_eq!(reloaded.score(&dataset.graph)?.scores, result.scores);
//! # Ok(())
//! # }
//! ```
//!
//! See the repository README for the architecture overview and DESIGN.md for
//! the paper-to-module mapping.

// The serving contract extends workspace-wide: no `unwrap()` outside
// test code — fallible paths return `Result<_, GrgadError>` or justify
// themselves with `expect` + a `grgad-lint` suppression where truly
// infallible. Enforced per-crate so the vendored shims stay untouched.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub use grgad_autograd as autograd;
pub use grgad_baselines as baselines;
pub use grgad_core as core;
pub use grgad_datasets as datasets;
pub use grgad_gnn as gnn;
pub use grgad_graph as graph;
pub use grgad_linalg as linalg;
pub use grgad_metrics as metrics;
pub use grgad_outlier as outlier;
pub use grgad_parallel as parallel;
pub use grgad_sampling as sampling;
pub use grgad_serve as serve;
pub use grgad_server as server;
pub use grgad_tpgcl as tpgcl;
pub use grgad_tsne as tsne;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use grgad_baselines as baselines;
    pub use grgad_core::{
        DetectorKind, GrgadError, IncrementalState, IncrementalStats, NullObserver,
        PipelineObserver, PipelinePhase, PipelineStage, StageTimings, TimingObserver, TpGrGad,
        TpGrGadConfig, TpGrGadConfigBuilder, TpGrGadResult, TrainedTpGrGad,
    };
    pub use grgad_datasets as datasets;
    pub use grgad_datasets::{DatasetScale, GrGadDataset};
    pub use grgad_gnn::{select_anchor_nodes, GaeConfig, MhGae, ReconstructionTarget};
    pub use grgad_graph::{Graph, Group, TopologyPattern};
    pub use grgad_linalg::{CsrMatrix, Matrix};
    pub use grgad_metrics::{evaluate_detection, DetectionReport};
    pub use grgad_outlier::{Ecod, OutlierDetector};
    pub use grgad_sampling::{sample_candidate_groups, SamplingConfig};
    pub use grgad_serve::{EngineConfig, GraphDelta, ScoreMode, ScoringEngine};
    pub use grgad_server::{EngineRegistry, HostClient, ListenAddr, ServerConfig};
    pub use grgad_tpgcl::{Augmentation, Tpgcl, TpgclConfig};
}
