//! The four-stage TP-GrGAD detection pipeline, split into a *trainer*
//! ([`TpGrGad`]) and a *trained-model artifact* ([`TrainedTpGrGad`]).
//!
//! [`TpGrGad::fit`] trains MH-GAE, TPGCL and the outlier detector once on a
//! graph and returns a [`TrainedTpGrGad`] that can score arbitrarily many
//! graphs/snapshots with **zero training epochs**, score pre-sampled
//! candidate groups directly, and persist itself as JSON. The legacy
//! [`TpGrGad::detect`] is a thin `fit(g).score(g)` wrapper and produces
//! bit-for-bit identical output.

use std::collections::BTreeSet;
use std::path::Path;

use grgad_datasets::GrGadDataset;
use grgad_error::GrgadError;
use grgad_gnn::{select_anchor_nodes, MhGae};
use grgad_graph::{Graph, Group};
use grgad_linalg::Matrix;
use grgad_metrics::{evaluate_detection, DetectionReport};
use grgad_outlier::{threshold_by_contamination, OutlierDetector};
use grgad_sampling::{sample_candidate_groups, sample_candidate_groups_cached, SamplingStats};
use grgad_tpgcl::Tpgcl;

use crate::config::TpGrGadConfig;
use crate::incremental::{IncrementalState, ScoreMode};
use crate::stage::{observe_stage, NullObserver, PipelineObserver, PipelinePhase, PipelineStage};

/// Everything produced by one scoring run of the pipeline.
#[derive(Clone, Debug)]
pub struct TpGrGadResult {
    /// Anchor nodes selected by MH-GAE.
    pub anchor_nodes: Vec<usize>,
    /// Per-node reconstruction errors from MH-GAE.
    pub node_errors: Vec<f32>,
    /// Candidate groups produced by Alg. 1.
    pub candidate_groups: Vec<Group>,
    /// Sampling bookkeeping.
    pub sampling_stats: SamplingStats,
    /// Group embeddings fed to the outlier detector (`m × d`).
    pub embeddings: Matrix,
    /// Anomaly score per candidate group (higher = more anomalous).
    pub scores: Vec<f32>,
    /// Whether each candidate group is reported as anomalous.
    pub predicted_anomalous: Vec<bool>,
}

impl TpGrGadResult {
    /// The groups reported as anomalous, paired with their scores, sorted by
    /// descending score — the `{C, S}` output of Definition 1. Groups are
    /// borrowed from the result rather than cloned.
    pub fn anomalous_groups(&self) -> Vec<(&Group, f32)> {
        let mut out: Vec<(&Group, f32)> = self
            .candidate_groups
            .iter()
            .zip(&self.scores)
            .zip(&self.predicted_anomalous)
            .filter(|(_, &flag)| flag)
            .map(|((g, &s), _)| (g, s))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// The TP-GrGAD trainer: holds a configuration and fits trained-model
/// artifacts from graphs.
pub struct TpGrGad {
    config: TpGrGadConfig,
}

impl TpGrGad {
    /// Creates a detector with the given configuration.
    pub fn new(config: TpGrGadConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TpGrGadConfig {
        &self.config
    }

    /// Trains all learned stages on `graph` once and returns a reusable
    /// trained-model artifact. Equivalent to `fit_observed` with a no-op
    /// observer.
    ///
    /// # Errors
    /// [`GrgadError::ConfigInvalid`] when a configuration knob is outside
    /// its domain, [`GrgadError::EmptyGraph`] for a zero-node graph and
    /// [`GrgadError::NonFiniteInput`] for NaN/infinite node features —
    /// validated here at the boundary so the training stages never see
    /// malformed input.
    pub fn fit(&self, graph: &Graph) -> Result<TrainedTpGrGad, GrgadError> {
        self.fit_observed(graph, &mut NullObserver)
    }

    /// [`TpGrGad::fit`] with a [`PipelineObserver`] receiving per-stage
    /// timing/workload reports.
    pub fn fit_observed(
        &self,
        graph: &Graph,
        observer: &mut dyn PipelineObserver,
    ) -> Result<TrainedTpGrGad, GrgadError> {
        self.config.validate()?;
        graph.validate("fit")?;
        let config = &self.config;
        // Forward the configured thread budget to the deterministic parallel
        // backend; scores are identical at any thread count.
        grgad_parallel::set_max_threads(config.num_threads);

        // Stage 1: anchor localization — train MH-GAE and pick the anchors
        // from its training errors, which are dropped here.
        let (mhgae, anchor_nodes) = observe_stage(
            observer,
            PipelineStage::AnchorLocalization,
            PipelinePhase::Fit,
            || {
                let mut mhgae = MhGae::new(
                    graph.feature_dim(),
                    config.reconstruction_target,
                    config.gae.clone(),
                );
                let errors = mhgae.fit(graph);
                let anchors = select_anchor_nodes(&errors.combined, config.anchor_fraction);
                let epochs = mhgae.gae().loss_history().len();
                ((mhgae, anchors), graph.num_nodes(), epochs)
            },
        );

        // Stage 2: candidate-group sampling (Alg. 1) — the TPGCL training set.
        let candidate_groups = observe_stage(
            observer,
            PipelineStage::CandidateSampling,
            PipelinePhase::Fit,
            || {
                let (groups, _) = sample_candidate_groups(graph, &anchor_nodes, &config.sampling);
                let n = groups.len();
                (groups, n, 0)
            },
        );

        // Stage 3: train the TPGCL group encoder and embed the training
        // candidates (or take attribute means for the Table V ablation).
        let (tpgcl, embeddings) = observe_stage(
            observer,
            PipelineStage::GroupEmbedding,
            PipelinePhase::Fit,
            || {
                let tpgcl = if config.use_tpgcl {
                    let mut tpgcl = Tpgcl::new(graph.feature_dim(), config.tpgcl.clone());
                    if !candidate_groups.is_empty() {
                        tpgcl.fit(graph, &candidate_groups);
                    }
                    Some(tpgcl)
                } else {
                    None
                };
                let embeddings =
                    embed_groups(tpgcl.as_ref(), graph, &candidate_groups, config.use_tpgcl);
                let epochs = tpgcl.as_ref().map_or(0, |t| t.loss_history().len());
                ((tpgcl, embeddings), candidate_groups.len(), epochs)
            },
        );

        // Stage 4: fit the unsupervised outlier detector on the training
        // embeddings (an empty fit yields a detector that scores zeros).
        let detector = observe_stage(
            observer,
            PipelineStage::OutlierScoring,
            PipelinePhase::Fit,
            || {
                let mut detector = config.detector.build(config.seed);
                detector.fit(&embeddings);
                (detector, embeddings.rows(), 0)
            },
        );

        Ok(TrainedTpGrGad {
            config: config.clone(),
            mhgae,
            tpgcl,
            detector,
        })
    }

    /// Legacy one-shot API: trains on `graph` and scores the same graph.
    ///
    /// Exactly equivalent to `self.fit(graph)?.score(graph)` — callers that
    /// score more than one graph (or the same graph repeatedly) should hold
    /// on to the [`TrainedTpGrGad`] from [`TpGrGad::fit`] instead of paying
    /// for retraining on every call.
    pub fn detect(&self, graph: &Graph) -> Result<TpGrGadResult, GrgadError> {
        self.fit(graph)?.score(graph)
    }

    /// Runs the pipeline on a benchmark dataset and evaluates against its
    /// ground truth with the paper's metrics.
    pub fn evaluate(
        &self,
        dataset: &GrGadDataset,
    ) -> Result<(TpGrGadResult, DetectionReport), GrgadError> {
        let result = self.detect(&dataset.graph)?;
        let report = evaluate_detection(
            &result.candidate_groups,
            &result.scores,
            &result.predicted_anomalous,
            &dataset.anomaly_groups,
            self.config.match_jaccard,
        );
        Ok((result, report))
    }
}

/// A trained TP-GrGAD model: MH-GAE weights, the TPGCL group encoder and a
/// fitted outlier detector. Produced by [`TpGrGad::fit`]; scores any number
/// of graphs/snapshots without retraining and persists itself as JSON.
pub struct TrainedTpGrGad {
    config: TpGrGadConfig,
    mhgae: MhGae,
    tpgcl: Option<Tpgcl>,
    detector: Box<dyn OutlierDetector>,
}

impl std::fmt::Debug for TrainedTpGrGad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedTpGrGad")
            .field("feature_dim", &self.mhgae.feature_dim())
            .field("detector", &self.detector.name())
            .field("use_tpgcl", &self.config.use_tpgcl)
            .finish_non_exhaustive()
    }
}

impl TrainedTpGrGad {
    /// The configuration the model was trained with.
    pub fn config(&self) -> &TpGrGadConfig {
        &self.config
    }

    /// The trained anchor localizer.
    pub fn mhgae(&self) -> &MhGae {
        &self.mhgae
    }

    /// The trained TPGCL model (`None` for the Table V ablation).
    pub fn tpgcl(&self) -> Option<&Tpgcl> {
        self.tpgcl.as_ref()
    }

    /// Name of the fitted outlier detector.
    pub fn detector_name(&self) -> &'static str {
        self.detector.name()
    }

    /// Checks that a graph is compatible with this trained model: same
    /// feature dimensionality as the training graph
    /// ([`GrgadError::ShapeMismatch`]) and valid pipeline input
    /// ([`Graph::validate`]: non-empty, finite features). Every scoring
    /// entry point runs this at the boundary, which is what makes the
    /// panic/assert sites inside the numeric stages unreachable for any
    /// graph that passed.
    pub fn check_compat(&self, graph: &Graph) -> Result<(), GrgadError> {
        graph.validate("score")?;
        if graph.feature_dim() != self.mhgae.feature_dim() {
            return Err(GrgadError::shape(
                "score: graph feature dim vs trained model",
                self.mhgae.feature_dim(),
                graph.feature_dim(),
            ));
        }
        Ok(())
    }

    /// Scores a graph with the trained model — zero training epochs.
    /// Equivalent to `score_observed` with a no-op observer.
    ///
    /// # Errors
    /// Whatever [`TrainedTpGrGad::check_compat`] rejects.
    pub fn score(&self, graph: &Graph) -> Result<TpGrGadResult, GrgadError> {
        self.score_observed(graph, &mut NullObserver)
    }

    /// [`TrainedTpGrGad::score`] with a [`PipelineObserver`] receiving
    /// per-stage timing/workload reports (every report has
    /// `train_epochs == 0`).
    ///
    /// This is the cold run of the one score path: a
    /// [`TrainedTpGrGad::score_incremental_observed`] call on a new
    /// [`IncrementalState`] that is dropped on return.
    pub fn score_observed(
        &self,
        graph: &Graph,
        observer: &mut dyn PipelineObserver,
    ) -> Result<TpGrGadResult, GrgadError> {
        self.score_incremental_observed(graph, &mut IncrementalState::new(), observer)
            .map(|(result, _)| result)
    }

    /// Scores an evolving graph by patching the cached state in `state`
    /// instead of recomputing the pipeline — the delta re-scoring path.
    /// Equivalent to `score_incremental_observed` with a no-op observer.
    ///
    /// Callers record every mutation with [`IncrementalState::mark_node`] /
    /// [`IncrementalState::mark_edge`] between scores; this method then
    /// re-runs only dirty-region work at each level (reconstruction errors
    /// on the GCN receptive-field ball, candidate draws through touched
    /// topology, embeddings of touched groups) and consumes the recorded
    /// dirt. The result is **bit-identical** to [`TrainedTpGrGad::score`]
    /// (this path on a cold state) on the same graph — DESIGN.md §9 states
    /// the invariant, and `tests/incremental_parity.rs` plus the low-churn
    /// property test pin it across seeds and thread counts.
    ///
    /// A cold state, an [`IncrementalState::invalidate`]d state, or a dirty
    /// fraction above [`IncrementalState::max_dirty_fraction`] falls back
    /// to a full recompute (reported as [`ScoreMode::Full`]) that refills
    /// every cache, so the next round patches again.
    ///
    /// # Errors
    /// Whatever [`TrainedTpGrGad::check_compat`] rejects. On error the
    /// state is untouched: recorded dirt stays pending.
    pub fn score_incremental(
        &self,
        graph: &Graph,
        state: &mut IncrementalState,
    ) -> Result<(TpGrGadResult, ScoreMode), GrgadError> {
        self.score_incremental_observed(graph, state, &mut NullObserver)
    }

    /// [`TrainedTpGrGad::score_incremental`] with a [`PipelineObserver`]
    /// receiving per-stage timing/workload reports. Stage-1 reports carry
    /// the number of nodes actually re-scored (the dirty hop ball) rather
    /// than the node count; observation never touches the numeric path.
    pub fn score_incremental_observed(
        &self,
        graph: &Graph,
        state: &mut IncrementalState,
        observer: &mut dyn PipelineObserver,
    ) -> Result<(TpGrGadResult, ScoreMode), GrgadError> {
        self.check_compat(graph)?;
        let config = &self.config;
        grgad_parallel::set_max_threads(config.num_threads);

        // Mode decision: the dirty-node fraction (touched nodes over the
        // current node count) gates patching — past the threshold the hop
        // balls cover most of the graph and patching costs more than it
        // saves, so recompute everything and refill the caches instead.
        let touched = state.dirty.touched_nodes();
        let n = graph.num_nodes();
        let fraction = if n == 0 {
            1.0
        } else {
            touched.len() as f32 / n as f32
        };
        let mode = if state.errors.is_none() || fraction > state.max_dirty_fraction {
            ScoreMode::Full
        } else {
            ScoreMode::Incremental
        };
        if mode == ScoreMode::Full {
            state.errors = None;
            state.draws.clear();
            state.embeddings.clear();
        }
        let (dirty_nodes, topology_dirty): (BTreeSet<usize>, BTreeSet<usize>) = match mode {
            ScoreMode::Full => (BTreeSet::new(), BTreeSet::new()),
            ScoreMode::Incremental => (touched, state.dirty.topology_nodes()),
        };

        // Stage 1: anchor localization — reconstruction errors patched on
        // the receptive-field hop ball of the dirty set (with the target
        // rebuild skipped entirely on feature-only rounds), anchor
        // selection re-run on the (cheap) full error vector.
        let (anchor_nodes, node_errors, rescored) = observe_stage(
            observer,
            PipelineStage::AnchorLocalization,
            PipelinePhase::Score,
            || {
                let (errors, rescored) = self.mhgae.infer_errors_cached(
                    graph,
                    &mut state.errors,
                    &dirty_nodes,
                    &topology_dirty,
                );
                let node_errors = errors.combined;
                let anchors = select_anchor_nodes(&node_errors, config.anchor_fraction);
                ((anchors, node_errors, rescored), rescored, 0)
            },
        );
        state.nodes_rescored += rescored as u64;
        state.record_anchor_reuse(&anchor_nodes);

        // Stage 2: candidate sampling — prune draws whose search region
        // touches dirty topology, then replay Alg. 1 through the memo
        // (bit-identical because draws never consume RNG).
        if mode == ScoreMode::Incremental {
            state.draws.prune(graph, &topology_dirty, &config.sampling);
        }
        let (candidate_groups, sampling_stats) = observe_stage(
            observer,
            PipelineStage::CandidateSampling,
            PipelinePhase::Score,
            || {
                let (groups, stats) = sample_candidate_groups_cached(
                    graph,
                    &anchor_nodes,
                    &config.sampling,
                    &mut state.draws,
                );
                let count = groups.len();
                ((groups, stats), count, 0)
            },
        );

        // Level 3 invalidation, then consume the dirt: per-member for node
        // dirt, pairwise for edge dirt (an edge whose other endpoint lies
        // outside a group cannot change that group's induced subgraph).
        if mode == ScoreMode::Incremental {
            state
                .embeddings
                .invalidate(state.dirty.nodes(), state.dirty.edges());
        }
        state.dirty.clear();
        match mode {
            ScoreMode::Incremental => state.scores_incremental += 1,
            ScoreMode::Full => state.scores_full += 1,
        }

        if candidate_groups.is_empty() {
            return Ok((
                TpGrGadResult {
                    anchor_nodes,
                    node_errors,
                    candidate_groups,
                    sampling_stats,
                    embeddings: Matrix::zeros(0, 0),
                    scores: Vec::new(),
                    predicted_anomalous: Vec::new(),
                },
                mode,
            ));
        }

        // Stage 3: embed candidates, reusing every surviving cached row.
        let embeddings = observe_stage(
            observer,
            PipelineStage::GroupEmbedding,
            PipelinePhase::Score,
            || {
                let dim = embedding_dim(self.tpgcl.as_ref(), graph, config.use_tpgcl);
                let z = state.embeddings.embed(&candidate_groups, dim, |missing| {
                    embed_groups(self.tpgcl.as_ref(), graph, missing, config.use_tpgcl)
                });
                (z, candidate_groups.len(), 0)
            },
        );

        // Stage 4: score with the fitted detector and threshold.
        let (scores, predicted_anomalous) = observe_stage(
            observer,
            PipelineStage::OutlierScoring,
            PipelinePhase::Score,
            || {
                let scores = self.detector.score(&embeddings);
                let flags = self.apply_threshold(&scores);
                let count = scores.len();
                ((scores, flags), count, 0)
            },
        );

        Ok((
            TpGrGadResult {
                anchor_nodes,
                node_errors,
                candidate_groups,
                sampling_stats,
                embeddings,
                scores,
                predicted_anomalous,
            },
            mode,
        ))
    }

    /// Scores pre-sampled candidate groups directly, skipping anchor
    /// localization and sampling — the serving path for callers that manage
    /// their own candidates. Returns one anomaly score per group (higher =
    /// more anomalous); pair with [`TrainedTpGrGad::apply_threshold`] for
    /// binary predictions.
    ///
    /// With [`crate::DetectorKind::Ensemble`] the scores are rank-normalized
    /// *within the scored batch* (the SUOD combination rule), so they are
    /// comparable inside one call but not across calls — score related
    /// candidates together rather than one at a time.
    ///
    /// # Errors
    /// Whatever [`TrainedTpGrGad::check_compat`] rejects, plus
    /// [`GrgadError::EmptyGroup`] for a group with no nodes and
    /// [`GrgadError::InvalidNodeId`] for a member id at or beyond the
    /// graph's node count. `Group`s canonicalize (sort + dedup) their node
    /// ids on construction, so duplicate ids supplied by a caller are
    /// deduplicated before they reach this boundary rather than silently
    /// double-counted — callers holding raw id lists should build groups
    /// with `Group::try_new(ids, graph.num_nodes())`.
    pub fn score_groups(&self, graph: &Graph, groups: &[Group]) -> Result<Vec<f32>, GrgadError> {
        self.check_compat(graph)?;
        for group in groups {
            group.validate(graph.num_nodes(), "score_groups")?;
        }
        if groups.is_empty() {
            return Ok(Vec::new());
        }
        grgad_parallel::set_max_threads(self.config.num_threads);
        let embeddings = embed_groups(self.tpgcl.as_ref(), graph, groups, self.config.use_tpgcl);
        Ok(self.detector.score(&embeddings))
    }

    /// Converts scores into binary predictions with the configured threshold
    /// (adaptive `mean + k·std`, or top-contamination fraction).
    pub fn apply_threshold(&self, scores: &[f32]) -> Vec<bool> {
        if self.config.adaptive_threshold {
            adaptive_threshold(scores, self.config.adaptive_k)
        } else {
            threshold_by_contamination(scores, self.config.contamination)
        }
    }

    /// Serializes the trained model (config + all weights + detector state)
    /// as a JSON string. [`TrainedTpGrGad::from_json`] restores a model that
    /// reproduces the original scores exactly.
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] (with path `"<memory>"`) when the model
    /// state cannot be rendered.
    pub fn to_json(&self) -> Result<String, GrgadError> {
        serde_json::to_string_pretty(&self.to_value())
            .map_err(|e| GrgadError::model_io(IN_MEMORY, e))
    }

    fn to_value(&self) -> serde::Value {
        use serde::Serialize;
        serde::Value::Map(vec![
            (
                "format".to_string(),
                serde::Value::Str(MODEL_FORMAT.to_string()),
            ),
            ("config".to_string(), self.config.to_value()),
            (
                "feature_dim".to_string(),
                self.mhgae.feature_dim().to_value(),
            ),
            (
                "mhgae_weights".to_string(),
                self.mhgae.export_weights().to_value(),
            ),
            (
                "tpgcl_weights".to_string(),
                self.tpgcl
                    .as_ref()
                    .map(|t| t.encoder().export_weights())
                    .to_value(),
            ),
            (
                "detector".to_string(),
                serde::Value::Map(vec![
                    (
                        "name".to_string(),
                        serde::Value::Str(self.detector.name().to_string()),
                    ),
                    ("state".to_string(), self.detector.save_state()),
                ]),
            ),
        ])
    }

    /// Restores a trained model from a [`TrainedTpGrGad::to_json`] string.
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] (with path `"<memory>"`) for malformed,
    /// truncated or wrong-format JSON and detector-state mismatches.
    pub fn from_json(json: &str) -> Result<Self, GrgadError> {
        Self::from_json_at(json, IN_MEMORY)
    }

    /// [`TrainedTpGrGad::from_json`] reporting errors against a named
    /// source path (what [`TrainedTpGrGad::load`] uses, so a bad file is
    /// identified by name).
    fn from_json_at(json: &str, source: &str) -> Result<Self, GrgadError> {
        Self::from_value_tree(json).map_err(|e| GrgadError::model_io(source, e))
    }

    /// Checks a loaded weight snapshot against the freshly constructed
    /// architecture's own export (matrix count and every shape) before any
    /// `import_weights` call — the import paths assert on mismatch, and a
    /// malformed-but-well-formed-JSON artifact must surface as a typed
    /// `ModelIo` error rather than crash a serving process.
    fn check_snapshot_shapes(
        context: &str,
        expected: &[Matrix],
        got: &[Matrix],
    ) -> Result<(), serde::Error> {
        if expected.len() != got.len() {
            return Err(serde::Error::custom(format!(
                "{context}: expected {} weight matrices, got {}",
                expected.len(),
                got.len()
            )));
        }
        for (i, (e, g)) in expected.iter().zip(got).enumerate() {
            if e.shape() != g.shape() {
                return Err(serde::Error::custom(format!(
                    "{context}: weight matrix {i} has shape {:?}, expected {:?}",
                    g.shape(),
                    e.shape()
                )));
            }
        }
        Ok(())
    }

    fn from_value_tree(json: &str) -> Result<Self, serde::Error> {
        use serde::Deserialize;
        let value: serde::Value = serde_json::from_str(json)?;
        let format = String::from_value(value.field("format")?)?;
        if format != MODEL_FORMAT {
            return Err(serde::Error::custom(format!(
                "unsupported model format `{format}` (expected `{MODEL_FORMAT}`)"
            )));
        }
        let config = TpGrGadConfig::from_value(value.field("config")?)?;
        // A loaded artifact is untrusted input: its config must satisfy the
        // same domain checks `fit` enforces, or scoring runs with
        // nonsensical knobs.
        config
            .validate()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        let feature_dim = usize::from_value(value.field("feature_dim")?)?;

        let mhgae = MhGae::new(
            feature_dim,
            config.reconstruction_target,
            config.gae.clone(),
        );
        let mhgae_weights = Vec::<Matrix>::from_value(value.field("mhgae_weights")?)?;
        Self::check_snapshot_shapes("mhgae_weights", &mhgae.export_weights(), &mhgae_weights)?;
        mhgae.import_weights(&mhgae_weights);

        let tpgcl = if config.use_tpgcl {
            let weights = Vec::<Matrix>::from_value(value.field("tpgcl_weights")?)?;
            let tpgcl = Tpgcl::new(feature_dim, config.tpgcl.clone());
            Self::check_snapshot_shapes(
                "tpgcl_weights",
                &tpgcl.encoder().export_weights(),
                &weights,
            )?;
            tpgcl.encoder().import_weights(&weights);
            Some(tpgcl)
        } else {
            None
        };

        let detector_value = value.field("detector")?;
        let name = String::from_value(detector_value.field("name")?)?;
        let mut detector = config.detector.build(config.seed);
        if name != detector.name() {
            return Err(serde::Error::custom(format!(
                "detector state `{name}` does not match configured `{}`",
                detector.name()
            )));
        }
        detector.load_state(detector_value.field("state")?)?;

        Ok(Self {
            config,
            mhgae,
            tpgcl,
            detector,
        })
    }

    /// Writes the model as JSON to `path`.
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] carrying the path and the underlying cause.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), GrgadError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        std::fs::write(path, json).map_err(|e| GrgadError::model_io(path.display().to_string(), e))
    }

    /// Reads a model saved by [`TrainedTpGrGad::save`].
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] carrying the path and the underlying cause
    /// (missing file, truncated/malformed JSON, wrong format tag or a
    /// detector-state mismatch).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, GrgadError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| GrgadError::model_io(path.display().to_string(), e))?;
        Self::from_json_at(&json, &path.display().to_string())
    }
}

/// Identifier stored in saved models; bump on breaking layout changes.
const MODEL_FORMAT: &str = "tp-grgad-model/v1";

/// Path label for in-memory (de)serialization failures.
const IN_MEMORY: &str = "<memory>";

/// Embeds groups with the trained TPGCL encoder, or with the Table V
/// "w/o TPGCL" attribute-mean ablation.
fn embed_groups(tpgcl: Option<&Tpgcl>, graph: &Graph, groups: &[Group], use_tpgcl: bool) -> Matrix {
    if groups.is_empty() {
        return Matrix::zeros(0, 0);
    }
    match (use_tpgcl, tpgcl) {
        (true, Some(model)) => model.embed_groups(graph, groups),
        (true, None) => unreachable!("use_tpgcl set but no TPGCL model present"),
        (false, _) => mean_attribute_embeddings(graph, groups),
    }
}

/// The width of [`embed_groups`]' output, known before embedding so rows
/// cached by a different model count as misses.
fn embedding_dim(tpgcl: Option<&Tpgcl>, graph: &Graph, use_tpgcl: bool) -> usize {
    match (use_tpgcl, tpgcl) {
        (true, Some(model)) => model.encoder().embed_dim(),
        (true, None) => unreachable!("use_tpgcl set but no TPGCL model present"),
        (false, _) => graph.feature_dim(),
    }
}

/// Flags scores exceeding `mean + k · std`; falls back to flagging the single
/// top score if the rule flags nothing (so the detector always reports at
/// least one group, matching Definition 1's non-empty output).
///
/// Non-finite scores are excluded from the mean/std estimate and are never
/// flagged; a degenerate distribution (`std == 0`, e.g. all scores equal)
/// skips straight to the top-score fallback instead of comparing against a
/// meaningless threshold.
fn adaptive_threshold(scores: &[f32], k: f32) -> Vec<bool> {
    if scores.is_empty() {
        return Vec::new();
    }
    let finite: Vec<f32> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        return vec![false; scores.len()];
    }
    let mean = grgad_linalg::stats::mean(&finite);
    let std = grgad_linalg::stats::std_dev(&finite);
    let mut flags: Vec<bool> = if std > 0.0 {
        let tau = mean + k * std;
        scores.iter().map(|&s| s.is_finite() && s > tau).collect()
    } else {
        vec![false; scores.len()]
    };
    if !flags.iter().any(|&f| f) {
        if let Some(best) = scores
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_finite())
            .max_by(|a, b| a.1.total_cmp(b.1))
        {
            flags[best.0] = true;
        }
    }
    flags
}

/// The Table V "w/o TPGCL" group representation: the mean of the group's raw
/// node-attribute vectors. Group-parallel with per-group output slots, so
/// the batch is identical at any thread count.
fn mean_attribute_embeddings(graph: &Graph, groups: &[Group]) -> Matrix {
    let d = graph.feature_dim();
    let mut out = Matrix::zeros(groups.len(), d);
    if groups.is_empty() || d == 0 {
        return out;
    }
    grgad_parallel::par_chunks_mut(out.as_mut_slice(), d, |i, row| {
        let group = &groups[i];
        if group.is_empty() {
            return;
        }
        for &v in group.nodes() {
            for (j, &x) in graph.features().row(v).iter().enumerate() {
                row[j] += x;
            }
        }
        for x in row.iter_mut() {
            *x /= group.len() as f32;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::TimingObserver;
    use grgad_datasets::example;

    fn quick_detector(seed: u64) -> TpGrGad {
        TpGrGad::new(TpGrGadConfig::fast().with_seed(seed))
    }

    #[test]
    fn pipeline_produces_consistent_output_shapes() {
        let dataset = example::generate(36, 5);
        let result = quick_detector(1).detect(&dataset.graph).unwrap();
        assert!(!result.anchor_nodes.is_empty());
        assert_eq!(result.node_errors.len(), dataset.graph.num_nodes());
        assert_eq!(result.candidate_groups.len(), result.scores.len());
        assert_eq!(
            result.candidate_groups.len(),
            result.predicted_anomalous.len()
        );
        assert_eq!(result.embeddings.rows(), result.candidate_groups.len());
        assert!(result.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn anomalous_groups_are_sorted_by_score() {
        let dataset = example::generate(36, 6);
        let result = quick_detector(2).detect(&dataset.graph).unwrap();
        let reported = result.anomalous_groups();
        assert!(!reported.is_empty());
        for pair in reported.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn evaluate_reports_paper_metrics() {
        let dataset = example::generate(36, 7);
        let (_, report) = quick_detector(3).evaluate(&dataset).unwrap();
        assert!(report.cr >= 0.0 && report.cr <= 1.0);
        assert!(report.f1 >= 0.0 && report.f1 <= 1.0);
        assert!(report.auc >= 0.0 && report.auc <= 1.0);
    }

    #[test]
    fn ablation_without_tpgcl_uses_attribute_means() {
        let dataset = example::generate(30, 8);
        let mut config = TpGrGadConfig::fast().with_seed(4);
        config.use_tpgcl = false;
        let trained = TpGrGad::new(config).fit(&dataset.graph).unwrap();
        assert!(trained.tpgcl().is_none());
        let result = trained.score(&dataset.graph).unwrap();
        assert_eq!(result.embeddings.cols(), dataset.graph.feature_dim());
    }

    #[test]
    fn pipeline_finds_planted_groups_better_than_chance() {
        // A larger background keeps the anomaly contamination realistic
        // (~13%), which the unsupervised outlier-scoring stage relies on.
        let dataset = example::generate(120, 11);
        let (_, report) = quick_detector(9).evaluate(&dataset).unwrap();
        // With clearly separated planted groups the detector should beat a
        // random scorer by a comfortable margin on at least one axis.
        assert!(
            report.cr > 0.3 || report.auc > 0.55,
            "pipeline failed to beat chance: {report:?}"
        );
    }

    #[test]
    fn score_groups_matches_full_scoring_run() {
        let dataset = example::generate(36, 10);
        let trained = quick_detector(5).fit(&dataset.graph).unwrap();
        let result = trained.score(&dataset.graph).unwrap();
        let direct = trained
            .score_groups(&dataset.graph, &result.candidate_groups)
            .unwrap();
        assert_eq!(result.scores, direct);
        assert_eq!(trained.apply_threshold(&direct), result.predicted_anomalous);
        assert!(trained
            .score_groups(&dataset.graph, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fit_reports_training_epochs_and_score_reports_none() {
        let dataset = example::generate(36, 3);
        let detector = quick_detector(6);
        let mut fit_observer = TimingObserver::new();
        let trained = detector
            .fit_observed(&dataset.graph, &mut fit_observer)
            .unwrap();
        assert_eq!(fit_observer.stages.len(), 4);
        assert!(fit_observer.total_train_epochs() > 0);

        let mut score_observer = TimingObserver::new();
        let _ = trained
            .score_observed(&dataset.graph, &mut score_observer)
            .unwrap();
        assert_eq!(score_observer.stages.len(), 4);
        assert_eq!(score_observer.total_train_epochs(), 0);
        for report in &score_observer.stages {
            assert_eq!(report.phase, PipelinePhase::Score);
        }
    }

    #[test]
    fn scoring_mismatched_feature_dim_is_shape_mismatch() {
        let dataset = example::generate(30, 2);
        let trained = quick_detector(1).fit(&dataset.graph).unwrap();
        let other = Graph::new(4, Matrix::zeros(4, dataset.graph.feature_dim() + 1));
        let err = trained.score(&other).unwrap_err();
        assert!(matches!(err, GrgadError::ShapeMismatch { .. }), "{err:?}");
    }

    /// Bitwise equality of every output a serving host relies on — stricter
    /// than `==` on scores alone because `-0.0 == 0.0`.
    fn assert_bit_identical(a: &TpGrGadResult, b: &TpGrGadResult, context: &str) {
        assert_eq!(a.anchor_nodes, b.anchor_nodes, "{context}: anchors");
        assert_eq!(
            a.node_errors
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            b.node_errors
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "{context}: node errors"
        );
        assert_eq!(a.candidate_groups, b.candidate_groups, "{context}: groups");
        assert_eq!(
            a.scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "{context}: scores"
        );
        assert_eq!(
            a.predicted_anomalous, b.predicted_anomalous,
            "{context}: predictions"
        );
    }

    #[test]
    fn embedding_cache_counts_cold_warm_and_invalidated_scores() {
        let dataset = example::generate(40, 13);
        let trained = quick_detector(7).fit(&dataset.graph).unwrap();
        let full = trained.score(&dataset.graph).unwrap();
        // Candidates are deduplicated, so each is one embedding.
        let groups = full.candidate_groups.len() as u64;
        assert!(groups > 0);

        // A cold score embeds every candidate: all misses.
        let mut state = IncrementalState::new();
        let (cold, mode) = trained
            .score_incremental(&dataset.graph, &mut state)
            .unwrap();
        assert_eq!(mode, ScoreMode::Full);
        assert_bit_identical(&cold, &full, "cold");
        let stats = state.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, groups));
        assert_eq!(stats.cached_embeddings as u64, groups);

        // A second score of the unchanged graph: all hits.
        let (warm, mode) = trained
            .score_incremental(&dataset.graph, &mut state)
            .unwrap();
        assert_eq!(mode, ScoreMode::Incremental);
        assert_bit_identical(&warm, &full, "warm");
        let stats = state.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (groups, groups));

        // Marking one candidate member re-embeds exactly the groups that
        // contain it; the output stays bit-identical.
        let victim = full.candidate_groups[0].nodes()[0];
        let holding = full
            .candidate_groups
            .iter()
            .filter(|g| g.contains(victim))
            .count() as u64;
        state.mark_node(victim);
        let (after, mode) = trained
            .score_incremental(&dataset.graph, &mut state)
            .unwrap();
        assert_eq!(mode, ScoreMode::Incremental);
        assert_bit_identical(&after, &full, "after mark_node");
        let stats = state.stats();
        assert_eq!(stats.cache_misses, groups + holding);
        assert_eq!(stats.cache_hits, 2 * groups - holding);
    }

    /// One low-churn round: flip one deterministic edge and rewrite one
    /// node's features, recording the dirt exactly like a serving host.
    fn apply_small_delta(graph: &mut Graph, state: &mut IncrementalState, round: usize) {
        let n = graph.num_nodes();
        let a = (round * 5 + 1) % n;
        let b = (round * 11 + 3) % n;
        if a != b {
            let flipped = if graph.has_edge(a, b) {
                graph.try_remove_edge(a, b).unwrap()
            } else {
                graph.try_add_edge(a, b).unwrap()
            };
            if flipped {
                state.mark_edge(a, b);
            }
        }
        let c = (round * 7 + 2) % n;
        let mut features = graph.features().row(c).to_vec();
        features[0] += 0.25;
        graph.try_set_node_features(c, &features).unwrap();
        state.mark_node(c);
    }

    #[test]
    fn score_incremental_matches_score_bitwise_across_rounds_and_fallback() {
        let dataset = example::generate(40, 13);
        let mut graph = dataset.graph.clone();
        let trained = quick_detector(7).fit(&graph).unwrap();
        let mut state = IncrementalState::new()
            .with_max_dirty_fraction(0.3)
            .unwrap();

        // Cold state: full recompute, bit-identical to `score`.
        let (cold, mode) = trained.score_incremental(&graph, &mut state).unwrap();
        assert_eq!(mode, ScoreMode::Full);
        assert_bit_identical(&cold, &trained.score(&graph).unwrap(), "cold");
        assert!(!state.is_cold());

        // Low-churn rounds stay incremental and exact.
        for round in 0..4 {
            apply_small_delta(&mut graph, &mut state, round);
            let (patched, mode) = trained.score_incremental(&graph, &mut state).unwrap();
            assert_eq!(mode, ScoreMode::Incremental, "round {round}");
            assert_bit_identical(
                &patched,
                &trained.score(&graph).unwrap(),
                &format!("round {round}"),
            );
        }
        let stats = state.stats();
        assert_eq!(stats.scores_incremental, 4);
        assert_eq!(stats.scores_full, 1);
        assert!(stats.groups_reused > 0, "draw cache never hit");
        assert!(stats.anchors_reused > 0, "no anchor overlap across rounds");
        assert!(stats.cache_hits > 0, "embedding cache never hit");
        // 1 full scan + 4 patched rounds must rescore far fewer than 5 full
        // scans — the whole point of the incremental path.
        assert!(
            stats.nodes_rescored < 5 * graph.num_nodes() as u64,
            "rescored {} of {} node-rounds",
            stats.nodes_rescored,
            5 * graph.num_nodes()
        );

        // A churn burst past max_dirty_fraction falls back to Full...
        for v in 0..(graph.num_nodes() * 2).div_ceil(5) {
            let mut features = graph.features().row(v).to_vec();
            features[0] -= 0.5;
            graph.try_set_node_features(v, &features).unwrap();
            state.mark_node(v);
        }
        let (burst, mode) = trained.score_incremental(&graph, &mut state).unwrap();
        assert_eq!(mode, ScoreMode::Full);
        assert_bit_identical(&burst, &trained.score(&graph).unwrap(), "burst");

        // ...and the refilled caches make the next round incremental again.
        apply_small_delta(&mut graph, &mut state, 9);
        let (resumed, mode) = trained.score_incremental(&graph, &mut state).unwrap();
        assert_eq!(mode, ScoreMode::Incremental);
        assert_bit_identical(&resumed, &trained.score(&graph).unwrap(), "resumed");
    }

    /// Satellite regression: a RemoveEdge→AddEdge of the *same* edge in one
    /// delta batch nets out to an unchanged graph, but the recorded dirt
    /// must still evict every cached group containing both endpoints — a
    /// host that "optimized away" the no-op pair would keep stale rows the
    /// moment the batch interleaves other mutations.
    #[test]
    fn remove_then_readd_same_edge_still_evicts_pairwise_groups() {
        let dataset = example::generate(40, 17);
        let mut graph = dataset.graph.clone();
        let trained = quick_detector(5).fit(&graph).unwrap();
        let mut state = IncrementalState::new();
        let (baseline, _) = trained.score_incremental(&graph, &mut state).unwrap();

        // Find an existing edge with both endpoints inside some candidate
        // group, so pairwise eviction has something to evict.
        let mut picked = None;
        'outer: for group in &baseline.candidate_groups {
            let nodes = group.nodes();
            for (i, &u) in nodes.iter().enumerate() {
                for &v in &nodes[i + 1..] {
                    if graph.has_edge(u, v) {
                        picked = Some((u, v));
                        break 'outer;
                    }
                }
            }
        }
        let (u, v) = picked.expect("no candidate group contains an edge");
        let evictable = baseline
            .candidate_groups
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .filter(|g| g.contains(u) && g.contains(v))
            .count() as u64;
        assert!(evictable > 0);

        let misses_before = state.stats().cache_misses;
        assert!(graph.try_remove_edge(u, v).unwrap());
        state.mark_edge(u, v);
        assert!(graph.try_add_edge(u, v).unwrap());
        state.mark_edge(u, v);

        let (rescored, mode) = trained.score_incremental(&graph, &mut state).unwrap();
        assert_eq!(mode, ScoreMode::Incremental);
        assert_bit_identical(&rescored, &baseline, "net-unchanged batch");
        assert_eq!(
            state.stats().cache_misses - misses_before,
            evictable,
            "pairwise eviction must re-embed exactly the groups holding both endpoints"
        );
    }

    #[test]
    fn incremental_state_serde_round_trips_mid_stream() {
        let dataset = example::generate(36, 9);
        let mut graph = dataset.graph.clone();
        let trained = quick_detector(11).fit(&graph).unwrap();
        let mut state = IncrementalState::new();
        trained.score_incremental(&graph, &mut state).unwrap();
        // Leave dirt pending so the snapshot carries a non-trivial region.
        apply_small_delta(&mut graph, &mut state, 0);

        let json = state.to_json().unwrap();
        let mut restored = IncrementalState::from_json(&json).unwrap();
        assert_eq!(restored.stats(), state.stats());
        assert_eq!(restored.dirty(), state.dirty());

        // Original and restored states continue scoring identically.
        let (a, mode_a) = trained.score_incremental(&graph, &mut state).unwrap();
        let (b, mode_b) = trained.score_incremental(&graph, &mut restored).unwrap();
        assert_eq!(mode_a, mode_b);
        assert_bit_identical(&a, &b, "restored state");
        assert_eq!(state.stats(), restored.stats());

        // And the file form round-trips through `save`.
        let path =
            std::env::temp_dir().join(format!("grgad_state_roundtrip_{}.json", std::process::id()));
        state.save(&path).unwrap();
        let reloaded =
            IncrementalState::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(reloaded.stats(), state.stats());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fit_rejects_invalid_inputs_at_the_boundary() {
        let detector = quick_detector(1);
        let empty = Graph::with_no_features(0);
        assert!(matches!(
            detector.fit(&empty).unwrap_err(),
            GrgadError::EmptyGraph { .. }
        ));

        let mut nan_features = Matrix::zeros(6, 3);
        nan_features[(2, 1)] = f32::NAN;
        let nan_graph = Graph::new(6, nan_features);
        assert!(matches!(
            detector.fit(&nan_graph).unwrap_err(),
            GrgadError::NonFiniteInput { .. }
        ));

        let mut bad = TpGrGadConfig::fast();
        bad.anchor_fraction = -1.0;
        let dataset = example::generate(20, 1);
        assert!(matches!(
            TpGrGad::new(bad).fit(&dataset.graph).unwrap_err(),
            GrgadError::ConfigInvalid { .. }
        ));
    }

    #[test]
    fn score_groups_validates_membership_and_dedups() {
        let dataset = example::generate(30, 4);
        let trained = quick_detector(3).fit(&dataset.graph).unwrap();
        let n = dataset.graph.num_nodes();

        // Out-of-range member id.
        let bad = Group::new(vec![0, n + 5]);
        let err = trained.score_groups(&dataset.graph, &[bad]).unwrap_err();
        assert!(matches!(err, GrgadError::InvalidNodeId { .. }), "{err:?}");

        // Empty group.
        let err = trained
            .score_groups(&dataset.graph, &[Group::new(vec![])])
            .unwrap_err();
        assert!(matches!(err, GrgadError::EmptyGroup { .. }), "{err:?}");

        // Duplicate ids in a raw list are deduplicated by the canonical
        // Group constructor, so the score equals the deduped group's score
        // instead of silently double-counting the repeated member.
        let deduped = Group::try_new(vec![0, 1, 2], n).unwrap();
        let with_dups = Group::try_new(vec![0, 1, 1, 2, 2, 2], n).unwrap();
        assert_eq!(deduped, with_dups);
        let scores = trained
            .score_groups(&dataset.graph, &[deduped, with_dups])
            .unwrap();
        assert_eq!(scores[0], scores[1]);
    }

    /// Replaces one top-level field of a serialized model artifact.
    fn with_field(json: &str, key: &str, new_value: serde::Value) -> String {
        let value: serde::Value = serde_json::from_str(json).expect("parse model json");
        let serde::Value::Map(mut entries) = value else {
            panic!("model json must be an object");
        };
        for entry in &mut entries {
            if entry.0 == key {
                entry.1 = new_value;
                return serde_json::to_string(&serde::Value::Map(entries)).expect("render");
            }
        }
        panic!("field {key} not found");
    }

    /// Well-formed JSON with structurally wrong content must come back as
    /// a typed ModelIo error — never a panic inside `import_weights` or a
    /// silently accepted out-of-domain config (both previously crashed or
    /// slipped through the serving `load` path).
    #[test]
    fn corrupted_model_artifacts_are_typed_errors_not_panics() {
        let dataset = example::generate(30, 17);
        let trained = quick_detector(17).fit(&dataset.graph).unwrap();
        let json = trained.to_json().unwrap();

        // Empty weight snapshot (valid JSON, wrong matrix count).
        let empty_weights = with_field(&json, "mhgae_weights", serde::Value::Seq(Vec::new()));
        let err = TrainedTpGrGad::from_json(&empty_weights).unwrap_err();
        assert!(matches!(err, GrgadError::ModelIo { .. }), "{err:?}");
        assert!(err.to_string().contains("weight matrices"), "{err}");

        // Right count, wrong shape.
        let weights = trained.mhgae().export_weights();
        let mut wrong_shape: Vec<serde::Value> =
            weights.iter().map(serde::Serialize::to_value).collect();
        wrong_shape[0] = serde::Serialize::to_value(&Matrix::zeros(1, 1));
        let bad_shape = with_field(&json, "mhgae_weights", serde::Value::Seq(wrong_shape));
        let err = TrainedTpGrGad::from_json(&bad_shape).unwrap_err();
        assert!(err.to_string().contains("shape"), "{err}");

        // Out-of-domain config knob inside the artifact.
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let config_value = value.field("config").unwrap().clone();
        let serde::Value::Map(mut config_entries) = config_value else {
            panic!("config must be an object");
        };
        for entry in &mut config_entries {
            if entry.0 == "contamination" {
                entry.1 = serde::Value::Num(9.0);
            }
        }
        let bad_config = with_field(&json, "config", serde::Value::Map(config_entries));
        let err = TrainedTpGrGad::from_json(&bad_config).unwrap_err();
        assert!(matches!(err, GrgadError::ModelIo { .. }), "{err:?}");
        assert!(err.to_string().contains("contamination"), "{err}");
    }

    #[test]
    fn adaptive_threshold_flags_clear_outlier() {
        let scores = vec![0.1, 0.11, 0.09, 0.1, 5.0];
        let flags = adaptive_threshold(&scores, 1.0);
        assert_eq!(flags, vec![false, false, false, false, true]);
    }

    #[test]
    fn adaptive_threshold_degenerate_distribution_flags_one() {
        // All-equal scores: std == 0, no score exceeds mean — the fallback
        // must still report exactly one group.
        let flags = adaptive_threshold(&[2.5; 6], 1.0);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
        assert!(adaptive_threshold(&[], 1.0).is_empty());
    }

    #[test]
    fn adaptive_threshold_ignores_non_finite_scores() {
        // A NaN must neither poison the mean/std nor be flagged; the clear
        // finite outlier must still be found.
        let scores = vec![0.1, f32::NAN, 0.12, 0.11, 4.0, f32::INFINITY];
        let flags = adaptive_threshold(&scores, 1.0);
        assert!(!flags[1], "NaN must never be flagged");
        assert!(!flags[5], "inf must never be flagged");
        assert!(flags[4], "finite outlier must be flagged");

        // All-NaN scores: nothing to report.
        let none = adaptive_threshold(&[f32::NAN, f32::NAN], 1.0);
        assert_eq!(none, vec![false, false]);
    }
}
