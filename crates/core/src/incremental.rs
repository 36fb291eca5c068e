//! First-class cross-round state for incremental scoring:
//! [`IncrementalState`] and the [`ScoreMode`] every incremental score
//! reports.
//!
//! `TrainedTpGrGad::score_incremental` re-scores an evolving graph by
//! patching three levels of cached state instead of recomputing the
//! pipeline (DESIGN.md §9):
//!
//! 1. **node errors / anchors** — an [`ErrorCache`] of per-layer GCN
//!    activations and raw error vectors, patched on the receptive-field
//!    hop ball of the dirty region;
//! 2. **candidate draws** — a [`DrawCache`] memoizing the path/tree/cycle
//!    searches of Alg. 1, pruned by hop distance from topology dirt;
//! 3. **group embeddings** — a `GroupEmbeddingCache`, invalidated
//!    per-member for node dirt and pairwise for edge dirt.
//!
//! `TrainedTpGrGad::score` is the same path run on a cold state that is
//! dropped on return, so the contract at every level is **bit-for-bit
//! identity** with a cold run on the current graph. The state also carries the
//! [`DirtyRegion`] deltas accumulate into, the previous round's anchors
//! (for reuse accounting), and lifetime counters surfaced by
//! [`IncrementalState::stats`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use grgad_error::GrgadError;
use grgad_gnn::ErrorCache;
use grgad_graph::{DirtyRegion, Group};
use grgad_linalg::Matrix;
use grgad_sampling::DrawCache;
use serde::{Deserialize, Serialize};

/// How a score request was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreMode {
    /// Cached state was patched: only dirty-region work was recomputed.
    Incremental,
    /// Everything was recomputed (first score, an invalidated state, or a
    /// dirty fraction above [`IncrementalState::max_dirty_fraction`]). The
    /// full run still refills every cache, so the next round can patch.
    Full,
}

impl ScoreMode {
    /// Wire name (`incremental` | `full`).
    pub fn name(&self) -> &'static str {
        match self {
            ScoreMode::Incremental => "incremental",
            ScoreMode::Full => "full",
        }
    }
}

/// Lifetime counters and cache gauges of an [`IncrementalState`] — the
/// `stats` payload serving hosts expose. Deterministic functions of the
/// request history (no wall-clock), so scripted sessions golden-diff
/// cleanly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IncrementalStats {
    /// Scores served by patching cached state.
    pub scores_incremental: u64,
    /// Scores served by full recomputation.
    pub scores_full: u64,
    /// Nodes whose reconstruction errors were actually recomputed, summed
    /// over all scores (a full score counts every node).
    pub nodes_rescored: u64,
    /// Anchor slots that re-selected a previous-round anchor, summed over
    /// all scores after the first.
    pub anchors_reused: u64,
    /// Candidate-group draws answered by running a graph search
    /// (draw-cache misses).
    pub groups_resampled: u64,
    /// Candidate-group draws answered from the draw cache.
    pub groups_reused: u64,
    /// Group-embedding cache hits.
    pub cache_hits: u64,
    /// Group-embedding cache misses.
    pub cache_misses: u64,
    /// Nodes covered by the error cache (0 when cold).
    pub cached_nodes: usize,
    /// Memoized candidate draws currently held.
    pub cached_draws: usize,
    /// Group embeddings currently held.
    pub cached_embeddings: usize,
}

/// Group embeddings keyed by the group's canonical node set — the level of
/// [`IncrementalState`] that lets a score skip stage 3 (the per-group GCN
/// forward) for groups whose members were untouched by graph deltas.
///
/// A cached row is only valid while the group's members keep their feature
/// rows and induced edges, so the scoring path evicts every group holding
/// a re-featured node and every group holding **both** endpoints of a
/// changed edge (an edge whose other endpoint lies outside a group cannot
/// change that group's induced subgraph). Because the encoder embeds each
/// group from its induced subgraph alone, with per-group output slots
/// independent of batch composition, a valid cached row is bit-identical to
/// a freshly computed one.
#[derive(Debug, Default)]
pub(crate) struct GroupEmbeddingCache {
    entries: BTreeMap<Group, Vec<f32>>,
    hits: u64,
    misses: u64,
}

impl GroupEmbeddingCache {
    /// Drops every cached embedding (counters are kept).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drops every cached group containing any of `nodes`, or **both**
    /// endpoints of any of `edges`, in one pass over the cache.
    pub(crate) fn invalidate(&mut self, nodes: &BTreeSet<usize>, edges: &BTreeSet<(usize, usize)>) {
        if (nodes.is_empty() && edges.is_empty()) || self.entries.is_empty() {
            return;
        }
        self.entries.retain(|group, _| {
            !nodes.iter().any(|&v| group.contains(v))
                && !edges
                    .iter()
                    .any(|&(u, v)| group.contains(u) && group.contains(v))
        });
    }

    /// Embeds `groups` (`dim` columns), reusing every cached row and
    /// computing only the misses through `embed` in one batch; the misses
    /// are cached on return. Rows cached under a different width (a state
    /// reused across models) count as misses and are overwritten.
    pub(crate) fn embed(
        &mut self,
        groups: &[Group],
        dim: usize,
        embed: impl FnOnce(&[Group]) -> Matrix,
    ) -> Matrix {
        let misses: Vec<Group> = groups
            .iter()
            .filter(|group| self.entries.get(*group).is_none_or(|row| row.len() != dim))
            .cloned()
            .collect();
        self.hits += (groups.len() - misses.len()) as u64;
        self.misses += misses.len() as u64;
        let fresh = embed(&misses);
        for (slot, group) in misses.into_iter().enumerate() {
            self.entries.insert(group, fresh.row(slot).to_vec());
        }

        let mut out = Matrix::zeros(groups.len(), dim);
        for (i, group) in groups.iter().enumerate() {
            if let Some(row) = self.entries.get(group) {
                out.row_mut(i).copy_from_slice(row);
            }
        }

        // Bound the cache to the working set: entries for groups outside the
        // current candidate batch are only worth keeping while the candidate
        // set oscillates, so once the cache outgrows the batch by a
        // comfortable factor, sweep the strangers. Without this a
        // long-running engine accumulates embeddings for groups that will
        // never be candidates again (unbounded RSS).
        if self.entries.len() > 4 * groups.len() + 64 {
            let current: BTreeSet<&Group> = groups.iter().collect();
            self.entries.retain(|group, _| current.contains(group));
        }
        out
    }
}

// Groups are flattened to node-id lists so the cache persists without
// `Group` carrying serde impls.
impl Serialize for GroupEmbeddingCache {
    fn to_value(&self) -> serde::Value {
        let entries: Vec<(Vec<usize>, Vec<f32>)> = self
            .entries
            .iter()
            .map(|(group, row)| (group.nodes().to_vec(), row.clone()))
            .collect();
        serde::Value::Map(vec![
            ("entries".to_string(), entries.to_value()),
            ("hits".to_string(), self.hits.to_value()),
            ("misses".to_string(), self.misses.to_value()),
        ])
    }
}

impl Deserialize for GroupEmbeddingCache {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = Vec::<(Vec<usize>, Vec<f32>)>::from_value(value.field("entries")?)?;
        Ok(Self {
            entries: raw
                .into_iter()
                .map(|(nodes, row)| (Group::new(nodes), row))
                .collect(),
            hits: u64::from_value(value.field("hits")?)?,
            misses: u64::from_value(value.field("misses")?)?,
        })
    }
}

/// Persistent cross-round scoring state: all three cache levels, the dirty
/// region deltas accumulate into, and reuse counters. Create one per
/// evolving graph, feed every mutation to [`IncrementalState::mark_node`] /
/// [`IncrementalState::mark_edge`], and pass it to
/// `TrainedTpGrGad::score_incremental` on every score.
#[derive(Debug)]
pub struct IncrementalState {
    pub(crate) errors: Option<ErrorCache>,
    pub(crate) draws: DrawCache,
    pub(crate) embeddings: GroupEmbeddingCache,
    pub(crate) dirty: DirtyRegion,
    pub(crate) last_anchors: Vec<usize>,
    pub(crate) max_dirty_fraction: f32,
    pub(crate) scores_incremental: u64,
    pub(crate) scores_full: u64,
    pub(crate) nodes_rescored: u64,
    pub(crate) anchors_reused: u64,
}

impl Default for IncrementalState {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalState {
    /// Fresh (cold) state with the default dirty-fraction fallback of 0.25.
    pub fn new() -> Self {
        Self {
            errors: None,
            draws: DrawCache::new(),
            embeddings: GroupEmbeddingCache::default(),
            dirty: DirtyRegion::new(),
            last_anchors: Vec::new(),
            max_dirty_fraction: 0.25,
            scores_incremental: 0,
            scores_full: 0,
            nodes_rescored: 0,
            anchors_reused: 0,
        }
    }

    /// Sets the dirty-node fraction (touched / total nodes) above which a
    /// score skips patching entirely and recomputes from scratch.
    ///
    /// # Errors
    /// [`GrgadError::ConfigInvalid`] outside `[0, 1]` or non-finite.
    pub fn with_max_dirty_fraction(mut self, fraction: f32) -> Result<Self, GrgadError> {
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(GrgadError::config("max_dirty_fraction must be in [0, 1]"));
        }
        self.max_dirty_fraction = fraction;
        Ok(self)
    }

    /// The configured dirty-fraction fallback threshold.
    pub fn max_dirty_fraction(&self) -> f32 {
        self.max_dirty_fraction
    }

    /// Records a node whose own state changed (features set, node
    /// appended).
    pub fn mark_node(&mut self, node: usize) {
        self.dirty.mark_node(node);
    }

    /// Records a changed (added or removed) edge.
    pub fn mark_edge(&mut self, u: usize, v: usize) {
        self.dirty.mark_edge(u, v);
    }

    /// The mutations recorded since the last successful score.
    pub fn dirty(&self) -> &DirtyRegion {
        &self.dirty
    }

    /// True until the first successful score populates the caches.
    pub fn is_cold(&self) -> bool {
        self.errors.is_none()
    }

    /// Drops every cached level (errors, draws, embeddings). The next score
    /// recomputes from scratch — and refills the caches. Recorded dirt and
    /// lifetime counters are kept.
    pub fn invalidate(&mut self) {
        self.errors = None;
        self.draws.clear();
        self.embeddings.clear();
        self.last_anchors.clear();
    }

    /// Current counters and cache gauges.
    pub fn stats(&self) -> IncrementalStats {
        let (draw_hits, draw_misses) = self.draws.counters();
        IncrementalStats {
            scores_incremental: self.scores_incremental,
            scores_full: self.scores_full,
            nodes_rescored: self.nodes_rescored,
            anchors_reused: self.anchors_reused,
            groups_resampled: draw_misses,
            groups_reused: draw_hits,
            cache_hits: self.embeddings.hits,
            cache_misses: self.embeddings.misses,
            cached_nodes: self.errors.as_ref().map_or(0, ErrorCache::nodes),
            cached_draws: self.draws.len(),
            cached_embeddings: self.embeddings.entries.len(),
        }
    }

    /// Serializes the full state (all three cache levels, recorded dirt,
    /// counters) as JSON. [`IncrementalState::from_json`] restores a state
    /// that continues scoring bit-identically.
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] when the state cannot be rendered.
    pub fn to_json(&self) -> Result<String, GrgadError> {
        serde_json::to_string(&self.to_value())
            .map_err(|e| GrgadError::model_io(STATE_IN_MEMORY, e))
    }

    fn to_value(&self) -> serde::Value {
        let dirty_nodes: Vec<usize> = self.dirty.nodes().iter().copied().collect();
        let dirty_edges: Vec<(usize, usize)> = self.dirty.edges().iter().copied().collect();
        serde::Value::Map(vec![
            (
                "format".to_string(),
                serde::Value::Str(STATE_FORMAT.to_string()),
            ),
            ("errors".to_string(), self.errors.to_value()),
            ("draws".to_string(), self.draws.to_value()),
            ("embeddings".to_string(), self.embeddings.to_value()),
            ("dirty_nodes".to_string(), dirty_nodes.to_value()),
            ("dirty_edges".to_string(), dirty_edges.to_value()),
            ("last_anchors".to_string(), self.last_anchors.to_value()),
            (
                "max_dirty_fraction".to_string(),
                self.max_dirty_fraction.to_value(),
            ),
            (
                "scores_incremental".to_string(),
                self.scores_incremental.to_value(),
            ),
            ("scores_full".to_string(), self.scores_full.to_value()),
            ("nodes_rescored".to_string(), self.nodes_rescored.to_value()),
            ("anchors_reused".to_string(), self.anchors_reused.to_value()),
        ])
    }

    /// Restores a state saved by [`IncrementalState::to_json`] /
    /// [`IncrementalState::save`].
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] for malformed or wrong-format JSON.
    pub fn from_json(json: &str) -> Result<Self, GrgadError> {
        Self::from_value_tree(json).map_err(|e| GrgadError::model_io(STATE_IN_MEMORY, e))
    }

    fn from_value_tree(json: &str) -> Result<Self, serde::Error> {
        let value: serde::Value = serde_json::from_str(json)?;
        let format = String::from_value(value.field("format")?)?;
        if format != STATE_FORMAT {
            return Err(serde::Error::custom(format!(
                "unsupported state format `{format}` (expected `{STATE_FORMAT}`)"
            )));
        }
        let mut dirty = DirtyRegion::new();
        for node in Vec::<usize>::from_value(value.field("dirty_nodes")?)? {
            dirty.mark_node(node);
        }
        for (u, v) in Vec::<(usize, usize)>::from_value(value.field("dirty_edges")?)? {
            dirty.mark_edge(u, v);
        }
        Ok(Self {
            errors: Option::<ErrorCache>::from_value(value.field("errors")?)?,
            draws: DrawCache::from_value(value.field("draws")?)?,
            embeddings: GroupEmbeddingCache::from_value(value.field("embeddings")?)?,
            dirty,
            last_anchors: Vec::<usize>::from_value(value.field("last_anchors")?)?,
            max_dirty_fraction: f32::from_value(value.field("max_dirty_fraction")?)?,
            scores_incremental: u64::from_value(value.field("scores_incremental")?)?,
            scores_full: u64::from_value(value.field("scores_full")?)?,
            nodes_rescored: u64::from_value(value.field("nodes_rescored")?)?,
            anchors_reused: u64::from_value(value.field("anchors_reused")?)?,
        })
    }

    /// Writes the state as JSON to `path` — the `state_save` protocol op.
    ///
    /// # Errors
    /// [`GrgadError::ModelIo`] carrying the path and the underlying cause.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), GrgadError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        std::fs::write(path, json).map_err(|e| GrgadError::model_io(path.display().to_string(), e))
    }

    /// Anchor overlap with the previous round, recorded by the scoring
    /// path.
    pub(crate) fn record_anchor_reuse(&mut self, anchors: &[usize]) {
        let prev: BTreeSet<usize> = self.last_anchors.iter().copied().collect();
        self.anchors_reused += anchors.iter().filter(|a| prev.contains(a)).count() as u64;
        self.last_anchors = anchors.to_vec();
    }
}

/// Identifier stored in saved states; bump on breaking layout changes.
const STATE_FORMAT: &str = "grgad-incremental-state/v2";

/// Path label for in-memory (de)serialization failures.
const STATE_IN_MEMORY: &str = "<memory>";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_bounds_are_validated() {
        assert!(IncrementalState::new().with_max_dirty_fraction(0.0).is_ok());
        assert!(IncrementalState::new().with_max_dirty_fraction(1.0).is_ok());
        for bad in [-0.1, 1.5, f32::NAN, f32::INFINITY] {
            let err = IncrementalState::new()
                .with_max_dirty_fraction(bad)
                .unwrap_err();
            assert!(
                matches!(err, GrgadError::ConfigInvalid { .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn cold_state_reports_empty_stats_and_invalidate_keeps_counters() {
        let mut state = IncrementalState::new();
        assert!(state.is_cold());
        let stats = state.stats();
        assert_eq!(stats.scores_incremental + stats.scores_full, 0);
        assert_eq!(stats.cached_nodes, 0);
        state.mark_node(3);
        state.mark_edge(5, 1);
        assert!(!state.dirty().is_empty());
        state.scores_full = 2;
        state.invalidate();
        assert!(state.is_cold());
        assert_eq!(state.stats().scores_full, 2, "counters survive invalidate");
        assert!(!state.dirty().is_empty(), "dirt survives invalidate");
    }

    #[test]
    fn empty_state_serde_round_trips() {
        let mut state = IncrementalState::new()
            .with_max_dirty_fraction(0.4)
            .unwrap();
        state.mark_edge(9, 2);
        state.scores_incremental = 7;
        let json = state.to_json().unwrap();
        let back = IncrementalState::from_json(&json).unwrap();
        assert_eq!(back.max_dirty_fraction(), 0.4);
        assert_eq!(back.stats(), state.stats());
        assert!(back.dirty().edges().contains(&(2, 9)));

        let err = IncrementalState::from_json("{\"format\":\"nope\"}").unwrap_err();
        assert!(matches!(err, GrgadError::ModelIo { .. }), "{err:?}");
    }

    #[test]
    fn v1_states_are_rejected_as_model_io() {
        // v1 cached the attribute decoder output and keyed raw overlap
        // weights by edge; v2 has neither, and no legacy reader.
        let v2 = IncrementalState::new().to_json().unwrap();
        let v1 = v2.replace(STATE_FORMAT, "grgad-incremental-state/v1");
        assert_ne!(v1, v2);
        let err = IncrementalState::from_json(&v1).unwrap_err();
        assert!(matches!(err, GrgadError::ModelIo { .. }), "{err:?}");
        assert!(
            err.to_string().contains("grgad-incremental-state/v1"),
            "{err}"
        );
    }
}
