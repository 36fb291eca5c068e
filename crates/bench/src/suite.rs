//! The scale-sweep benchmark subsystem: machine-readable `BENCH_*.json`
//! performance records with golden-metric regression gates.
//!
//! A *suite* ([`SuitePreset`]) is a parameterized sweep of power-law
//! workloads ([`grgad_datasets::powerlaw`]). For every sweep point the
//! runner executes the full `fit` → `score` pipeline under a
//! [`TimingObserver`], evaluates CR/F1/AUC against the planted ground truth,
//! and captures graph dimensions, per-stage wall-clock, thread count and
//! peak RSS into a [`WorkloadRecord`]. The whole sweep serializes as a
//! versioned [`BenchReport`] (`BENCH_<suite>.json`) — the before/after
//! artifact every performance PR must produce.
//!
//! Quality is gated by golden-metric snapshots ([`GoldenMetrics`], stored
//! under `crates/bench/goldens/`): CR/AUC are pinned per seeded workload and
//! [`compare_golden`] fails on drift beyond the snapshot's tolerance. The
//! workloads are deterministic for a fixed seed (and bit-identical at any
//! thread count) on a given platform/toolchain, so drift there means the
//! *pipeline semantics* changed — a perf PR that moves these numbers must
//! either fix a bug or consciously re-pin the goldens (policy in
//! DESIGN.md §7).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use grgad_core::{TimingObserver, TpGrGad, TpGrGadConfig, TpGrGadResult};
use grgad_datasets::{powerlaw, GrGadDataset};
use grgad_gnn::ReconstructionTarget;
use grgad_metrics::evaluate_detection;
use grgad_serve::{GraphDelta, ScoringEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Version tag of the `BENCH_*.json` schema; bump on breaking layout
/// changes so stale artifacts and goldens fail loudly instead of silently
/// misparsing. v2 added the delta-stream workload records
/// ([`DeltaStreamRecord`]); v3 added the serving-host throughput records
/// ([`crate::serve_bench::ServeThroughputRecord`]) and their golden
/// parity pins; v4 added the incremental-reuse counters and per-round
/// parity flags to delta-stream records, plus their golden pins
/// ([`GoldenDeltaStream`]: parity + a minimum incremental-speedup floor);
/// v5 added the out-of-core storage gates: per-workload mmap-scoring
/// parity flags ([`WorkloadRecord::mmap_parity`]) and golden peak-RSS
/// ceilings ([`GoldenWorkload::max_peak_rss_bytes`]).
pub const BENCH_FORMAT: &str = "grgad-bench/v5";

/// One pipeline stage execution inside a workload run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Stage name (`anchor_localization`, `candidate_sampling`, ...).
    pub stage: String,
    /// `fit` or `score`.
    pub phase: String,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Items processed (nodes for anchor localization, groups otherwise).
    pub items: usize,
    /// Training epochs executed inside the stage (`0` on the score path).
    pub train_epochs: usize,
    /// Resolved worker threads of the deterministic parallel backend.
    pub threads: usize,
}

/// Quality metrics of a workload run (the paper's headline metrics).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QualityRecord {
    /// Completeness Ratio.
    pub cr: f32,
    /// Group-wise F1.
    pub f1: f32,
    /// Group-wise ROC-AUC.
    pub auc: f32,
}

/// Everything measured for one sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRecord {
    /// Workload name (e.g. `powerlaw-10000`).
    pub workload: String,
    /// Master seed of the generator and pipeline.
    pub seed: u64,
    /// Nodes in the generated graph (background + planted).
    pub nodes: usize,
    /// Undirected edges in the generated graph.
    pub edges: usize,
    /// Node-attribute dimensionality.
    pub feature_dim: usize,
    /// Planted ground-truth anomaly groups.
    pub anomaly_groups: usize,
    /// Candidate groups produced by the sampler on the score path.
    pub candidate_groups: usize,
    /// Resolved worker-thread cap during the run.
    pub threads: usize,
    /// Total `fit` wall-clock milliseconds.
    pub fit_millis: f64,
    /// Total `score` wall-clock milliseconds.
    pub score_millis: f64,
    /// Process peak RSS (bytes) after the run; `None` where the platform
    /// does not expose it.
    pub peak_rss_bytes: Option<u64>,
    /// `Some(true)` when re-scoring the same trained model against an
    /// mmap-backed on-disk copy of the dataset (written through
    /// [`grgad_datasets::stream::write_dataset`]) reproduced the in-memory
    /// scores bit-for-bit. `None` when the input dataset was already
    /// storage-backed, so there is no in-memory side to compare against.
    pub mmap_parity: Option<bool>,
    /// Per-stage timing records, fit stages first, in execution order.
    pub stages: Vec<StageRecord>,
    /// CR/F1/AUC against the planted ground truth.
    pub metrics: QualityRecord,
}

/// The incremental-vs-full re-score comparison for one delta-stream
/// workload: a trained model bound to a `ScoringEngine`, mutated by seeded
/// delta rounds, scored incrementally after each round and compared —
/// wall-clock and bit-for-bit — against a from-scratch `score()` on the
/// same graph state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeltaStreamRecord {
    /// Workload name (e.g. `powerlaw-600-deltas`).
    pub workload: String,
    /// Master seed of the generator, pipeline and delta stream.
    pub seed: u64,
    /// Nodes in the starting graph.
    pub nodes: usize,
    /// Mutation rounds applied (each followed by one incremental and one
    /// full re-score).
    pub rounds: usize,
    /// Deltas applied per round.
    pub deltas_per_round: usize,
    /// Total wall-clock of the incremental re-scores (milliseconds).
    pub incremental_millis: f64,
    /// Total wall-clock of the from-scratch re-scores (milliseconds).
    pub full_millis: f64,
    /// `full_millis / incremental_millis` (> 1 means incremental wins).
    pub speedup: f64,
    /// Group-embedding cache hits across the run.
    pub cache_hits: u64,
    /// Group-embedding cache misses across the run.
    pub cache_misses: u64,
    /// True when every incremental score was bit-identical to the full
    /// re-score on the same graph state (checked every round).
    pub parity_ok: bool,
    /// Reconstruction errors recomputed across the run (dirty hop-balls
    /// only on incremental rounds; every node on full populates).
    pub nodes_rescored: u64,
    /// Anchors carried over unchanged from the previous round.
    pub anchors_reused: u64,
    /// Candidate-group draws that went through a fresh topology search.
    pub groups_resampled: u64,
    /// Candidate-group draws replayed from the memoized draw cache.
    pub groups_reused: u64,
    /// Per-round parity flags in round order; [`Self::parity_ok`] is their
    /// conjunction, kept so the gate can name the first diverging round.
    pub round_parity: Vec<bool>,
}

/// A full suite run: the content of one `BENCH_<suite>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_FORMAT`]).
    pub format: String,
    /// Suite name (`ci`, `scale`, `diagnose`, ...).
    pub suite: String,
    /// Master seed the suite ran with.
    pub seed: u64,
    /// One record per sweep point, in sweep order.
    pub workloads: Vec<WorkloadRecord>,
    /// Incremental-vs-full delta-stream comparisons (empty for suites that
    /// skip them, e.g. `diagnose`).
    pub delta_streams: Vec<DeltaStreamRecord>,
    /// Serving-host throughput records (only the `serve` suite produces
    /// them; empty elsewhere).
    pub serve: Vec<crate::serve_bench::ServeThroughputRecord>,
}

impl BenchReport {
    /// The canonical artifact filename for this suite (`BENCH_<suite>.json`).
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.suite)
    }
}

/// The parameterized sweeps `bench_suite` knows how to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuitePreset {
    /// Small sweep for the CI quality gate: fast enough for every PR.
    Ci,
    /// The scale sweep: 1k → 100k nodes, exercising the CSR hot paths at
    /// sizes the paper datasets cannot reach.
    Scale,
    /// The serving-host throughput suite: concurrent socket clients against
    /// the `grgad_server` binary ([`crate::serve_bench`]); no fit/score
    /// sweep points of its own.
    Serve,
    /// The out-of-core sweep: a single million-node power-law workload,
    /// generated straight to disk ([`grgad_datasets::stream`]) and scored
    /// off the mmap-backed artifact. Its golden pins peak RSS alongside
    /// CR/AUC — the OOM guard for the storage subsystem.
    Scale1m,
}

impl SuitePreset {
    /// Suite name as used in filenames and golden snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            SuitePreset::Ci => "ci",
            SuitePreset::Scale => "scale",
            SuitePreset::Serve => "serve",
            SuitePreset::Scale1m => "scale1m",
        }
    }

    /// Background-node counts of the sweep points (`serve` has none — its
    /// workloads are client/worker combinations, not graph sizes).
    pub fn sizes(&self) -> &'static [usize] {
        match self {
            SuitePreset::Ci => &[600, 1_200, 2_400],
            SuitePreset::Scale => &[1_000, 10_000, 100_000],
            SuitePreset::Serve => &[],
            SuitePreset::Scale1m => &[1_000_000],
        }
    }

    /// Parses a preset name (`ci` | `scale` | `serve` | `scale1m`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "ci" => Ok(SuitePreset::Ci),
            "scale" => Ok(SuitePreset::Scale),
            "serve" => Ok(SuitePreset::Serve),
            "scale1m" | "powerlaw-1m" => Ok(SuitePreset::Scale1m),
            other => Err(format!(
                "unknown preset `{other}` (expected ci|scale|serve|scale1m)"
            )),
        }
    }
}

/// The pipeline configuration the benchmark uses at a given graph size.
///
/// Model dimensions are fixed across the sweep so stage timings compare
/// node-for-node; the knobs that scale down with size are the training
/// epochs and anchor fraction (bounded wall-clock, not peak quality, is the
/// point at 100k nodes) and the search budgets, which would otherwise grow
/// super-linearly around power-law hubs — in particular the cycle DFS gets
/// an explicit step budget. The GraphSNN `Ã` reconstruction target is kept
/// at every scale: its closed-neighborhood overlap stays cheap on these
/// graphs (~320ms at 100k nodes), and with a plain `A` target the planted
/// groups' long-range inconsistency is invisible — anchors then miss every
/// planted node and CR/AUC collapse to chance, which would make the golden
/// quality gate meaningless.
pub fn bench_config(nodes: usize, seed: u64) -> TpGrGadConfig {
    let mut config = TpGrGadConfig::fast();
    config.gae.hidden_dim = 16;
    config.gae.embed_dim = 8;
    config.tpgcl.hidden_dim = 16;
    config.tpgcl.embed_dim = 16;
    config.tpgcl.mine_hidden_dim = 16;
    config.tpgcl.max_training_groups = 64;
    config.sampling.max_anchor_pairs = 400;
    config.sampling.max_groups = 400;
    config.sampling.background_groups = 120;
    config.sampling.max_cycle_dfs_steps = 20_000;
    config.reconstruction_target = ReconstructionTarget::GraphSnn { lambda: 1.0 };
    if nodes <= 2_500 {
        config.gae.epochs = 30;
        config.tpgcl.epochs = 10;
        config.anchor_fraction = 0.1;
    } else if nodes <= 20_000 {
        config.gae.epochs = 25;
        config.tpgcl.epochs = 5;
        config.anchor_fraction = 0.05;
    } else {
        config.gae.epochs = 12;
        config.tpgcl.epochs = 3;
        config.anchor_fraction = 0.02;
    }
    config.with_seed(seed)
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

fn stage_records(observer: &TimingObserver) -> Vec<StageRecord> {
    observer
        .stages
        .iter()
        .map(|s| StageRecord {
            stage: s.stage.name().to_string(),
            phase: s.phase.to_string(),
            millis: millis(s.wall),
            items: s.items,
            train_epochs: s.train_epochs,
            threads: s.threads,
        })
        .collect()
}

/// Runs one workload (fit once, score once, evaluate) and returns its record
/// together with the raw scoring result — `diagnose` uses the latter for its
/// quality drill-down so human and machine views come from one run.
pub fn run_workload_detailed(
    dataset: &GrGadDataset,
    config: &TpGrGadConfig,
) -> (WorkloadRecord, TpGrGadResult) {
    let detector = TpGrGad::new(config.clone());
    let mut fit_timings = TimingObserver::new();
    let trained = detector
        .fit_observed(&dataset.graph, &mut fit_timings)
        .expect("benchmark datasets are valid pipeline input");
    let mut score_timings = TimingObserver::new();
    let result = trained
        .score_observed(&dataset.graph, &mut score_timings)
        .expect("benchmark datasets are valid pipeline input");
    let report = evaluate_detection(
        &result.candidate_groups,
        &result.scores,
        &result.predicted_anomalous,
        &dataset.anomaly_groups,
        config.match_jaccard,
    );

    let mmap_parity = mmap_scoring_parity(dataset, &trained, &result);

    let mut stages = stage_records(&fit_timings);
    stages.extend(stage_records(&score_timings));
    let threads = stages.iter().map(|s| s.threads).max().unwrap_or(1);
    let record = WorkloadRecord {
        workload: dataset.name.clone(),
        seed: config.seed,
        nodes: dataset.graph.num_nodes(),
        edges: dataset.graph.num_edges(),
        feature_dim: dataset.graph.feature_dim(),
        anomaly_groups: dataset.anomaly_groups.len(),
        candidate_groups: result.candidate_groups.len(),
        threads,
        fit_millis: millis(fit_timings.total_wall()),
        score_millis: millis(score_timings.total_wall()),
        peak_rss_bytes: fit_timings
            .max_peak_rss_bytes()
            .max(score_timings.max_peak_rss_bytes()),
        mmap_parity,
        stages,
        metrics: QualityRecord {
            cr: report.cr,
            f1: report.f1,
            auc: report.auc,
        },
    };
    (record, result)
}

/// [`run_workload_detailed`] without the raw result.
pub fn run_workload(dataset: &GrGadDataset, config: &TpGrGadConfig) -> WorkloadRecord {
    run_workload_detailed(dataset, config).0
}

/// Re-scores the trained model against an mmap-backed on-disk copy of the
/// dataset and compares bit-for-bit with the in-memory result. Returns
/// `None` when the input features are already served through the storage
/// seam (the out-of-core suites) — there is no in-memory side to compare.
fn mmap_scoring_parity(
    dataset: &GrGadDataset,
    trained: &grgad_core::TrainedTpGrGad,
    in_memory: &TpGrGadResult,
) -> Option<bool> {
    if dataset.graph.features().is_shared() {
        return None;
    }
    // Parallel tests in one process score the same dataset names, so a
    // process-wide counter keeps their artifact directories apart.
    static PARITY_DIRS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "grgad_bench_parity_{}_{}_{}",
        std::process::id(),
        PARITY_DIRS.fetch_add(1, Ordering::Relaxed),
        dataset.name
    ));
    grgad_datasets::stream::write_dataset(dataset, &dir)
        .expect("benchmark parity artifact is writable");
    let mapped = grgad_datasets::stream::load_dataset(&dir)
        .expect("freshly written parity artifact loads back");
    debug_assert!(mapped.graph.features().is_shared());
    let mapped_result = trained
        .score(&mapped.graph)
        .expect("mmap-backed copy of a valid dataset scores");
    std::fs::remove_dir_all(&dir).ok();
    Some(
        mapped_result.scores == in_memory.scores
            && mapped_result.candidate_groups == in_memory.candidate_groups
            && mapped_result.predicted_anomalous == in_memory.predicted_anomalous,
    )
}

/// The two delta-stream regimes the suite benchmarks. They bound the
/// incremental path from both ends: [`Churn`](DeltaStreamKind::Churn) is the
/// adversarial mix (topology rewires scramble anchors and candidate draws, so
/// incremental mostly proves it never *loses* to full), while
/// [`Drift`](DeltaStreamKind::Drift) is the realistic serving regime (small
/// attribute nudges, stable anchors, wholesale draw replay) where the
/// incremental speedup target applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaStreamKind {
    /// Mixed feature rewrites + edge insertions/removals.
    Churn,
    /// Low-churn attribute drift: ±[`DRIFT_NUDGE`] nudges, no topology edits.
    Drift,
}

impl DeltaStreamKind {
    /// Workload-name suffix (`powerlaw-600-deltas` / `powerlaw-600-drift`).
    pub fn suffix(&self) -> &'static str {
        match self {
            DeltaStreamKind::Churn => "deltas",
            DeltaStreamKind::Drift => "drift",
        }
    }
}

/// Generates one seeded mutation round: a mix of feature updates, edge
/// insertions between random pairs and removals of existing edges. All
/// randomness comes from the caller's RNG, so the stream is a pure function
/// of the seed.
fn seeded_deltas<R: Rng>(rng: &mut R, graph: &grgad_graph::Graph, count: usize) -> Vec<GraphDelta> {
    let n = graph.num_nodes();
    let dim = graph.feature_dim();
    let mut deltas = Vec::with_capacity(count);
    for k in 0..count {
        match k % 3 {
            0 => {
                let node = rng.gen_range(0..n);
                let features: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                deltas.push(GraphDelta::SetFeatures { node, features });
            }
            1 => {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                deltas.push(GraphDelta::AddEdge { u, v });
            }
            _ => {
                // Remove an existing edge where possible (random endpoint
                // with neighbors); degenerates to a no-op delta otherwise.
                let u = rng.gen_range(0..n);
                let v = if graph.degree(u) > 0 {
                    graph.neighbors(u)[rng.gen_range(0..graph.degree(u))]
                } else {
                    u // self-loop removal: validated no-op
                };
                deltas.push(GraphDelta::RemoveEdge { u, v });
            }
        }
    }
    deltas
}

/// Generates one low-churn drift round: `count` random nodes each get every
/// feature nudged by ±[`DRIFT_NUDGE`]. Topology is untouched, so anchors stay
/// stable round over round and the memoized candidate draws replay wholesale
/// — the regime the incremental score path is optimized for.
fn seeded_drift_deltas<R: Rng>(
    rng: &mut R,
    graph: &grgad_graph::Graph,
    count: usize,
) -> Vec<GraphDelta> {
    let n = graph.num_nodes();
    let mut deltas = Vec::with_capacity(count);
    for _ in 0..count {
        let node = rng.gen_range(0..n);
        let mut features = graph.features().row(node).to_vec();
        for x in features.iter_mut() {
            *x += rng.gen_range(-DRIFT_NUDGE..DRIFT_NUDGE);
        }
        deltas.push(GraphDelta::SetFeatures { node, features });
    }
    deltas
}

/// Runs the delta-stream workload: fit once, bind a [`ScoringEngine`],
/// then for `rounds` rounds apply `deltas_per_round` seeded mutations and
/// re-score both incrementally (engine, cached embeddings) and from scratch
/// (`TrainedTpGrGad::score` on a clone of the same graph state), recording
/// wall-clock for each and verifying bit-for-bit parity every round.
pub fn run_delta_stream(
    dataset: &GrGadDataset,
    config: &TpGrGadConfig,
    rounds: usize,
    deltas_per_round: usize,
    kind: DeltaStreamKind,
) -> DeltaStreamRecord {
    let trained = TpGrGad::new(config.clone())
        .fit(&dataset.graph)
        .expect("benchmark datasets are valid pipeline input");
    let mut engine = ScoringEngine::new(trained, dataset.graph.clone())
        .expect("fit graph is engine-compatible by construction");
    // Warm the embedding cache (not timed: both sides start from a scored
    // engine state, as a serving process would).
    let _ = engine.score().expect("warm-up score");

    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9e37));
    let mut incremental = Duration::ZERO;
    let mut full = Duration::ZERO;
    let mut round_parity = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // RemoveEdge picks from the *current* adjacency, so generate against
        // the live graph before applying.
        let deltas = match kind {
            DeltaStreamKind::Churn => seeded_deltas(&mut rng, engine.graph(), deltas_per_round),
            DeltaStreamKind::Drift => {
                seeded_drift_deltas(&mut rng, engine.graph(), deltas_per_round)
            }
        };
        for delta in &deltas {
            engine.apply_delta(delta).expect("seeded deltas are valid");
        }

        let t = std::time::Instant::now();
        let (inc_result, _) = engine.score().expect("incremental score");
        incremental += t.elapsed();

        let snapshot = engine.graph().clone();
        let t = std::time::Instant::now();
        let full_result = engine.model().score(&snapshot).expect("full score");
        full += t.elapsed();

        round_parity.push(
            inc_result.scores == full_result.scores
                && inc_result.candidate_groups == full_result.candidate_groups
                && inc_result.predicted_anomalous == full_result.predicted_anomalous,
        );
    }

    let stats = engine.stats();
    let incremental_millis = millis(incremental);
    let full_millis = millis(full);
    DeltaStreamRecord {
        workload: format!("{}-{}", dataset.name, kind.suffix()),
        seed: config.seed,
        nodes: dataset.graph.num_nodes(),
        rounds,
        deltas_per_round,
        incremental_millis,
        full_millis,
        speedup: if incremental_millis > 0.0 {
            full_millis / incremental_millis
        } else {
            f64::INFINITY
        },
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        parity_ok: round_parity.iter().all(|&ok| ok),
        nodes_rescored: stats.nodes_rescored,
        anchors_reused: stats.anchors_reused,
        groups_resampled: stats.groups_resampled,
        groups_reused: stats.groups_reused,
        round_parity,
    }
}

/// Runs a full suite sweep: generates each power-law workload at the
/// preset's sizes and benchmarks it. `num_threads` overrides the worker
/// threads of every workload's pipeline config (`None` keeps the
/// env-then-auto default; the pipeline re-applies `config.num_threads` on
/// every `fit`/`score` entry, so a process-global `set_max_threads` alone
/// would be overwritten). `log` (when true) prints one progress line per
/// sweep point to stderr.
pub fn run_suite(
    preset: SuitePreset,
    seed: u64,
    num_threads: Option<usize>,
    log: bool,
) -> BenchReport {
    let mut workloads = Vec::new();
    let mut delta_streams = Vec::new();
    for &nodes in preset.sizes() {
        if log {
            crate::progress(
                "bench_suite",
                format!("preset={} nodes={nodes}: generating", preset.name()),
            );
        }
        // Above the in-memory generation ceiling the workload is generated
        // straight to disk and loaded back mmap-backed — bit-identical to
        // `generate_sized` at the same seed, but peak RSS never holds the
        // full feature matrix. The artifact must outlive the run (the
        // feature matrix pages from it), so cleanup happens after.
        let (dataset, artifact) = if nodes > MAX_IN_MEMORY_GENERATION_NODES {
            let dir = grgad_datasets::stream::artifact_dir(
                &std::env::temp_dir().join("grgad_bench_artifacts"),
                nodes,
                seed,
            );
            grgad_datasets::stream::write_powerlaw(
                &powerlaw::PowerLawParams::with_nodes(nodes),
                seed,
                &dir,
            )
            .expect("benchmark artifact directory is writable");
            let dataset = grgad_datasets::stream::load_dataset(&dir)
                .expect("freshly written benchmark artifact loads back");
            (dataset, Some(dir))
        } else {
            (powerlaw::generate_sized(nodes, seed), None)
        };
        let mut config = bench_config(nodes, seed);
        if let Some(threads) = num_threads {
            config.num_threads = threads;
        }
        if log {
            crate::progress(
                "bench_suite",
                format!("preset={} nodes={nodes}: running fit/score", preset.name()),
            );
        }
        workloads.push(run_workload(&dataset, &config));

        // Delta-stream workload: incremental vs full re-score. Skipped at
        // the largest scale points to bound suite wall-clock (the fit and
        // per-round full re-scores dominate there).
        if nodes <= MAX_DELTA_STREAM_NODES {
            if log {
                crate::progress(
                    "bench_suite",
                    format!("preset={} nodes={nodes}: delta streams", preset.name()),
                );
            }
            delta_streams.push(run_delta_stream(
                &dataset,
                &config,
                DELTA_STREAM_ROUNDS,
                DELTA_STREAM_DELTAS_PER_ROUND,
                DeltaStreamKind::Churn,
            ));
            delta_streams.push(run_delta_stream(
                &dataset,
                &config,
                DELTA_STREAM_ROUNDS,
                DRIFT_STREAM_DELTAS_PER_ROUND,
                DeltaStreamKind::Drift,
            ));
        } else if log {
            crate::progress(
                "bench_suite",
                format!(
                    "preset={} nodes={nodes}: delta stream skipped (> {MAX_DELTA_STREAM_NODES} nodes)",
                    preset.name()
                ),
            );
        }
        if let Some(dir) = artifact {
            drop(dataset); // unmap the feature file before deleting it
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    BenchReport {
        format: BENCH_FORMAT.to_string(),
        suite: preset.name().to_string(),
        seed,
        workloads,
        delta_streams,
        serve: Vec::new(),
    }
}

/// Largest sweep point generated fully in memory; above this the suite
/// streams generation to a temporary on-disk artifact and loads it back
/// mmap-backed ([`grgad_datasets::stream`]), keeping peak RSS independent
/// of `nodes × feature_dim`.
pub const MAX_IN_MEMORY_GENERATION_NODES: usize = 200_000;

/// Largest sweep point that also runs the delta-stream workload; above
/// this the extra fit + per-round full re-scores would dominate suite
/// wall-clock, and the incremental-vs-full comparison is already covered
/// at the smaller points. Logged as skipped, never silently dropped.
pub const MAX_DELTA_STREAM_NODES: usize = 10_000;

/// Mutation rounds per delta-stream workload.
pub const DELTA_STREAM_ROUNDS: usize = 4;

/// Deltas applied per mutation round of the churn stream.
pub const DELTA_STREAM_DELTAS_PER_ROUND: usize = 24;

/// Deltas applied per mutation round of the low-churn drift stream. Kept
/// small on purpose: the drift workload models steady-state serving (a
/// couple of metadata updates between scores), where the incremental path
/// must deliver its headline speedup.
pub const DRIFT_STREAM_DELTAS_PER_ROUND: usize = 2;

/// Magnitude of each per-feature drift nudge (uniform in `±DRIFT_NUDGE`).
/// Small enough that anchor sets stay stable across rounds, which is what
/// lets the memoized candidate draws replay instead of re-searching.
pub const DRIFT_NUDGE: f32 = 0.02;

/// Renders a report as the human-readable view of the same data the JSON
/// carries — `bench_suite` and `diagnose` both print this, so the two views
/// cannot disagree.
pub fn render_report(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "suite={} seed={} format={}\n",
        report.suite, report.seed, report.format
    ));
    for w in &report.workloads {
        out.push_str(&format!(
            "{:16} nodes={:<7} edges={:<8} attrs={:<4} gt_groups={:<3} candidates={:<4} threads={} \
             fit={:>9.1}ms score={:>8.1}ms rss={} mmap={} CR={:.3} F1={:.3} AUC={:.3}\n",
            w.workload,
            w.nodes,
            w.edges,
            w.feature_dim,
            w.anomaly_groups,
            w.candidate_groups,
            w.threads,
            w.fit_millis,
            w.score_millis,
            w.peak_rss_bytes
                .map_or_else(|| "n/a".to_string(), |b| format!("{:.0}MB", b as f64 / 1e6)),
            match w.mmap_parity {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "n/a",
            },
            w.metrics.cr,
            w.metrics.f1,
            w.metrics.auc,
        ));
        for s in &w.stages {
            out.push_str(&format!(
                "    {:>5}/{:<20} {:>10.2}ms items={:<7} epochs={:<3} threads={}\n",
                s.phase, s.stage, s.millis, s.items, s.train_epochs, s.threads
            ));
        }
    }
    for d in &report.delta_streams {
        out.push_str(&format!(
            "{:16} nodes={:<7} {} rounds x {} deltas: incremental={:>8.1}ms full={:>8.1}ms \
             speedup={:.2}x cache={}h/{}m rescored={} anchors_reused={} draws={}r/{}c \
             parity={}\n",
            d.workload,
            d.nodes,
            d.rounds,
            d.deltas_per_round,
            d.incremental_millis,
            d.full_millis,
            d.speedup,
            d.cache_hits,
            d.cache_misses,
            d.nodes_rescored,
            d.anchors_reused,
            d.groups_resampled,
            d.groups_reused,
            if d.parity_ok { "ok" } else { "FAIL" },
        ));
    }
    for s in &report.serve {
        out.push_str(&format!(
            "{:16} clients={} workers={} reqs/client={} total={:>8.1}ms deltas/s={:>8.1} \
             scores/s={:>8.1} p50={:.2}ms p99={:.2}ms parity={}\n",
            s.workload,
            s.clients,
            s.workers,
            s.requests_per_client,
            s.total_millis,
            s.deltas_per_sec,
            s.scores_per_sec,
            s.p50_latency_ms,
            s.p99_latency_ms,
            if s.parity_ok { "ok" } else { "FAIL" },
        ));
    }
    out
}

/// A pinned CR/AUC pair for one seeded workload, plus the out-of-core
/// gates: a peak-RSS ceiling and the mmap-scoring parity flag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GoldenWorkload {
    /// Workload name, matched against [`WorkloadRecord::workload`].
    pub workload: String,
    /// Seed the metrics were pinned under.
    pub seed: u64,
    /// Pinned Completeness Ratio.
    pub cr: f32,
    /// Pinned group-wise AUC.
    pub auc: f32,
    /// Peak-RSS ceiling in bytes (1.5× the RSS measured at pin time, see
    /// [`pin_rss_cap`]) — the OOM regression gate. `None` where the pinning
    /// platform did not expose RSS; runs without an RSS reading skip the
    /// check rather than fail it.
    pub max_peak_rss_bytes: Option<u64>,
    /// Pinned mmap-scoring parity flag ([`WorkloadRecord::mmap_parity`]):
    /// `Some(true)` in committed goldens for in-memory workloads, `None`
    /// for workloads that are already storage-backed.
    pub mmap_parity: Option<bool>,
}

/// A pinned serving-host workload: determinism (parity) and concurrency
/// shape are gated, not throughput numbers — wall-clock varies across
/// hosts, but "4 concurrent socket clients reproduce the serial replay
/// byte-for-byte" must not.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GoldenServe {
    /// Workload name, matched against
    /// [`crate::serve_bench::ServeThroughputRecord::workload`].
    pub workload: String,
    /// Seed the record was pinned under.
    pub seed: u64,
    /// Minimum concurrent clients the run must have driven.
    pub clients: usize,
    /// Exact scheduler worker count the pin was taken at.
    pub workers: usize,
    /// Pinned parity flag (always `true` in committed goldens).
    pub parity_ok: bool,
}

/// A pinned delta-stream workload: bit-for-bit parity every round, plus a
/// conservative floor on the incremental-vs-full speedup. The floor is
/// pinned at half the measured speedup (never below 1.0, see
/// [`pin_speedup_floor`]) so host-to-host timing variance cannot flake the
/// gate while a real regression — the incremental path degrading back
/// toward full-re-score cost — still fails it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GoldenDeltaStream {
    /// Workload name, matched against [`DeltaStreamRecord::workload`].
    pub workload: String,
    /// Seed the record was pinned under.
    pub seed: u64,
    /// Pinned parity flag (always `true` in committed goldens).
    pub parity_ok: bool,
    /// Minimum `full_millis / incremental_millis` ratio the run must reach.
    pub min_speedup: f64,
}

/// The conservative speedup floor `--write-golden` pins: half the measured
/// speedup, rounded down to two decimals, never below 1.0.
pub fn pin_speedup_floor(measured: f64) -> f64 {
    if !measured.is_finite() {
        return 1.0;
    }
    ((measured / 2.0) * 100.0).floor().max(100.0) / 100.0
}

/// The peak-RSS ceiling `--write-golden` pins: 1.5× the measured RSS.
/// Wide enough that allocator and page-cache variance across hosts cannot
/// flake the gate, tight enough that reverting to a dense O(N·dim)
/// intermediate on a million-node workload (a multiple-GB jump) fails it.
pub fn pin_rss_cap(measured: Option<u64>) -> Option<u64> {
    measured.map(|bytes| bytes.saturating_add(bytes / 2))
}

/// A golden-metric snapshot: the quality gate for one suite.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GoldenMetrics {
    /// Schema version ([`BENCH_FORMAT`]).
    pub format: String,
    /// Suite the snapshot pins.
    pub suite: String,
    /// Maximum absolute CR/AUC drift tolerated before the gate fails.
    pub tolerance: f32,
    /// One pin per sweep point.
    pub workloads: Vec<GoldenWorkload>,
    /// One pin per delta-stream workload (parity + speedup floor; empty
    /// for suites without delta streams).
    pub delta_streams: Vec<GoldenDeltaStream>,
    /// One pin per serving-host workload (empty for the fit/score suites).
    pub serve: Vec<GoldenServe>,
}

impl GoldenMetrics {
    /// Pins the metrics of a fresh report (used by `--write-golden`).
    pub fn from_report(report: &BenchReport, tolerance: f32) -> Self {
        Self {
            format: BENCH_FORMAT.to_string(),
            suite: report.suite.clone(),
            tolerance,
            workloads: report
                .workloads
                .iter()
                .map(|w| GoldenWorkload {
                    workload: w.workload.clone(),
                    seed: w.seed,
                    cr: w.metrics.cr,
                    auc: w.metrics.auc,
                    max_peak_rss_bytes: pin_rss_cap(w.peak_rss_bytes),
                    mmap_parity: w.mmap_parity,
                })
                .collect(),
            delta_streams: report
                .delta_streams
                .iter()
                .map(|d| GoldenDeltaStream {
                    workload: d.workload.clone(),
                    seed: d.seed,
                    parity_ok: d.parity_ok,
                    min_speedup: pin_speedup_floor(d.speedup),
                })
                .collect(),
            serve: report
                .serve
                .iter()
                .map(|s| GoldenServe {
                    workload: s.workload.clone(),
                    seed: s.seed,
                    clients: s.clients,
                    workers: s.workers,
                    parity_ok: s.parity_ok,
                })
                .collect(),
        }
    }

    /// The conventional on-disk location of a suite's golden snapshot.
    ///
    /// Anchored to this crate's source directory (compile-time
    /// `CARGO_MANIFEST_DIR`) rather than the invocation directory, so the
    /// gate loads the committed pins — and `--write-golden` updates them —
    /// no matter where `bench_suite` is run from inside the repository.
    pub fn conventional_path(suite: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("goldens")
            .join(format!("BENCH_GOLDEN_{suite}.json"))
    }
}

/// Checks a report against a golden snapshot.
///
/// Fails on: schema/suite mismatch, a pinned workload missing from the
/// report (or run under a different seed), a report workload that is not
/// pinned at all, CR or AUC drifting beyond the snapshot's tolerance, a
/// delta-stream round losing bit-for-bit incremental parity, and the
/// incremental speedup falling below its pinned floor.
/// Every violation is reported, not just the first.
pub fn compare_golden(report: &BenchReport, golden: &GoldenMetrics) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    if report.format != golden.format {
        failures.push(format!(
            "schema mismatch: report is `{}`, golden is `{}`",
            report.format, golden.format
        ));
    }
    if report.suite != golden.suite {
        failures.push(format!(
            "suite mismatch: report is `{}`, golden pins `{}`",
            report.suite, golden.suite
        ));
    }
    for pin in &golden.workloads {
        let Some(run) = report.workloads.iter().find(|w| w.workload == pin.workload) else {
            failures.push(format!(
                "pinned workload `{}` missing from report",
                pin.workload
            ));
            continue;
        };
        if run.seed != pin.seed {
            failures.push(format!(
                "{}: seed {} does not match pinned seed {}",
                pin.workload, run.seed, pin.seed
            ));
            continue;
        }
        for (metric, got, want) in [
            ("CR", run.metrics.cr, pin.cr),
            ("AUC", run.metrics.auc, pin.auc),
        ] {
            let drift = (got - want).abs();
            if !drift.is_finite() || drift > golden.tolerance {
                failures.push(format!(
                    "{}: {metric} drifted to {got:.4} (pinned {want:.4}, tolerance {})",
                    pin.workload, golden.tolerance
                ));
            }
        }
        // RSS ceiling: the OOM gate. Skipped (not failed) when the running
        // platform exposes no RSS reading — the ceiling still gates every
        // Linux run, which is where CI enforces it.
        if let (Some(cap), Some(rss)) = (pin.max_peak_rss_bytes, run.peak_rss_bytes) {
            if rss > cap {
                failures.push(format!(
                    "{}: peak RSS {:.0}MB exceeds the pinned ceiling {:.0}MB",
                    pin.workload,
                    rss as f64 / 1e6,
                    cap as f64 / 1e6
                ));
            }
        }
        if run.mmap_parity != pin.mmap_parity {
            failures.push(format!(
                "{}: mmap-scoring parity is {:?} (pinned {:?}) — storage-backed scoring diverged from in-memory",
                pin.workload, run.mmap_parity, pin.mmap_parity
            ));
        }
    }
    for run in &report.workloads {
        if !golden.workloads.iter().any(|p| p.workload == run.workload) {
            failures.push(format!(
                "workload `{}` is not pinned in the golden snapshot (re-pin with --write-golden)",
                run.workload
            ));
        }
    }
    for pin in &golden.delta_streams {
        let Some(run) = report
            .delta_streams
            .iter()
            .find(|d| d.workload == pin.workload)
        else {
            failures.push(format!(
                "pinned delta-stream workload `{}` missing from report",
                pin.workload
            ));
            continue;
        };
        if run.seed != pin.seed {
            failures.push(format!(
                "{}: seed {} does not match pinned seed {}",
                pin.workload, run.seed, pin.seed
            ));
            continue;
        }
        if run.parity_ok != pin.parity_ok {
            failures.push(format!(
                "{}: parity flag is {} (pinned {}) — incremental re-score diverged from full",
                pin.workload, run.parity_ok, pin.parity_ok
            ));
        }
        if pin.parity_ok {
            if let Some(round) = run.round_parity.iter().position(|&ok| !ok) {
                failures.push(format!(
                    "{}: round {round} lost bit-for-bit incremental parity",
                    pin.workload
                ));
            }
        }
        // NaN is rejected explicitly: `total_cmp` ranks NaN above +inf, so
        // without the check a NaN speedup would sail over any floor.
        let meets_floor = !run.speedup.is_nan() && run.speedup.total_cmp(&pin.min_speedup).is_ge();
        if !meets_floor {
            failures.push(format!(
                "{}: incremental speedup {:.2}x fell below the pinned floor {:.2}x",
                pin.workload, run.speedup, pin.min_speedup
            ));
        }
    }
    for run in &report.delta_streams {
        if !golden
            .delta_streams
            .iter()
            .any(|p| p.workload == run.workload)
        {
            failures.push(format!(
                "delta-stream workload `{}` is not pinned in the golden snapshot (re-pin with --write-golden)",
                run.workload
            ));
        }
    }
    for pin in &golden.serve {
        let Some(run) = report.serve.iter().find(|s| s.workload == pin.workload) else {
            failures.push(format!(
                "pinned serve workload `{}` missing from report",
                pin.workload
            ));
            continue;
        };
        if run.seed != pin.seed {
            failures.push(format!(
                "{}: seed {} does not match pinned seed {}",
                pin.workload, run.seed, pin.seed
            ));
            continue;
        }
        if run.clients < pin.clients {
            failures.push(format!(
                "{}: ran {} concurrent clients, pin requires at least {}",
                pin.workload, run.clients, pin.clients
            ));
        }
        if run.workers != pin.workers {
            failures.push(format!(
                "{}: scheduler ran {} workers, pin expects {}",
                pin.workload, run.workers, pin.workers
            ));
        }
        if run.parity_ok != pin.parity_ok {
            failures.push(format!(
                "{}: parity flag is {} (pinned {}) — concurrent serving changed scores",
                pin.workload, run.parity_ok, pin.parity_ok
            ));
        }
    }
    for run in &report.serve {
        if !golden.serve.iter().any(|p| p.workload == run.workload) {
            failures.push(format!(
                "serve workload `{}` is not pinned in the golden snapshot (re-pin with --write-golden)",
                run.workload
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Reads a golden snapshot from disk.
pub fn load_golden(path: &Path) -> Result<GoldenMetrics, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a `BENCH_*.json` report from disk.
pub fn load_report(path: &Path) -> Result<BenchReport, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report: BenchReport =
        serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))?;
    if report.format != BENCH_FORMAT {
        return Err(format!(
            "{}: unsupported bench format `{}` (expected `{BENCH_FORMAT}`)",
            path.display(),
            report.format
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grgad_datasets::example;

    fn tiny_report() -> BenchReport {
        let dataset = example::generate(120, 5);
        let mut config = bench_config(120, 5);
        config.gae.epochs = 10;
        config.tpgcl.epochs = 3;
        let record = run_workload(&dataset, &config);
        BenchReport {
            format: BENCH_FORMAT.to_string(),
            suite: "test".to_string(),
            seed: 5,
            workloads: vec![record],
            delta_streams: Vec::new(),
            serve: Vec::new(),
        }
    }

    #[test]
    fn workload_record_captures_run_shape() {
        let report = tiny_report();
        let w = &report.workloads[0];
        assert_eq!(w.workload, "example");
        assert_eq!(w.stages.len(), 8, "4 fit + 4 score stages");
        assert!(w.stages[..4].iter().all(|s| s.phase == "fit"));
        assert!(w.stages[4..].iter().all(|s| s.phase == "score"));
        assert!(w.fit_millis > 0.0);
        assert!(w.score_millis > 0.0);
        assert!(w.candidate_groups > 0);
        assert!(w.threads >= 1);
        if cfg!(target_os = "linux") {
            assert!(w.peak_rss_bytes.unwrap_or(0) > 0);
        }
        assert_eq!(
            w.mmap_parity,
            Some(true),
            "storage-backed scoring must be bit-identical to in-memory"
        );
        assert!(w.metrics.auc >= 0.0 && w.metrics.auc <= 1.0);
    }

    #[test]
    fn bench_json_schema_round_trips() {
        let report = tiny_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(report.filename(), "BENCH_test.json");
    }

    #[test]
    fn golden_gate_passes_clean_and_fails_on_drift() {
        let report = tiny_report();
        let golden = GoldenMetrics::from_report(&report, 0.02);
        assert!(compare_golden(&report, &golden).is_ok());

        // Perturb one metric beyond tolerance: the gate must fail and name
        // the workload.
        let mut drifted = report.clone();
        drifted.workloads[0].metrics.cr += 0.2;
        let failures = compare_golden(&drifted, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("CR drifted")),
            "{failures:?}"
        );

        // A missing pin and an unpinned workload are both violations.
        let mut renamed = report.clone();
        renamed.workloads[0].workload = "other".to_string();
        let failures = compare_golden(&renamed, &golden).unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");

        // Seed drift invalidates the pin.
        let mut reseeded = report.clone();
        reseeded.workloads[0].seed += 1;
        assert!(compare_golden(&reseeded, &golden).is_err());
    }

    #[test]
    fn golden_gate_pins_rss_ceiling_and_mmap_parity() {
        let report = tiny_report();
        let golden = GoldenMetrics::from_report(&report, 0.02);
        let pin = &golden.workloads[0];
        if let Some(rss) = report.workloads[0].peak_rss_bytes {
            assert_eq!(
                pin.max_peak_rss_bytes,
                Some(rss + rss / 2),
                "ceiling is 1.5x the measured RSS"
            );

            // RSS may move freely below the ceiling...
            let mut leaner = report.clone();
            leaner.workloads[0].peak_rss_bytes = Some(rss / 2);
            assert!(compare_golden(&leaner, &golden).is_ok());

            // ...but blowing past it fails the gate.
            let mut bloated = report.clone();
            bloated.workloads[0].peak_rss_bytes = Some(rss * 2);
            let failures = compare_golden(&bloated, &golden).unwrap_err();
            assert!(
                failures
                    .iter()
                    .any(|f| f.contains("exceeds the pinned ceiling")),
                "{failures:?}"
            );

            // A run without an RSS reading skips the check (non-Linux hosts)
            // rather than failing it.
            let mut unreadable = report.clone();
            unreadable.workloads[0].peak_rss_bytes = None;
            assert!(compare_golden(&unreadable, &golden).is_ok());
        }
        assert_eq!(pin.mmap_parity, Some(true));

        // Losing storage parity is a gate failure.
        let mut diverged = report.clone();
        diverged.workloads[0].mmap_parity = Some(false);
        let failures = compare_golden(&diverged, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("mmap-scoring parity")),
            "{failures:?}"
        );

        // A pin without an RSS reading gates nothing.
        assert_eq!(pin_rss_cap(None), None);
        assert_eq!(pin_rss_cap(Some(1_000)), Some(1_500));
    }

    #[test]
    fn delta_stream_keeps_parity_and_counts_cache_activity() {
        let dataset = example::generate(120, 5);
        let mut config = bench_config(120, 5);
        config.gae.epochs = 10;
        config.tpgcl.epochs = 3;
        let record = run_delta_stream(&dataset, &config, 2, 9, DeltaStreamKind::Churn);
        assert!(record.parity_ok, "incremental must equal full re-score");
        assert_eq!(record.round_parity, vec![true, true]);
        assert_eq!((record.rounds, record.deltas_per_round), (2, 9));
        assert!(record.workload.ends_with("-deltas"));
        assert!(record.incremental_millis > 0.0 && record.full_millis > 0.0);
        assert!(
            record.cache_hits > 0,
            "small delta rounds must reuse cached embeddings: {record:?}"
        );
        assert!(
            record.groups_reused > 0,
            "small delta rounds must replay memoized draws: {record:?}"
        );
        assert!(
            record.nodes_rescored >= record.nodes as u64,
            "the warm-up populate rescores every node once: {record:?}"
        );
    }

    #[test]
    fn drift_stream_keeps_parity_and_replays_draws() {
        let dataset = example::generate(120, 5);
        let mut config = bench_config(120, 5);
        config.gae.epochs = 10;
        config.tpgcl.epochs = 3;
        let record = run_delta_stream(&dataset, &config, 2, 2, DeltaStreamKind::Drift);
        assert!(record.parity_ok, "incremental must equal full re-score");
        assert_eq!(record.round_parity, vec![true, true]);
        assert!(record.workload.ends_with("-drift"));
        assert!(
            record.groups_reused > 0 && record.anchors_reused > 0,
            "attribute drift must keep anchors stable and replay draws: {record:?}"
        );
        assert!(
            record.nodes_rescored < (record.nodes as u64) * 3,
            "drift rounds must patch hop balls, not refill the graph: {record:?}"
        );
    }

    #[test]
    fn delta_stream_golden_gate_pins_parity_and_speedup_floor() {
        let record = DeltaStreamRecord {
            workload: "example-deltas".to_string(),
            seed: 5,
            nodes: 120,
            rounds: 2,
            deltas_per_round: 9,
            incremental_millis: 10.0,
            full_millis: 60.0,
            speedup: 6.0,
            cache_hits: 10,
            cache_misses: 5,
            parity_ok: true,
            nodes_rescored: 200,
            anchors_reused: 12,
            groups_resampled: 30,
            groups_reused: 70,
            round_parity: vec![true, true],
        };
        let mut report = tiny_report();
        report.delta_streams = vec![record];
        let golden = GoldenMetrics::from_report(&report, 0.02);
        assert_eq!(golden.delta_streams.len(), 1);
        assert!(
            (golden.delta_streams[0].min_speedup - 3.0).abs() < 1e-9,
            "floor is half the measured speedup: {golden:?}"
        );
        assert!(compare_golden(&report, &golden).is_ok());

        // Timings may move freely above the floor.
        let mut faster = report.clone();
        faster.delta_streams[0].speedup = 20.0;
        assert!(compare_golden(&faster, &golden).is_ok());

        // Dropping below the floor fails the gate.
        let mut slow = report.clone();
        slow.delta_streams[0].speedup = 2.0;
        let failures = compare_golden(&slow, &golden).unwrap_err();
        assert!(
            failures
                .iter()
                .any(|f| f.contains("below the pinned floor")),
            "{failures:?}"
        );

        // A single diverging round fails even if the aggregate flag lies.
        let mut round_broken = report.clone();
        round_broken.delta_streams[0].round_parity[1] = false;
        let failures = compare_golden(&round_broken, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("round 1 lost")),
            "{failures:?}"
        );

        // The aggregate parity flag is pinned too.
        let mut broken = report.clone();
        broken.delta_streams[0].parity_ok = false;
        assert!(compare_golden(&broken, &golden).is_err());

        // Missing pinned record and unpinned extra record both fail.
        let mut missing = report.clone();
        missing.delta_streams.clear();
        let failures = compare_golden(&missing, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("missing")),
            "{failures:?}"
        );
        let mut extra = report.clone();
        let mut second = extra.delta_streams[0].clone();
        second.workload = "other-deltas".to_string();
        extra.delta_streams.push(second);
        let failures = compare_golden(&extra, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("not pinned")),
            "{failures:?}"
        );

        // A non-finite measured speedup pins the conservative 1.0 floor.
        assert!((pin_speedup_floor(f64::INFINITY) - 1.0).abs() < 1e-9);
        assert!((pin_speedup_floor(0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serve_golden_gate_pins_parity_and_concurrency_shape() {
        let serve_record = crate::serve_bench::ServeThroughputRecord {
            workload: "serve-4c-1w".to_string(),
            seed: 5,
            clients: 4,
            workers: 1,
            requests_per_client: 14,
            total_millis: 120.0,
            deltas_per_sec: 200.0,
            scores_per_sec: 230.0,
            p50_latency_ms: 2.0,
            p99_latency_ms: 9.0,
            parity_ok: true,
        };
        let mut report = tiny_report();
        report.serve = vec![serve_record];
        let golden = GoldenMetrics::from_report(&report, 0.02);
        assert_eq!(golden.serve.len(), 1);
        assert!(compare_golden(&report, &golden).is_ok());

        // Throughput numbers may move freely — the gate only pins shape.
        let mut faster = report.clone();
        faster.serve[0].deltas_per_sec *= 10.0;
        faster.serve[0].p99_latency_ms /= 10.0;
        assert!(compare_golden(&faster, &golden).is_ok());

        // Broken parity is the headline failure.
        let mut broken = report.clone();
        broken.serve[0].parity_ok = false;
        let failures = compare_golden(&broken, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("parity flag")),
            "{failures:?}"
        );

        // Fewer concurrent clients than pinned fails; more is fine.
        let mut fewer = report.clone();
        fewer.serve[0].clients = 2;
        assert!(compare_golden(&fewer, &golden).is_err());
        let mut more = report.clone();
        more.serve[0].clients = 8;
        assert!(compare_golden(&more, &golden).is_ok());

        // A different worker count is a different workload — exact match.
        let mut reworked = report.clone();
        reworked.serve[0].workers = 2;
        assert!(compare_golden(&reworked, &golden).is_err());

        // Missing pinned record and unpinned extra record both fail.
        let mut missing = report.clone();
        missing.serve.clear();
        let failures = compare_golden(&missing, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("missing")),
            "{failures:?}"
        );
        let mut extra = report.clone();
        let mut second = extra.serve[0].clone();
        second.workload = "serve-4c-4w".to_string();
        extra.serve.push(second);
        let failures = compare_golden(&extra, &golden).unwrap_err();
        assert!(
            failures.iter().any(|f| f.contains("not pinned")),
            "{failures:?}"
        );
    }

    #[test]
    fn preset_parsing_and_sizes() {
        assert_eq!(SuitePreset::parse("ci").unwrap(), SuitePreset::Ci);
        assert_eq!(SuitePreset::parse("SCALE").unwrap(), SuitePreset::Scale);
        assert_eq!(SuitePreset::parse("serve").unwrap(), SuitePreset::Serve);
        assert_eq!(SuitePreset::parse("scale1m").unwrap(), SuitePreset::Scale1m);
        assert_eq!(
            SuitePreset::parse("powerlaw-1m").unwrap(),
            SuitePreset::Scale1m
        );
        assert!(SuitePreset::parse("huge").is_err());
        assert!(
            SuitePreset::Serve.sizes().is_empty(),
            "serve workloads are client/worker combinations, not graph sizes"
        );
        assert_eq!(SuitePreset::Ci.sizes().len(), 3);
        assert!(SuitePreset::Scale.sizes().contains(&100_000));
        assert!(
            SuitePreset::Scale.sizes().iter().any(|&n| n >= 100_000),
            "scale suite must reach 100k nodes"
        );
        assert_eq!(SuitePreset::Scale1m.sizes(), &[1_000_000]);
        assert!(
            SuitePreset::Scale1m
                .sizes()
                .iter()
                .all(|&n| n > MAX_IN_MEMORY_GENERATION_NODES),
            "the 1M sweep must take the streaming generation path"
        );
    }

    #[test]
    fn bench_config_scales_budgets_down_with_size() {
        let small = bench_config(600, 0);
        let large = bench_config(100_000, 0);
        assert!(small.gae.epochs > large.gae.epochs);
        assert!(small.anchor_fraction > large.anchor_fraction);
        assert!(
            matches!(
                large.reconstruction_target,
                ReconstructionTarget::GraphSnn { .. }
            ),
            "the quality gate needs the long-range-sensitive target at every scale"
        );
        assert!(
            large.sampling.max_cycle_dfs_steps < usize::MAX,
            "cycle DFS must be budgeted around power-law hubs"
        );
        assert_eq!(small.seed, 0);
        assert_eq!(bench_config(600, 9).seed, 9);
        let huge = bench_config(1_000_000, 0);
        assert_eq!(
            (huge.gae.hidden_dim, huge.gae.embed_dim),
            (large.gae.hidden_dim, large.gae.embed_dim),
            "out-of-core sizes keep the same encoder widths — the RSS budget \
             is met by the fused single-node GCN tape, not by shrinking the \
             model (narrower encoders collapse million-node AUC to chance)"
        );
        assert!(
            matches!(
                huge.reconstruction_target,
                ReconstructionTarget::GraphSnn { .. }
            ),
            "the long-range-sensitive target survives the out-of-core tier"
        );
    }

    #[test]
    fn render_report_shows_every_workload_and_stage() {
        let report = tiny_report();
        let text = render_report(&report);
        assert!(text.contains("example"));
        assert!(text.contains("fit/anchor_localization"));
        assert!(text.contains("score/outlier_scoring"));
        assert!(text.contains("CR="));
    }
}
