//! Layer probes of the traced run: timed calls into the public functions
//! of each crate on the workload's own graph, trained model and scoring
//! result. Each probe runs inside a span; the per-layer metric is the
//! median of its spans (or a per-call time for the batched graph searches).

use std::path::Path;

use grgad_core::{TpGrGadConfig, TpGrGadResult, TrainedTpGrGad};
use grgad_datasets::GrGadDataset;
use grgad_gnn::{Gae, GaeConfig};
use grgad_graph::algorithms::{bfs, cycles};
use grgad_graph::Graph;
use grgad_sampling::sample_candidate_groups;
use grgad_tpgcl::{Tpgcl, TpgclConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{self, DriftPlan, Host};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Outcome;

/// Calls per timed probe.
const REPEATS: usize = 3;

/// Anchor pairs run through the path search.
const PATH_PAIRS: usize = 100;

/// Anchors run through the tree and cycle searches.
const SEARCH_ANCHORS: usize = 100;

/// Rounds of the small host probe.
const HOST_PROBE_ROUNDS: usize = 8;

/// Median of the spans called `name`, in ms (0 when there are none).
pub fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.millis(name)).unwrap_or(0.0)
}

fn repeat(tracer: &mut Tracer, name: &str, mut body: impl FnMut()) {
    for _ in 0..REPEATS {
        tracer.span(name, |_| body());
    }
}

/// What the layer probes run on.
pub struct ProbeInput<'a> {
    /// The workload's graph.
    pub graph: &'a Graph,
    /// The trained model.
    pub model: &'a TrainedTpGrGad,
    /// The configuration it was trained with (thread count included).
    pub config: &'a TpGrGadConfig,
    /// A full scoring result on `graph`.
    pub result: &'a TpGrGadResult,
    /// Probe seed.
    pub seed: u64,
}

/// Probes the graph, linalg, gnn, sampling, tpgcl and outlier layers.
pub fn probe_layers(tracer: &mut Tracer, input: &ProbeInput<'_>, out: &mut Outcome) {
    let ProbeInput {
        graph,
        model,
        config,
        result,
        seed,
    } = *input;
    grgad_parallel::set_max_threads(config.num_threads);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_1a7e);

    // graph: the two structure builds of stage 1.
    repeat(tracer, "graph.normalized_adjacency", || {
        drop(graph.normalized_adjacency());
    });
    repeat(tracer, "graph.graphsnn_target", || {
        drop(config.reconstruction_target.build(graph));
    });
    let normalized = span_ms(tracer, "graph.normalized_adjacency");
    let target = span_ms(tracer, "graph.graphsnn_target");
    out.set("graph.normalized_adjacency_ms", normalized);
    out.set("graph.graphsnn_target_ms", target);

    // graph: the three searches of Alg. 1 on the scored anchor set.
    let anchors = &result.anchor_nodes;
    let sampling = &config.sampling;
    if anchors.len() >= 2 {
        let pairs: Vec<(usize, usize)> = (0..PATH_PAIRS)
            .map(|_| {
                let i = rng.gen_range(0..anchors.len());
                let j = (i + rng.gen_range(1..anchors.len())) % anchors.len();
                (anchors[i], anchors[j])
            })
            .collect();
        let mut useful = 0usize;
        tracer.span("graph.shortest_path", |_| {
            for &(v, mu) in &pairs {
                if bfs::shortest_path(graph, v, mu)
                    .is_some_and(|p| p.len() <= sampling.max_path_len)
                {
                    useful += 1;
                }
            }
        });
        out.set(
            "graph.shortest_path_us",
            span_ms(tracer, "graph.shortest_path") * 1e3 / pairs.len() as f64,
        );
        out.set(
            "graph.shortest_path_hit_frac",
            useful as f64 / pairs.len() as f64,
        );
    } else {
        out.set("graph.shortest_path_us", 0.0);
        out.set("graph.shortest_path_hit_frac", 0.0);
    }
    let roots: Vec<usize> = anchors.iter().copied().take(SEARCH_ANCHORS).collect();
    let per_root = |ms: f64| ms * 1e3 / roots.len().max(1) as f64;
    tracer.span("graph.bfs_tree", |_| {
        for &root in &roots {
            drop(bfs::bounded_bfs_tree(
                graph,
                root,
                sampling.tree_depth,
                sampling.max_group_size,
            ));
        }
    });
    out.set(
        "graph.bfs_tree_us",
        per_root(span_ms(tracer, "graph.bfs_tree")),
    );
    let mut found = 0usize;
    tracer.span("graph.cycle_search", |_| {
        for &root in &roots {
            found += cycles::cycles_through_budgeted(
                graph,
                root,
                sampling.max_cycle_len,
                sampling.max_cycles_per_anchor,
                sampling.max_cycle_dfs_steps,
            )
            .len();
        }
    });
    out.set(
        "graph.cycle_search_us",
        per_root(span_ms(tracer, "graph.cycle_search")),
    );
    out.set(
        "graph.cycles_per_anchor",
        found as f64 / roots.len().max(1) as f64,
    );

    // linalg: normalized adjacency × features, both directions.
    let adj = graph.normalized_adjacency();
    let x = graph.features();
    repeat(tracer, "linalg.spmm", || drop(adj.matmul_dense(x)));
    repeat(tracer, "linalg.spmm_t", || {
        drop(adj.transpose_matmul_dense(x))
    });
    out.set("linalg.spmm_ms", span_ms(tracer, "linalg.spmm"));
    out.set("linalg.spmm_t_ms", span_ms(tracer, "linalg.spmm_t"));
    // Bytes a CSR × dense product touches: values (f32) and column
    // indices (usize) of every non-zero, the row pointers, one gathered
    // feature row per non-zero, and the output.
    let (rows, nnz, d) = (adj.rows(), adj.nnz(), x.cols());
    let word = std::mem::size_of::<usize>();
    let bytes = nnz * (4 + word) + (rows + 1) * word + nnz * d * 4 + rows * d * 4;
    out.set("linalg.spmm_bytes", bytes as f64);

    // gnn: the per-epoch training cost is the marginal cost of two more
    // epochs on a prebuilt target; inference is the score path's stage 1.
    let target_matrix = config.reconstruction_target.build(graph);
    let gae_fit = |epochs: usize| {
        let mut gae = Gae::new(
            graph.feature_dim(),
            GaeConfig {
                epochs,
                ..config.gae.clone()
            },
        );
        gae.fit(graph, &target_matrix);
    };
    tracer.span("gnn.fit_1_epoch", |_| gae_fit(1));
    tracer.span("gnn.fit_3_epochs", |_| gae_fit(3));
    out.set(
        "gnn.fit_epoch_ms",
        (span_ms(tracer, "gnn.fit_3_epochs") - span_ms(tracer, "gnn.fit_1_epoch")) / 2.0,
    );
    drop(target_matrix);
    repeat(tracer, "gnn.infer_errors", || {
        drop(model.mhgae().infer_errors(graph));
    });
    let infer = span_ms(tracer, "gnn.infer_errors");
    out.set("gnn.infer_errors_ms", infer);
    out.set("gnn.infer_errors_self_ms", infer - target - normalized);

    // sampling: Alg. 1 on the scored anchors.
    let mut stats = None;
    repeat(tracer, "sampling.sample", || {
        stats = Some(sample_candidate_groups(graph, anchors, sampling).1);
    });
    out.set("sampling.sample_ms", span_ms(tracer, "sampling.sample"));
    let stats = stats.unwrap_or_default();
    out.set("sampling.pairs_examined", stats.pairs_examined as f64);
    out.set("sampling.from_paths", stats.from_paths as f64);
    out.set("sampling.from_trees", stats.from_trees as f64);
    out.set("sampling.from_cycles", stats.from_cycles as f64);
    out.set("sampling.from_background", stats.from_background as f64);
    out.set(
        "sampling.duplicates_removed",
        stats.duplicates_removed as f64,
    );

    // tpgcl: marginal epoch cost on the scored candidates, then embedding.
    let groups = &result.candidate_groups;
    let tpgcl_fit = |epochs: usize| {
        let mut tpgcl = Tpgcl::new(
            graph.feature_dim(),
            TpgclConfig {
                epochs,
                ..config.tpgcl.clone()
            },
        );
        tpgcl.fit(graph, groups);
    };
    tracer.span("tpgcl.fit_1_epoch", |_| tpgcl_fit(1));
    tracer.span("tpgcl.fit_3_epochs", |_| tpgcl_fit(3));
    out.set(
        "tpgcl.fit_epoch_ms",
        (span_ms(tracer, "tpgcl.fit_3_epochs") - span_ms(tracer, "tpgcl.fit_1_epoch")) / 2.0,
    );
    if let Some(tpgcl) = model.tpgcl() {
        repeat(tracer, "tpgcl.embed", || {
            drop(tpgcl.embed_groups(graph, groups));
        });
    }
    out.set("tpgcl.embed_ms", span_ms(tracer, "tpgcl.embed"));

    // outlier: the configured detector on the scored embeddings.
    let mut detector = config.detector.build(config.seed);
    tracer.span("outlier.fit", |_| detector.fit(&result.embeddings));
    repeat(tracer, "outlier.score", || {
        drop(detector.score(&result.embeddings));
    });
    out.set("outlier.fit_ms", span_ms(tracer, "outlier.fit"));
    out.set("outlier.score_ms", span_ms(tracer, "outlier.score"));
}

/// Probes the store layer by writing `dataset` as a `.gsm` artifact and
/// loading it back mmap-backed.
pub fn probe_store(
    tracer: &mut Tracer,
    dataset: &GrGadDataset,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    for _ in 0..REPEATS {
        let _ = std::fs::remove_dir_all(dir);
        tracer
            .span("store.write", |_| {
                grgad_datasets::stream::write_dataset(dataset, dir)
            })
            .map_err(|e| format!("store probe write: {e}"))?;
        let loaded = tracer
            .span("store.load", |_| grgad_datasets::stream::load_dataset(dir))
            .map_err(|e| format!("store probe load: {e}"))?;
        drop(loaded);
    }
    out.set("store.write_ms", span_ms(tracer, "store.write"));
    out.set("store.load_ms", span_ms(tracer, "store.load"));
    out.set("store.artifact_bytes", dir_bytes(dir) as f64);
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Serve-layer metrics from a replayed client log.
pub fn set_serve_layers(replay: &host::Replay, out: &mut Outcome) {
    let parse = median(&replay.parse_us).unwrap_or(0.0);
    out.set("serve.parse_us", parse);
    out.set(
        "serve.session_score_ms",
        median(&replay.score_ms).unwrap_or(0.0),
    );
    // The session's apply_delta line minus its parse: the engine's apply.
    out.set(
        "serve.apply_deltas_us",
        median(&replay.delta_us).unwrap_or(0.0) - parse,
    );
}

/// Server-layer metrics from the served round trips and the in-process
/// replay of the same lines.
pub fn set_server_layers(
    delta_ms: &[f64],
    score_ms: &[f64],
    session_score_ms: &[f64],
    out: &mut Outcome,
) {
    let deltas = Summary::of(delta_ms);
    let scores = Summary::of(score_ms);
    let session = median(session_score_ms).unwrap_or(0.0);
    let score_p50 = scores.map_or(0.0, |s| s.p50);
    out.set("server.score_rtt_ms_p50", score_p50);
    out.set("server.overhead_ms", score_p50 - session);
    out.set("server.delta_rtt_ms_p50", deltas.map_or(0.0, |s| s.p50));
    out.set("server.delta_rtt_n", deltas.map_or(0, |s| s.n) as f64);
    out.set("server.score_rtt_ms_p99", scores.map_or(0.0, |s| s.p99));
    out.set("server.score_rtt_n", scores.map_or(0, |s| s.n) as f64);
}

/// A short single-client drift session through a real host on the
/// workload's own model and graph: the serve and server layers for the
/// workloads whose timed loop does not go through the host. Checks that
/// every response matches the serial replay.
pub fn probe_host(
    tracer: &mut Tracer,
    dataset: &GrGadDataset,
    model: &TrainedTpGrGad,
    threads: usize,
    dir: &Path,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let model_path = dir.join("model.json");
    let graph_path = dir.join("graph.json");
    model
        .save(&model_path)
        .map_err(|e| format!("saving model: {e}"))?;
    grgad_datasets::io::save_json(dataset, &graph_path)
        .map_err(|e| format!("saving graph: {e}"))?;
    let host = Host::spawn(&dir.join("probe.sock"), 2, threads)?;
    let plan = DriftPlan {
        tenant: "probe".to_string(),
        model: &model_path,
        graph: &graph_path,
        initial: &dataset.graph,
        seed,
        nudges: crate::serve::NUDGES_PER_ROUND,
        nudge: grgad_bench::suite::DRIFT_NUDGE,
        max_rounds: HOST_PROBE_ROUNDS,
        budget: std::time::Duration::from_secs(60),
    };
    let log = tracer.span("server.probe_session", |_| {
        host::drift_client(&host, &plan, &std::sync::Barrier::new(1))
    });
    host.shutdown()?;
    let replay = tracer.span("serve.replay", |_| host::replay(&log));
    out.check(log.failed == 0, || {
        format!(
            "host probe: {} of {} requests failed",
            log.failed, log.attempted
        )
    });
    out.check(replay.identical, || {
        format!(
            "host probe: response {:?} differs from the serial replay",
            replay.first_mismatch
        )
    });
    out.attempt(log.attempted);
    set_serve_layers(&replay, out);
    set_server_layers(&log.delta_ms, &log.score_ms, &replay.score_ms, out);
    out.set("parallel.host_workers", 2.0);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
