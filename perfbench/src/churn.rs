//! `churn-10k`: one caller mutating a served graph. Set-up generates a
//! seeded 10k-node power-law graph, fits a model on it, binds both to a
//! `ScoringEngine` and scores once (cold). Each timed round applies 24
//! valid deltas (feature rewrites, insertions of absent edges, removals of
//! existing edges) and calls `ScoringEngine::score`.
//!
//! Check: every tenth round, untimed, the engine's incremental result is
//! bit-identical to `TrainedTpGrGad::score` on a clone of the graph; every
//! fifth, to a restarted engine's (model and graph loaded from disk) cold
//! score, and the restart is what `load_s` times. After a cycle's rounds the
//! engine is dropped and the cycle's graph is fitted again, so `fit_s` is a
//! median over two fits of each of five graphs; the refit must serialize to
//! the same model as the set-up fit.

use std::path::Path;
use std::time::Instant;

use grgad_bench::suite::{bench_config, DELTA_STREAM_DELTAS_PER_ROUND};
use grgad_core::{ScoreMode, TpGrGadResult, TrainedTpGrGad};
use grgad_datasets::{powerlaw, stream, GrGadDataset};
use grgad_serve::{EngineStats, ScoringEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::churn_round;
use crate::pipeline;
use crate::probes::{self, span_ms, ProbeInput};
use crate::stats::{median, Summary};
use crate::trace::{SpanObserver, Tracer};
use crate::{cycle_seed, nproc, own_peak_rss_mb, quality, same_result, secs, Opts, Outcome};

/// Background nodes of the generated graph.
pub const NODES: usize = 10_000;

/// Set-up + delta-round cycles per run; the metrics pool the cycles.
const CYCLES: u32 = 5;

/// Rounds between two full-score parity checks.
const CHECK_EVERY: usize = 10;

/// Rounds between two restarts (each a parity check and a `load_s` sample).
const RESTART_EVERY: usize = 5;

/// Fits after a cycle's rounds, each a `fit_s` sample. Their time counts
/// against the cycle's share of `--seconds`, as the rounds' time does.
const REFITS: usize = 1;

/// Rounds a cycle runs at least, whatever the time budget.
const MIN_ROUNDS: usize = CHECK_EVERY;

/// Engine counters summed over the timed rounds of every cycle.
#[derive(Default)]
struct Growth {
    nodes: f64,
    nodes_rescored: f64,
    anchor_slots: f64,
    anchors_reused: f64,
    groups_reused: f64,
    groups_resampled: f64,
    cache_hits: f64,
    cache_misses: f64,
}

impl Growth {
    fn add(&mut self, before: &EngineStats, after: &EngineStats, rounds: usize, anchors: usize) {
        let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
        self.nodes += (after.nodes * rounds) as f64;
        self.nodes_rescored += d(before.nodes_rescored, after.nodes_rescored);
        self.anchor_slots += (anchors * rounds) as f64;
        self.anchors_reused += d(before.anchors_reused, after.anchors_reused);
        self.groups_reused += d(before.groups_reused, after.groups_reused);
        self.groups_resampled += d(before.groups_resampled, after.groups_resampled);
        self.cache_hits += d(before.cache_hits, after.cache_hits);
        self.cache_misses += d(before.cache_misses, after.cache_misses);
    }
}

/// A restart: the saved model and graph loaded from disk, bound to an
/// engine and scored cold.
fn restart(model_path: &Path, graph_dir: &Path) -> Result<TpGrGadResult, String> {
    let model = TrainedTpGrGad::load(model_path).map_err(|e| format!("load: {e}"))?;
    let graph = stream::load_dataset(graph_dir).map_err(|e| format!("reload: {e}"))?;
    let mut engine = ScoringEngine::new(model, graph.graph).map_err(|e| format!("rebind: {e}"))?;
    let (result, _) = engine
        .score()
        .map_err(|e| format!("score after restart: {e}"))?;
    Ok(result)
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = nproc();
    let budget = secs(opts.seconds) / f64::from(CYCLES);
    let model_path = opts.work.join("model.json");
    let graph_dir = opts.work.join("graph");

    let (mut setup, mut fit_s, mut load_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut round_ms, mut score_ms, mut full_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut score_stages = Vec::new();
    let mut incremental = 0usize;
    let mut growth = Growth::default();
    let mut kept = None;
    for cycle in 0..CYCLES {
        drop(kept.take());

        // Set-up: generate, fit, bind, cold score.
        let seed = cycle_seed(opts.seed, cycle);
        let mut config = bench_config(NODES, seed);
        config.num_threads = threads;
        let t = Instant::now();
        tracer.set_run(u64::from(cycle) << 32);
        let dataset = powerlaw::generate_sized(NODES, seed);
        let t_fit = Instant::now();
        let (model, fit_stages) = pipeline::fit(tracer, &config, &dataset.graph)?;
        let setup_fit = secs(t_fit.elapsed());
        fit_s.push(setup_fit);
        let model_json = model
            .to_json()
            .map_err(|e| format!("serializing model: {e}"))?;
        let mut engine = ScoringEngine::new(model, dataset.graph.clone())
            .map_err(|e| format!("binding engine: {e}"))?;
        let (cold, _) = engine.score().map_err(|e| format!("cold score: {e}"))?;
        setup.push(secs(t.elapsed()));
        engine
            .model()
            .save(&model_path)
            .map_err(|e| format!("saving model: {e}"))?;
        let before = engine.stats();

        // Timed: delta rounds until the cycle's budget, less what the
        // refits are expected to take, is spent. A traced run alternates
        // traced and untraced rounds to measure its overhead.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a2_0000_0000_0001);
        let mut timed = REFITS as f64 * setup_fit;
        let mut rounds = 0;
        let mut last = None;
        while rounds < MIN_ROUNDS || timed < budget {
            let k = round_ms.len();
            let traced = tracer.enabled() && k % 2 == 0;
            tracer.set_run((u64::from(cycle) << 32) + k as u64 + 1);
            let deltas = churn_round(&mut rng, engine.graph(), DELTA_STREAM_DELTAS_PER_ROUND);
            let t = Instant::now();
            let applied = if traced {
                tracer.span("serve.apply_deltas", |_| engine.apply_deltas(&deltas))
            } else {
                engine.apply_deltas(&deltas)
            };
            let t_score = Instant::now();
            let scored = if traced {
                tracer.span("core.score", |t| {
                    let mut observer = SpanObserver::new(t);
                    engine
                        .score_observed(&mut observer)
                        .map(|r| (r, observer.stages))
                })
            } else {
                engine.score().map(|r| (r, Vec::new()))
            };
            let ((result, mode), stages) =
                scored.map_err(|e| format!("cycle {cycle} round {rounds}: score: {e}"))?;
            let score = t_score.elapsed().as_secs_f64() * 1e3;
            let round = t.elapsed().as_secs_f64() * 1e3;
            timed += round / 1e3;
            rounds += 1;
            round_ms.push(round);
            score_ms.push(score);
            if traced {
                traced_ms.push(round);
                score_stages = stages;
            } else {
                untraced_ms.push(round);
            }
            incremental += usize::from(mode == ScoreMode::Incremental);
            out.attempt(1);
            out.check(
                applied.error.is_none() && applied.applied == deltas.len(),
                || {
                    format!(
                        "cycle {cycle} round {rounds}: delta batch stopped: {:?}",
                        applied.error
                    )
                },
            );
            if rounds % CHECK_EVERY == 0 {
                // Untimed for the rounds: a full score of a clone,
                // bit-identical to the round's.
                let snapshot = engine.graph().clone();
                let t = Instant::now();
                let full = engine
                    .model()
                    .score(&snapshot)
                    .map_err(|e| format!("cycle {cycle} round {rounds}: full score: {e}"))?;
                full_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.check(same_result(&result, &full), || {
                    format!(
                        "cycle {cycle} round {rounds}: incremental score differs from a full score"
                    )
                });
            }
            if rounds % RESTART_EVERY == 0 {
                // Untimed for the rounds: a restart from disk, bit-identical
                // to the round's score.
                let snapshot = engine.graph().clone();
                let current = GrGadDataset::new(
                    dataset.name.clone(),
                    snapshot,
                    dataset.anomaly_groups.clone(),
                );
                let _ = std::fs::remove_dir_all(&graph_dir);
                stream::write_dataset(&current, &graph_dir)
                    .map_err(|e| format!("saving graph: {e}"))?;
                drop(current);
                let t = Instant::now();
                let restarted = restart(&model_path, &graph_dir)?;
                load_s.push(secs(t.elapsed()));
                out.attempt(1);
                out.check(same_result(&result, &restarted), || {
                    format!("cycle {cycle} round {rounds}: score after a restart differs")
                });
            }
            last = Some(result);
        }
        let last = last.ok_or("no round ran")?;
        growth.add(&before, &engine.stats(), rounds, last.anchor_nodes.len());
        drop(engine);

        // The cycle's graph fitted again with no engine alive, so the
        // refits' memory peak is the set-up fit's; each must give the same
        // model. The last refit stands in for the engine's model below.
        let mut model = None;
        for refit in 0..REFITS {
            let t_fit = Instant::now();
            let (fitted, _) = pipeline::fit(tracer, &config, &dataset.graph)?;
            fit_s.push(secs(t_fit.elapsed()));
            out.attempt(1);
            let same = fitted.to_json().is_ok_and(|json| json == model_json);
            out.check(same, || {
                format!("cycle {cycle} refit {refit}: another model than the set-up fit")
            });
            model = Some(fitted);
        }
        let model = model.ok_or("no refit ran")?;

        kept = Some((dataset, model, config, cold, fit_stages));
    }
    let peak_rss_mb = own_peak_rss_mb();
    let (dataset, model, config, cold, fit_stages) = kept.ok_or("no cycle ran")?;
    println!(
        "churn-10k: {} nodes, {} edges, {threads} threads, {} deltas per round, {CYCLES} cycles",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        DELTA_STREAM_DELTAS_PER_ROUND
    );

    let (auc, cr) = quality(&cold, &dataset.anomaly_groups, config.match_jaccard);
    println!("quality: auc={auc} cr={cr}");
    if !tracer.enabled() {
        let rounds = Summary::of(&round_ms).ok_or("no rounds")?;
        let scores = Summary::of(&score_ms).ok_or("no scores")?;
        println!(
            "samples: rounds={} scores={} full_scores={} incremental_rounds={incremental} fits={} restarts={}",
            rounds.n,
            scores.n,
            full_ms.len(),
            fit_s.len(),
            load_s.len()
        );
        out.set("setup_s", median(&setup).unwrap_or(0.0));
        out.set("fit_s", median(&fit_s).unwrap_or(0.0));
        out.set("score_s", median(&full_ms).unwrap_or(0.0) / 1e3);
        out.set("peak_rss_mb", peak_rss_mb);
        out.set("round_ms_p50", rounds.p50);
        out.set("round_ms_p90", rounds.p90);
        out.set("score_rtt_ms_p50", scores.p50);
        out.set("score_rtt_ms_p90", scores.p90);
        out.set(
            "served_rounds_per_s",
            rounds.n as f64 * 1e3 / round_ms.iter().sum::<f64>(),
        );
        out.set("load_s", median(&load_s).unwrap_or(0.0));
        out.set_ok_frac();
        return Ok(out);
    }

    // Traced run: per-layer metrics.
    let rounds = round_ms.len() as f64;
    pipeline::set_stage_metrics(tracer, "fit", &mut out);
    pipeline::set_stage_metrics(tracer, "score", &mut out);
    pipeline::set_score_totals(tracer, &mut out);
    out.set("quality.auc", auc);
    out.set("quality.cr", cr);
    out.set("core.incremental_frac", incremental as f64 / rounds);
    out.set(
        "gnn.rescored_frac",
        growth.nodes_rescored / growth.nodes.max(1.0),
    );
    out.set(
        "gnn.anchors_reused_frac",
        growth.anchors_reused / growth.anchor_slots.max(1.0),
    );
    let draws = growth.groups_reused + growth.groups_resampled;
    out.set(
        "sampling.draw_reuse_frac",
        growth.groups_reused / draws.max(1.0),
    );
    let lookups = growth.cache_hits + growth.cache_misses;
    out.set("tpgcl.embed_hit_frac", growth.cache_hits / lookups.max(1.0));
    out.set("parallel.threads", pipeline::threads(&score_stages));
    out.set("parallel.threads_fit", pipeline::threads(&fit_stages));
    out.set(
        "trace.overhead_frac",
        pipeline::overhead(&traced_ms, &untraced_ms),
    );
    out.set("samples.round_n", rounds);
    out.set("samples.score_rtt_n", score_ms.len() as f64);
    probes::probe_store(tracer, &dataset, &opts.work.join("store"), &mut out)?;
    probes::probe_layers(
        tracer,
        &ProbeInput {
            graph: &dataset.graph,
            model: &model,
            config: &config,
            result: &cold,
            seed: config.seed,
        },
        &mut out,
    );
    probes::probe_host(
        tracer,
        &dataset,
        &model,
        config.num_threads,
        &opts.work.join("host"),
        config.seed,
        &mut out,
    )?;
    // The churn batch itself, not the host probe's two-nudge batches.
    out.set(
        "serve.apply_deltas_us",
        span_ms(tracer, "serve.apply_deltas") * 1e3,
    );
    Ok(out)
}
