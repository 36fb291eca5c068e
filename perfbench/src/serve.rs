//! `serve-drift-10k`: a `grgad_server` process with 2 workers and two
//! tenants on different shards, each driven by its own closed-loop client
//! connection: `apply_delta` (two ±0.02 feature nudges) then `score`.
//! Set-up generates a seeded 10k-node graph, fits the served model with one
//! thread, saves model and graph, and spawns the host. Both tenants load the
//! same model and graph; their delta streams differ.
//!
//! Check: every served response is byte-identical to a serial in-process
//! `Session` replay of the same lines, and the host drains with exit 0.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use grgad_bench::suite::{bench_config, DRIFT_NUDGE, DRIFT_STREAM_DELTAS_PER_ROUND};
use grgad_datasets::powerlaw;
use grgad_server::shard_for_tenant;

use crate::host::{self, DriftLog, DriftPlan, Host};
use crate::pipeline;
use crate::probes::{self, ProbeInput};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{cycle_seed, own_peak_rss_mb, quality, secs, Opts, Outcome};

/// Background nodes of the generated graph.
pub const NODES: usize = 10_000;

/// Feature nudges per `apply_delta`.
pub const NUDGES_PER_ROUND: usize = DRIFT_STREAM_DELTAS_PER_ROUND;

/// Host scheduler workers, one per tenant and client connection.
const WORKERS: usize = 2;

/// Set-up + serving cycles per run; the metrics pool the cycles.
const CYCLES: u32 = 5;

/// Extra tenants loaded and cold-scored after each cycle's loop, for
/// `load_s`.
const EXTRA_LOADS: usize = 2;

/// In-process full scores per cycle (`score_s`); a traced run alternates
/// traced and untraced ones.
const FULL_SCORES: usize = 4;

/// Two tenant names that `shard_for_tenant` puts on different shards.
fn tenants() -> [String; WORKERS] {
    let mut names: [Option<String>; WORKERS] = [None, None];
    for i in 0.. {
        let name = format!("drift-{i}");
        let shard = shard_for_tenant(&name, WORKERS);
        if names[shard].is_none() {
            names[shard] = Some(name);
        }
        if let [Some(a), Some(b)] = &names {
            return [a.clone(), b.clone()];
        }
    }
    unreachable!("FNV-1a spreads names over both shards")
}

/// Runs both clients against `host` for `budget`, one tenant each.
fn drive(
    host: &Host,
    model: &Path,
    graph: &Path,
    initial: &grgad_graph::Graph,
    seed: u64,
    budget: Duration,
) -> Vec<DriftLog> {
    let plans: Vec<DriftPlan<'_>> = tenants()
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| DriftPlan {
            tenant,
            model,
            graph,
            initial,
            seed: seed.wrapping_add(i as u64 + 1),
            nudges: NUDGES_PER_ROUND,
            nudge: DRIFT_NUDGE,
            max_rounds: usize::MAX,
            budget,
        })
        .collect();
    let start = Barrier::new(plans.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(|| host::drift_client(host, plan, &start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    // Engines the in-process replay loads score with one thread, like the
    // host's (models do not persist their thread count).
    std::env::set_var("GRGAD_THREADS", "1");
    let mut out = Outcome::default();
    let model_path = opts.work.join("model.json");
    let graph_path = opts.work.join("graph.json");
    let socket = opts.work.join("host.sock");
    let budget = opts.seconds / CYCLES;

    let (mut setup, mut fit_s, mut full_ms, mut load_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut host_rss_mb = Vec::new();
    let (mut logs, mut replays) = (Vec::new(), Vec::new());
    let mut kept = None;
    for cycle in 0..CYCLES {
        // Set-up: generate, fit, save, spawn.
        let seed = cycle_seed(opts.seed, cycle);
        let mut config = bench_config(NODES, seed);
        config.num_threads = 1;
        let t = Instant::now();
        let dataset = powerlaw::generate_sized(NODES, seed);
        let t_fit = Instant::now();
        let (model, fit_stages) = pipeline::fit(tracer, &config, &dataset.graph)?;
        fit_s.push(secs(t_fit.elapsed()));
        model
            .save(&model_path)
            .map_err(|e| format!("saving model: {e}"))?;
        grgad_datasets::io::save_json(&dataset, &graph_path)
            .map_err(|e| format!("saving graph: {e}"))?;
        let host = Host::spawn(&socket, WORKERS, 1)?;
        drop(host.connect()?);
        setup.push(secs(t.elapsed()));

        // Untimed: in-process full scores of the served graph; a traced
        // run alternates traced and untraced ones to measure its overhead.
        let mut scored = None;
        for k in 0..FULL_SCORES {
            let traced = tracer.enabled() && k % 2 == 0;
            let t = Instant::now();
            let (result, stages) = pipeline::score(tracer, traced, &model, &dataset.graph)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            full_ms.push(ms);
            if traced {
                traced_ms.push(ms);
            } else {
                untraced_ms.push(ms);
            }
            // The first score is the traced one in a traced run.
            scored.get_or_insert((result, stages));
        }
        let (cold, score_stages) = scored.ok_or("no in-process score ran")?;

        // Timed: both clients' loops.
        let mut cycle_logs = drive(
            &host,
            &model_path,
            &graph_path,
            &dataset.graph,
            seed.wrapping_mul(31),
            budget,
        );
        load_ms.extend(cycle_logs.iter().map(|log| log.load_ms));
        for i in 0..EXTRA_LOADS {
            out.attempt(1);
            match host::load_probe(&host, &format!("reload-{i}"), &model_path, &graph_path) {
                Ok(ms) => load_ms.push(ms),
                Err(e) => out.check(false, || format!("cycle {cycle}: {e}")),
            }
        }
        host_rss_mb.push(host.peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6));
        let drained = host.shutdown();
        out.check(drained.is_ok(), || format!("host drain: {drained:?}"));

        // Check: each client's responses against a serial replay.
        let cycle_replays: Vec<host::Replay> = std::thread::scope(|s| {
            let handles: Vec<_> = cycle_logs
                .iter()
                .map(|log| s.spawn(|| host::replay(log)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "replay panicked".to_string()))
                .collect::<Result<_, _>>()
        })?;
        for (log, replay) in cycle_logs.iter().zip(&cycle_replays) {
            out.attempt(log.attempted);
            out.check(log.failed == 0, || {
                format!(
                    "cycle {cycle}: {} of {} requests failed",
                    log.failed, log.attempted
                )
            });
            out.check(replay.identical, || {
                format!(
                    "cycle {cycle}: response {:?} differs from the serial Session replay",
                    replay.first_mismatch
                )
            });
        }
        logs.append(&mut cycle_logs);
        replays.extend(cycle_replays);
        kept = Some((dataset, model, config, cold, fit_stages, score_stages));
    }
    let (dataset, model, config, cold, fit_stages, score_stages) = kept.ok_or("no cycle ran")?;
    println!(
        "serve-drift-10k: {} nodes, {} edges, {WORKERS} workers, 2 clients, tenants {:?}, 1 scoring thread per worker, {CYCLES} cycles",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        tenants()
    );

    let round_ms: Vec<f64> = logs
        .iter()
        .flat_map(|log| log.delta_ms.iter().zip(&log.score_ms).map(|(d, s)| d + s))
        .collect();
    let score_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.score_ms.iter().copied())
        .collect();
    let delta_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.delta_ms.iter().copied())
        .collect();
    // Both clients of a cycle run concurrently: a cycle's wall time is its
    // slower client's.
    let wall: f64 = logs
        .chunks(WORKERS)
        .map(|pair| pair.iter().map(|l| secs(l.loop_wall)).fold(0.0, f64::max))
        .sum();
    let (auc, cr) = quality(&cold, &dataset.anomaly_groups, config.match_jaccard);
    println!("quality: auc={auc} cr={cr}");

    if !tracer.enabled() {
        let rounds = Summary::of(&round_ms).ok_or("no rounds served")?;
        let scores = Summary::of(&score_ms).ok_or("no scores served")?;
        println!(
            "samples: rounds={} scores={} loads={} fits={} bench_rss_mb={:.1}",
            rounds.n,
            scores.n,
            load_ms.len(),
            fit_s.len(),
            own_peak_rss_mb()
        );
        out.set("setup_s", median(&setup).unwrap_or(0.0));
        out.set("fit_s", median(&fit_s).unwrap_or(0.0));
        out.set("score_s", median(&full_ms).unwrap_or(0.0) / 1e3);
        out.set("peak_rss_mb", median(&host_rss_mb).unwrap_or(0.0));
        out.set("round_ms_p50", rounds.p50);
        out.set("round_ms_p90", rounds.p90);
        out.set("score_rtt_ms_p50", scores.p50);
        out.set("score_rtt_ms_p90", scores.p90);
        out.set("served_rounds_per_s", rounds.n as f64 / wall);
        out.set("load_s", median(&load_ms).unwrap_or(0.0) / 1e3);
        out.set_ok_frac();
        return Ok(out);
    }

    // Traced run: per-layer metrics.
    let rounds: f64 = logs.iter().map(|l| l.delta_ms.len() as f64).sum();
    let growth = |key: &str| logs.iter().map(|l| host::stat_growth(l, key)).sum::<f64>();
    pipeline::set_stage_metrics(tracer, "fit", &mut out);
    pipeline::set_stage_metrics(tracer, "score", &mut out);
    pipeline::set_score_totals(tracer, &mut out);
    out.set(
        "core.incremental_frac",
        logs.iter().map(host::incremental_share).sum::<f64>() / logs.len() as f64,
    );
    out.set(
        "gnn.rescored_frac",
        growth("nodes_rescored") / (dataset.graph.num_nodes() as f64 * rounds.max(1.0)),
    );
    out.set(
        "gnn.anchors_reused_frac",
        growth("anchors_reused") / (cold.anchor_nodes.len().max(1) as f64 * rounds.max(1.0)),
    );
    let reused = growth("groups_reused");
    let resampled = growth("groups_resampled");
    out.set(
        "sampling.draw_reuse_frac",
        reused / (reused + resampled).max(1.0),
    );
    let hits = growth("cache_hits");
    let misses = growth("cache_misses");
    out.set("tpgcl.embed_hit_frac", hits / (hits + misses).max(1.0));
    out.set("quality.auc", auc);
    out.set("quality.cr", cr);
    let merged = host::Replay {
        identical: replays.iter().all(|r| r.identical),
        first_mismatch: None,
        score_ms: replays.iter().flat_map(|r| r.score_ms.clone()).collect(),
        delta_us: replays.iter().flat_map(|r| r.delta_us.clone()).collect(),
        parse_us: replays.iter().flat_map(|r| r.parse_us.clone()).collect(),
    };
    probes::set_serve_layers(&merged, &mut out);
    probes::set_server_layers(&delta_ms, &score_ms, &merged.score_ms, &mut out);
    out.set("parallel.threads", pipeline::threads(&score_stages));
    out.set("parallel.threads_fit", pipeline::threads(&fit_stages));
    out.set("parallel.host_workers", WORKERS as f64);
    out.set(
        "trace.overhead_frac",
        pipeline::overhead(&traced_ms, &untraced_ms),
    );
    out.set("samples.round_n", round_ms.len() as f64);
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_land_on_different_shards() {
        let [a, b] = tenants();
        assert_ne!(shard_for_tenant(&a, WORKERS), shard_for_tenant(&b, WORKERS));
        assert_eq!(tenants(), [a, b]);
    }
}
