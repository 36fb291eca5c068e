//! `batch-100k`: the offline analyst's job. Set-up writes a seeded 100k-node
//! power-law graph to a `.gsm` artifact and loads it back mmap-backed; the
//! timed part is one fit followed by repeated full scores of that graph.
//!
//! Checks: the repeated scores of a graph are bit-identical; a score after a
//! restart (model and graph loaded from disk) and an untimed score of the
//! in-memory copy of the graph are bit-identical to them; at seed 0, AUC and
//! CR match the `powerlaw-100000` pin of the scale golden.

use std::time::Instant;

use grgad_bench::suite::{bench_config, load_golden, GoldenMetrics};
use grgad_core::TrainedTpGrGad;
use grgad_datasets::powerlaw::{self, PowerLawParams};
use grgad_datasets::stream;

use crate::pipeline;
use crate::probes::{self, span_ms, ProbeInput};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{cycle_seed, nproc, own_peak_rss_mb, quality, same_result, secs, Opts, Outcome};

/// Background nodes of the generated graph.
pub const NODES: usize = 100_000;

/// Set-up + fit + scores cycles per run, each on its own graph; the
/// metrics pool the cycles.
const CYCLES: u32 = 3;

/// Scores a cycle runs at least, whatever the time budget.
const MIN_SCORES: usize = 3;

/// Restarts timed per cycle for `load_s`.
const RESTARTS: usize = 2;

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let params = PowerLawParams::with_nodes(NODES);
    let dir = opts.work.join("artifact");
    let model_path = opts.work.join("model.json");
    let threads = nproc();
    let budget = opts.seconds / CYCLES;

    let (mut setup, mut fit_s, mut load_s, mut score_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut score_stages = Vec::new();
    let mut first_quality = None;
    let mut kept = None;
    for cycle in 0..CYCLES {
        drop(kept.take()); // unmap before the artifact is rewritten
        let seed = cycle_seed(opts.seed, cycle);
        let mut config = bench_config(NODES, seed);
        config.num_threads = threads;

        // Set-up: artifact write plus mmap load.
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        tracer
            .span("store.write", |_| {
                stream::write_powerlaw(&params, seed, &dir)
            })
            .map_err(|e| format!("writing artifact: {e}"))?;
        let dataset = tracer
            .span("store.load", |_| stream::load_dataset(&dir))
            .map_err(|e| format!("loading artifact: {e}"))?;
        setup.push(secs(t.elapsed()));
        let graph = &dataset.graph;

        // Timed: one fit, then full scores for the cycle's share of the
        // budget. A traced run alternates traced and untraced scores to
        // measure its overhead.
        let t = Instant::now();
        tracer.set_run(u64::from(cycle) << 32);
        let (model, fit_stages) = pipeline::fit(tracer, &config, graph)?;
        fit_s.push(secs(t.elapsed()));
        out.attempt(1);
        let began = Instant::now();
        let mut reference = None;
        let mut scores = 0;
        while scores < MIN_SCORES || began.elapsed() < budget {
            let k = score_ms.len();
            let traced = tracer.enabled() && k % 2 == 0;
            tracer.set_run((u64::from(cycle) << 32) + k as u64 + 1);
            let t = Instant::now();
            let (result, stages) = pipeline::score(tracer, traced, &model, graph)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            score_ms.push(ms);
            scores += 1;
            if traced {
                traced_ms.push(ms);
                score_stages = stages;
            } else {
                untraced_ms.push(ms);
            }
            out.attempt(1);
            match &reference {
                None => reference = Some(result),
                Some(first) => out.check(same_result(first, &result), || {
                    format!("cycle {cycle}: score {scores} is not bit-identical to the first")
                }),
            }
        }
        let reference = reference.ok_or("no score ran")?;

        // Restarts: model and graph loaded from disk, then the first score.
        model
            .save(&model_path)
            .map_err(|e| format!("saving model: {e}"))?;
        for _ in 0..RESTARTS {
            let t = Instant::now();
            let restarted = TrainedTpGrGad::load(&model_path).map_err(|e| format!("load: {e}"))?;
            let reloaded = stream::load_dataset(&dir).map_err(|e| format!("reload: {e}"))?;
            let result = restarted
                .score(&reloaded.graph)
                .map_err(|e| format!("score after restart: {e}"))?;
            load_s.push(secs(t.elapsed()));
            out.attempt(1);
            out.check(same_result(&reference, &result), || {
                format!("cycle {cycle}: score after a restart is not bit-identical")
            });
        }
        first_quality.get_or_insert_with(|| {
            quality(&reference, &dataset.anomaly_groups, config.match_jaccard)
        });
        kept = Some((dataset, model, config, reference, fit_stages));
    }
    let peak_rss_mb = own_peak_rss_mb();
    let (dataset, model, config, reference, fit_stages) = kept.ok_or("no cycle ran")?;
    let graph = &dataset.graph;
    println!(
        "batch-100k: {} nodes, {} edges, {threads} threads, {CYCLES} cycles",
        graph.num_nodes(),
        graph.num_edges(),
    );

    // Untimed: the in-memory copy of the last graph scores identically.
    let in_memory = powerlaw::generate_sized(NODES, config.seed);
    let copy = model
        .score(&in_memory.graph)
        .map_err(|e| format!("scoring in-memory copy: {e}"))?;
    out.attempt(1);
    out.check(same_result(&reference, &copy), || {
        "in-memory copy does not score bit-identically to the mmap graph".to_string()
    });
    drop(in_memory);

    // Quality of the first cycle's graph, the one `--seed` names.
    let (auc, cr) = first_quality.ok_or("no cycle ran")?;
    println!("quality: auc={auc} cr={cr}");
    if opts.seed == 0 {
        let pin = GoldenMetrics::conventional_path("scale");
        let golden = load_golden(&pin)?;
        let pinned = golden
            .workloads
            .iter()
            .find(|w| w.workload == format!("powerlaw-{NODES}") && w.seed == 0)
            .ok_or("scale golden has no powerlaw-100000 pin")?;
        let tol = f64::from(golden.tolerance);
        out.check(
            (auc - f64::from(pinned.auc)).abs() <= tol && (cr - f64::from(pinned.cr)).abs() <= tol,
            || {
                format!(
                    "auc {auc} / cr {cr} outside ±{tol} of the pin {} / {}",
                    pinned.auc, pinned.cr
                )
            },
        );
    }

    if !tracer.enabled() {
        let rounds = Summary::of(&score_ms).ok_or("no score samples")?;
        println!(
            "samples: scores={} fits={} setups={} restarts={}",
            rounds.n,
            fit_s.len(),
            setup.len(),
            load_s.len()
        );
        out.set("setup_s", median(&setup).unwrap_or(0.0));
        out.set("fit_s", median(&fit_s).unwrap_or(0.0));
        out.set("score_s", rounds.p50 / 1e3);
        out.set("peak_rss_mb", peak_rss_mb);
        out.set("round_ms_p50", rounds.p50);
        out.set("round_ms_p90", rounds.p90);
        out.set("score_rtt_ms_p50", rounds.p50);
        out.set("score_rtt_ms_p90", rounds.p90);
        out.set(
            "served_rounds_per_s",
            rounds.n as f64 * 1e3 / score_ms.iter().sum::<f64>(),
        );
        out.set("load_s", median(&load_s).unwrap_or(0.0));
        out.set_ok_frac();
        return Ok(out);
    }

    // Traced run: per-layer metrics.
    pipeline::set_stage_metrics(tracer, "fit", &mut out);
    pipeline::set_stage_metrics(tracer, "score", &mut out);
    pipeline::set_score_totals(tracer, &mut out);
    pipeline::set_full_path_fractions(&mut out);
    out.set("quality.auc", auc);
    out.set("quality.cr", cr);
    out.set("store.write_ms", span_ms(tracer, "store.write"));
    out.set("store.load_ms", span_ms(tracer, "store.load"));
    out.set("store.artifact_bytes", probes::dir_bytes(&dir) as f64);
    out.set("parallel.threads", pipeline::threads(&score_stages));
    out.set("parallel.threads_fit", pipeline::threads(&fit_stages));
    out.set(
        "trace.overhead_frac",
        pipeline::overhead(&traced_ms, &untraced_ms),
    );
    out.set("samples.round_n", score_ms.len() as f64);
    out.set("samples.score_rtt_n", score_ms.len() as f64);
    probes::probe_layers(
        tracer,
        &ProbeInput {
            graph,
            model: &model,
            config: &config,
            result: &reference,
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
    Ok(out)
}
