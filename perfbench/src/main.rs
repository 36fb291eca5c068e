//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload batch-100k|churn-10k|serve-drift-10k --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one seeded workload end to end, checks that its outputs are
//! correct, and prints as its last line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]);
//! with `--trace 1` the same workload runs with the span recorder on and
//! layer probes after it, and the metrics are the per-layer ones
//! ([`PER_LAYER`]). `perfbench/METRICS.md` says what each metric measures
//! and which end-to-end metric each layer metric should move.
//!
//! Scratch files (artifacts, saved models, host sockets, span dumps) live
//! under `.perfbench/` in the working directory.

mod batch;
mod churn;
mod gen;
mod host;
mod pipeline;
mod probes;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use grgad_core::TpGrGadResult;

/// End-to-end metrics: every `--trace 0` run reports each of them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("score_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("score_rtt_ms_p50", "ms"),
    ("score_rtt_ms_p90", "ms"),
    ("served_rounds_per_s", "1/s"),
    ("load_s", "s"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics: every `--trace 1` run reports each of them.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("core.fit.anchor_localization_ms", "ms"),
    ("core.fit.candidate_sampling_ms", "ms"),
    ("core.fit.group_embedding_ms", "ms"),
    ("core.fit.outlier_scoring_ms", "ms"),
    ("core.score.anchor_localization_ms", "ms"),
    ("core.score.candidate_sampling_ms", "ms"),
    ("core.score.group_embedding_ms", "ms"),
    ("core.score.outlier_scoring_ms", "ms"),
    ("core.score.total_ms", "ms"),
    ("core.score.self_ms", "ms"),
    ("core.incremental_frac", "fraction"),
    ("graph.normalized_adjacency_ms", "ms"),
    ("graph.graphsnn_target_ms", "ms"),
    ("graph.shortest_path_us", "us"),
    ("graph.shortest_path_hit_frac", "fraction"),
    ("graph.bfs_tree_us", "us"),
    ("graph.cycle_search_us", "us"),
    ("graph.cycles_per_anchor", "count"),
    ("linalg.spmm_ms", "ms"),
    ("linalg.spmm_t_ms", "ms"),
    ("linalg.spmm_bytes", "bytes"),
    ("gnn.fit_epoch_ms", "ms"),
    ("gnn.infer_errors_ms", "ms"),
    ("gnn.infer_errors_self_ms", "ms"),
    ("gnn.rescored_frac", "fraction"),
    ("gnn.anchors_reused_frac", "fraction"),
    ("sampling.sample_ms", "ms"),
    ("sampling.pairs_examined", "count"),
    ("sampling.from_paths", "count"),
    ("sampling.from_trees", "count"),
    ("sampling.from_cycles", "count"),
    ("sampling.from_background", "count"),
    ("sampling.duplicates_removed", "count"),
    ("sampling.draw_reuse_frac", "fraction"),
    ("tpgcl.fit_epoch_ms", "ms"),
    ("tpgcl.embed_ms", "ms"),
    ("tpgcl.embed_hit_frac", "fraction"),
    ("outlier.fit_ms", "ms"),
    ("outlier.score_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("serve.apply_deltas_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.session_score_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.score_rtt_ms_p50", "ms"),
    ("server.delta_rtt_ms_p50", "ms"),
    ("server.delta_rtt_n", "count"),
    ("server.score_rtt_ms_p99", "ms"),
    ("server.score_rtt_n", "count"),
    ("parallel.threads", "count"),
    ("parallel.threads_fit", "count"),
    ("parallel.host_workers", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("samples.round_n", "count"),
    ("samples.score_rtt_n", "count"),
    ("quality.auc", "ratio"),
    ("quality.cr", "ratio"),
];

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["batch-100k", "churn-10k", "serve-drift-10k"];

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: Duration,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Scratch directory for this run.
    pub work: PathBuf,
}

/// The result of one run, before it is printed.
#[derive(Default)]
pub struct Outcome {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, counting failed correctness checks.
    pub failed: u64,
    /// Failed correctness checks, described.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Records a metric; its unit comes from the metric tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| *u);
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Records a correctness check; a failed one fails its operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Counts `n` more attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Sets `ok_frac`: operations that succeeded over those attempted.
    pub fn set_ok_frac(&mut self) {
        let attempted = self.attempted.max(1) as f64;
        self.set("ok_frac", (attempted - self.failed as f64) / attempted);
    }
}

/// Worker threads the pipeline workloads run at: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, in megabytes.
pub fn own_peak_rss_mb() -> f64 {
    host::vm_hwm_bytes("/proc/self/status").map_or(0.0, |b| b as f64 / 1e6)
}

/// The seed of cycle `cycle` of a run: `seed` itself for the first, so the
/// graph `--seed` names is always among those measured. The cycle goes into
/// bits 32 and up, so a derived seed is as wide as the one it came from.
pub fn cycle_seed(seed: u64, cycle: u32) -> u64 {
    seed ^ (u64::from(cycle) << 32)
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether two scoring results are bit-identical: anchors, candidate
/// groups, score bits and flags.
pub fn same_result(a: &TpGrGadResult, b: &TpGrGadResult) -> bool {
    a.anchor_nodes == b.anchor_nodes
        && a.candidate_groups == b.candidate_groups
        && a.predicted_anomalous == b.predicted_anomalous
        && a.scores.len() == b.scores.len()
        && a.scores
            .iter()
            .zip(&b.scores)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `(auc, cr)` of a scoring result against planted ground truth.
pub fn quality(
    result: &TpGrGadResult,
    truth: &[grgad_graph::Group],
    match_jaccard: f32,
) -> (f64, f64) {
    let report = grgad_metrics::evaluate_detection(
        &result.candidate_groups,
        &result.scores,
        &result.predicted_anomalous,
        truth,
        match_jaccard,
    );
    (f64::from(report.auc), f64::from(report.cr))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected {})",
            WORKLOADS.join("|")
        ));
    }
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let work = PathBuf::from(".perfbench").join(format!(
        "{workload}-s{seed}-t{}-{}",
        u8::from(trace),
        std::process::id()
    ));
    Ok(Opts {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        work,
    })
}

/// Renders the result line. Values print with Rust's shortest round-trip
/// representation, i.e. every digit that was measured.
fn result_line(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                host::json_str(name),
                if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                },
                host::json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: creating {}: {e}", opts.work.display());
        return ExitCode::from(2);
    }
    let mut tracer = trace::Tracer::new(opts.trace);
    let run = match opts.workload.as_str() {
        "batch-100k" => batch::run(&opts, &mut tracer),
        "churn-10k" => churn::run(&opts, &mut tracer),
        _ => serve::run(&opts, &mut tracer),
    };
    if opts.trace {
        let dump = PathBuf::from(".perfbench")
            .join(format!("spans-{}-s{}.json", opts.workload, opts.seed));
        if let Err(e) = tracer.write_json(&dump) {
            eprintln!("perfbench: writing {}: {e}", dump.display());
        } else {
            println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                dump.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&opts.work);
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        outcome.set("trace.spans", tracer.spans().len() as f64);
    }

    let expected: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = expected
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !outcome.metrics.contains_key(*name))
        .collect();
    let unexpected: Vec<&str> = outcome
        .metrics
        .keys()
        .map(String::as_str)
        .filter(|name| !expected.iter().any(|(n, _)| n == name))
        .collect();
    if !missing.is_empty() || !unexpected.is_empty() {
        eprintln!(
            "perfbench: metrics not measured: [{}]; not in the table: [{}]",
            missing.join(", "),
            unexpected.join(", ")
        );
        return ExitCode::FAILURE;
    }

    for (name, (value, unit)) in &outcome.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = outcome.failed == 0 && outcome.check_failures.is_empty();
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let serde::Value::Seq(items) = doc.field(section).expect("section present") else {
            panic!("{section} is not a list");
        };
        items
            .iter()
            .map(|item| match item.field("name") {
                Ok(serde::Value::Str(s)) => s.clone(),
                _ => panic!("{section} entry without a name"),
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let workloads: Vec<String> = WORKLOADS.iter().map(|n| n.to_string()).collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        assert_eq!(names_in_benchmark_json("per_layer"), layer);
        assert_eq!(names_in_benchmark_json("workloads"), workloads);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.attempt(3);
        outcome.set("setup_s", 0.25);
        let line = result_line(&outcome, true);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn failed_check_fails_its_operation() {
        let mut outcome = Outcome::default();
        outcome.attempt(2);
        outcome.check(true, || unreachable!());
        outcome.check(false, || "scores differ".to_string());
        assert_eq!(outcome.failed, 1);
        assert_eq!(outcome.check_failures, vec!["scores differ".to_string()]);
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let opts =
            parse_args(&args("--workload churn-10k --seed 4 --seconds 2 --trace 1")).unwrap();
        assert_eq!(opts.seed, 4);
        assert!(opts.trace);
        assert!(parse_args(&args("--workload nope --seed 4 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args("--workload churn-10k --seed 4 --seconds 2 --trace 2")).is_err());
    }
}
