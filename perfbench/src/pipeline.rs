//! Fit and score calls shared by the workloads, with and without spans,
//! and the metrics derived from their stage reports.

use grgad_core::{
    PipelineStage, StageTimings, TpGrGad, TpGrGadConfig, TpGrGadResult, TrainedTpGrGad,
};
use grgad_graph::Graph;

use crate::probes::span_ms;
use crate::stats::median;
use crate::trace::{SpanObserver, Tracer};
use crate::Outcome;

/// `TpGrGad::fit`, inside a `core.fit` span with stage spans under it when
/// tracing. Returns the model and the stage reports (empty untraced).
pub fn fit(
    tracer: &mut Tracer,
    config: &TpGrGadConfig,
    graph: &Graph,
) -> Result<(TrainedTpGrGad, Vec<StageTimings>), String> {
    let trainer = TpGrGad::new(config.clone());
    let fitted = if tracer.enabled() {
        tracer.span("core.fit", |t| {
            let mut observer = SpanObserver::new(t);
            trainer
                .fit_observed(graph, &mut observer)
                .map(|m| (m, observer.stages))
        })
    } else {
        trainer.fit(graph).map(|m| (m, Vec::new()))
    };
    fitted.map_err(|e| format!("fit: {e}"))
}

/// `TrainedTpGrGad::score`; with `traced`, inside a `core.score` span with
/// stage spans under it.
pub fn score(
    tracer: &mut Tracer,
    traced: bool,
    model: &TrainedTpGrGad,
    graph: &Graph,
) -> Result<(TpGrGadResult, Vec<StageTimings>), String> {
    let scored = if traced {
        tracer.span("core.score", |t| {
            let mut observer = SpanObserver::new(t);
            model
                .score_observed(graph, &mut observer)
                .map(|r| (r, observer.stages))
        })
    } else {
        model.score(graph).map(|r| (r, Vec::new()))
    };
    scored.map_err(|e| format!("score: {e}"))
}

/// `core.<phase>.<stage>_ms` for every stage, from the stage spans.
pub fn set_stage_metrics(tracer: &Tracer, phase: &str, out: &mut Outcome) {
    for stage in PipelineStage::ALL {
        out.set(
            &format!("core.{phase}.{}_ms", stage.name()),
            span_ms(tracer, &format!("core.{phase}.{}", stage.name())),
        );
    }
}

/// `core.score.total_ms` and `core.score.self_ms`: the whole score call
/// and the part of it outside the four stages.
pub fn set_score_totals(tracer: &Tracer, out: &mut Outcome) {
    out.set("core.score.total_ms", span_ms(tracer, "core.score"));
    out.set(
        "core.score.self_ms",
        median(&tracer.self_millis("core.score")).unwrap_or(0.0),
    );
}

/// Highest thread count any stage report ran at (0 with no reports).
pub fn threads(stages: &[StageTimings]) -> f64 {
    stages.iter().map(|s| s.threads).max().unwrap_or(0) as f64
}

/// Traced over untraced median, minus one.
pub fn overhead(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    match (median(traced_ms), median(untraced_ms)) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    }
}

/// Sets the per-layer fractions of a workload that only ever scores in
/// full: every node re-scored, nothing reused.
pub fn set_full_path_fractions(out: &mut Outcome) {
    out.set("core.incremental_frac", 0.0);
    out.set("gnn.rescored_frac", 1.0);
    out.set("gnn.anchors_reused_frac", 0.0);
    out.set("sampling.draw_reuse_frac", 0.0);
    out.set("tpgcl.embed_hit_frac", 0.0);
}
