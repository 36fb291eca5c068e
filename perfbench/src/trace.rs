//! The span recorder of the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the span
//! that was open when it began (its parent) and the id of the operation it
//! belongs to (one fit, one score, one delta round). Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is its
//! duration minus the part of it its child spans cover.
//!
//! The pipeline's four stages become spans through [`SpanObserver`], which
//! sits on the public `PipelineObserver` seam: a stage report arrives when
//! the stage ends and carries its wall time, so the span is placed at
//! `[now - wall, now]` under whatever span was open around the call.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use grgad_core::{PipelineObserver, StageTimings};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.score.candidate_sampling`.
    pub name: String,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder. A disabled recorder records nothing and adds
/// nothing but a branch around each call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every method a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with operation id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `body` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records an interval that ended just now and lasted `wall`, as a
    /// child of the innermost open span.
    pub fn record_ended(&mut self, name: String, wall: Duration) {
        if !self.enabled {
            return;
        }
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: end.saturating_sub(wall),
            end,
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    /// Every span recorded so far, in start order of their opening call.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Self times in milliseconds of every span called `name`.
    pub fn self_millis(&self, name: &str) -> Vec<f64> {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes every span as one JSON document (an array of objects with
    /// microsecond offsets and the self time of each span).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (span, self_time)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\":{i},\"name\":{},\"run\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                serde_json::to_string(&span.name).unwrap_or_else(|_| "\"?\"".to_string()),
                span.run,
                span.start.as_micros(),
                span.end.as_micros(),
                self_time.as_micros()
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Turns pipeline stage reports into `core.<phase>.<stage>` spans and
/// keeps the reports themselves (for thread counts and item counts).
pub struct SpanObserver<'a> {
    tracer: &'a mut Tracer,
    /// Every stage report received, in order.
    pub stages: Vec<StageTimings>,
}

impl<'a> SpanObserver<'a> {
    /// An observer recording into `tracer`.
    pub fn new(tracer: &'a mut Tracer) -> Self {
        SpanObserver {
            tracer,
            stages: Vec::new(),
        }
    }
}

impl PipelineObserver for SpanObserver<'_> {
    fn on_stage(&mut self, timings: &StageTimings) {
        self.tracer.record_ended(
            format!("core.{}.{}", timings.phase, timings.stage.name()),
            timings.wall,
        );
        self.stages.push(timings.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_union() {
        // root [0,100] with children [10,30] and [20,50] (overlapping, union
        // 40ms) and [90,120] (clipped to 10ms); grandchild [12,18] belongs to
        // child 1 only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.x", 12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_millis(50));
        assert_eq!(own[1], Duration::from_millis(14));
        assert_eq!(own[2], Duration::from_millis(30));
        assert_eq!(own[3], Duration::from_millis(30));
        assert_eq!(own[4], Duration::from_millis(6));
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", 5, 9, None)];
        assert_eq!(self_times(&spans), vec![Duration::from_millis(4)]);
    }

    #[test]
    fn nested_spans_link_parents_and_runs() {
        let mut tracer = Tracer::new(true);
        tracer.set_run(7);
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            t.record_ended("stage".to_string(), Duration::ZERO);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7));
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(tracer.millis("inner").len(), 1);
        assert_eq!(tracer.self_millis("outer").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let v = tracer.span("x", |t| {
            t.record_ended("y".to_string(), Duration::from_millis(1));
            3
        });
        assert_eq!(v, 3);
        assert!(tracer.spans().is_empty());
    }
}
