//! Table-driven coverage of the error taxonomy: every [`GrgadError`]
//! variant must be *producible from the public API* — an enum variant no
//! boundary can actually emit is dead weight, and a boundary emitting the
//! wrong variant breaks the serving layer's wire mapping.

use std::sync::Arc;

use tp_grgad::prelude::*;
use tp_grgad::serve::protocol::parse_request;
use tp_grgad::serve::Session;
use tp_grgad::server::{read_frame, ResponseWriter, Scheduler};

fn fitted(seed: u64) -> (TrainedTpGrGad, GrGadDataset) {
    let dataset = datasets::example::generate(30, seed);
    let trained = TpGrGad::new(TpGrGadConfig::fast().with_seed(seed))
        .fit(&dataset.graph)
        .expect("fit");
    (trained, dataset)
}

/// Every error kind, with a public-API call that must produce it.
#[test]
fn every_error_variant_is_producible_from_the_public_api() {
    let (trained, dataset) = fitted(1);
    let dim = dataset.graph.feature_dim();
    let n = dataset.graph.num_nodes();

    type Producer<'a> = Box<dyn Fn() -> GrgadError + 'a>;
    let cases: Vec<(&str, Producer)> = vec![
        (
            // Feature-dim mismatch between a scoring graph and the model.
            "shape_mismatch",
            Box::new(|| {
                let other = Graph::new(4, Matrix::zeros(4, dim + 1));
                trained.score(&other).unwrap_err()
            }),
        ),
        (
            // A candidate group referencing a node beyond the graph.
            "invalid_node_id",
            Box::new(|| {
                let group = Group::new(vec![0, n + 100]);
                trained.score_groups(&dataset.graph, &[group]).unwrap_err()
            }),
        ),
        (
            // NaN node attributes rejected at the fit boundary.
            "non_finite_input",
            Box::new(|| {
                let mut features = Matrix::zeros(8, dim);
                features[(3, 0)] = f32::NAN;
                let nan_graph = Graph::new(8, features);
                TpGrGad::new(TpGrGadConfig::fast())
                    .fit(&nan_graph)
                    .unwrap_err()
            }),
        ),
        (
            // A zero-node graph cannot be fitted or scored.
            "empty_graph",
            Box::new(|| {
                TpGrGad::new(TpGrGadConfig::fast())
                    .fit(&Graph::with_no_features(0))
                    .unwrap_err()
            }),
        ),
        (
            // A group with no members cannot be scored.
            "empty_group",
            Box::new(|| {
                trained
                    .score_groups(&dataset.graph, &[Group::new(vec![])])
                    .unwrap_err()
            }),
        ),
        (
            // A truncated model file fails with the path in the error.
            "model_io",
            Box::new(|| {
                let path = std::env::temp_dir().join("grgad_api_errors_truncated.json");
                std::fs::write(&path, "{\"format\":\"tp-grgad-model/v1\",\"conf").expect("write");
                let err = TrainedTpGrGad::load(&path).unwrap_err();
                std::fs::remove_file(&path).ok();
                err
            }),
        ),
        (
            // An out-of-domain configuration knob fails before training.
            "config_invalid",
            Box::new(|| {
                let mut config = TpGrGadConfig::fast();
                config.contamination = -0.5;
                TpGrGad::new(config).fit(&dataset.graph).unwrap_err()
            }),
        ),
        (
            // A malformed serving request fails at the protocol boundary.
            "protocol",
            Box::new(|| parse_request(r#"{"op":"warp_core"}"#).unwrap_err()),
        ),
        (
            // A frame whose length prefix exceeds the wire limit is
            // transport corruption, not a protocol error.
            "transport",
            Box::new(|| {
                let mut corrupt: &[u8] = &[0xff, 0xff, 0xff, 0xff];
                read_frame(&mut corrupt).unwrap_err()
            }),
        ),
        (
            // Routing an op to a tenant nobody created.
            "tenant_not_found",
            Box::new(|| EngineRegistry::new().route("ghost").unwrap_err()),
        ),
        (
            // A full scheduler shard sheds load instead of blocking. With
            // one worker and a single queue slot, submitting faster than
            // the worker drains must shed within a few thousand attempts —
            // every accepted job still completes (checked via `flushed`).
            "overloaded",
            Box::new(|| {
                let scheduler = Scheduler::new(1, 1);
                let registry = EngineRegistry::new();
                let route = registry.create("overload-probe").expect("create");
                let writer = ResponseWriter::new(Box::new(std::io::sink()));
                let mut seq = 0u64;
                let err = loop {
                    match scheduler.submit_engine(
                        &route,
                        r#"{"op":"stats"}"#.into(),
                        Arc::clone(&writer),
                        seq,
                    ) {
                        Ok(()) => seq += 1,
                        Err(e) => break e,
                    }
                    assert!(seq < 10_000, "single-slot shard never filled");
                };
                scheduler.shutdown();
                assert_eq!(writer.flushed(), seq, "accepted jobs must all run");
                err
            }),
        ),
    ];

    let mut covered = std::collections::BTreeSet::new();
    for (expected_kind, produce) in &cases {
        let err = produce();
        assert_eq!(
            err.kind(),
            *expected_kind,
            "wrong variant for the {expected_kind} case: {err:?}"
        );
        assert!(!err.to_string().is_empty());
        covered.insert(err.kind());
    }

    // The table must cover the whole taxonomy — extending GrgadError means
    // extending this test.
    let all_kinds = [
        "shape_mismatch",
        "invalid_node_id",
        "non_finite_input",
        "empty_graph",
        "empty_group",
        "model_io",
        "config_invalid",
        "protocol",
        "transport",
        "tenant_not_found",
        "overloaded",
    ];
    for kind in all_kinds {
        assert!(covered.contains(kind), "no public-API producer for {kind}");
    }
    assert_eq!(covered.len(), all_kinds.len());
}

/// The specific variant details the serving layer relies on.
#[test]
fn error_payloads_carry_actionable_context() {
    let (trained, dataset) = fitted(2);

    // ModelIo names the missing file.
    let err = TrainedTpGrGad::load("/nonexistent/grgad/model.json").unwrap_err();
    match &err {
        GrgadError::ModelIo { path, cause } => {
            assert!(path.contains("model.json"));
            assert!(!cause.is_empty());
        }
        other => panic!("expected ModelIo, got {other:?}"),
    }

    // InvalidNodeId reports both the offending id and the valid range.
    let n = dataset.graph.num_nodes();
    let err = trained
        .score_groups(&dataset.graph, &[Group::new(vec![n + 7])])
        .unwrap_err();
    match err {
        GrgadError::InvalidNodeId {
            node, num_nodes, ..
        } => {
            assert_eq!(node, n + 7);
            assert_eq!(num_nodes, n);
        }
        other => panic!("expected InvalidNodeId, got {other:?}"),
    }

    // TenantNotFound names the tenant the client asked for, so the wire
    // error is self-explanatory.
    match EngineRegistry::new().route("ghost").unwrap_err() {
        GrgadError::TenantNotFound { tenant } => assert_eq!(tenant, "ghost"),
        other => panic!("expected TenantNotFound, got {other:?}"),
    }

    // ShapeMismatch reports expected vs got dims.
    let wrong = Graph::new(3, Matrix::zeros(3, dataset.graph.feature_dim() + 2));
    match trained.score(&wrong).unwrap_err() {
        GrgadError::ShapeMismatch { expected, got, .. } => {
            assert_eq!(expected, dataset.graph.feature_dim());
            assert_eq!(got, dataset.graph.feature_dim() + 2);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

/// Errors map onto the NDJSON wire with stable kinds — the contract a
/// server client programs against.
#[test]
fn serving_session_reports_typed_errors_on_the_wire() {
    let mut session = Session::new();
    let cases = [
        (r#"{"op":"score"}"#, "protocol"), // nothing loaded yet
        (
            r#"{"op":"load","model":"/no/m.json","graph":"/no/g.json"}"#,
            "model_io",
        ),
        ("garbage", "protocol"),
    ];
    for (line, kind) in cases {
        let response = session.handle_line(line).to_json_line();
        assert!(
            response.contains(&format!("\"kind\":\"{kind}\"")),
            "{line} -> {response}"
        );
        assert!(response.contains("\"ok\":false"));
    }
}

/// A 64-bit seed beyond 2^53 survives save/load exactly, so the reloaded
/// model scores bit-for-bit like the original; an integer field holding a
/// number no integer decodes from (fractional, negative, out of range) is
/// refused as `ModelIo` instead of being truncated.
#[test]
fn model_integers_round_trip_exactly_and_lossy_ones_are_model_io() {
    let seed = 11_400_714_819_323_198_491u64;
    let dataset = datasets::example::generate(30, 3);
    let trained = TpGrGad::new(TpGrGadConfig::fast().with_seed(seed))
        .fit(&dataset.graph)
        .expect("fit");
    let json = trained.to_json().expect("to_json");
    let reloaded = TrainedTpGrGad::from_json(&json).expect("from_json");
    assert_eq!(reloaded.config().seed, seed);
    assert_eq!(reloaded.config().gae.seed, seed);
    assert_eq!(reloaded.config().sampling.seed, seed.wrapping_add(1));
    assert_eq!(reloaded.config().tpgcl.seed, seed.wrapping_add(2));
    assert_eq!(reloaded.to_json().expect("to_json"), json);
    let bits = |r: &TpGrGadResult| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&trained.score(&dataset.graph).expect("score")),
        bits(&reloaded.score(&dataset.graph).expect("score"))
    );

    let field = format!("\"seed\": \"{seed}\"");
    assert!(json.contains(&field), "seed must be saved as a string");
    for bad in ["2.5", "-3", "1e300", "18446744073709551616", "\"12ab\""] {
        let corrupt = json.replacen(&field, &format!("\"seed\": {bad}"), 1);
        let err = TrainedTpGrGad::from_json(&corrupt).unwrap_err();
        assert!(matches!(err, GrgadError::ModelIo { .. }), "{bad}: {err:?}");
    }
}
