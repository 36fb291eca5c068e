//! The perf reports committed at the repository root must load at the
//! current bench schema, so the recorded trajectory cannot silently fall
//! behind `BENCH_FORMAT`. Regenerate them with
//! `bench_suite --preset ci|scale|scale1m|serve --out .`.

use std::path::{Path, PathBuf};

use grgad_bench::suite::load_report;

fn committed_reports() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut reports: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read repository root")
        .map(|entry| entry.expect("read directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    reports.sort();
    reports
}

#[test]
fn every_committed_report_loads_at_the_current_schema() {
    let reports = committed_reports();
    let names: Vec<&str> = reports
        .iter()
        .filter_map(|path| path.file_name()?.to_str())
        .collect();
    for preset in ["ci", "scale", "scale1m", "serve"] {
        let expected = format!("BENCH_{preset}.json");
        assert!(
            names.contains(&expected.as_str()),
            "{expected} is not committed (found {names:?})"
        );
    }
    for path in &reports {
        if let Err(e) = load_report(path) {
            panic!("{e}");
        }
    }
}
