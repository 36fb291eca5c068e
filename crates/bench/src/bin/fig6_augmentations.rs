//! Fig. 6 — augmentation-combination heatmaps.
//!
//! For each (negative-view, positive-view) augmentation pair drawn from
//! {PBA, PPA, ND, ER, FM}, trains TPGCL with that pair and reports the
//! group-wise F1 — one 5×5 heatmap per dataset. The expensive MH-GAE anchor
//! localization and group sampling are shared across all 25 cells of a
//! dataset since the augmentations only affect the contrastive stage.

use std::collections::BTreeMap;

use grgad_bench::{print_table, progress, write_json, HarnessOptions};
use grgad_datasets::all_datasets;
use grgad_gnn::{select_anchor_nodes, MhGae};
use grgad_metrics::evaluate_detection;
use grgad_outlier::{threshold_by_contamination, Ecod, OutlierDetector};
use grgad_sampling::sample_candidate_groups;
use grgad_tpgcl::{Augmentation, Tpgcl};

fn main() {
    let options = HarnessOptions::from_args();
    let seed = options.seeds[0];
    let augmentations = Augmentation::all();
    let config = options.pipeline_config(seed);

    // dataset -> "NEG/POS" -> f1
    let mut json: BTreeMap<String, BTreeMap<String, f32>> = BTreeMap::new();

    for dataset in all_datasets(options.scale, seed) {
        progress(
            "fig6",
            format!("dataset={}: anchor localization + sampling", dataset.name),
        );
        // Shared stages 1–2.
        let mut mhgae = MhGae::new(
            dataset.graph.feature_dim(),
            config.reconstruction_target,
            config.gae.clone(),
        );
        let anchors =
            select_anchor_nodes(&mhgae.fit(&dataset.graph).combined, config.anchor_fraction);
        let (candidates, _) = sample_candidate_groups(&dataset.graph, &anchors, &config.sampling);
        if candidates.is_empty() {
            progress(
                "fig6",
                format!("dataset={}: no candidate groups, skipping", dataset.name),
            );
            continue;
        }

        let mut rows = Vec::new();
        let entry = json.entry(dataset.name.clone()).or_default();
        for negative in augmentations {
            let mut row = vec![negative.label().to_string()];
            for positive in augmentations {
                progress(
                    "fig6",
                    format!(
                        "dataset={} negative={} positive={}",
                        dataset.name,
                        negative.label(),
                        positive.label()
                    ),
                );
                let mut tpgcl_config = config.tpgcl.clone();
                tpgcl_config.negative_augmentation = negative;
                tpgcl_config.positive_augmentation = positive;
                let mut tpgcl = Tpgcl::new(dataset.graph.feature_dim(), tpgcl_config);
                tpgcl.fit(&dataset.graph, &candidates);
                let embeddings = tpgcl.embed_groups(&dataset.graph, &candidates);
                let scores = Ecod::new().fit_score(&embeddings);
                let predicted = threshold_by_contamination(&scores, config.contamination);
                let report = evaluate_detection(
                    &candidates,
                    &scores,
                    &predicted,
                    &dataset.anomaly_groups,
                    config.match_jaccard,
                );
                row.push(format!("{:.3}", report.f1));
                entry.insert(
                    format!("{}/{}", negative.label(), positive.label()),
                    report.f1,
                );
            }
            rows.push(row);
        }
        let mut headers = vec!["neg \\ pos"];
        headers.extend(augmentations.iter().map(|a| a.label()));
        print_table(
            &format!(
                "Fig. 6: F1 by augmentation combination — {} ({:?} scale)",
                dataset.name, options.scale
            ),
            &headers,
            &rows,
        );
    }
    write_json(&options.out_dir, "fig6_augmentations.json", &json);
}
