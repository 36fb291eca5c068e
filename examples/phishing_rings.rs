//! Phishing-ring detection on the Ethereum-style transaction graph, with a
//! stage-by-stage walk through the pipeline's public API.
//!
//! ```text
//! cargo run --release --example phishing_rings
//! ```
//!
//! Instead of calling the all-in-one [`TpGrGad`] detector, this example drives
//! the four stages manually — MH-GAE anchors, Alg. 1 sampling, TPGCL
//! embeddings, ECOD scoring — which is the API you would use to swap out or
//! instrument a single stage.

use tp_grgad::prelude::*;

fn main() {
    let dataset = datasets::ethereum::generate(DatasetScale::Small, 9);
    println!(
        "Ethereum-TSGN: {} accounts, {} transactions, {} phishing groups",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.anomaly_groups.len()
    );

    // Stage 1 — anchor localization with MH-GAE (GraphSNN Ã target).
    let gae_config = GaeConfig {
        hidden_dim: 32,
        embed_dim: 16,
        epochs: 80,
        ..GaeConfig::default()
    };
    let mut mhgae = MhGae::new(
        dataset.graph.feature_dim(),
        ReconstructionTarget::GraphSnn { lambda: 1.0 },
        gae_config,
    );
    let errors = mhgae.fit(&dataset.graph);
    let anchors = select_anchor_nodes(&errors.combined, 0.1);
    let loss = mhgae.gae().loss_history().last().copied().unwrap_or(0.0);
    let anomalous = dataset.anomalous_nodes();
    let hits = anchors.iter().filter(|v| anomalous.contains(v)).count();
    println!(
        "stage 1: MH-GAE final loss {loss:.4}, {} anchors ({} inside true phishing groups)",
        anchors.len(),
        hits
    );

    // Stage 2 — candidate group sampling (Alg. 1).
    let sampling = SamplingConfig::default();
    let (candidates, stats) = sample_candidate_groups(&dataset.graph, &anchors, &sampling);
    println!(
        "stage 2: {} candidate groups (paths {}, trees {}, cycles {}, background {})",
        candidates.len(),
        stats.from_paths,
        stats.from_trees,
        stats.from_cycles,
        stats.from_background
    );

    // Stage 3 — TPGCL contrastive embeddings (PPA vs PBA views).
    let tpgcl_config = TpgclConfig {
        hidden_dim: 32,
        embed_dim: 32,
        mine_hidden_dim: 32,
        epochs: 25,
        ..TpgclConfig::default()
    };
    let mut tpgcl = Tpgcl::new(dataset.graph.feature_dim(), tpgcl_config);
    let contrastive_loss = tpgcl.fit(&dataset.graph, &candidates);
    let embeddings = tpgcl.embed_groups(&dataset.graph, &candidates);
    println!(
        "stage 3: TPGCL loss {contrastive_loss:.4}, embeddings {}x{}",
        embeddings.rows(),
        embeddings.cols()
    );

    // Stage 4 — ECOD outlier scoring of the group embeddings.
    let scores = Ecod::new().fit_score(&embeddings);
    let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("stage 4: top 5 groups by ECOD score:");
    for (idx, score) in ranked.into_iter().take(5) {
        let group = &candidates[idx];
        let matches_truth = dataset
            .anomaly_groups
            .iter()
            .any(|g| g.jaccard(group) >= 0.5);
        println!(
            "  score {score:7.2}  size {:2}  matches ground truth: {}",
            group.len(),
            matches_truth
        );
    }
}
