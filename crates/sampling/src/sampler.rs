//! Implementation of the candidate-group sampler.

use std::collections::BTreeSet;

use grgad_graph::algorithms::{bounded_bfs_tree, cycles_through_budgeted, shortest_path};
use grgad_graph::{Graph, Group};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::cache::DrawCache;

/// Hyperparameters of Alg. 1.
///
/// Serde is hand-written (below) instead of derived for one reason: this
/// config is persisted inside saved `TrainedTpGrGad` models, and
/// `max_cycle_dfs_steps` was added after models already existed in the
/// wild — deserialization defaults it when the snapshot predates the field,
/// so old artifacts keep loading (same policy as the core config's
/// `num_threads`).
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// Depth bound `t` of the tree search.
    pub tree_depth: usize,
    /// Maximum number of nodes admitted into any candidate group.
    pub max_group_size: usize,
    /// Maximum length (in nodes) of cycles reported by the cycle search.
    pub max_cycle_len: usize,
    /// Maximum number of cycles enumerated per anchor node.
    pub max_cycles_per_anchor: usize,
    /// Maximum length (in nodes) of paths admitted as candidate groups.
    pub max_path_len: usize,
    /// Maximum number of anchor pairs examined (pairs are subsampled with a
    /// seeded RNG when the quadratic blow-up would exceed this bound).
    pub max_anchor_pairs: usize,
    /// Global cap on the number of candidate groups returned.
    pub max_groups: usize,
    /// Minimum group size (singletons are rarely meaningful groups).
    pub min_group_size: usize,
    /// Number of additional background reference groups sampled as BFS trees
    /// rooted at random non-anchor nodes. These give the downstream outlier
    /// detector a population of ordinary groups to contrast the anchor-based
    /// candidates against (implementation note in DESIGN.md §4).
    pub background_groups: usize,
    /// Work budget (edge extensions) for the per-anchor cycle DFS. The
    /// search is output-sensitive in the number of cycles, but around
    /// high-degree hubs (power-law graphs) the number of simple paths it
    /// must walk can explode even when few cycles exist; the budget bounds
    /// that. `usize::MAX` (the default) reproduces the unbudgeted search.
    pub max_cycle_dfs_steps: usize,
    /// RNG seed for pair subsampling.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            tree_depth: 2,
            max_group_size: 30,
            max_cycle_len: 10,
            max_cycles_per_anchor: 5,
            max_path_len: 12,
            max_anchor_pairs: 2000,
            max_groups: 1500,
            min_group_size: 2,
            background_groups: 200,
            max_cycle_dfs_steps: usize::MAX,
            seed: 0,
        }
    }
}

// Hand-written serde: every field round-trips, but `max_cycle_dfs_steps`
// tolerates snapshots written before it existed (see the struct-level doc).
impl serde::Serialize for SamplingConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("tree_depth".to_string(), self.tree_depth.to_value()),
            ("max_group_size".to_string(), self.max_group_size.to_value()),
            ("max_cycle_len".to_string(), self.max_cycle_len.to_value()),
            (
                "max_cycles_per_anchor".to_string(),
                self.max_cycles_per_anchor.to_value(),
            ),
            ("max_path_len".to_string(), self.max_path_len.to_value()),
            (
                "max_anchor_pairs".to_string(),
                self.max_anchor_pairs.to_value(),
            ),
            ("max_groups".to_string(), self.max_groups.to_value()),
            ("min_group_size".to_string(), self.min_group_size.to_value()),
            (
                "background_groups".to_string(),
                self.background_groups.to_value(),
            ),
            (
                "max_cycle_dfs_steps".to_string(),
                self.max_cycle_dfs_steps.to_value(),
            ),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl serde::Deserialize for SamplingConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        use serde::Deserialize;
        Ok(Self {
            tree_depth: Deserialize::from_value(value.field("tree_depth")?)?,
            max_group_size: Deserialize::from_value(value.field("max_group_size")?)?,
            max_cycle_len: Deserialize::from_value(value.field("max_cycle_len")?)?,
            max_cycles_per_anchor: Deserialize::from_value(value.field("max_cycles_per_anchor")?)?,
            max_path_len: Deserialize::from_value(value.field("max_path_len")?)?,
            max_anchor_pairs: Deserialize::from_value(value.field("max_anchor_pairs")?)?,
            max_groups: Deserialize::from_value(value.field("max_groups")?)?,
            min_group_size: Deserialize::from_value(value.field("min_group_size")?)?,
            background_groups: Deserialize::from_value(value.field("background_groups")?)?,
            // Added after saved models existed: default (the exact legacy
            // behaviour) when the snapshot predates the field.
            max_cycle_dfs_steps: match value.field("max_cycle_dfs_steps") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => usize::MAX,
            },
            seed: Deserialize::from_value(value.field("seed")?)?,
        })
    }
}

/// Book-keeping about what the sampler produced, useful for experiment logs.
#[derive(Clone, Debug, Default)]
pub struct SamplingStats {
    /// Number of groups discovered by the path search.
    pub from_paths: usize,
    /// Number of groups discovered by the tree search.
    pub from_trees: usize,
    /// Number of groups discovered by the cycle search.
    pub from_cycles: usize,
    /// Number of background reference groups added.
    pub from_background: usize,
    /// Number of exact-duplicate node sets discarded.
    pub duplicates_removed: usize,
    /// Number of anchor pairs examined.
    pub pairs_examined: usize,
}

/// Samples candidate anomaly groups from the anchors (Alg. 1): the
/// memoized sampler ([`sample_candidate_groups_cached`]) run on an empty
/// [`DrawCache`] that is dropped on return.
pub fn sample_candidate_groups(
    graph: &Graph,
    anchors: &[usize],
    config: &SamplingConfig,
) -> (Vec<Group>, SamplingStats) {
    sample_candidate_groups_cached(graph, anchors, config, &mut DrawCache::new())
}

/// Samples candidate anomaly groups from the anchors (Alg. 1), answering
/// each graph search from `cache` and memoizing misses. The searches never
/// consume the RNG, so the output is **bit-for-bit identical** whatever the
/// cache holds, as long as it has been [`DrawCache::prune`]d for every
/// topology change since its entries were recorded — the incremental
/// scoring path's contract (see `crate::cache`).
pub fn sample_candidate_groups_cached(
    graph: &Graph,
    anchors: &[usize],
    config: &SamplingConfig,
    cache: &mut DrawCache,
) -> (Vec<Group>, SamplingStats) {
    let mut stats = SamplingStats::default();
    let mut seen: BTreeSet<Group> = BTreeSet::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let push = |nodes: Vec<usize>,
                seen: &mut BTreeSet<Group>,
                groups: &mut Vec<Group>,
                stats: &mut SamplingStats,
                source: Source| {
        if nodes.len() < config.min_group_size || nodes.len() > config.max_group_size {
            return;
        }
        let group = Group::new(nodes);
        if seen.insert(group.clone()) {
            match source {
                Source::Path => stats.from_paths += 1,
                Source::Tree => stats.from_trees += 1,
                Source::Cycle => stats.from_cycles += 1,
                Source::Background => stats.from_background += 1,
            }
            groups.push(group);
        } else {
            stats.duplicates_removed += 1;
        }
    };

    // Ordered anchor pairs, subsampled when quadratic growth is too large.
    //
    // Two regimes share one seed: below `PAIR_MATERIALIZE_CUTOFF` the full
    // pair list is materialized and shuffled (the historical behaviour,
    // kept bit-for-bit for every existing workload); above it — e.g. 10k
    // anchors on a 100k-node graph would mean 10⁸ pairs and gigabytes of
    // memory — distinct pairs are drawn directly from the seeded RNG in
    // O(max_anchor_pairs) space.
    const PAIR_MATERIALIZE_CUTOFF: usize = 1_000_000;
    let total_pairs = anchors
        .len()
        .saturating_mul(anchors.len().saturating_sub(1));
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    if total_pairs > PAIR_MATERIALIZE_CUTOFF && total_pairs > config.max_anchor_pairs {
        let mut drawn: BTreeSet<(usize, usize)> = BTreeSet::new();
        while pairs.len() < config.max_anchor_pairs {
            let i = rng.gen_range(0..anchors.len());
            let j = rng.gen_range(0..anchors.len());
            if i != j && drawn.insert((i, j)) {
                pairs.push((anchors[i], anchors[j]));
            }
        }
    } else {
        for &v in anchors {
            for &mu in anchors {
                if v != mu {
                    pairs.push((v, mu));
                }
            }
        }
        if pairs.len() > config.max_anchor_pairs {
            pairs.shuffle(&mut rng);
            pairs.truncate(config.max_anchor_pairs);
        }
    }
    stats.pairs_examined = pairs.len();

    for &(v, mu) in &pairs {
        if groups.len() >= config.max_groups {
            break;
        }
        // Path search (Line 5 of Alg. 1).
        if let Some(path) = cache.path_entry((v, mu), || shortest_path(graph, v, mu)) {
            if path.len() <= config.max_path_len {
                push(path, &mut seen, &mut groups, &mut stats, Source::Path);
            }
        }
        // Tree search (Line 7 of Alg. 1): depth-bounded BFS tree from v.
        let tree = cache.tree_entry(v, || tree_search(graph, v, config));
        push(tree, &mut seen, &mut groups, &mut stats, Source::Tree);
    }

    // Cycle search per anchor (Line 10 of Alg. 1).
    for &v in anchors {
        if groups.len() >= config.max_groups {
            break;
        }
        let cycles = cache.cycles_entry(v, || {
            cycles_through_budgeted(
                graph,
                v,
                config.max_cycle_len,
                config.max_cycles_per_anchor,
                config.max_cycle_dfs_steps,
            )
        });
        for cycle in cycles {
            push(cycle, &mut seen, &mut groups, &mut stats, Source::Cycle);
        }
    }

    // Background reference groups: BFS trees rooted at random non-anchor
    // nodes, giving the outlier detector a baseline population of ordinary
    // neighbourhood groups.
    if config.background_groups > 0 && !anchors.is_empty() && graph.num_nodes() > anchors.len() {
        let anchor_set: BTreeSet<usize> = anchors.iter().copied().collect();
        let mut non_anchors: Vec<usize> = (0..graph.num_nodes())
            .filter(|v| !anchor_set.contains(v))
            .collect();
        non_anchors.shuffle(&mut rng);
        for &root in non_anchors.iter().take(config.background_groups) {
            let tree = cache.tree_entry(root, || tree_search(graph, root, config));
            push(tree, &mut seen, &mut groups, &mut stats, Source::Background);
        }
    }

    groups.truncate(config.max_groups);
    (groups, stats)
}

/// The depth-bounded BFS tree of the tree and background searches.
fn tree_search(graph: &Graph, root: usize, config: &SamplingConfig) -> Vec<usize> {
    bounded_bfs_tree(graph, root, config.tree_depth, config.max_group_size)
}

enum Source {
    Path,
    Tree,
    Cycle,
    Background,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph with a path region, a star (tree) region and a cycle region.
    fn structured_graph() -> Graph {
        let mut g = Graph::with_no_features(20);
        // path: 0-1-2-3-4
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        // star: 5 is hub for 6..10
        for v in 6..=10 {
            g.add_edge(5, v);
        }
        // cycle: 11-12-13-14-11
        g.add_edge(11, 12);
        g.add_edge(12, 13);
        g.add_edge(13, 14);
        g.add_edge(14, 11);
        // connect regions loosely
        g.add_edge(4, 5);
        g.add_edge(10, 11);
        g
    }

    #[test]
    fn finds_path_tree_and_cycle_groups() {
        let g = structured_graph();
        let anchors = vec![0, 4, 5, 11, 13];
        let (groups, stats) = sample_candidate_groups(&g, &anchors, &SamplingConfig::default());
        assert!(!groups.is_empty());
        assert!(stats.from_paths > 0, "expected path groups: {stats:?}");
        assert!(stats.from_trees > 0, "expected tree groups: {stats:?}");
        // The 4-cycle must appear as a candidate (regardless of which search
        // discovered it first).
        let cycle_group = Group::new(vec![11, 12, 13, 14]);
        assert!(groups.contains(&cycle_group));
    }

    #[test]
    fn cycle_search_contributes_when_trees_cannot_cover_the_cycle() {
        // A 6-cycle: with tree depth 1 the BFS trees only see stars of size 3,
        // so only the cycle search can produce the full ring.
        let mut g = Graph::with_no_features(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        let config = SamplingConfig {
            tree_depth: 1,
            ..Default::default()
        };
        let (groups, stats) = sample_candidate_groups(&g, &[0], &config);
        assert!(stats.from_cycles > 0, "expected cycle groups: {stats:?}");
        assert!(groups.contains(&Group::new(0..6)));
    }

    #[test]
    fn no_duplicate_groups() {
        let g = structured_graph();
        let anchors = vec![0, 1, 2, 3, 4];
        let (groups, _) = sample_candidate_groups(&g, &anchors, &SamplingConfig::default());
        let unique: BTreeSet<&Group> = groups.iter().collect();
        assert_eq!(unique.len(), groups.len());
    }

    #[test]
    fn respects_group_size_bounds() {
        let g = structured_graph();
        let anchors = vec![0, 4, 5, 11];
        let config = SamplingConfig {
            max_group_size: 4,
            min_group_size: 3,
            ..Default::default()
        };
        let (groups, _) = sample_candidate_groups(&g, &anchors, &config);
        assert!(groups.iter().all(|g| g.len() >= 3 && g.len() <= 4));
    }

    #[test]
    fn respects_global_group_cap() {
        let g = structured_graph();
        let anchors: Vec<usize> = (0..15).collect();
        let config = SamplingConfig {
            max_groups: 5,
            ..Default::default()
        };
        let (groups, _) = sample_candidate_groups(&g, &anchors, &config);
        assert!(groups.len() <= 5);
    }

    #[test]
    fn pair_subsampling_bounds_work() {
        let g = structured_graph();
        let anchors: Vec<usize> = (0..15).collect();
        let config = SamplingConfig {
            max_anchor_pairs: 10,
            ..Default::default()
        };
        let (_, stats) = sample_candidate_groups(&g, &anchors, &config);
        assert_eq!(stats.pairs_examined, 10);
    }

    #[test]
    fn empty_anchors_give_empty_output() {
        let g = structured_graph();
        let (groups, stats) = sample_candidate_groups(&g, &[], &SamplingConfig::default());
        assert!(groups.is_empty());
        assert_eq!(stats.pairs_examined, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = structured_graph();
        let anchors: Vec<usize> = (0..12).collect();
        let config = SamplingConfig {
            max_anchor_pairs: 20,
            seed: 99,
            ..Default::default()
        };
        let (a, _) = sample_candidate_groups(&g, &anchors, &config);
        let (b, _) = sample_candidate_groups(&g, &anchors, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn config_serde_round_trips_and_loads_legacy_snapshots() {
        use serde::{Deserialize, Serialize};

        let config = SamplingConfig {
            max_cycle_dfs_steps: 12_345,
            seed: 9,
            ..Default::default()
        };
        let back = SamplingConfig::from_value(&config.to_value()).unwrap();
        assert_eq!(back.max_cycle_dfs_steps, 12_345);
        assert_eq!(back.seed, 9);
        assert_eq!(back.max_groups, config.max_groups);

        // A snapshot written before `max_cycle_dfs_steps` existed (e.g. a
        // saved TrainedTpGrGad model from an older build) must keep loading,
        // with the field defaulting to the exact legacy behaviour.
        let mut legacy = config.to_value();
        if let serde::Value::Map(entries) = &mut legacy {
            entries.retain(|(k, _)| k != "max_cycle_dfs_steps");
        }
        let loaded = SamplingConfig::from_value(&legacy).unwrap();
        assert_eq!(loaded.max_cycle_dfs_steps, usize::MAX);
        assert_eq!(loaded.seed, 9);
    }

    /// The cached sampler must reproduce the fresh sampler bit-for-bit
    /// across randomized delta rounds, provided the cache is pruned for
    /// every topology change — the incremental scoring contract.
    #[test]
    fn cached_sampler_is_bit_identical_across_delta_rounds() {
        use crate::cache::DrawCache;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let n = 60;
        let mut g = Graph::with_no_features(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        for i in (0..n).step_by(7) {
            g.add_edge(i, (i + 13) % n);
        }
        let config = SamplingConfig {
            max_anchor_pairs: 60,
            max_groups: 300,
            background_groups: 10,
            seed: 21,
            ..Default::default()
        };
        let mut cache = DrawCache::new();
        let mut rng = StdRng::seed_from_u64(5);

        for round in 0..6 {
            // Anchors drift between rounds, as real re-localization would.
            let anchors: Vec<usize> = (0..8).map(|_| rng.gen_range(0..g.num_nodes())).collect();
            let anchors: Vec<usize> = {
                let set: BTreeSet<usize> = anchors.into_iter().collect();
                set.into_iter().collect()
            };

            let (fresh, fresh_stats) = sample_candidate_groups(&g, &anchors, &config);
            let (cached, cached_stats) =
                sample_candidate_groups_cached(&g, &anchors, &config, &mut cache);
            assert_eq!(fresh, cached, "round {round}");
            assert_eq!(fresh_stats.from_paths, cached_stats.from_paths);
            assert_eq!(fresh_stats.from_trees, cached_stats.from_trees);
            assert_eq!(fresh_stats.from_cycles, cached_stats.from_cycles);
            assert_eq!(fresh_stats.from_background, cached_stats.from_background);

            // Mutate a few edges and prune the cache for exactly those
            // endpoints.
            let mut dirty = BTreeSet::new();
            for _ in 0..2 {
                let u = rng.gen_range(0..g.num_nodes());
                let v = rng.gen_range(0..g.num_nodes());
                let changed = if g.has_edge(u, v) {
                    g.try_remove_edge(u, v).expect("in range")
                } else {
                    g.try_add_edge(u, v).expect("in range")
                };
                if changed {
                    dirty.insert(u);
                    dirty.insert(v);
                }
            }
            cache.prune(&g, &dirty, &config);
        }
        assert!(cache.hits() > 0, "repeat rounds must reuse draws");
    }

    #[test]
    fn huge_anchor_sets_sample_pairs_without_materializing_the_square() {
        // 1100 anchors → ~1.2M ordered pairs, past the materialization
        // cutoff: pairs must be drawn directly, stay within the budget, and
        // remain deterministic for a fixed seed.
        let n = 1_100;
        let mut g = Graph::with_no_features(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        let anchors: Vec<usize> = (0..n).collect();
        let config = SamplingConfig {
            max_anchor_pairs: 50,
            max_groups: 200,
            background_groups: 0,
            seed: 7,
            ..Default::default()
        };
        let (a, stats) = sample_candidate_groups(&g, &anchors, &config);
        assert_eq!(stats.pairs_examined, 50);
        assert!(!a.is_empty());
        let (b, _) = sample_candidate_groups(&g, &anchors, &config);
        assert_eq!(a, b);
    }
}
