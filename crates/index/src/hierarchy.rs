//! The ε-hierarchy for one μ (SCOT/gSkeletonClu-style, the paper's related
//! work [20, 21]), read straight off the index: `v` is a core at (ε, μ) iff
//! `cθ_μ(v) ≥ ε`, and adjacent cores `u, v` are density-connected once
//! `ε ≤ min(σ(u,v), cθ_μ(u), cθ_μ(v))`, the edge's **merge threshold**.
//! Replaying the merges with threshold ≥ ε through a union-find yields
//! SCAN's partition of the cores at ε, the one [`SimilarityIndex::query`]
//! answers.

use anyscan_graph::VertexId;

use crate::SimilarityIndex;

/// One dendrogram merge event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeEvent {
    /// Largest ε at which the merge is active.
    pub epsilon: f64,
    /// The edge that creates the connection (`u < v`).
    pub u: VertexId,
    pub v: VertexId,
}

impl SimilarityIndex {
    /// Every merge event of the μ hierarchy: one per edge `u < v` whose
    /// endpoints are both in the μ core order, sorted by descending ε with
    /// ties broken by ascending `(u, v)`. Empty when `μ` is 0 or exceeds
    /// [`mu_max`](SimilarityIndex::mu_max).
    pub fn merge_events(&self, mu: usize) -> Vec<MergeEvent> {
        if !(1..=self.mu_max()).contains(&mu) {
            return Vec::new();
        }
        let (verts, ths) = self.core_order(mu);
        let mut theta: Vec<Option<f64>> = vec![None; self.num_vertices()];
        for (&v, &t) in verts.iter().zip(ths) {
            theta[v as usize] = Some(t);
        }
        let mut merges = Vec::new();
        for (&u, &tu) in verts.iter().zip(ths) {
            let (nbrs, sigs) = self.neighbor_order(u);
            for (&v, &s) in nbrs.iter().zip(sigs) {
                if v <= u {
                    continue;
                }
                if let Some(tv) = theta[v as usize] {
                    merges.push(MergeEvent {
                        epsilon: s.min(tu).min(tv),
                        u,
                        v,
                    });
                }
            }
        }
        merges.sort_unstable_by(|a, b| {
            b.epsilon
                .total_cmp(&a.epsilon)
                .then(a.u.cmp(&b.u))
                .then(a.v.cmp(&b.v))
        });
        merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_dsu::DsuSeq;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::{CsrGraph, GraphBuilder};
    use anyscan_scan_common::{Clustering, Role, ScanParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    type Partition = BTreeSet<BTreeSet<VertexId>>;

    fn bridged_triangles() -> CsrGraph {
        GraphBuilder::from_unweighted_edges(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap()
    }

    fn group(members: impl Iterator<Item = (u32, VertexId)>) -> Partition {
        let mut by_label: BTreeMap<u32, BTreeSet<VertexId>> = BTreeMap::new();
        for (label, v) in members {
            by_label.entry(label).or_default().insert(v);
        }
        by_label.into_values().collect()
    }

    /// The core partition at `eps` from the core order and merges alone.
    fn replayed(idx: &SimilarityIndex, merges: &[MergeEvent], mu: usize, eps: f64) -> Partition {
        if mu > idx.mu_max() {
            return Partition::new();
        }
        let mut dsu = DsuSeq::new(idx.num_vertices());
        for m in merges.iter().take_while(|m| m.epsilon >= eps) {
            dsu.union(m.u, m.v);
        }
        let (verts, ths) = idx.core_order(mu);
        let cores = &verts[..ths.partition_point(|&t| t >= eps)];
        group(cores.iter().map(|&c| (dsu.find(c), c)))
    }

    fn core_partition(c: &Clustering) -> Partition {
        group(
            (0..c.labels.len() as VertexId)
                .filter(|&v| c.roles[v as usize] == Role::Core)
                .map(|v| (c.labels[v as usize], v)),
        )
    }

    #[test]
    fn core_thresholds_are_sensible() {
        let g = bridged_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        // Triangle-corner vertices stay cores up to high ε; with μ=3 the
        // threshold is the 3rd largest of {1, σ…} > 0.5 here.
        let (verts, ths) = idx.core_order(3);
        assert_eq!(verts.len(), 6);
        for (&v, &t) in verts.iter().zip(ths) {
            assert!(t > 0.5 && t <= 1.0, "v={v}: {t}");
        }
        // μ larger than any closed degree ⇒ never a core, nothing merges.
        assert!(idx.mu_max() < 10);
        assert!(idx.merge_events(10).is_empty());
        assert!(idx.merge_events(0).is_empty());
    }

    #[test]
    fn merges_are_sorted_descending() {
        let mut rng = StdRng::seed_from_u64(90);
        let g = erdos_renyi(&mut rng, 120, 900, WeightModel::Unit);
        let idx = SimilarityIndex::build(&g, 1);
        let merges = idx.merge_events(3);
        assert!(!merges.is_empty() && merges.iter().all(|m| m.u < m.v));
        for w in merges.windows(2) {
            assert!(w[0].epsilon >= w[1].epsilon);
            if w[0].epsilon == w[1].epsilon {
                assert!((w[0].u, w[0].v) < (w[1].u, w[1].v), "ties by (u, v)");
            }
        }
    }

    #[test]
    fn cut_matches_full_algorithms_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(91);
        let g = erdos_renyi(&mut rng, 180, 1_400, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 2);
        for mu in [2usize, 5] {
            let merges = idx.merge_events(mu);
            for eps in [0.25, 0.45, 0.65, 0.85] {
                let truth = anyscan_baselines::scan(&g, ScanParams::new(eps, mu)).clustering;
                assert_eq!(
                    replayed(&idx, &merges, mu, eps),
                    core_partition(&truth),
                    "μ={mu} ε={eps}"
                );
            }
        }
    }

    #[test]
    fn replayed_merges_give_the_query_core_partition() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(300 + seed);
            let g = erdos_renyi(&mut rng, 150, 1_100, WeightModel::uniform_default());
            let idx = SimilarityIndex::build(&g, 2);
            for mu in [1usize, 2, 3, 5, 8, idx.mu_max() + 1] {
                let merges = idx.merge_events(mu);
                for eps in (1..=19).map(|i| i as f64 / 20.0) {
                    let answer = idx.query(&g, ScanParams::new(eps, mu));
                    assert_eq!(
                        replayed(&idx, &merges, mu, eps),
                        core_partition(&answer),
                        "seed={seed} μ={mu} ε={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_counts_match_individual_cuts() {
        let mut rng = StdRng::seed_from_u64(92);
        let g = erdos_renyi(&mut rng, 120, 900, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 1);
        let merges = idx.merge_events(4);
        // Deliberately unsorted query order.
        for eps in [0.6, 0.2, 0.8, 0.4] {
            assert_eq!(
                replayed(&idx, &merges, 4, eps).len(),
                idx.query(&g, ScanParams::new(eps, 4)).num_clusters(),
                "eps {eps}"
            );
        }
    }

    #[test]
    fn cluster_count_evolution_on_known_graph() {
        let g = bridged_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let merges = idx.merge_events(3);
        assert_eq!(replayed(&idx, &merges, 3, 0.2).len(), 1);
        assert_eq!(replayed(&idx, &merges, 3, 0.7).len(), 2);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = GraphBuilder::new(0).build();
        let idx = SimilarityIndex::build(&g, 1);
        assert!(idx.merge_events(3).is_empty());
        assert_eq!(idx.query(&g, ScanParams::new(0.5, 3)).len(), 0);

        let g = GraphBuilder::new(1).build();
        let idx = SimilarityIndex::build(&g, 1);
        // A lone vertex with μ=1 is a core (its closed neighborhood is {v}).
        assert_eq!(idx.core_order(1).1, &[1.0]);
        assert!(idx.merge_events(1).is_empty());
        assert_eq!(idx.query(&g, ScanParams::new(0.9, 1)).num_clusters(), 1);
    }
}
