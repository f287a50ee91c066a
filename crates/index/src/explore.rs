//! Parameter exploration: one index build, then one [`SimilarityIndex::query`]
//! per (ε, μ) grid point, with no σ ever evaluated again.
//!
//! ```
//! use anyscan_graph::GraphBuilder;
//! use anyscan_index::SimilarityIndex;
//! use anyscan_scan_common::ScanParams;
//!
//! // Two triangles joined by a bridge edge (2-3).
//! let g = GraphBuilder::from_unweighted_edges(
//!     6,
//!     vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
//! ).unwrap();
//! let idx = SimilarityIndex::build(&g, 1);
//! // Low ε: the bridge merges everything.
//! assert_eq!(idx.summarize(&g, ScanParams::new(0.2, 3)).clusters, 1);
//! // High ε: the two triangles.
//! assert_eq!(idx.summarize(&g, ScanParams::new(0.7, 3)).clusters, 2);
//! ```

use anyscan_graph::CsrGraph;
use anyscan_scan_common::ScanParams;

use crate::SimilarityIndex;

/// Summary of the clustering at one (ε, μ) grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    pub epsilon: f64,
    pub mu: usize,
    pub clusters: usize,
    pub cores: usize,
    pub borders: usize,
    pub noise: usize,
    /// Size of the largest cluster (0 if none).
    pub largest_cluster: usize,
}

impl SimilarityIndex {
    /// Summarizes the clustering [`SimilarityIndex::query`] answers at
    /// `params`.
    pub fn summarize(&self, g: &CsrGraph, params: ScanParams) -> SweepPoint {
        let c = self.query(g, params);
        let rc = c.role_counts();
        SweepPoint {
            epsilon: params.epsilon,
            mu: params.mu,
            clusters: c.num_clusters(),
            cores: rc.cores,
            borders: rc.borders,
            noise: rc.noise(),
            largest_cluster: c.cluster_sizes().values().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_unweighted_edges(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn sweep_finds_the_cluster_structure() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        assert_eq!(idx.num_edges(), 7);
        let pts: Vec<SweepPoint> = [0.2, 0.7, 0.99]
            .iter()
            .map(|&eps| idx.summarize(&g, ScanParams::new(eps, 3)))
            .collect();
        assert_eq!(pts[0].clusters, 1, "low ε merges everything");
        assert_eq!(pts[1].clusters, 2, "the two triangles");
        // At ε ≈ 1 only perfectly-overlapping neighborhoods survive.
        assert!(pts[2].clusters <= 2);
        // Monotonicity: cores can only shrink as ε grows.
        assert!(pts[0].cores >= pts[1].cores && pts[1].cores >= pts[2].cores);
    }

    #[test]
    fn sweep_mu_shrinks_cores() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let pts: Vec<SweepPoint> = [1, 3, 5]
            .iter()
            .map(|&mu| idx.summarize(&g, ScanParams::new(0.7, mu)))
            .collect();
        assert!(pts[0].cores >= pts[1].cores && pts[1].cores >= pts[2].cores);
    }

    #[test]
    fn explorer_clustering_matches_full_algorithms() {
        // Cluster count and role counts are border-tie invariant, so every
        // column but `largest_cluster` must equal the SCAN baseline's.
        let mut rng = StdRng::seed_from_u64(880);
        let g = erdos_renyi(&mut rng, 200, 1_400, WeightModel::uniform_default());
        for threads in [1usize, 4] {
            let idx = SimilarityIndex::build(&g, threads);
            for eps in [0.3, 0.5, 0.7] {
                for mu in [2usize, 5] {
                    let params = ScanParams::new(eps, mu);
                    let truth = anyscan_baselines::scan(&g, params).clustering;
                    let rc = truth.role_counts();
                    let p = idx.summarize(&g, params);
                    assert_eq!(
                        (p.clusters, p.cores, p.borders, p.noise),
                        (truth.num_clusters(), rc.cores, rc.borders, rc.noise()),
                        "ε={eps} μ={mu} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let idx = SimilarityIndex::build(&g, 2);
        assert_eq!(idx.num_edges(), 0);
        let p = idx.summarize(&g, ScanParams::paper_defaults());
        assert_eq!(p.clusters, 0);
        assert_eq!(p.largest_cluster, 0);
    }
}
