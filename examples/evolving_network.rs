//! Clustering an evolving network: pick ε from a similarity index up front,
//! then keep that index exact while edges churn (the DENGRAPH-style
//! incremental extension) and re-cluster from it at any time.
//!
//! Run with: `cargo run --release -p anyscan --example evolving_network`

use anyscan::Telemetry;
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate};
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams, WeightModel};
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::ScanParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Updates per `apply_batch` call.
const BATCH: u32 = 100;

fn main() {
    // A social network with 8 planted communities.
    let mut rng = StdRng::seed_from_u64(31);
    let (csr, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 1_200,
            num_communities: 8,
            p_in: 0.4,
            p_out: 0.005,
            weights: WeightModel::CommunityCorrelated,
        },
    );
    println!(
        "initial network: {} vertices, {} edges",
        csr.num_vertices(),
        csr.num_edges()
    );

    // 1. Pick ε with the index (one similarity pass, every ε answered).
    let idx = SimilarityIndex::build(&csr, 1);
    let grid: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let counts: Vec<usize> = grid
        .iter()
        .map(|&e| idx.query(&csr, ScanParams::new(e, 5)).num_clusters())
        .collect();
    for (e, c) in grid.iter().zip(&counts) {
        println!("  eps {e:.1} -> {c} clusters");
    }
    // Choose the first ε that recovers the 8 planted communities.
    let eps = grid
        .iter()
        .zip(&counts)
        .filter(|&(_, &c)| c == 8)
        .map(|(&e, _)| e)
        .next()
        .unwrap_or(0.4);
    println!("chosen eps = {eps} (mu = 5)\n");

    // 2. Go dynamic on the same index: churn 2000 random edge updates
    // through it in batches, repairing only what each batch can change.
    let params = ScanParams::new(eps, 5);
    let mut dynamic = DynamicIndex::from_parts(&csr, idx, 1).expect("index matches its graph");
    println!("t=0: {} clusters", dynamic.query(params).num_clusters());

    let n = csr.num_vertices() as u32;
    let telemetry = Telemetry::disabled();
    let start = Instant::now();
    let (mut seq, mut reevals, mut batches) = (0u64, 0u64, 0u64);
    let mut batch = Vec::new();
    for step in 1..=2_000u32 {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            let op = if rng.gen_bool(0.55) {
                EdgeOp::Insert(rng.gen_range(0.3..1.0))
            } else {
                EdgeOp::Remove
            };
            seq += 1;
            batch.push(EdgeUpdate { seq, u, v, op });
        }
        if step.is_multiple_of(BATCH) {
            let stats = dynamic
                .apply_batch(&batch, &telemetry)
                .expect("valid batch");
            reevals += stats.sigma_reevals;
            batches += 1;
            batch.clear();
        }
        if step % 500 == 0 {
            let c = dynamic.query(params);
            let rc = c.role_counts();
            println!(
                "t={step}: {} clusters, {} cores, {} hubs (edges {})",
                c.num_clusters(),
                rc.cores,
                rc.hubs,
                dynamic.graph().num_edges()
            );
        }
    }
    println!(
        "\n2000 updates in {:?}: {} σ re-evaluations over {} batches (~{:.1} per update; a \
         from-scratch rebuild would pay ~{} per batch)",
        start.elapsed(),
        reevals,
        batches,
        reevals as f64 / 2_000.0,
        dynamic.graph().num_edges()
    );
}
