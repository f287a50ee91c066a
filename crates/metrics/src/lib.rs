//! Clustering-agreement metrics.
//!
//! The paper scores intermediate anytime results against SCAN's final result
//! with NMI [18], "defined as the geometric mean of shared information
//! between the clustering result C and the ground truth T", with noise
//! treated as one special cluster. [`nmi`] implements exactly that
//! normalization; [`adjusted_rand_index`], [`purity`] and [`pair_f1`] are
//! companion metrics used by the examples and tests.
//!
//! All metrics take two dense label slices of equal length; labels are
//! arbitrary `u32`s (callers map noise into a synthetic cluster first, e.g.
//! via `Clustering::labels_with_noise_cluster`).

pub mod contingency;
pub mod modularity;

pub use contingency::ContingencyTable;
pub use modularity::modularity;

/// Normalized mutual information with geometric-mean normalization:
/// `NMI(X,Y) = I(X;Y) / sqrt(H(X)·H(Y))`, in `[0, 1]`; 1 iff the partitions
/// are identical (up to relabeling).
///
/// Degenerate cases: two identical single-cluster partitions score 1; if
/// exactly one side is a single cluster (zero entropy) the score is 0.
pub fn nmi(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label slices must align");
    if a.is_empty() {
        return 1.0;
    }
    let t = ContingencyTable::new(a, b);
    let (hx, hy) = (t.entropy_rows(), t.entropy_cols());
    if hx == 0.0 && hy == 0.0 {
        return 1.0; // both trivial partitions — and identical by construction
    }
    if hx == 0.0 || hy == 0.0 {
        return 0.0;
    }
    (t.mutual_information() / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

/// Adjusted Rand index (Hubert–Arabie): 1 for identical partitions, ~0 for
/// independent ones, can be negative for adversarial ones.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label slices must align");
    let n = a.len();
    if n <= 1 {
        return 1.0;
    }
    let t = ContingencyTable::new(a, b);
    let choose2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let sum_ij: f64 = t.cells().map(|(_, _, c)| choose2(c)).sum();
    let sum_a: f64 = t.row_sums().iter().map(|&c| choose2(c)).sum();
    let sum_b: f64 = t.col_sums().iter().map(|&c| choose2(c)).sum();
    let total = choose2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0; // both partitions trivial in the same way
    }
    (sum_ij - expected) / (max_index - expected)
}

/// Purity of `a` against ground truth `b`: each cluster of `a` votes for its
/// dominant `b`-class; in `(0, 1]`.
pub fn purity(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label slices must align");
    if a.is_empty() {
        return 1.0;
    }
    let t = ContingencyTable::new(a, b);
    let mut correct = 0u64;
    for row in 0..t.num_rows() {
        correct += t.row(row).iter().map(|&(_, c)| c).max().unwrap_or(0);
    }
    correct as f64 / a.len() as f64
}

/// Pair-counting F1: precision/recall over the set of same-cluster pairs.
pub fn pair_f1(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label slices must align");
    let t = ContingencyTable::new(a, b);
    let choose2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let tp: f64 = t.cells().map(|(_, _, c)| choose2(c)).sum();
    let pairs_a: f64 = t.row_sums().iter().map(|&c| choose2(c)).sum();
    let pairs_b: f64 = t.col_sums().iter().map(|&c| choose2(c)).sum();
    if pairs_a == 0.0 && pairs_b == 0.0 {
        return 1.0; // both all-singletons
    }
    if tp == 0.0 {
        return 0.0;
    }
    let precision = tp / pairs_a;
    let recall = tp / pairs_b;
    2.0 * precision * recall / (precision + recall)
}

/// Pair-counting precision and recall of a prediction against a ground
/// truth: over the set of same-cluster vertex pairs, precision = the
/// fraction of `pred`'s pairs that `truth` also co-clusters, recall = the
/// fraction of `truth`'s pairs that `pred` recovers (the two components
/// [`pair_f1`] combines). A side with no co-clustered pairs scores 1.0 on
/// its own ratio (nothing claimed / nothing to recover).
pub fn pair_precision_recall(pred: &[u32], truth: &[u32]) -> (f64, f64) {
    assert_eq!(pred.len(), truth.len(), "label slices must align");
    let t = ContingencyTable::new(pred, truth);
    let choose2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let tp: f64 = t.cells().map(|(_, _, c)| choose2(c)).sum();
    let pairs_pred: f64 = t.row_sums().iter().map(|&c| choose2(c)).sum();
    let pairs_truth: f64 = t.col_sums().iter().map(|&c| choose2(c)).sum();
    let precision = if pairs_pred == 0.0 {
        1.0
    } else {
        tp / pairs_pred
    };
    let recall = if pairs_truth == 0.0 {
        1.0
    } else {
        tp / pairs_truth
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
        assert!((purity(&a, &a) - 1.0).abs() < 1e-12);
        assert!((pair_f1(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeling_is_invisible() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![5, 5, 9, 9, 7, 7];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_are_directional() {
        // pred splits truth's one cluster of 4 into two pairs: every pred
        // pair is correct (precision 1) but only 2 of 6 truth pairs are
        // recovered (recall 1/3).
        let pred = vec![0, 0, 1, 1];
        let truth = vec![0, 0, 0, 0];
        let (p, r) = pair_precision_recall(&pred, &truth);
        assert!((p - 1.0).abs() < 1e-12);
        assert!((r - 2.0 / 6.0).abs() < 1e-12);
        // Swapped roles flip the two numbers.
        let (p, r) = pair_precision_recall(&truth, &pred);
        assert!((p - 2.0 / 6.0).abs() < 1e-12);
        assert!((r - 1.0).abs() < 1e-12);
        // All-singleton prediction: nothing claimed, nothing recovered.
        let single = vec![0, 1, 2, 3];
        let (p, r) = pair_precision_recall(&single, &truth);
        assert!((p - 1.0).abs() < 1e-12);
        assert!(r.abs() < 1e-12);
    }

    #[test]
    fn orthogonal_partitions_score_low() {
        // a splits front/back, b splits even/odd — independent.
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&a, &b) < 0.01);
        // ARI is zero only in expectation over permutations; this particular
        // pairing lands slightly negative.
        assert!(adjusted_rand_index(&a, &b) < 0.05);
    }

    #[test]
    fn partial_agreement_is_between() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 1];
        let s = nmi(&a, &b);
        assert!(s > 0.2 && s < 0.95, "nmi = {s}");
        let r = adjusted_rand_index(&a, &b);
        assert!(r > 0.1 && r < 0.95, "ari = {r}");
    }

    #[test]
    fn known_nmi_value() {
        // Hand-computed 2x2 example: n=4, a=[0,0,1,1], b=[0,1,1,1].
        // P(a=0)=1/2, P(b=0)=1/4; cells: (0,0)=1,(0,1)=1,(1,1)=2.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 1, 1];
        let ln = |x: f64| x.ln();
        let i = 0.25 * ln(0.25 / (0.5 * 0.25))
            + 0.25 * ln(0.25 / (0.5 * 0.75))
            + 0.5 * ln(0.5 / (0.5 * 0.75));
        let hx = -(0.5f64.ln());
        let hy = -(0.25 * ln(0.25) + 0.75 * ln(0.75));
        let expect = i / (hx * hy).sqrt();
        assert!((nmi(&a, &b) - expect).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(nmi(&[], &[]), 1.0);
        assert_eq!(nmi(&[0, 0, 0], &[1, 1, 1]), 1.0);
        // One side trivial, other not.
        assert_eq!(nmi(&[0, 0, 0, 0], &[0, 0, 1, 1]), 0.0);
        assert_eq!(adjusted_rand_index(&[7], &[3]), 1.0);
        assert_eq!(pair_f1(&[0, 1, 2], &[5, 6, 7]), 1.0);
    }

    #[test]
    fn scores_200k_singletons_without_a_dense_table() {
        // `anyscan-compare-labels` maps every noise vertex to its own
        // label; an all-noise prediction on a 200k-vertex graph must score
        // in linear space.
        let n = 200_000u32;
        let singletons: Vec<u32> = (0..n).collect();
        let truth: Vec<u32> = (0..n).map(|v| v % 40).collect();
        assert_eq!(pair_precision_recall(&singletons, &truth), (1.0, 0.0));
        assert_eq!(pair_precision_recall(&singletons, &singletons), (1.0, 1.0));
        assert!(adjusted_rand_index(&singletons, &truth).abs() < 1e-9);
        assert!(purity(&singletons, &truth) == 1.0);
    }

    #[test]
    fn purity_is_directional() {
        // Singletons are perfectly pure against anything.
        let a = vec![0, 1, 2, 3];
        let b = vec![0, 0, 1, 1];
        assert!((purity(&a, &b) - 1.0).abs() < 1e-12);
        assert!(purity(&b, &a) >= 0.49);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let _ = nmi(&[0, 1], &[0]);
    }

    proptest! {
        #[test]
        fn nmi_is_symmetric_and_bounded(
            a in proptest::collection::vec(0u32..5, 1..60),
        ) {
            let b: Vec<u32> = a.iter().map(|&x| (x * 7 + 1) % 5).collect();
            let ab = nmi(&a, &b);
            let ba = nmi(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn refinement_scores_high_purity(
            labels in proptest::collection::vec(0u32..4, 2..60),
        ) {
            // Splitting every cluster in two keeps purity at 1 (refinements
            // are pure) and NMI below/equal 1.
            let refined: Vec<u32> = labels.iter().enumerate()
                .map(|(i, &l)| l * 2 + (i % 2) as u32).collect();
            prop_assert!((purity(&refined, &labels) - 1.0).abs() < 1e-9);
            prop_assert!(nmi(&refined, &labels) <= 1.0 + 1e-9);
        }
    }
}
