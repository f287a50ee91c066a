//! Immutable compressed-sparse-row graph.

use crate::types::{EdgeId, VertexId, Weight};

/// An undirected weighted graph in compressed-sparse-row form with **closed**
/// neighborhoods: every vertex's adjacency list contains the vertex itself
/// with [`CsrGraph::SELF_LOOP_WEIGHT`].
///
/// SCAN defines the structural neighborhood `Γ(v) = {u | (v,u) ∈ E} ∪ {v}`;
/// materializing the self-loop turns every structural-similarity evaluation
/// into a plain sorted merge-join over two adjacency slices, with no special
/// cases. [`CsrGraph::degree`] therefore counts the vertex itself, matching
/// `|Γ(v)|` in the SCAN literature, while [`CsrGraph::open_degree`] gives the
/// conventional graph degree.
///
/// Adjacency lists are sorted by neighbor id and deduplicated. Per-vertex
/// Lemma-5 quantities (`l_p = Σ w², w_p = max w`) are precomputed at build
/// time so the O(1) similarity filter never touches the edge arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` delimits v's slice of `neighbors`/`weights`.
    offsets: Vec<EdgeId>,
    /// Flat adjacency array (includes the self-loop), sorted per vertex.
    neighbors: Vec<VertexId>,
    /// Weight of the corresponding arc in `neighbors`.
    weights: Vec<Weight>,
    /// Lemma 5: `l_p = Σ_{r∈N_p} w_pr²` (includes the self-loop).
    norm_sq: Vec<Weight>,
    /// Lemma 5: `w_p = max_{r∈N_p} w_pr` (includes the self-loop).
    max_weight: Vec<Weight>,
    /// Number of undirected edges, *excluding* self-loops.
    num_edges: u64,
}

impl CsrGraph {
    /// Weight assigned to the materialized self-loop of every vertex.
    ///
    /// With unit edge weights this makes Definition 1 reduce exactly to
    /// SCAN's unweighted cosine similarity over closed neighborhoods.
    pub const SELF_LOOP_WEIGHT: Weight = 1.0;

    /// Assembles a graph from raw CSR arrays. Callers must guarantee the CSR
    /// invariants (sorted, deduplicated, symmetric, self-loops present);
    /// [`crate::GraphBuilder`] is the supported way to construct graphs.
    pub(crate) fn from_parts(
        offsets: Vec<EdgeId>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
        num_edges: u64,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), weights.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());
        let n = offsets.len().saturating_sub(1);
        let mut norm_sq = Vec::with_capacity(n);
        let mut max_weight = Vec::with_capacity(n);
        for v in 0..n {
            let (mut l, mut m) = (0.0, 0.0);
            for &w in &weights[offsets[v]..offsets[v + 1]] {
                l += w * w;
                if w > m {
                    m = w;
                }
            }
            norm_sq.push(l);
            max_weight.push(m);
        }
        CsrGraph {
            offsets,
            neighbors,
            weights,
            norm_sq,
            max_weight,
            num_edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges, excluding the materialized self-loops.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Closed degree `|Γ(v)|` (counts `v` itself).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Conventional (open) degree: number of distinct neighbors `≠ v`.
    #[inline]
    pub fn open_degree(&self, v: VertexId) -> usize {
        self.degree(v) - 1
    }

    /// Iterator over `(neighbor, weight)` pairs of the closed neighborhood,
    /// in increasing neighbor order (includes `(v, SELF_LOOP_WEIGHT)`).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        self.neighbors[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// The sorted closed-neighborhood id slice of `v`.
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights aligned with [`CsrGraph::neighbor_ids`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[Weight] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `l_v = Σ_{r∈Γ(v)} w_vr²` — the squared neighborhood norm of Lemma 5.
    #[inline]
    pub fn norm_sq(&self, v: VertexId) -> Weight {
        self.norm_sq[v as usize]
    }

    /// `w_v = max_{r∈Γ(v)} w_vr` — the maximum incident weight of Lemma 5.
    #[inline]
    pub fn max_weight(&self, v: VertexId) -> Weight {
        self.max_weight[v as usize]
    }

    /// True if `u` and `v` are adjacent (`u == v` counts: closed neighborhood).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbor_ids(u).binary_search(&v).is_ok()
    }

    /// Weight of the arc `(u,v)` if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let u_usize = u as usize;
        let slice = &self.neighbors[self.offsets[u_usize]..self.offsets[u_usize + 1]];
        slice
            .binary_search(&v)
            .ok()
            .map(|i| self.weights[self.offsets[u_usize] + i])
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge `(u, v, w)` exactly once
    /// (`u < v`; self-loops are skipped).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Average open degree `2|E| / |V|` — the `d̄` column of Tables I/II.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / self.num_vertices() as f64
    }

    /// Raw CSR views for zero-copy serialization.
    pub(crate) fn raw_parts(&self) -> (&[EdgeId], &[VertexId], &[Weight], u64) {
        (
            &self.offsets,
            &self.neighbors,
            &self.weights,
            self.num_edges,
        )
    }

    /// Total number of stored arcs, including self-loops (2|E| + |V|).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Range of global arc indices owned by `v` (aligned with
    /// [`CsrGraph::neighbor_ids`]); lets callers maintain per-arc side
    /// tables (e.g. pSCAN's similarity verdict cache).
    #[inline]
    pub fn arc_range(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Assembles a graph from adjacency rows that already satisfy the CSR
    /// invariants (strictly sorted per vertex, symmetric, self-loops present,
    /// positive finite weights) — the shape a dynamic-update engine maintains
    /// natively, letting it publish a CSR snapshot without re-sorting.
    /// Invariants are re-validated; a violation is a typed `Err`, never a
    /// silently corrupt graph.
    pub fn from_sorted_rows(
        offsets: Vec<EdgeId>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
        num_edges: u64,
    ) -> Result<CsrGraph, String> {
        if neighbors.len() != weights.len() {
            return Err("arc arrays disagree with offsets".into());
        }
        // `from_parts` slices the weights by the offsets, so they must be
        // bounds-checked first (the loader's rules) or a bad offset panics.
        crate::io::framing::check_offsets(&offsets, neighbors.len(), "csr")
            .map_err(|e| e.to_string())?;
        let g = CsrGraph::from_parts(offsets, neighbors, weights, num_edges);
        g.check_invariants()?;
        Ok(g)
    }

    /// Validates every CSR invariant; used by tests, the binary loader and
    /// [`CsrGraph::from_sorted_rows`].
    ///
    /// One forward pass, `O(|V| + arcs)`, with no per-arc search for the
    /// reverse arc: `cursor[v]` walks `v`'s below-self prefix. Visiting `u`
    /// in ascending order, each arc `(u, v)` with `v > u` must meet `u`, with
    /// the same weight, at `cursor[v]`, which then advances. When the pass
    /// reaches `u`, `cursor[u]` must sit on `u`'s self-loop: every arc of
    /// `u` below `u` was met by its reverse.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if let Some(v) = (0..n).find(|&v| self.offsets[v] > self.offsets[v + 1]) {
            return Err(format!("offsets not monotone at {v}"));
        }
        let (ids, weights) = (&self.neighbors, &self.weights);
        let mut cursor: Vec<EdgeId> = self.offsets[..n].to_vec();
        for u in 0..n {
            let me = u as VertexId;
            let mut has_self_loop = false;
            for i in self.offsets[u]..self.offsets[u + 1] {
                let (v, w) = (ids[i], weights[i]);
                if i > self.offsets[u] && ids[i - 1] >= v {
                    return Err(format!("adjacency of {u} not strictly sorted"));
                }
                if v as usize >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if w <= 0.0 || !w.is_finite() {
                    return Err(format!("weight of ({u},{v}) invalid: {w}"));
                }
                if v < me {
                    continue; // met by its reverse when the pass was at `v`
                }
                if v == me {
                    if cursor[u] != i {
                        let x = ids[cursor[u]];
                        return Err(format!("missing reverse arc ({x},{u})"));
                    }
                    has_self_loop = true;
                    continue;
                }
                let c = cursor[v as usize];
                if c >= self.offsets[v as usize + 1] || ids[c] != me {
                    return Err(format!("missing reverse arc ({v},{u})"));
                }
                if weights[c] != w {
                    return Err(format!("asymmetric weight on ({u},{v})"));
                }
                cursor[v as usize] = c + 1;
            }
            if !has_self_loop {
                return Err(format!("vertex {u} lacks its self-loop"));
            }
        }
        let arcs_excl_self = self.num_arcs() - n;
        if arcs_excl_self as u64 != 2 * self.num_edges {
            return Err(format!(
                "edge count mismatch: {} arcs (excl. self) vs num_edges={}",
                arcs_excl_self, self.num_edges
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::CsrGraph;
    use crate::gen::{erdos_renyi, WeightModel};
    use crate::types::{EdgeId, VertexId, Weight};
    use crate::GraphBuilder;

    /// Reference for `check_invariants`: the direct formulation, where
    /// every arc binary-searches its reverse in the other endpoint's row.
    fn reference_check(g: &CsrGraph) -> Result<(), String> {
        let n = g.num_vertices();
        if g.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        for v in 0..n {
            if g.offsets[v] > g.offsets[v + 1] {
                return Err(format!("offsets not monotone at {v}"));
            }
            let ids = g.neighbor_ids(v as VertexId);
            if ids.binary_search(&(v as VertexId)).is_err() {
                return Err(format!("vertex {v} lacks its self-loop"));
            }
            for w in ids.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {v} not strictly sorted"));
                }
            }
            for (u, w) in g.neighbors(v as VertexId) {
                if u as usize >= n {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if w <= 0.0 || !w.is_finite() {
                    return Err(format!("weight of ({v},{u}) invalid: {w}"));
                }
                if u as usize != v {
                    match g.edge_weight(u, v as VertexId) {
                        Some(back) if back == w => {}
                        Some(_) => return Err(format!("asymmetric weight on ({v},{u})")),
                        None => return Err(format!("missing reverse arc ({u},{v})")),
                    }
                }
            }
        }
        let arcs_excl_self = g.num_arcs() - n;
        if arcs_excl_self as u64 != 2 * g.num_edges {
            return Err(format!(
                "edge count mismatch: {} arcs (excl. self) vs num_edges={}",
                arcs_excl_self, g.num_edges
            ));
        }
        Ok(())
    }

    /// A graph's raw CSR arrays, to corrupt one entry at a time.
    #[derive(Clone)]
    struct Rows {
        offsets: Vec<EdgeId>,
        ids: Vec<VertexId>,
        weights: Vec<Weight>,
        num_edges: u64,
    }

    impl Rows {
        fn of(g: &CsrGraph) -> Rows {
            let (offsets, ids, weights, num_edges) = g.raw_parts();
            Rows {
                offsets: offsets.to_vec(),
                ids: ids.to_vec(),
                weights: weights.to_vec(),
                num_edges,
            }
        }

        /// The vertex whose row holds arc `i`.
        fn owner(&self, i: usize) -> usize {
            self.offsets.partition_point(|&o| o <= i) - 1
        }

        fn remove(&mut self, i: usize) {
            let v = self.owner(i);
            self.ids.remove(i);
            self.weights.remove(i);
            self.offsets[v + 1..].iter_mut().for_each(|o| *o -= 1);
        }

        /// Inserts an arc into `v`'s row at row position `pos`.
        fn insert(&mut self, v: usize, pos: usize, id: VertexId, w: Weight) {
            let i = self.offsets[v] + pos;
            self.ids.insert(i, id);
            self.weights.insert(i, w);
            self.offsets[v + 1..].iter_mut().for_each(|o| *o += 1);
        }

        /// Both checks' verdicts, asserted equal.
        fn assert_checks_agree(self, what: &str) -> bool {
            let reference = reference_check(&CsrGraph::from_parts(
                self.offsets.clone(),
                self.ids.clone(),
                self.weights.clone(),
                self.num_edges,
            ));
            let one_pass =
                CsrGraph::from_sorted_rows(self.offsets, self.ids, self.weights, self.num_edges);
            assert_eq!(
                one_pass.is_ok(),
                reference.is_ok(),
                "{what}: one-pass {:?} vs reference {:?}",
                one_pass.err(),
                reference.err()
            );
            reference.is_ok()
        }
    }

    /// Applies every corruption kind at random spots of `g` and checks that
    /// the one-pass check and the reference accept exactly the same arrays.
    fn corruptions_agree(g: &CsrGraph, rng: &mut StdRng) {
        let base = Rows::of(g);
        assert!(base.clone().assert_checks_agree("uncorrupted"));
        let n = g.num_vertices();
        let arcs = g.num_arcs();
        let mut rejected = 0;
        for round in 0..40 {
            let i = rng.gen_range(0..arcs);
            let v = base.owner(i);
            let row = base.offsets[v]..base.offsets[v + 1];
            let mut cases: Vec<(String, Rows)> = Vec::new();

            let mut r = base.clone();
            r.remove(i);
            cases.push((format!("drop arc {i}"), r));

            // One dropped half alone always breaks the arc count; dropping
            // two with `num_edges` lowered leaves only symmetry to object.
            let j = rng.gen_range(0..arcs);
            if j != i {
                let mut r = base.clone();
                r.remove(i.max(j));
                r.remove(i.min(j));
                r.num_edges = r.num_edges.saturating_sub(1);
                cases.push((format!("drop arcs {i} and {j}"), r));
            }

            // Point one arc at another vertex, keeping the row sorted and
            // the arc count intact.
            let (lo, hi) = (
                if i > row.start {
                    base.ids[i - 1] + 1
                } else {
                    0
                },
                if i + 1 < row.end {
                    base.ids[i + 1]
                } else {
                    n as VertexId
                },
            );
            if let Some(x) = (lo..hi).find(|&x| x != base.ids[i] && x != v as VertexId) {
                let mut r = base.clone();
                r.ids[i] = x;
                cases.push((format!("retarget arc {i} to {x}"), r));
            }

            // Add one half of an arc to a vertex it is not adjacent to.
            let x = rng.gen_range(0..n as VertexId);
            let ids = &base.ids[row.clone()];
            if let Err(pos) = ids.binary_search(&x) {
                let mut r = base.clone();
                r.insert(v, pos, x, 0.5);
                cases.push((format!("add half arc ({v},{x})"), r));
            }

            for w in [base.weights[i] + 0.25, 0.0, -1.0, f64::NAN, f64::INFINITY] {
                let mut r = base.clone();
                r.weights[i] = w;
                cases.push((format!("weight {w} on arc {i}"), r));
            }

            if row.len() >= 2 {
                let j = rng.gen_range(row.start..row.end - 1);
                let mut r = base.clone();
                r.ids.swap(j, j + 1);
                cases.push((format!("swap ids {j},{}", j + 1), r));

                let mut r = base.clone();
                r.ids[j + 1] = r.ids[j];
                r.weights[j + 1] = r.weights[j];
                cases.push((format!("duplicate id at {j}"), r));
            }

            let mut r = base.clone();
            r.remove(row.start + base.ids[row.clone()].partition_point(|&q| q < v as VertexId));
            cases.push((format!("remove self-loop of {v}"), r));

            let mut r = base.clone();
            r.ids[row.end - 1] = n as VertexId + round % 3;
            cases.push((format!("id >= |V| in row {v}"), r));

            let mut r = base.clone();
            r.ids[i] = n as VertexId;
            cases.push((format!("id |V| at arc {i}"), r));

            for e in [base.num_edges + 1, base.num_edges.saturating_sub(1)] {
                let mut r = base.clone();
                r.num_edges = e;
                cases.push((format!("num_edges {e}"), r));
            }

            for (what, r) in cases {
                if !r.assert_checks_agree(&what) {
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "no corruption was rejected");
    }

    #[test]
    fn one_pass_check_agrees_with_binary_search_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        for (n, m) in [(2, 1), (12, 20), (60, 150), (300, 2000)] {
            let g = erdos_renyi(&mut rng, n, m, WeightModel::uniform_default());
            corruptions_agree(&g, &mut rng);
            // Unit weights: a mismatched reverse arc cannot hide behind a
            // differing weight.
            let g = erdos_renyi(&mut rng, n, m, WeightModel::Unit);
            corruptions_agree(&g, &mut rng);
        }
        // A star: one hub adjacent to every other vertex, plus a few rim
        // edges, so most arcs meet the hub's cursor.
        let n = 200;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(0, v, 1.0 + (v % 7) as f64);
        }
        for v in (1..n as VertexId - 1).step_by(9) {
            b.add_edge(v, v + 1, 0.5);
        }
        corruptions_agree(&b.build(), &mut rng);
    }

    #[test]
    fn from_sorted_rows_rejects_decreasing_offsets() {
        // `from_parts` slices by the offsets, so they must be checked first.
        assert!(
            CsrGraph::from_sorted_rows(vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0], 0).is_err()
        );
        assert!(CsrGraph::from_sorted_rows(vec![1, 2], vec![0, 1], vec![1.0, 1.0], 0).is_err());
    }

    fn triangle() -> super::CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 0.5);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 3); // closed degree: self + 2 neighbors
        assert_eq!(g.open_degree(0), 2);
        assert_eq!(g.num_arcs(), 9); // 2*3 arcs + 3 self-loops
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_present_with_unit_weight() {
        let g = triangle();
        for v in 0..3 {
            assert_eq!(g.edge_weight(v, v), Some(super::CsrGraph::SELF_LOOP_WEIGHT));
        }
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(1).collect();
        assert_eq!(n, vec![(0, 1.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 2), Some(0.5));
        assert_eq!(g.edge_weight(2, 0), Some(0.5));
        assert_eq!(g.edge_weight(0, 0), Some(1.0));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn norms_include_self_loop() {
        let g = triangle();
        // l_1 = 1 (self) + 1 (to 0) + 4 (to 2)
        assert!((g.norm_sq(1) - 6.0).abs() < 1e-12);
        assert!((g.max_weight(1) - 2.0).abs() < 1e-12);
        // Vertex with only weak edges: self-loop dominates max.
        assert!((g.max_weight(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let mut e: Vec<_> = g.edges().collect();
        e.sort_by_key(|&(u, v, _)| (u, v));
        assert_eq!(e, vec![(0, 1, 1.0), (0, 2, 0.5), (1, 2, 2.0)]);
    }

    #[test]
    fn from_sorted_rows_roundtrips_and_rejects() {
        let g = triangle();
        // Rebuild the triangle from its own rows: identical graph.
        let mut offsets = vec![0usize];
        for v in 0..3 {
            offsets.push(g.arc_range(v).end);
        }
        let neighbors: Vec<u32> = (0..3).flat_map(|v| g.neighbor_ids(v).to_vec()).collect();
        let weights: Vec<f64> = (0..3)
            .flat_map(|v| g.neighbor_weights(v).to_vec())
            .collect();
        let rebuilt =
            super::CsrGraph::from_sorted_rows(offsets, neighbors, weights, g.num_edges()).unwrap();
        assert_eq!(rebuilt, g);
        // Missing self-loop is rejected.
        assert!(super::CsrGraph::from_sorted_rows(vec![0, 1], vec![1], vec![1.0], 0).is_err());
        // Arc arrays disagreeing with offsets are rejected.
        assert!(super::CsrGraph::from_sorted_rows(vec![0, 2], vec![0], vec![1.0], 0).is_err());
    }

    #[test]
    fn invariants_hold() {
        triangle().check_invariants().unwrap();
    }

    #[test]
    fn empty_and_isolated() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);

        let g = GraphBuilder::new(5).build(); // 5 isolated vertices
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 1); // just the self-loop
        }
        g.check_invariants().unwrap();
    }
}
