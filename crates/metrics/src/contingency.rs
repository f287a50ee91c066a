//! Contingency tables over pairs of labelings.

use std::collections::HashMap;

/// A sparse contingency table built from two aligned label slices: cell
/// `(i, j)` counts items labeled `i` by the first partition and `j` by the
/// second (labels are remapped to dense indices internally). Only non-zero
/// cells are stored, row by row, so the size is `O(n)` however many labels
/// either side has (e.g. one singleton label per unclustered vertex).
#[derive(Debug, Clone)]
pub struct ContingencyTable {
    /// Row `r`'s cells are `cells[row_offsets[r]..row_offsets[r + 1]]`.
    row_offsets: Vec<usize>,
    /// Non-zero cells `(col, count)`, ascending by column within each row.
    cells: Vec<(usize, u64)>,
    row_sums: Vec<u64>,
    col_sums: Vec<u64>,
    total: u64,
}

impl ContingencyTable {
    /// Builds the table in `O(n log n)` time and `O(n)` space.
    pub fn new(a: &[u32], b: &[u32]) -> Self {
        assert_eq!(a.len(), b.len());
        let mut row_ids: HashMap<u32, usize> = HashMap::new();
        let mut col_ids: HashMap<u32, usize> = HashMap::new();
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(a.len());
        for (&la, &lb) in a.iter().zip(b) {
            let next_r = row_ids.len();
            let r = *row_ids.entry(la).or_insert(next_r);
            let next_c = col_ids.len();
            let c = *col_ids.entry(lb).or_insert(next_c);
            pairs.push((r, c));
        }
        let rows = row_ids.len();
        let mut row_sums = vec![0u64; rows];
        let mut col_sums = vec![0u64; col_ids.len()];
        // Row-major order: `cells()` then yields a fixed order, so the
        // floating-point sums the metrics take over it are reproducible.
        pairs.sort_unstable();
        let mut row_offsets = Vec::with_capacity(rows + 1);
        row_offsets.push(0);
        let mut cells: Vec<(usize, u64)> = Vec::new();
        for (i, &(r, c)) in pairs.iter().enumerate() {
            row_sums[r] += 1;
            col_sums[c] += 1;
            if i > 0 && pairs[i - 1] == (r, c) {
                cells.last_mut().expect("run has a cell").1 += 1;
                continue;
            }
            // Rows are dense indices and every row has an item, so a new
            // row starts exactly when `r` advances by one.
            if i > 0 && pairs[i - 1].0 != r {
                row_offsets.push(cells.len());
            }
            cells.push((c, 1));
        }
        if rows > 0 {
            row_offsets.push(cells.len());
        }
        ContingencyTable {
            row_offsets,
            cells,
            row_sums,
            col_sums,
            total: a.len() as u64,
        }
    }

    /// Number of distinct labels in the first partition.
    pub fn num_rows(&self) -> usize {
        self.row_sums.len()
    }

    /// Number of distinct labels in the second partition.
    pub fn num_cols(&self) -> usize {
        self.col_sums.len()
    }

    /// Total number of items.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The non-zero cells `(col, count)` of one row, ascending by column.
    pub fn row(&self, r: usize) -> &[(usize, u64)] {
        &self.cells[self.row_offsets[r]..self.row_offsets[r + 1]]
    }

    /// Marginal counts of the first partition.
    pub fn row_sums(&self) -> &[u64] {
        &self.row_sums
    }

    /// Marginal counts of the second partition.
    pub fn col_sums(&self) -> &[u64] {
        &self.col_sums
    }

    /// Iterator over non-empty cells `(row, col, count)` in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.num_rows()).flat_map(move |r| self.row(r).iter().map(move |&(c, n)| (r, c, n)))
    }

    /// Shannon entropy (nats) of the first partition's marginal.
    pub fn entropy_rows(&self) -> f64 {
        entropy(&self.row_sums, self.total)
    }

    /// Shannon entropy (nats) of the second partition's marginal.
    pub fn entropy_cols(&self) -> f64 {
        entropy(&self.col_sums, self.total)
    }

    /// Mutual information (nats) between the two partitions.
    pub fn mutual_information(&self) -> f64 {
        let n = self.total as f64;
        let mut mi = 0.0;
        for (r, c, count) in self.cells() {
            let pij = count as f64 / n;
            let pi = self.row_sums[r] as f64 / n;
            let pj = self.col_sums[c] as f64 / n;
            mi += pij * (pij / (pi * pj)).ln();
        }
        mi.max(0.0)
    }
}

fn entropy(counts: &[u64], total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            p * p.ln()
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_counts_and_marginals() {
        let a = [0, 0, 1, 1, 1];
        let b = [9, 8, 8, 8, 8];
        let t = ContingencyTable::new(&a, &b);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(t.total(), 5);
        assert_eq!(t.row_sums(), &[2, 3]);
        assert_eq!(t.col_sums(), &[1, 4]);
        let cells: Vec<_> = t.cells().collect();
        assert_eq!(cells, vec![(0, 0, 1), (0, 1, 1), (1, 1, 3)]);
    }

    #[test]
    fn entropy_of_uniform_marginal() {
        let a = [0, 1, 2, 3];
        let b = [0, 0, 0, 0];
        let t = ContingencyTable::new(&a, &b);
        assert!((t.entropy_rows() - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(t.entropy_cols(), 0.0);
        assert_eq!(t.mutual_information(), 0.0);
    }

    #[test]
    fn mi_of_identical_partitions_equals_entropy() {
        let a = [0, 0, 1, 1, 2, 2, 2];
        let t = ContingencyTable::new(&a, &a);
        assert!((t.mutual_information() - t.entropy_rows()).abs() < 1e-12);
    }

    #[test]
    fn rows_hold_only_non_zero_cells() {
        let a = [0, 0, 1, 1, 1, 2];
        let b = [5, 6, 6, 6, 7, 7];
        let t = ContingencyTable::new(&a, &b);
        assert_eq!(t.row(0), &[(0, 1), (1, 1)]);
        assert_eq!(t.row(1), &[(1, 2), (2, 1)]);
        assert_eq!(t.row(2), &[(2, 1)]);
    }

    #[test]
    fn empty_input() {
        let t = ContingencyTable::new(&[], &[]);
        assert_eq!(t.total(), 0);
        assert_eq!(t.entropy_rows(), 0.0);
        assert_eq!(t.mutual_information(), 0.0);
    }
}
