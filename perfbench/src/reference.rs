//! The machine's reference speed, measured beside each workload.
//!
//! On a shared host the same work can take 1.4× to 2.5× longer for minutes
//! at a time, when other tenants load the cores or the memory system. A run
//! therefore also times a fixed kernel that belongs to the benchmark, not
//! to the program, a few times between its timed operations, one copy per
//! CPU. Its end-to-end times are then scaled by `REFERENCE_S ÷ (the kernel's
//! median time in this run)`: on a quiet host the scale is about 1, and a
//! slow phase slows the kernel and the workload alike, so the scaled figure
//! stays put. A change to the program cannot change the kernel's
//! time, so every program change still shows in full. The raw wall times
//! and the scale are printed in the provenance line.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// About the kernel's time, in seconds, on a 2-vCPU Intel Xeon virtual
/// machine at 2.0 GHz with a 105 MB last-level cache, when the host is
/// quiet: the unit the scaled times are expressed in.
pub const REFERENCE_S: f64 = 0.05;

/// Size of the kernel's table in `u32`s (32 MiB): like the program's graphs,
/// larger than a core's private caches, so memory contention slows it too.
const TABLE_LEN: usize = 8 << 20;
/// `u32`s per row: a sorted list of two cache lines, like an adjacency list.
const ROW_LEN: usize = 32;
/// Row values are drawn from `0..UNIVERSE`, so two rows share about a
/// quarter of their values.
const UNIVERSE: u32 = 128;
/// Row pairs the kernel intersects per copy.
const PAIRS: usize = 60_000;

#[derive(Default)]
pub struct Reference {
    /// Built on the first sample, after the first set-up has been timed.
    table: OnceLock<Vec<u32>>,
    samples: Mutex<Vec<f64>>,
}

impl Reference {
    fn table(&self) -> &[u32] {
        self.table.get_or_init(|| {
            (0..TABLE_LEN / ROW_LEN)
                .flat_map(|r| {
                    let mut x = (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    let mut row: Vec<u32> = (0..ROW_LEN)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            (x % u64::from(UNIVERSE)) as u32
                        })
                        .collect();
                    row.sort_unstable();
                    row
                })
                .collect()
        })
    }

    fn row(&self, x: u64) -> &[u32] {
        let r = (x as usize % (TABLE_LEN / ROW_LEN)) * ROW_LEN;
        &self.table()[r..r + ROW_LEN]
    }

    /// One kernel pass: merge-intersections of pseudo-random row pairs, the
    /// shape of a structural-similarity evaluation. Returns its wall time in
    /// seconds.
    fn kernel(&self, seed: u64) -> f64 {
        let start = Instant::now();
        let mut x = seed | 1;
        let mut common = 0u64;
        for _ in 0..PAIRS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b) = (self.row(x), self.row(x >> 32));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        std::hint::black_box(common);
        start.elapsed().as_secs_f64()
    }

    /// Times the kernel as `copies` copies at once, one per CPU, and records
    /// their mean.
    pub fn sample(&self, copies: usize) {
        self.table();
        let times: Vec<f64> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..copies as u64)
                .map(|i| s.spawn(move || self.kernel(0x9e37_79b9_7f4a_7c15 ^ i)))
                .collect();
            runs.into_iter()
                .map(|h| h.join().expect("reference kernel panicked"))
                .collect()
        });
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.samples
            .lock()
            .expect("reference samples poisoned")
            .push(mean);
    }

    /// Every recorded kernel time, in seconds.
    pub fn samples(&self) -> Vec<f64> {
        self.samples
            .lock()
            .expect("reference samples poisoned")
            .clone()
    }
}
