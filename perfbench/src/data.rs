//! Benchmark inputs: generated from the seed, cached on disk, never timed.
//!
//! Generation runs in a child process (`--prepare`), so neither its time
//! nor its memory reaches the measured process. The measured process only
//! receives the files.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use anyscan_graph::gen::{lfr, rmat, LfrParams, RmatParams};
use anyscan_graph::io::{read_binary, write_binary};
use anyscan_graph::CsrGraph;
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::{Clustering, Role, ScanParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Where generated inputs, the index file `serve-mixed` writes and reads
/// back, and traces live, relative to the checkout root the benchmark runs
/// from.
pub const DATA_DIR: &str = ".bench_data";

/// The synthetic graph families the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// LFR, n = 100,000, average degree 20, mixing 0.3.
    Lfr,
    /// Graph500 R-MAT, scale 16, edge factor 16.
    Rmat,
}

pub const LFR_N: usize = 100_000;
pub const LFR_AVG_DEGREE: f64 = 20.0;
pub const RMAT_SCALE: u32 = 16;
pub const RMAT_EDGE_FACTOR: usize = 16;

impl GraphKind {
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Lfr => "lfr",
            GraphKind::Rmat => "rmat",
        }
    }

    pub fn graph_path(self, seed: u64) -> PathBuf {
        Path::new(DATA_DIR).join(format!("{}-s{seed}.bin", self.name()))
    }

    fn generate(self, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            GraphKind::Lfr => lfr(&mut rng, &LfrParams::paper_defaults(LFR_N, LFR_AVG_DEGREE)).0,
            GraphKind::Rmat => rmat(
                &mut rng,
                &RmatParams::graph500(RMAT_SCALE, RMAT_EDGE_FACTOR),
            ),
        }
    }
}

/// Path of the cached reference clustering of `kind`'s graph at `params`.
pub fn reference_path(kind: GraphKind, seed: u64, params: ScanParams) -> PathBuf {
    Path::new(DATA_DIR).join(format!(
        "{}-s{seed}-eps{}-mu{}.ref",
        kind.name(),
        params.epsilon,
        params.mu
    ))
}

/// Writes through a temporary file and renames, so an interrupted run never
/// leaves a truncated input behind.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut w = BufWriter::new(file);
    write(&mut w).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    w.flush()
        .map_err(|e| format!("flush {}: {e}", tmp.display()))?;
    drop(w);
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// Generates the graph of `kind` for `seed` if it is not cached, and (with
/// `reference`) its reference clustering from an untimed
/// `SimilarityIndex::query`.
pub fn prepare(
    kind: GraphKind,
    seed: u64,
    reference: Option<ScanParams>,
    threads: usize,
) -> Result<(), String> {
    std::fs::create_dir_all(DATA_DIR).map_err(|e| format!("create {DATA_DIR}: {e}"))?;
    let path = kind.graph_path(seed);
    let mut graph = None;
    if !path.exists() {
        let g = kind.generate(seed);
        write_atomically(&path, |w| {
            write_binary(&g, w).map_err(|e| std::io::Error::other(e.to_string()))
        })?;
        graph = Some(g);
    }
    let Some(params) = reference else {
        return Ok(());
    };
    let ref_path = reference_path(kind, seed, params);
    if ref_path.exists() {
        return Ok(());
    }
    let g = match graph {
        Some(g) => g,
        None => read_graph(&path)?,
    };
    let c = SimilarityIndex::build(&g, threads).query(&g, params);
    write_atomically(&ref_path, |w| {
        w.write_all(&(c.len() as u64).to_le_bytes())?;
        for &l in &c.labels {
            w.write_all(&l.to_le_bytes())?;
        }
        let roles: Vec<u8> = c.roles.iter().map(|&r| role_byte(r)).collect();
        w.write_all(&roles)
    })
}

/// Reads a binary graph file through the public reader.
pub fn read_graph(path: &Path) -> Result<CsrGraph, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_binary(BufReader::new(file)).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Loads a reference clustering written by [`prepare`].
pub fn read_reference(path: &Path) -> Result<Clustering, String> {
    let mut raw = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut raw))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let bad = || format!("{} is malformed", path.display());
    let n = u64::from_le_bytes(
        raw.get(..8)
            .ok_or_else(bad)?
            .try_into()
            .map_err(|_| bad())?,
    );
    let n = usize::try_from(n).map_err(|_| bad())?;
    if raw.len() != 8 + 5 * n {
        return Err(bad());
    }
    let labels = raw[8..8 + 4 * n]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let roles = raw[8 + 4 * n..]
        .iter()
        .map(|&b| byte_role(b).ok_or_else(bad))
        .collect::<Result<_, _>>()?;
    Ok(Clustering { labels, roles })
}

fn role_byte(r: Role) -> u8 {
    match r {
        Role::Core => 0,
        Role::Border => 1,
        Role::Hub => 2,
        Role::Outlier => 3,
        Role::Unclassified => 4,
    }
}

fn byte_role(b: u8) -> Option<Role> {
    Some(match b {
        0 => Role::Core,
        1 => Role::Border,
        2 => Role::Hub,
        3 => Role::Outlier,
        4 => Role::Unclassified,
        _ => return None,
    })
}
