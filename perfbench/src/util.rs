//! Small helpers: order statistics, NMI, memory and machine facts, JSON.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// The `q`-quantile (0..=1) of `xs` by nearest rank on the sorted values;
/// 0 when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Normalized mutual information `I(A;B) / sqrt(H(A)·H(B))` of two label
/// vectors. The contingency table is kept sparse (sorted pair keys): with
/// thousands of clusters a dense table is too large to rebuild after every
/// block.
pub fn nmi(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label vectors must align");
    let (da, ka) = dense_labels(a);
    let (db, kb) = dense_labels(b);
    let mut keys: Vec<u64> = da
        .iter()
        .zip(&db)
        .map(|(&x, &y)| u64::from(x) * kb as u64 + u64::from(y))
        .collect();
    keys.sort_unstable();
    let mut ca = vec![0u64; ka];
    let mut cb = vec![0u64; kb];
    for (&x, &y) in da.iter().zip(&db) {
        ca[x as usize] += 1;
        cb[y as usize] += 1;
    }
    let n = a.len() as f64;
    let entropy = |counts: &[u64]| -> f64 {
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (entropy(&ca), entropy(&cb));
    if ha == 0.0 || hb == 0.0 {
        return if ha == hb { 1.0 } else { 0.0 };
    }
    let mut mi = 0.0;
    for run in keys.chunk_by(|p, q| p == q) {
        let (x, y) = (run[0] / kb as u64, run[0] % kb as u64);
        let c = run.len() as f64;
        mi += c / n * (c * n / (ca[x as usize] as f64 * cb[y as usize] as f64)).ln();
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

/// Relabels `labels` densely in first-occurrence order; returns the new
/// labels and how many distinct ones there are.
fn dense_labels(labels: &[u32]) -> (Vec<u32>, usize) {
    let mut ids: HashMap<u32, u32> = HashMap::new();
    let dense = labels
        .iter()
        .map(|&l| {
            let next = ids.len() as u32;
            *ids.entry(l).or_insert(next)
        })
        .collect();
    (dense, ids.len())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the largest CPU cache sysfs reports for cpu0, in bytes.
pub fn last_level_cache_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// The commit checked out at `root`, read from `.git` without running git;
/// "unknown" outside a git checkout.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmi_is_one_on_relabeled_partitions_and_zero_on_trivial() {
        let a = [0, 0, 1, 1, 2, 2];
        let b = [5, 5, 3, 3, 9, 9];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(nmi(&a, &[7; 6]), 0.0);
        let c = [0, 0, 0, 1, 1, 1];
        let v = nmi(&a, &c);
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
