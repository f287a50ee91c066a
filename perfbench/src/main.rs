//! One benchmark for the whole anySCAN system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster-lfr|cluster-rmat|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Inputs are generated from the seed into
//! `.bench_data/` by a child process and cached there. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A failed output check makes `correct` false
//! and the exit code 1. See `perfbench/README.md` for what each workload
//! and metric means. The end-to-end times are scaled by the machine's
//! reference speed measured in the same run (see `reference.rs`).

mod cluster;
mod data;
mod reference;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

use anyscan::Telemetry;
use anyscan_scan_common::ScanParams;

use crate::data::GraphKind;
use crate::reference::{Reference, REFERENCE_S};
use crate::trace::Tracer;
use crate::util::{json_num, json_str, median};

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order. Every
/// workload reports every one; README.md maps each to the operation it
/// times on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("exact_s", "s"),
    ("serial_s", "s"),
    ("first_answer_s", "s"),
    ("answer_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A layer that does no work on a workload
/// reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.read_s", "s"),
    ("graph.read_mb_per_s", "MB/s"),
    ("core.new_s", "s"),
    ("core.summarize_s", "s"),
    ("core.merge_strong_s", "s"),
    ("core.merge_weak_s", "s"),
    ("core.borders_s", "s"),
    ("core.resolve_roles_s", "s"),
    ("core.blocks", "count"),
    ("core.block_p50_ms", "ms"),
    ("core.block_p99_ms", "ms"),
    ("core.supernodes", "count"),
    ("core.degree_shortcut", "count"),
    ("kernel.sigma_evals", "count"),
    ("kernel.path_batched", "count"),
    ("kernel.path_bitmap", "count"),
    ("kernel.path_merge", "count"),
    ("kernel.lemma5_filtered", "count"),
    ("kernel.early_rejects", "count"),
    ("kernel.edge_cache_hit_ratio", "ratio"),
    ("kernel.ns_per_sigma", "ns"),
    ("dsu.unions_step1", "count"),
    ("dsu.unions_step2", "count"),
    ("dsu.unions_step3", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.parked_s", "s"),
    ("parallel.jobs", "count"),
    ("parallel.chunks", "count"),
    ("parallel.work_inflation", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("index.build_s", "s"),
    ("index.write_s", "s"),
    ("index.read_s", "s"),
    ("index.bytes", "bytes"),
    ("index.query_ms", "ms"),
    ("dynamic.from_parts_s", "s"),
    ("dynamic.apply_batch_ms", "ms"),
    ("dynamic.to_csr_ms", "ms"),
    ("dynamic.index_clone_ms", "ms"),
    ("dynamic.sigma_reevals_per_batch", "count"),
    ("dynamic.orders_repaired_per_batch", "count"),
    ("serve.dispatch_lookup_us", "us"),
    ("serve.dispatch_query_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.epoch_swaps", "count"),
    ("serve.overloaded", "count"),
    ("load.lag_p99_ms", "ms"),
    ("load.reads_sent", "count"),
    ("load.writes_sent", "count"),
    ("load.read_p99_ms", "ms"),
    ("load.lookup_p99_ms", "ms"),
    ("load.query_p50_ms", "ms"),
    ("load.query_p99_ms", "ms"),
    ("load.failed_lookup", "count"),
    ("load.failed_query", "count"),
    ("load.failed_write", "count"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("self.bench_s", "s"),
    ("self.check_s", "s"),
    ("self.graph_s", "s"),
    ("self.core_s", "s"),
    ("self.parallel_s", "s"),
    ("self.index_s", "s"),
    ("self.dynamic_s", "s"),
    ("self.serve_s", "s"),
    ("self.client_s", "s"),
    ("reference.kernel_ms", "ms"),
];

/// Graph reads (and, on `serve-mixed`, whole daemon set-ups) per run; the
/// median is reported so one slow read does not move `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// What a workload function receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub nproc: usize,
    pub tracer: Tracer,
    pub reference: Reference,
}

impl Ctx {
    /// The program's own recorder: enabled in the traced run only.
    pub fn telemetry(&self) -> Telemetry {
        if self.trace {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Times the reference kernel once, one copy per CPU.
    pub fn sample_reference(&self, parent: u64) {
        let _s = self.tracer.span("bench.reference", parent);
        self.reference.sample(self.nproc);
    }
}

/// What a workload function fills in.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check or operation (printed to stderr).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance entries: key and JSON-encoded value.
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }

    /// Counts one checked operation; a failed check records its reason.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    prepare: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        prepare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--prepare" => args.prepare = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The workloads: name, graph family, and for a cluster workload the (ε, μ)
/// it runs at and checks against; `serve-mixed` has none.
fn workload_inputs(name: &str) -> Option<(GraphKind, Option<ScanParams>)> {
    match name {
        "cluster-lfr" => Some((GraphKind::Lfr, Some(cluster::LFR_PARAMS))),
        "cluster-rmat" => Some((GraphKind::Rmat, Some(cluster::RMAT_PARAMS))),
        "serve-mixed" => Some((GraphKind::Lfr, None)),
        _ => None,
    }
}

/// Generates the workload's inputs in a child process, so generation is
/// neither timed nor counted in the measured process's peak memory.
fn prepare_inputs(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let status = Command::new(exe)
        .args([
            "--prepare",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .status()
        .map_err(|e| format!("starting the input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

/// Reduces the traced run's spans to self time per layer and coverage, and
/// writes every span out.
fn finish_trace(ctx: &Ctx, workload: &str, wall_ns: u64, out: &mut Outcome) -> Result<(), String> {
    let spans = ctx.tracer.spans();
    let self_times = trace::self_time_by_layer(&spans);
    for &(name, _) in PER_LAYER {
        if let Some(layer) = name
            .strip_prefix("self.")
            .and_then(|n| n.strip_suffix("_s"))
        {
            out.set(name, self_times.get(layer).copied().unwrap_or(0.0));
        }
    }
    out.set("trace.coverage", trace::coverage(&spans, 0, wall_ns));
    let path = Path::new(data::DATA_DIR).join(format!("trace-{workload}-s{}.json", ctx.seed));
    let doc = format!(
        "{{\"workload\":{},\"seed\":{},\"wall_ns\":{wall_ns},\"self_s\":{{{}}},\"spans\":{}}}\n",
        json_str(workload),
        ctx.seed,
        self_times
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(","),
        trace::spans_json(&spans)
    );
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let nproc = util::nproc();
    if let Some(workload) = &args.prepare {
        let (kind, reference) =
            workload_inputs(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        return data::prepare(kind, args.seed, reference, nproc).map(|()| true);
    }
    let inputs = workload_inputs(&args.workload).ok_or_else(|| {
        format!(
            "--workload must be cluster-lfr, cluster-rmat or serve-mixed, got {:?}",
            args.workload
        )
    })?;
    prepare_inputs(&args)?;

    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        nproc,
        tracer: Tracer::new(args.trace),
        reference: Reference::default(),
    };
    let mut out = Outcome::default();
    match inputs {
        (_, None) => serve::run(&ctx, &mut out)?,
        (kind, Some(params)) => cluster::run(kind, params, &ctx, &mut out)?,
    }
    let wall_ns = ctx.tracer.elapsed_ns();
    out.set("peak_rss_mb", util::peak_rss_mb());
    // End-to-end times in reference seconds; the wall times go to the
    // provenance line.
    let mut scaling = Vec::new();
    let samples = ctx.reference.samples();
    if !samples.is_empty() {
        let kernel_s = median(&samples);
        out.set("reference.kernel_ms", kernel_s * 1e3);
        let scale = REFERENCE_S / kernel_s;
        let mut wall = Vec::new();
        for &(name, unit) in END_TO_END {
            if let (Some(v), "s" | "ms") = (out.metrics.get_mut(name), unit) {
                wall.push(format!("{}:{}", json_str(name), json_num(*v)));
                *v *= scale;
            }
        }
        scaling = vec![
            ("reference_kernel_s".to_string(), json_num(kernel_s)),
            ("reference_samples".to_string(), samples.len().to_string()),
            ("scale".to_string(), json_num(scale)),
            ("wall".to_string(), format!("{{{}}}", wall.join(","))),
        ];
    }

    if ctx.trace {
        finish_trace(&ctx, &args.workload, wall_ns, &mut out)?;
    }
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    let mut provenance = vec![
        ("workload".to_string(), json_str(&args.workload)),
        (
            "git_sha".to_string(),
            json_str(&util::git_sha(Path::new("."))),
        ),
        ("nproc".to_string(), nproc.to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        (
            "llc_bytes".to_string(),
            util::last_level_cache_bytes().to_string(),
        ),
    ];
    provenance.append(&mut out.provenance);
    provenance.append(&mut scaling);
    println!(
        "{{\"provenance\":{{{}}}}}",
        provenance
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    );

    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer that did no work on this workload reports 0; every
            // end-to-end metric is measured on every workload.
            None if ctx.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", args.workload)),
        };
        eprintln!("{name:<36} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    for failure in &out.failures {
        eprintln!("FAILED {failure}");
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
