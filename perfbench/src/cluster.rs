//! The `cluster-lfr` and `cluster-rmat` workloads: anySCAN from a graph
//! file to the exact clustering, at `nproc` threads and at 1 thread, after
//! a warm-up whose anytime pass finds the first block whose snapshot
//! reaches NMI ≥ 0.9.

use std::time::{Duration, Instant};

use anyscan::{AnyScan, AnyScanConfig, Counter, Phase, Telemetry};
use anyscan_graph::CsrGraph;
use anyscan_parallel::{PoolUtilization, WorkerPool};
use anyscan_scan_common::verify::check_scan_equivalent;
use anyscan_scan_common::{Clustering, ScanParams, SimStats};

use crate::data::{self, GraphKind};
use crate::trace::Tracer;
use crate::util::{median, nmi, quantile};
use crate::{Ctx, Outcome, SETUP_REPEATS};

/// LFR at ε = 0.5, μ = 5: the paper's synthetic family and parameters.
pub const LFR_PARAMS: ScanParams = ScanParams {
    epsilon: 0.5,
    mu: 5,
};

/// R-MAT at ε = 0.2, μ = 4: at ε = 0.5 every vertex of this graph is an
/// outlier, which would leave the merge and border steps idle.
pub const RMAT_PARAMS: ScanParams = ScanParams {
    epsilon: 0.2,
    mu: 4,
};

/// The NMI a snapshot must reach to count as a good-enough answer.
const GOOD_ENOUGH_NMI: f64 = 0.9;

/// Everything one run to the exact result measured.
struct RunRecord {
    /// `AnyScan::new` plus every `step()` until `Done`, wall time.
    total: Duration,
    new: Duration,
    /// Sum of `IterationRecord::elapsed` per phase, indexed like `PHASES`.
    phase_time: [Duration; 5],
    /// Wall time of each block iteration.
    blocks: Vec<Duration>,
    stats: SimStats,
    unions: [u64; 3],
    supernodes: usize,
    pool: PoolUtilization,
    telemetry: Telemetry,
    result: Clustering,
}

const PHASES: [Phase; 5] = [
    Phase::Summarize,
    Phase::MergeStrong,
    Phase::MergeWeak,
    Phase::Borders,
    Phase::ResolveRoles,
];

/// One anySCAN run to the exact result, with a span around every call.
fn run_to_exact(
    g: &CsrGraph,
    params: ScanParams,
    threads: usize,
    telemetry: Telemetry,
    tr: &Tracer,
    parent: u64,
) -> RunRecord {
    let config = AnyScanConfig::new(params)
        .with_auto_block_size(g.num_vertices())
        .with_threads(threads);
    let pool_before = {
        let _s = tr.span("parallel.utilization", parent);
        WorkerPool::global().utilization()
    };
    let run = tr.span("core.run", parent);
    let start = Instant::now();
    let sp = tr.span("core.new", run.id());
    let mut algo = AnyScan::new(g, config).with_telemetry(telemetry.clone());
    let new = sp.end();
    let mut phase_time = [Duration::ZERO; 5];
    let mut blocks = Vec::new();
    while algo.phase() != Phase::Done {
        let sp = tr.span("core.step", run.id());
        let rec = algo.step();
        sp.end();
        if let Some(i) = PHASES.iter().position(|&p| p == rec.phase) {
            phase_time[i] += rec.elapsed;
            blocks.push(rec.elapsed);
        }
    }
    let total = start.elapsed();
    run.end();
    let pool = {
        let _s = tr.span("parallel.utilization", parent);
        WorkerPool::global().utilization().delta_since(&pool_before)
    };
    let result = {
        let _s = tr.span("core.result", parent);
        algo.result()
    };
    let stats = {
        let _s = tr.span("core.stats", parent);
        algo.stats()
    };
    let unions = {
        let _s = tr.span("core.union_breakdown", parent);
        let u = algo.union_breakdown();
        [u.step1, u.step2, u.step3]
    };
    RunRecord {
        total,
        new,
        phase_time,
        blocks,
        stats,
        unions,
        supernodes: algo.num_supernodes(),
        pool,
        telemetry,
        result,
    }
}

/// How many `step()` calls at `threads` it takes until the first block
/// whose snapshot reaches NMI ≥ 0.9 against `exact` (noise folded into one
/// cluster). `snapshot()` does not change the run, so the same block count
/// applies to every run at the same thread count.
fn blocks_to_good_enough(
    g: &CsrGraph,
    params: ScanParams,
    threads: usize,
    exact: &[u32],
    tr: &Tracer,
    parent: u64,
) -> usize {
    let config = AnyScanConfig::new(params)
        .with_auto_block_size(g.num_vertices())
        .with_threads(threads);
    let mut algo = {
        let _s = tr.span("core.new", parent);
        AnyScan::new(g, config)
    };
    let mut blocks = 0;
    while algo.phase() != Phase::Done {
        {
            let _s = tr.span("core.step", parent);
            algo.step();
        }
        blocks += 1;
        let snapshot = {
            let _s = tr.span("core.snapshot", parent);
            algo.snapshot()
        };
        let score = {
            let _s = tr.span("check.nmi", parent);
            nmi(&snapshot.labels_with_noise_cluster(), exact)
        };
        if score >= GOOD_ENOUGH_NMI {
            break;
        }
    }
    blocks
}

/// The 1-thread baseline: `copies` 1-thread runs to the exact result at
/// once, one per CPU. A lone thread's speed on a shared host follows the
/// load on its one core, which can change for tens of seconds; one copy
/// per CPU samples every core at once, as the `nproc` run does. The first
/// copy carries the telemetry and the spans.
fn serial_side_by_side(
    g: &CsrGraph,
    params: ScanParams,
    copies: usize,
    ctx: &Ctx,
    parent: u64,
) -> Vec<RunRecord> {
    let quiet = Tracer::new(false);
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..copies)
            .map(|i| {
                let (telemetry, tr) = if i == 0 {
                    (ctx.telemetry(), &ctx.tracer)
                } else {
                    (Telemetry::disabled(), &quiet)
                };
                s.spawn(move || run_to_exact(g, params, 1, telemetry, tr, parent))
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("1-thread run panicked"))
            .collect()
    })
}

/// Wall time of each block of `r`, in milliseconds.
fn block_ms(r: &RunRecord) -> impl Iterator<Item = f64> + '_ {
    r.blocks.iter().map(|b| b.as_secs_f64() * 1e3)
}

/// Median of `f` over `items`, in seconds.
fn median_s<T>(items: &[T], f: impl Fn(&T) -> Duration) -> f64 {
    median(&items.iter().map(|x| f(x).as_secs_f64()).collect::<Vec<_>>())
}

/// Runs a cluster workload on the graph family `kind` at `params`.
pub fn run(
    kind: GraphKind,
    params: ScanParams,
    ctx: &Ctx,
    out: &mut Outcome,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let path = kind.graph_path(ctx.seed);
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();

    // Set-up: graph file → CsrGraph, repeated; the last read is kept.
    let mut reads = Vec::new();
    let mut graph: Option<CsrGraph> = None;
    for _ in 0..SETUP_REPEATS {
        drop(graph.take());
        let sp = tr.span("graph.read_binary", 0);
        graph = Some(data::read_graph(&path)?);
        reads.push(sp.end().as_secs_f64());
        ctx.sample_reference(0);
    }
    let g = graph.expect("SETUP_REPEATS is positive");
    let reference = {
        let _s = tr.span("check.read_reference", 0);
        data::read_reference(&data::reference_path(kind, ctx.seed, params))?
    };

    let nproc = ctx.nproc;
    // Untraced comparison runs of the traced mode record no spans at all.
    let quiet = Tracer::new(false);
    let check = |out: &mut Outcome, what: &str, r: &RunRecord, parent: u64| {
        let _s = tr.span("check.scan_equivalent", parent);
        out.check(
            &format!("{what} run against the index reference"),
            check_scan_equivalent(&g, params, &r.result, &reference),
        );
    };

    // Warm-up, before the window: one run to the exact result, and the
    // anytime pass that scores a snapshot after every block against it.
    // The pass fixes how many blocks the first good-enough snapshot takes;
    // each timed run then adds up its own first blocks.
    let warmup = tr.span("bench.warmup", 0);
    let first = run_to_exact(&g, params, nproc, Telemetry::disabled(), &quiet, 0);
    check(out, "warm-up", &first, warmup.id());
    let good_blocks = blocks_to_good_enough(
        &g,
        params,
        nproc,
        &first.result.labels_with_noise_cluster(),
        tr,
        warmup.id(),
    );
    warmup.end();
    drop(first);

    let mut exact_runs: Vec<RunRecord> = Vec::new();
    let mut traced_runs: Vec<RunRecord> = Vec::new();
    let mut serial_runs: Vec<RunRecord> = Vec::new();
    let mut serial_times = Vec::new();
    let mut serial_block_ms = Vec::new();
    let measure_start = Instant::now();
    while exact_runs.is_empty() || measure_start.elapsed() < ctx.seconds {
        let round = tr.span("bench.round", 0);
        let exact = {
            let _s = tr.span("bench.untraced_run", round.id());
            run_to_exact(&g, params, nproc, Telemetry::disabled(), &quiet, 0)
        };
        let traced = ctx
            .trace
            .then(|| run_to_exact(&g, params, nproc, ctx.telemetry(), tr, round.id()));
        let copies = serial_side_by_side(&g, params, nproc, ctx, round.id());
        check(out, "nproc", &exact, round.id());
        for copy in &copies {
            check(out, "1-thread", copy, round.id());
        }
        serial_times.push(median_s(&copies, |r| r.total));
        serial_block_ms.extend(copies.iter().flat_map(block_ms));
        let serial = copies.into_iter().next().expect("nproc is positive");
        if let Some(r) = &traced {
            check(out, "traced", r, round.id());
        }
        ctx.sample_reference(round.id());
        round.end();
        exact_runs.push(exact);
        serial_runs.push(serial);
        traced_runs.extend(traced);
    }
    let good_enough: Vec<Duration> = exact_runs
        .iter()
        .map(|r| r.blocks.iter().take(good_blocks).sum())
        .collect();

    let exact_s = median_s(&exact_runs, |r| r.total);
    let serial_s = median(&serial_times);
    let nproc_block_ms: Vec<f64> = exact_runs.iter().flat_map(block_ms).collect();
    out.set("setup_s", median(&reads));
    out.set("exact_s", exact_s);
    out.set("serial_s", serial_s);
    out.set("first_answer_s", median_s(&good_enough, |d| *d));
    out.set("answer_p50_ms", median(&serial_block_ms));

    // Per-layer figures. Counts come from the last 1-thread run, which
    // repeats exactly; times are medians over rounds.
    let read_s = median(&reads);
    out.set("graph.read_s", read_s);
    out.set("graph.read_mb_per_s", file_bytes as f64 / 1e6 / read_s);
    out.set("core.new_s", median_s(&exact_runs, |r| r.new));
    let phase_names = [
        "core.summarize_s",
        "core.merge_strong_s",
        "core.merge_weak_s",
        "core.borders_s",
        "core.resolve_roles_s",
    ];
    for (i, name) in phase_names.into_iter().enumerate() {
        out.set(name, median_s(&exact_runs, |r| r.phase_time[i]));
    }
    let last_exact = exact_runs.last().expect("at least one round ran");
    let serial = serial_runs.last().expect("at least one round ran");
    out.set("core.blocks", last_exact.blocks.len() as f64);
    out.set("core.block_p50_ms", median(&nproc_block_ms));
    out.set("core.block_p99_ms", quantile(&nproc_block_ms, 0.99));
    out.set("core.supernodes", serial.supernodes as f64);
    if let Some(report) = serial.telemetry.report() {
        out.set(
            "core.degree_shortcut",
            report.counter(Counter::DegreeShortcutNoise) as f64,
        );
    }
    let s = &serial.stats;
    out.set("kernel.sigma_evals", s.sigma_evals as f64);
    out.set("kernel.path_batched", s.path_batched as f64);
    out.set("kernel.path_bitmap", s.path_bitmap as f64);
    out.set("kernel.path_merge", s.path_merge as f64);
    out.set("kernel.lemma5_filtered", s.lemma5_filtered as f64);
    out.set("kernel.early_rejects", s.early_rejects as f64);
    out.set(
        "kernel.edge_cache_hit_ratio",
        s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
    );
    let serial_steps: Duration = serial.phase_time.iter().sum();
    out.set(
        "kernel.ns_per_sigma",
        serial_steps.as_nanos() as f64 / s.sigma_evals.max(1) as f64,
    );
    out.set("dsu.unions_step1", serial.unions[0] as f64);
    out.set("dsu.unions_step2", serial.unions[1] as f64);
    out.set("dsu.unions_step3", serial.unions[2] as f64);

    let busy: Vec<f64> = exact_runs
        .iter()
        .map(|r| r.pool.slots.iter().map(|s| s.busy_ns).sum::<u64>() as f64 * 1e-9)
        .collect();
    let parked: Vec<f64> = exact_runs
        .iter()
        .map(|r| r.pool.worker_parked_ns.iter().sum::<u64>() as f64 * 1e-9)
        .collect();
    out.set("parallel.busy_s", median(&busy));
    out.set("parallel.parked_s", median(&parked));
    out.set("parallel.jobs", last_exact.pool.jobs as f64);
    out.set(
        "parallel.chunks",
        last_exact.pool.slots.iter().map(|s| s.chunks).sum::<u64>() as f64,
    );
    // Pool busy time at nproc against the 1-thread run's time in step():
    // a 1-thread run never dispatches to the pool, so its whole step time
    // is the serial work.
    let serial_step_s = median_s(&serial_runs, |r| r.phase_time.iter().sum());
    out.set("parallel.work_inflation", median(&busy) / serial_step_s);
    out.set("parallel.efficiency", serial_s / (nproc as f64 * exact_s));
    if !traced_runs.is_empty() {
        let traced_s = median_s(&traced_runs, |r| r.total);
        out.set("trace.overhead_frac", traced_s / exact_s - 1.0);
    }

    let csr_bytes = (g.num_vertices() + 1) * 8 + g.num_arcs() * 12;
    out.note("graph", format!("\"{}\"", kind.name()));
    out.note("vertices", g.num_vertices().to_string());
    out.note("edges", g.num_edges().to_string());
    out.note("eps", params.epsilon.to_string());
    out.note("mu", params.mu.to_string());
    out.note("threads", format!("[{nproc},1]"));
    out.note("serial_copies", nproc.to_string());
    out.note("rounds", exact_runs.len().to_string());
    out.note("good_enough_blocks", good_blocks.to_string());
    out.note("graph_file_bytes", file_bytes.to_string());
    out.note("csr_bytes", csr_bytes.to_string());
    out.note("index_bytes", "0".into());
    out.note("clusters", reference.num_clusters().to_string());
    Ok(())
}
