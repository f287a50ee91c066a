//! The `serve-mixed` workload: an in-process dynamic daemon over the LFR
//! graph on a loopback listener, driven open-loop by two client
//! connections — reads at a fixed rate on one, edge-update batches on a
//! fixed period on the other.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anyscan::{Counter, RunControl, Telemetry};
use anyscan_client::{wait_ready, Client, ClientError, Endpoint};
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate};
use anyscan_graph::CsrGraph;
use anyscan_index::io::{read_index, write_index};
use anyscan_index::SimilarityIndex;
use anyscan_parallel::WorkerPool;
use anyscan_scan_common::{Clustering, ScanParams};
use anyscan_serve::{
    role_code, ErrorCode, LabelBlock, Listener, Request, Response, Server, ServerConfig,
    WireUpdate, UPDATE_INSERT, UPDATE_REMOVE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{self, GraphKind, DATA_DIR};
use crate::trace::Tracer;
use crate::util::{median, quantile};
use crate::{Ctx, Outcome, SETUP_REPEATS};

/// The (ε, μ) pairs reads draw from, uniformly. Four pairs fit the
/// daemon's 16-entry memo cache, so between writes every read after the
/// first per pair is a cache hit.
const GRID: [(f64, u32); 4] = [(0.5, 5), (0.4, 5), (0.6, 5), (0.5, 3)];
/// Open-loop read rate on connection 1, requests per second.
const READ_RATE: f64 = 200.0;
/// Share of reads that are `Membership` lookups; the rest are summary
/// `Query` requests (`want_labels = false`).
const LOOKUP_SHARE: f64 = 0.8;
/// Connection 2 sends batch `k` at `WRITE_OFFSET + k·WRITE_PERIOD`, for
/// every `k` whose whole period fits in the window: each commit and the
/// burst of cache misses after its epoch swap fall inside the window, so
/// every run sees the same number of them.
const WRITE_OFFSET: Duration = Duration::from_millis(500);
const WRITE_PERIOD: Duration = Duration::from_secs(1);
/// Updates per `ApplyUpdates` batch: half inserts, half removals.
const BATCH_EDGES: usize = 8;
/// The generator sleeps until this long before a request is due, then
/// spins: a sleep overshoots its deadline by tens of microseconds, which
/// would otherwise count in every latency.
const SPIN_AHEAD: Duration = Duration::from_micros(300);
/// Reference kernel samples taken just before and just after the window.
const REFERENCE_SAMPLES: usize = 3;
/// In-process `Server::dispatch` calls per probe (traced run only).
const DISPATCH_PROBES: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Lookup,
    Query,
    Write,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpResult {
    Ok,
    Overloaded,
    Timeout,
    Error,
}

/// One request as the open-loop generator saw it.
struct Op {
    kind: OpKind,
    /// How late it was sent, relative to its scheduled time.
    lag: Duration,
    /// From its scheduled send time to its response.
    latency: Duration,
    result: OpResult,
}

struct Daemon {
    server: Arc<Server>,
    endpoint: Endpoint,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Times of one set-up, in seconds.
#[derive(Default)]
struct SetupTimes {
    total: f64,
    read: f64,
    build: f64,
    write: f64,
    load: f64,
    from_parts: f64,
}

/// Graph file → index built, written and read back → `from_parts` →
/// daemon answering its first `Ping`.
fn start_daemon(
    graph_path: &Path,
    index_path: &Path,
    threads: usize,
    telemetry: Telemetry,
    tr: &Tracer,
) -> Result<(Daemon, CsrGraph, SimilarityIndex, SetupTimes), String> {
    let setup = tr.span("bench.setup", 0);
    let parent = setup.id();
    let start = Instant::now();
    let mut t = SetupTimes::default();

    let sp = tr.span("graph.read_binary", parent);
    let g = data::read_graph(graph_path)?;
    t.read = sp.end().as_secs_f64();

    let sp = tr.span("index.build", parent);
    let index = SimilarityIndex::build(&g, threads);
    t.build = sp.end().as_secs_f64();

    let sp = tr.span("index.write", parent);
    let file =
        File::create(index_path).map_err(|e| format!("create {}: {e}", index_path.display()))?;
    let mut w = BufWriter::new(file);
    write_index(&index, &mut w).map_err(|e| format!("write index: {e}"))?;
    w.flush().map_err(|e| format!("flush index: {e}"))?;
    drop(w);
    t.write = sp.end().as_secs_f64();

    let sp = tr.span("index.read", parent);
    let file = File::open(index_path).map_err(|e| format!("open {}: {e}", index_path.display()))?;
    let loaded = read_index(BufReader::new(file)).map_err(|e| format!("read index: {e}"))?;
    t.load = sp.end().as_secs_f64();

    let sp = tr.span("dynamic.from_parts", parent);
    let engine = DynamicIndex::from_parts(&g, loaded, threads).map_err(|e| e.to_string())?;
    t.from_parts = sp.end().as_secs_f64();

    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let server = {
        let _s = tr.span("serve.new_dynamic", parent);
        Arc::new(Server::new_dynamic(engine, None, config, telemetry)?)
    };
    let (listener, addr) = {
        let _s = tr.span("serve.bind", parent);
        Listener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?
    };
    let handle = {
        let _s = tr.span("serve.serve", parent);
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener, &RunControl::new()))
    };
    let endpoint = Endpoint::Tcp(addr.to_string());
    {
        let _s = tr.span("client.wait_ready", parent);
        wait_ready(&endpoint, Duration::from_secs(30))
            .map_err(|e| format!("daemon not ready: {e}"))?;
    }
    t.total = start.elapsed().as_secs_f64();
    setup.end();
    Ok((
        Daemon {
            server,
            endpoint,
            handle,
        },
        g,
        index,
        t,
    ))
}

/// Asks the daemon to drain and waits for its accept loop to return.
fn stop_daemon(d: Daemon, tr: &Tracer) -> Result<(), String> {
    let _s = tr.span("bench.stop_daemon", 0);
    let mut client = Client::connect(d.endpoint.clone()).map_err(|e| e.to_string())?;
    match client.call(&Request::Shutdown) {
        Ok(Response::Shutdown) => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    drop(client);
    d.handle
        .join()
        .map_err(|_| "daemon accept loop panicked".to_string())?
        .map_err(|e| format!("daemon accept loop failed: {e}"))
}

fn params(pair: (f64, u32)) -> ScanParams {
    ScanParams::new(pair.0, pair.1 as usize)
}

/// The full-label answer of `c`, as the daemon encodes it.
fn label_block(c: &Clustering) -> LabelBlock {
    LabelBlock {
        labels: c.labels.clone(),
        roles: c.roles.iter().map(|&r| role_code(r)).collect(),
    }
}

/// Full labels from the daemon at every grid pair.
fn daemon_labels(client: &mut Client, tr: &Tracer, parent: u64) -> Vec<Result<LabelBlock, String>> {
    GRID.iter()
        .map(|&(eps, mu)| {
            let _s = tr.span("client.call", parent);
            match client.call(&Request::Query {
                eps,
                mu,
                want_labels: true,
            }) {
                Ok(Response::Query {
                    labels: Some(labels),
                    ..
                }) => Ok(labels),
                other => Err(format!(
                    "full-label query at ({eps}, {mu}) answered {other:?}"
                )),
            }
        })
        .collect()
}

fn compare(what: &str, got: &Result<LabelBlock, String>, want: &LabelBlock) -> Result<(), String> {
    let got = got.as_ref().map_err(Clone::clone)?;
    if got.labels != want.labels {
        let v = got
            .labels
            .iter()
            .zip(&want.labels)
            .position(|(a, b)| a != b);
        return Err(format!("{what}: labels differ (first at vertex {v:?})"));
    }
    if got.roles != want.roles {
        return Err(format!("{what}: roles differ"));
    }
    Ok(())
}

fn classify(kind: OpKind, response: Result<Response, ClientError>) -> (OpResult, Option<u64>) {
    match (kind, response) {
        (OpKind::Lookup, Ok(Response::Membership { .. }))
        | (OpKind::Query, Ok(Response::Query { .. })) => (OpResult::Ok, None),
        (OpKind::Write, Ok(Response::ApplyUpdates { seq, .. })) => (OpResult::Ok, Some(seq)),
        (
            _,
            Ok(Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }),
        ) => (OpResult::Overloaded, None),
        (
            _,
            Ok(Response::Error {
                code: ErrorCode::Timeout,
                ..
            }),
        )
        | (_, Err(ClientError::Timeout)) => (OpResult::Timeout, None),
        _ => (OpResult::Error, None),
    }
}

/// Sends `requests` open-loop: request `i` is due at `t0 + due(i)` and is
/// timed from then, however late the sender gets to it.
fn open_loop(
    client: &mut Client,
    requests: &[(OpKind, Request)],
    due: impl Fn(usize) -> Duration,
    t0: Instant,
    tr: &Tracer,
    parent: u64,
    request_base: u64,
) -> (Vec<Op>, Vec<u64>) {
    let mut ops = Vec::with_capacity(requests.len());
    let mut acked = Vec::new();
    for (i, (kind, request)) in requests.iter().enumerate() {
        let due_at = t0 + due(i);
        let now = Instant::now();
        if now + SPIN_AHEAD < due_at {
            std::thread::sleep(due_at - SPIN_AHEAD - now);
        }
        while Instant::now() < due_at {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let sp = tr.request_span("client.call", parent, request_base + i as u64);
        let response = client.call(request);
        sp.end();
        let done = Instant::now();
        let (result, seq) = classify(*kind, response);
        acked.extend(seq);
        ops.push(Op {
            kind: *kind,
            lag: sent - due_at,
            latency: done - due_at,
            result,
        });
    }
    (ops, acked)
}

/// One write batch: `BATCH_EDGES / 2` inserts of random vertex pairs and as
/// many removals of edges of the original graph (a removal of an edge an
/// earlier batch already removed is a recorded no-op).
fn update_batch(rng: &mut StdRng, g: &CsrGraph) -> Vec<WireUpdate> {
    let n = g.num_vertices() as u32;
    (0..BATCH_EDGES)
        .map(|j| {
            let u = rng.gen_range(0..n);
            if j % 2 == 0 {
                let v = (u + rng.gen_range(1..n)) % n;
                let w = rng.gen_range(0.5..1.0);
                WireUpdate {
                    kind: UPDATE_INSERT,
                    u,
                    v,
                    w,
                }
            } else {
                let nbrs: Vec<u32> = g
                    .neighbor_ids(u)
                    .iter()
                    .copied()
                    .filter(|&v| v != u)
                    .collect();
                let v = if nbrs.is_empty() {
                    (u + 1) % n
                } else {
                    nbrs[rng.gen_range(0..nbrs.len())]
                };
                WireUpdate {
                    kind: UPDATE_REMOVE,
                    u,
                    v,
                    w: 0.0,
                }
            }
        })
        .collect()
}

fn ms(ops: &[&Op], pick: impl Fn(&Op) -> Duration) -> Vec<f64> {
    ops.iter().map(|op| pick(op).as_secs_f64() * 1e3).collect()
}

/// One offline replay: its final state and what each commit cost.
struct Replay {
    engine: DynamicIndex,
    /// The graph after the last batch (`None` when no batch was acknowledged).
    csr: Option<CsrGraph>,
    apply: Vec<Duration>,
    to_csr: Vec<Duration>,
    clone: Vec<Duration>,
    reevals: Vec<f64>,
    repaired: Vec<f64>,
}

impl Replay {
    /// Commit work of batch `b` in seconds: `apply_batch` + `to_csr` + the
    /// index clone, the steps the daemon takes on every commit.
    fn commit_s(&self, b: usize) -> f64 {
        (self.apply[b] + self.to_csr[b] + self.clone[b]).as_secs_f64()
    }
}

/// Replays `batches` on a 1-thread `DynamicIndex` over `g` and `index`.
fn replay(
    g: &CsrGraph,
    index: SimilarityIndex,
    batches: &[Vec<EdgeUpdate>],
    tr: &Tracer,
    parent: u64,
) -> Result<Replay, String> {
    let mut engine = {
        let _s = tr.span("dynamic.from_parts", parent);
        DynamicIndex::from_parts(g, index, 1).map_err(|e| e.to_string())?
    };
    let (mut apply, mut to_csr, mut clone) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reevals, mut repaired, mut csr) = (Vec::new(), Vec::new(), None);
    for updates in batches {
        let sp = tr.span("dynamic.apply_batch", parent);
        let stats = engine
            .apply_batch(updates, &Telemetry::disabled())
            .map_err(|e| format!("replay apply_batch: {e}"))?;
        apply.push(sp.end());
        let sp = tr.span("dynamic.to_csr", parent);
        csr = Some(engine.to_csr().map_err(|e| format!("replay to_csr: {e}"))?);
        to_csr.push(sp.end());
        let sp = tr.span("dynamic.index_clone", parent);
        let copy = std::hint::black_box(engine.index().clone());
        clone.push(sp.end());
        drop(copy);
        reevals.push(stats.sigma_reevals as f64);
        repaired.push(stats.orders_repaired as f64);
    }
    Ok(Replay {
        engine,
        csr,
        apply,
        to_csr,
        clone,
        reevals,
        repaired,
    })
}

/// The replay as `copies` copies at once, one per CPU, each on its own
/// copy of `index`. A lone thread's speed on a shared host follows the
/// load on its one core, which can change for tens of seconds; one copy per
/// CPU samples every core at once. The first copy records the spans.
fn replay_side_by_side(
    g: &CsrGraph,
    index: SimilarityIndex,
    batches: &[Vec<EdgeUpdate>],
    copies: usize,
    tr: &Tracer,
    parent: u64,
) -> Result<Vec<Replay>, String> {
    let quiet = Tracer::new(false);
    let mut indexes: Vec<SimilarityIndex> = (1..copies).map(|_| index.clone()).collect();
    indexes.insert(0, index);
    std::thread::scope(|s| {
        let runs: Vec<_> = indexes
            .into_iter()
            .enumerate()
            .map(|(i, index)| {
                let tr = if i == 0 { tr } else { &quiet };
                s.spawn(move || replay(g, index, batches, tr, parent))
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("replay panicked"))
            .collect()
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let nproc = ctx.nproc;
    let graph_path = GraphKind::Lfr.graph_path(ctx.seed);
    let index_path = Path::new(DATA_DIR).join(format!("serve-s{}.asix", ctx.seed));
    // Set-up, repeated; the last daemon stays up for the traffic.
    let mut setups = Vec::new();
    let mut live: Option<(Daemon, CsrGraph, SimilarityIndex)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((daemon, ..)) = live.take() {
            stop_daemon(daemon, tr)?;
        }
        let (daemon, g, index, times) =
            start_daemon(&graph_path, &index_path, nproc, ctx.telemetry(), tr)?;
        setups.push(times);
        live = Some((daemon, g, index));
        ctx.sample_reference(0);
    }
    let (daemon, g, index) = live.expect("SETUP_REPEATS is positive");
    let index_bytes = std::fs::metadata(&index_path)
        .map_err(|e| format!("{}: {e}", index_path.display()))?
        .len();
    let n = g.num_vertices();

    // Epoch 0: the daemon's full labels must equal SimilarityIndex::query.
    let mut query_ms = Vec::new();
    {
        let check = tr.span("check.epoch0", 0);
        let mut client = Client::connect(daemon.endpoint.clone()).map_err(|e| e.to_string())?;
        let got = daemon_labels(&mut client, tr, check.id());
        for (&pair, got) in GRID.iter().zip(&got) {
            let sp = tr.span("index.query", check.id());
            let want = index.query(&g, params(pair));
            query_ms.push(sp.end().as_secs_f64() * 1e3);
            out.check(
                "epoch-0 full-label query against SimilarityIndex::query",
                compare(&format!("epoch 0 at {pair:?}"), got, &label_block(&want)),
            );
        }
    }

    // The schedule, drawn from the seed before the window opens.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5e7e_5e7e);
    let n_reads = (READ_RATE * ctx.seconds.as_secs_f64()) as usize;
    let reads: Vec<(OpKind, Request)> = (0..n_reads)
        .map(|_| {
            let (eps, mu) = GRID[rng.gen_range(0..GRID.len())];
            if rng.gen::<f64>() < LOOKUP_SHARE {
                let vertex = rng.gen_range(0..n as u32);
                (OpKind::Lookup, Request::Membership { vertex, eps, mu })
            } else {
                let query = Request::Query {
                    eps,
                    mu,
                    want_labels: false,
                };
                (OpKind::Query, query)
            }
        })
        .collect();
    let mut n_writes = 1;
    while WRITE_OFFSET + WRITE_PERIOD * (n_writes + 1) <= ctx.seconds {
        n_writes += 1;
    }
    let batches: Vec<Vec<WireUpdate>> = (0..n_writes).map(|_| update_batch(&mut rng, &g)).collect();
    let writes: Vec<(OpKind, Request)> = batches
        .iter()
        .map(|b| (OpKind::Write, Request::ApplyUpdates { updates: b.clone() }))
        .collect();

    // The reference kernel brackets the window; it never runs inside it.
    for _ in 0..REFERENCE_SAMPLES {
        ctx.sample_reference(0);
    }

    // The window: reads on connection 1, writes on connection 2.
    let counters_before = daemon.server.telemetry().report();
    let pool_before = WorkerPool::global().utilization();
    let mut read_client = Client::connect(daemon.endpoint.clone()).map_err(|e| e.to_string())?;
    let mut write_client = Client::connect(daemon.endpoint.clone()).map_err(|e| e.to_string())?;
    let traffic = tr.span("bench.traffic", 0);
    let traffic_id = traffic.id();
    let t0 = Instant::now();
    let ((read_ops, _), (write_ops, acked)) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            open_loop(
                &mut read_client,
                &reads,
                |i| Duration::from_secs_f64(i as f64 / READ_RATE),
                t0,
                tr,
                traffic_id,
                1,
            )
        });
        let writer = s.spawn(|| {
            open_loop(
                &mut write_client,
                &writes,
                |i| WRITE_OFFSET + WRITE_PERIOD * i as u32,
                t0,
                tr,
                traffic_id,
                1 + n_reads as u64,
            )
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    traffic.end();
    for _ in 0..REFERENCE_SAMPLES {
        ctx.sample_reference(0);
    }
    let pool = WorkerPool::global().utilization().delta_since(&pool_before);
    let counters_after = daemon.server.telemetry().report();
    let client_stats = [read_client.stats(), write_client.stats()];
    drop((read_client, write_client));

    // In-process dispatch on a warm cache (traced run only).
    if ctx.trace {
        let probe = tr.span("bench.dispatch_probe", 0);
        let mut lookup_us = Vec::new();
        let mut query_us = Vec::new();
        for i in 0..DISPATCH_PROBES {
            let (eps, mu) = GRID[i % GRID.len()];
            let vertex = rng.gen_range(0..n as u32);
            let sp = tr.span("serve.dispatch", probe.id());
            daemon
                .server
                .dispatch(Request::Membership { vertex, eps, mu });
            lookup_us.push(sp.end().as_secs_f64() * 1e6);
            let sp = tr.span("serve.dispatch", probe.id());
            daemon.server.dispatch(Request::Query {
                eps,
                mu,
                want_labels: false,
            });
            query_us.push(sp.end().as_secs_f64() * 1e6);
        }
        // The first round per grid pair warms the cache; drop it.
        out.set("serve.dispatch_lookup_us", median(&lookup_us[GRID.len()..]));
        out.set("serve.dispatch_query_us", median(&query_us[GRID.len()..]));
    }

    let final_labels = {
        let check = tr.span("check.final_labels", 0);
        let mut client = Client::connect(daemon.endpoint.clone()).map_err(|e| e.to_string())?;
        daemon_labels(&mut client, tr, check.id())
    };
    let stats = {
        let _s = tr.span("serve.stats", 0);
        daemon.server.stats()
    };
    let epochs = daemon.server.current_epoch();
    stop_daemon(daemon, tr)?;

    // Offline replay of the acknowledged batches, in seq order, at 1
    // thread: its final labels must be byte-equal to the daemon's.
    let mut seq = 0u64;
    let acked_batches: Vec<Vec<EdgeUpdate>> = batches
        .iter()
        .zip(&write_ops)
        .filter(|(_, op)| op.result == OpResult::Ok)
        .map(|(batch, _)| {
            batch
                .iter()
                .map(|w| {
                    seq += 1;
                    let op = if w.kind == UPDATE_INSERT {
                        EdgeOp::Insert(w.w)
                    } else {
                        EdgeOp::Remove
                    };
                    EdgeUpdate {
                        seq,
                        u: w.u,
                        v: w.v,
                        op,
                    }
                })
                .collect()
        })
        .collect();
    let replay = tr.span("bench.replay", 0);
    let copies = replay_side_by_side(&g, index, &acked_batches, nproc, tr, replay.id())?;
    let commit_s: Vec<f64> = (0..acked_batches.len())
        .map(|b| median(&copies.iter().map(|c| c.commit_s(b)).collect::<Vec<_>>()))
        .collect();
    let Replay {
        engine,
        csr,
        apply,
        to_csr,
        clone,
        reevals,
        repaired,
    } = copies.into_iter().next().expect("nproc is positive");
    let to_ms = |ds: &[Duration]| ds.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>();
    let (apply_ms, csr_ms, clone_ms) = (to_ms(&apply), to_ms(&to_csr), to_ms(&clone));
    out.check(
        "acknowledged watermark matches the replay",
        if acked.last().copied().unwrap_or(0) == seq {
            Ok(())
        } else {
            Err(format!(
                "daemon acknowledged up to {:?}, replay reached {seq}",
                acked.last()
            ))
        },
    );
    let csr = match csr {
        Some(csr) => csr,
        None => engine.to_csr().map_err(|e| format!("replay to_csr: {e}"))?,
    };
    for (&pair, got) in GRID.iter().zip(&final_labels) {
        let want = {
            let _s = tr.span("index.query", replay.id());
            engine.index().query(&csr, params(pair))
        };
        out.check(
            "final full labels against the offline replay",
            compare(&format!("final at {pair:?}"), got, &label_block(&want)),
        );
    }
    replay.end();

    // Failures and latencies, per opcode.
    let all_ops: Vec<&Op> = read_ops.iter().chain(&write_ops).collect();
    for op in &all_ops {
        let name = match op.kind {
            OpKind::Lookup => "lookup",
            OpKind::Query => "query",
            OpKind::Write => "write",
        };
        let result = match op.result {
            OpResult::Ok => Ok(()),
            OpResult::Overloaded => Err("overloaded".to_string()),
            OpResult::Timeout => Err("timed out".to_string()),
            OpResult::Error => Err("error response".to_string()),
        };
        out.check(name, result);
    }
    let of =
        |kind: OpKind| -> Vec<&Op> { all_ops.iter().copied().filter(|o| o.kind == kind).collect() };
    let (lookups, queries, writes_done) =
        (of(OpKind::Lookup), of(OpKind::Query), of(OpKind::Write));
    let reads_all: Vec<&Op> = read_ops.iter().collect();
    let failed = |ops: &[&Op]| ops.iter().filter(|o| o.result != OpResult::Ok).count() as f64;

    let lookup_ms = ms(&lookups, |o| o.latency);
    let query_ms_client = ms(&queries, |o| o.latency);
    out.set(
        "setup_s",
        median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()),
    );
    out.set("exact_s", median(&ms(&writes_done, |o| o.latency)) / 1e3);
    out.set("serial_s", median(&commit_s));
    out.set("first_answer_s", median(&query_ms_client) / 1e3);
    out.set("answer_p50_ms", median(&lookup_ms));

    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("graph.read_s", pick(|t| t.read));
    let file_bytes = std::fs::metadata(&graph_path).map_or(0, |m| m.len());
    out.set(
        "graph.read_mb_per_s",
        file_bytes as f64 / 1e6 / pick(|t| t.read),
    );
    out.set("index.build_s", pick(|t| t.build));
    out.set("index.write_s", pick(|t| t.write));
    out.set("index.read_s", pick(|t| t.load));
    out.set("index.bytes", index_bytes as f64);
    out.set("index.query_ms", median(&query_ms));
    out.set("dynamic.from_parts_s", pick(|t| t.from_parts));
    out.set("dynamic.apply_batch_ms", median(&apply_ms));
    out.set("dynamic.to_csr_ms", median(&csr_ms));
    out.set("dynamic.index_clone_ms", median(&clone_ms));
    out.set("dynamic.sigma_reevals_per_batch", median(&reevals));
    out.set("dynamic.orders_repaired_per_batch", median(&repaired));
    if let (Some(before), Some(after)) = (counters_before, counters_after) {
        let delta = |c: Counter| (after.counter(c) - before.counter(c)) as f64;
        let reads_served = delta(Counter::ServeLookups) + delta(Counter::ServeQueries);
        out.set(
            "serve.cache_hit_ratio",
            1.0 - delta(Counter::IndexQueries) / reads_served.max(1.0),
        );
    }
    out.set("serve.epoch_swaps", epochs as f64);
    out.set("serve.overloaded", stats.overloaded as f64);
    out.set(
        "load.lag_p99_ms",
        quantile(&ms(&reads_all, |o| o.lag), 0.99),
    );
    out.set("load.reads_sent", read_ops.len() as f64);
    out.set("load.writes_sent", write_ops.len() as f64);
    out.set(
        "load.read_p99_ms",
        quantile(&ms(&reads_all, |o| o.latency), 0.99),
    );
    out.set("load.lookup_p99_ms", quantile(&lookup_ms, 0.99));
    out.set("load.query_p50_ms", median(&query_ms_client));
    out.set("load.query_p99_ms", quantile(&query_ms_client, 0.99));
    out.set("load.failed_lookup", failed(&lookups));
    out.set("load.failed_query", failed(&queries));
    out.set("load.failed_write", failed(&writes_done));
    out.set(
        "client.retries",
        client_stats.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    out.set(
        "client.reconnects",
        client_stats.iter().map(|s| s.reconnects).sum::<u64>() as f64,
    );
    out.set(
        "parallel.busy_s",
        pool.slots.iter().map(|s| s.busy_ns).sum::<u64>() as f64 * 1e-9,
    );
    out.set(
        "parallel.parked_s",
        pool.worker_parked_ns.iter().sum::<u64>() as f64 * 1e-9,
    );
    out.set("parallel.jobs", pool.jobs as f64);
    out.set(
        "parallel.chunks",
        pool.slots.iter().map(|s| s.chunks).sum::<u64>() as f64,
    );

    let csr_bytes = (n + 1) * 8 + g.num_arcs() * 12;
    out.note("graph", "\"lfr\"".into());
    out.note("vertices", n.to_string());
    out.note("edges", g.num_edges().to_string());
    out.note(
        "grid",
        format!(
            "[{}]",
            GRID.iter()
                .map(|(e, m)| format!("[{e},{m}]"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.note("threads", format!("[{nproc}]"));
    out.note("replay_copies", nproc.to_string());
    out.note("read_rate_per_s", READ_RATE.to_string());
    out.note("lookup_share", LOOKUP_SHARE.to_string());
    out.note("write_period_s", WRITE_PERIOD.as_secs_f64().to_string());
    out.note("batch_edges", BATCH_EDGES.to_string());
    out.note("graph_file_bytes", file_bytes.to_string());
    out.note("csr_bytes", csr_bytes.to_string());
    out.note("index_bytes", index_bytes.to_string());
    for (name, ops) in [
        ("lookup", &lookups),
        ("query", &queries),
        ("write", &writes_done),
    ] {
        let count = |r: OpResult| ops.iter().filter(|o| o.result == r).count();
        out.note(
            &format!("ops_{name}"),
            format!(
                "{{\"attempted\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{}}}",
                ops.len(),
                count(OpResult::Error),
                count(OpResult::Overloaded),
                count(OpResult::Timeout)
            ),
        );
    }
    Ok(())
}
