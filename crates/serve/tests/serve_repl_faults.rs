//! The replication failpoints: injected IO errors on the primary's ack
//! (`repl::ack`), the primary's entry-stream write (`repl::send_entry`) and
//! the replica's frame read (`repl::recv_entry`) each kill one subscription
//! attempt — and the replica's backoff-and-retry loop recovers from all
//! three without losing or reordering a single entry.
//!
//! Own test binary (own process): failpoints are process-global.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anyscan::RunControl;
use anyscan_dynamic::DynamicIndex;
use anyscan_faults::FaultAction;
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams};
use anyscan_serve::protocol::{
    read_frame, write_frame, Request, Response, WireUpdate, RESPONSE_FRAME_LIMIT, UPDATE_INSERT,
};
use anyscan_serve::{run_replica_feed, Listener, ReplicaFeedConfig, Server, ServerConfig};
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Daemon {
    server: Arc<Server>,
    addr: std::net::SocketAddr,
    stop: RunControl,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    feed: Option<std::thread::JoinHandle<()>>,
}

fn start(replica_of: Option<String>) -> Daemon {
    let mut rng = StdRng::seed_from_u64(41);
    let (g, _) = planted_partition(&mut rng, &PlantedPartitionParams::well_separated(150, 3));
    let engine = DynamicIndex::new(&g, 1).unwrap();
    let server = Arc::new(
        Server::new_dynamic(engine, None, ServerConfig::default(), Telemetry::enabled()).unwrap(),
    );
    let (listener, addr) = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let stop = RunControl::new();
    let join = {
        let server = Arc::clone(&server);
        let stop = stop.clone();
        std::thread::spawn(move || server.serve(listener, &stop))
    };
    let feed = replica_of.map(|primary| {
        server.become_replica(&primary);
        run_replica_feed(Arc::clone(&server), ReplicaFeedConfig::new(primary))
    });
    Daemon {
        server,
        addr,
        stop,
        join: Some(join),
        feed,
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.cancel();
        if let Some(join) = self.join.take() {
            join.join().unwrap().unwrap();
        }
        if let Some(feed) = self.feed.take() {
            feed.join().unwrap();
        }
    }
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn apply_one(conn: &mut TcpStream, u: u32, v: u32) -> u64 {
    let request = Request::ApplyUpdates {
        updates: vec![WireUpdate {
            kind: UPDATE_INSERT,
            u,
            v,
            w: 0.9,
        }],
    };
    write_frame(conn, &request.encode()).unwrap();
    let payload = read_frame(conn, RESPONSE_FRAME_LIMIT).unwrap().unwrap();
    match Response::decode(&payload).unwrap() {
        Response::ApplyUpdates { seq, .. } => seq,
        other => panic!("unexpected response {other:?}"),
    }
}

/// One sequential pass over all three fault sites. A single test function:
/// the sites fire on daemon threads outside any `FaultScope`, so they are
/// armed process-wide and concurrent #[test]s would race for hits.
#[test]
fn replica_feed_retries_through_every_replication_fault_site() {
    let primary = start(None);
    let mut conn = TcpStream::connect(primary.addr).unwrap();
    conn.set_nodelay(true).unwrap();

    // Site 1: the ack write fails — the first subscription dies before a
    // single entry ships; the retry succeeds and back-fills everything.
    anyscan_faults::configure("repl::ack", FaultAction::IoError, 1);
    let replica = start(Some(primary.addr.to_string()));
    let seq = apply_one(&mut conn, 0, 149);
    wait_for("catch-up after ack fault", || {
        replica.server.durable_watermark() == seq
    });
    assert!(anyscan_faults::injected() >= 1, "ack fault never consumed");

    // Site 2: the primary's stream write fails mid-subscription — the
    // replica sees a dead stream, reconnects, and resumes past its
    // watermark.
    anyscan_faults::configure("repl::send_entry", FaultAction::IoError, 1);
    let seq = apply_one(&mut conn, 1, 148);
    wait_for("catch-up after send fault", || {
        replica.server.durable_watermark() == seq
    });

    // Site 3: the replica's frame read fails — same recovery, other side.
    anyscan_faults::configure("repl::recv_entry", FaultAction::IoError, 1);
    let seq = apply_one(&mut conn, 2, 147);
    wait_for("catch-up after recv fault", || {
        replica.server.durable_watermark() == seq
    });

    // Nothing was lost or double-applied across the three recoveries.
    assert_eq!(replica.server.durable_watermark(), 3);
    assert_eq!(replica.server.num_edges(), primary.server.num_edges());
    anyscan_faults::clear();
}
