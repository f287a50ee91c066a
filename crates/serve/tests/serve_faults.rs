//! The `serve::read_frame` failpoint: an injected IO error on a daemon
//! connection read must kill only that connection — counted as a protocol
//! error — while the daemon keeps serving.
//!
//! The fault is armed process-wide, not through a `FaultScope`: it fires on
//! the daemon's connection threads, which run outside any test's scope. So
//! this file is its own test binary (own process) with a single test, and
//! the client side deliberately frames by hand so the daemon's `read_frame`
//! is the only caller that can consume the fault.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anyscan::RunControl;
use anyscan_faults::FaultAction;
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams};
use anyscan_graph::VertexPermutation;
use anyscan_index::SimilarityIndex;
use anyscan_serve::protocol::{Request, Response};
use anyscan_serve::{Listener, Server, ServerConfig};
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Client-side framing without `protocol::read_frame`, so this process's
/// only `serve::read_frame` caller is the daemon.
fn raw_call(stream: &mut TcpStream, request: &Request) -> Option<Response> {
    let payload = request.encode();
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .ok()?;
    stream.write_all(&payload).ok()?;
    stream.flush().ok()?;
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
    stream.read_exact(&mut body).ok()?;
    Some(Response::decode(&body).unwrap())
}

#[test]
fn injected_read_fault_kills_one_connection_not_the_daemon() {
    let mut rng = StdRng::seed_from_u64(7);
    let (g, _) = planted_partition(&mut rng, &PlantedPartitionParams::well_separated(120, 3));
    let idx = SimilarityIndex::build(&g, 1);
    let perm = VertexPermutation::identity(g.num_vertices());
    let server =
        Arc::new(Server::new(g, perm, idx, ServerConfig::default(), Telemetry::enabled()).unwrap());
    let (listener, addr) = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let stop = RunControl::new();
    let join = {
        let server = Arc::clone(&server);
        let stop = stop.clone();
        std::thread::spawn(move || server.serve(listener, &stop))
    };

    // Arm the failpoint before the first connection, so the doomed client
    // is deterministically the only possible consumer of the fault (any
    // earlier connection's handler could re-enter read_frame and race for
    // the hit). The post-fault query below is the daemon-health baseline.
    anyscan_faults::configure("serve::read_frame", FaultAction::IoError, 1);
    let mut doomed = TcpStream::connect(addr).unwrap();
    // The handler's read_frame fires the fault at entry and closes the
    // connection; our ping gets EOF (or a reset), never a response.
    assert!(raw_call(&mut doomed, &Request::Ping).is_none());

    // Exactly one protocol error was counted, and the fault was consumed.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().protocol_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().protocol_errors, 1);
    assert!(anyscan_faults::injected() >= 1);

    // The daemon survives: fresh connections get real answers.
    let mut fresh = TcpStream::connect(addr).unwrap();
    match raw_call(
        &mut fresh,
        &Request::Query {
            eps: 0.5,
            mu: 4,
            want_labels: false,
        },
    ) {
        Some(Response::Query { summary, .. }) => assert!(summary.clusters > 0),
        other => panic!("daemon did not survive the fault: {other:?}"),
    }

    // Close client connections before stopping so the drain loop doesn't
    // sit out its full grace period waiting on their open handlers.
    drop(doomed);
    drop(fresh);
    anyscan_faults::clear();
    stop.cancel();
    join.join().unwrap().unwrap();
}
