//! The replica program as shipped: `hermesd` stops cleanly on each of its
//! exit paths. The multi-process tests end their daemons by hanging up
//! stdin ([`Daemons::shutdown`](hermes::harness::Daemons::shutdown)); these
//! cover the other two a supervisor relies on — the shutdown RPC and
//! `--duration` — on a one-node daemon with stdin held open.

use hermes::harness::spawn_daemons;
use hermes::prelude::*;
use std::time::{Duration, Instant};

/// How long a stopped daemon may take to join its threads and exit.
const EXIT_LIMIT: Duration = Duration::from_secs(10);

#[test]
fn shutdown_rpc_stops_the_daemon() {
    let hermesd = env!("CARGO_BIN_EXE_hermesd");
    let daemon = spawn_daemons(hermesd, 1, &[], |_| Vec::new());
    let addr = daemon.clients[0];
    // The client port accepts a moment after the process starts.
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Err(e) = request_shutdown(addr, Duration::from_secs(1)) {
        assert!(Instant::now() < deadline, "shutdown RPC never acked: {e}");
        std::thread::sleep(Duration::from_millis(50));
    }
    daemon.expect_clean_exit(EXIT_LIMIT);
}

#[test]
fn duration_elapsing_stops_the_daemon() {
    let hermesd = env!("CARGO_BIN_EXE_hermesd");
    let daemon = spawn_daemons(hermesd, 1, &["--duration", "1"], |_| Vec::new());
    daemon.expect_clean_exit(EXIT_LIMIT);
}
