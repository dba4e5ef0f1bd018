//! `hermesd` — one Hermes replica as its own OS process.
//!
//! Binds a replication listener (TCP, length-prefixed Wings frames) and a
//! client RPC port, runs the live membership subsystem (heartbeats, lease
//! expiry → view changes, shadow rejoin — DESIGN.md §5), and serves until
//! told to stop. Three of these on one box are a real multi-process Hermes
//! cluster that survives `kill -9` of a replica:
//!
//! ```sh
//! cargo run --release --example hermesd -- --node 0 \
//!     --peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//!     --client 127.0.0.1:8101 &
//! # ... same for --node 1 / --node 2 with their own --client ports.
//! # A killed replica restarts with --join: it re-enters as a shadow,
//! # bulk-syncs the dataset, and is promoted back to full member.
//! ```
//!
//! Clean exit paths, all of which join worker and transport threads:
//!
//! * stdin closing (the supervising process hung up),
//! * `--duration` elapsing,
//! * ctrl-c / SIGINT,
//! * the shutdown RPC on the client port
//!   (`hermes_replica::request_shutdown`).
//!
//! The daemon logs every membership view transition and a transport stats
//! line on exit through the `HERMES_LOG` leveled logger (DESIGN.md §9), so
//! operators can watch reconnects and view changes; `--metrics-dump <secs>`
//! additionally prints the full metrics exposition to stderr on an
//! interval. Only the serving handshake and the clean-shutdown marker stay
//! on stdout — supervising harnesses parse them.

use hermes::obs::obs_info;
use hermes::prelude::*;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Raised by the SIGINT handler; polled by the main loop.
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Installs a minimal SIGINT handler (an async-signal-safe atomic store)
/// without any external dependency: std already links libc.
#[cfg(unix)]
fn install_sigint_handler() {
    unsafe extern "C" fn on_sigint(_sig: i32) {
        SIGINT_SEEN.store(true, Ordering::Relaxed);
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    let handler: unsafe extern "C" fn(i32) = on_sigint;
    unsafe {
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

fn fmt_set(set: hermes::common::NodeSet) -> String {
    let ids: Vec<String> = set.iter().map(|n| n.0.to_string()).collect();
    format!("{{{}}}", ids.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match NodeOptions::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("hermesd: {e}");
            eprintln!(
                "usage: hermesd --node <id> --peers <addr,addr,...> --client <addr> \
                 [--workers <n>] [--pollers <n>] [--duration <secs>] [--join] \
                 [--no-membership] [--metrics-dump <secs>]"
            );
            std::process::exit(2);
        }
    };
    install_sigint_handler();
    let run_for = opts.run_for;
    let metrics_dump = opts.metrics_dump;
    let node = opts.node;
    let joining = opts.join;
    let runtime = match NodeRuntime::serve(opts) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("hermesd: node {node}: failed to serve: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "hermesd: node {} serving clients at {} with {} workers{}",
        runtime.node_id(),
        runtime.client_addr(),
        runtime.workers(),
        if joining { " (joining as shadow)" } else { "" }
    );

    // Run until stdin closes (supervisor hung up), --duration elapses,
    // SIGINT arrives, or a client delivers the shutdown RPC.
    let deadline = run_for.map(|d| Instant::now() + d);
    let stdin_closed = std::sync::Arc::new(AtomicBool::new(false));
    let watcher = {
        let stdin_closed = std::sync::Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            // read() returning Ok(0) is EOF: the parent dropped our stdin.
            while !matches!(stdin.read(&mut sink), Ok(0) | Err(_)) {}
            stdin_closed.store(true, Ordering::SeqCst);
        })
    };
    let status = runtime.membership();
    let view = || (status.epoch(), status.serving(), status.synced());
    let mut last = view();
    let mut next_dump = metrics_dump.map(|every| (Instant::now() + every, every));
    loop {
        if stdin_closed.load(Ordering::SeqCst) {
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        if SIGINT_SEEN.load(Ordering::Relaxed) {
            obs_info!("hermesd", "node {node} caught SIGINT");
            break;
        }
        if runtime.shutdown_requested() {
            obs_info!("hermesd", "node {node} shutdown RPC received");
            break;
        }
        // Log every membership transition (view change, serve/sync flips).
        let now = view();
        if now != last {
            let (epoch, serving, synced) = now;
            obs_info!(
                "hermesd",
                "node {node} view epoch={epoch} members={} shadows={} \
                 serving={serving} synced={synced} (view_changes={})",
                fmt_set(status.members()),
                fmt_set(status.shadows()),
                status.view_changes(),
            );
            last = now;
        }
        if let Some((due, every)) = next_dump {
            if Instant::now() >= due {
                // Stderr, whole exposition at once: stdout stays reserved
                // for the handshake and shutdown markers harnesses parse.
                eprint!("{}", runtime.metrics_text());
                next_dump = Some((due + every, every));
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (epoch, view_changes) = (status.epoch(), status.view_changes());
    let tcp = runtime.tcp_stats();
    let transport = format!(
        "{} frames out, {} in, {} dials, {} peer disconnects",
        tcp.frames_sent(),
        tcp.frames_received(),
        tcp.dials(),
        tcp.disconnects(),
    );
    runtime.shutdown();
    drop(watcher); // Detached: blocked in read() until our stdin closes.
    obs_info!("hermesd", "node {node} transport: {transport}");
    println!("hermesd: node {node} clean shutdown (epoch={epoch} view_changes={view_changes})");
}
