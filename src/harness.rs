//! Shared client-side harness: drive pipelined sessions while recording an
//! invocation/response history, then hand it to the linearizability
//! checker.
//!
//! Used by the TCP cluster integration test and the multi-process
//! `examples/tcp_cluster.rs` harness — the acceptance gate of the transport
//! subsystem is that a real concurrent-session history (in-process or
//! across OS processes) passes `hermes-model`'s Wing & Gong checker.
//!
//! Timestamps come from one shared atomic counter, so real-time precedence
//! across client threads is captured exactly (an operation that responded
//! before another was invoked must be ordered before it). A reply becomes
//! a history entry through [`hermes_model::observe`], the one mapping the
//! engine-level `hermes_model::Cluster` uses as well.
//!
//! The multi-process harnesses also share their child-daemon plumbing from
//! here: [`daemon_main`] is what a child runs, [`spawn_daemons`] starts a
//! replica group of them, [`connect_within`] reaches one and
//! [`Daemons::shutdown`] stops them and checks they stopped cleanly.

use hermes_common::{ClientOp, Key, RmwOp, TxnOp, Value};
use hermes_model::{check_linearizable, observe, HistoryOp, OpKind, Outcome};
use hermes_replica::{ClientSession, NodeOptions, NodeRuntime, SessionChannel, Ticket, TxnResult};
use hermes_txn::TxnObs;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Daemon mode of a harness binary that spawns copies of itself: serves
/// one replica from `hermesd`'s own argument list (`--node <id> --peers …
/// --client …`) until stdin reaches end of file — the parent hanging up is
/// the shutdown request — and prints the `serving` and `clean shutdown`
/// markers the parent looks for, as `examples/hermesd.rs` does.
pub fn daemon_main(args: &[String]) {
    let opts = NodeOptions::parse(args).unwrap_or_else(|e| {
        eprintln!("hermesd: {e}");
        std::process::exit(2);
    });
    let node = opts.node;
    let runtime = NodeRuntime::serve(opts).unwrap_or_else(|e| {
        eprintln!("hermesd: node {node}: {e}");
        std::process::exit(1);
    });
    println!("hermesd: node {node} serving");
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    runtime.shutdown();
    println!("hermesd: node {node} clean shutdown");
}

/// Kills the child on drop so a panicking harness leaves no orphans.
pub struct ChildGuard(pub Option<std::process::Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A loopback replica group of child daemons, started by [`spawn_daemons`].
/// Dropping it kills them; [`Daemons::shutdown`] stops them in order.
pub struct Daemons {
    /// Each node's client-port address, by node id.
    pub clients: Vec<SocketAddr>,
    /// Each node's process id, by node id.
    pub pids: Vec<u32>,
    children: Vec<ChildGuard>,
}

/// Spawns `nodes` copies of the running binary as one replica group on
/// loopback ports, node `i` with `--node <i> --peers <all> --client <own>`
/// followed by `flags` — the binary must hand those arguments to
/// [`daemon_main`]. Returns once the processes exist; a client port
/// accepts a moment later ([`connect_within`]).
pub fn spawn_daemons(nodes: usize, flags: &[&str]) -> Daemons {
    let peers = reserve_loopback_addrs(nodes);
    let peers: Vec<String> = peers.iter().map(SocketAddr::to_string).collect();
    let peers = peers.join(",");
    let clients = reserve_loopback_addrs(nodes);
    let exe = std::env::current_exe().expect("own path");
    let children: Vec<ChildGuard> = (0..nodes)
        .map(|node| {
            let child = Command::new(&exe)
                .args(["--node", &node.to_string(), "--peers", &peers])
                .args(["--client", &clients[node].to_string()])
                .args(flags)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn replica daemon");
            ChildGuard(Some(child))
        })
        .collect();
    let pids = children.iter().map(|c| c.0.as_ref().expect("spawned").id());
    Daemons {
        pids: pids.collect(),
        clients,
        children,
    }
}

impl Daemons {
    /// Hangs up every daemon's stdin — its shutdown request — then requires
    /// each to exit successfully within 10 s, having printed its `clean
    /// shutdown` marker.
    ///
    /// # Panics
    ///
    /// When a daemon overstays, fails or did not print the marker.
    pub fn shutdown(mut self) {
        for guard in &mut self.children {
            drop(guard.0.as_mut().expect("child alive").stdin.take());
        }
        for (node, guard) in self.children.iter_mut().enumerate() {
            let child = guard.0.as_mut().expect("child alive");
            let deadline = Instant::now() + Duration::from_secs(10);
            let status = loop {
                if let Some(status) = child.try_wait().expect("wait child") {
                    break status;
                }
                assert!(
                    Instant::now() < deadline,
                    "node {node} did not exit after stdin hangup"
                );
                std::thread::sleep(Duration::from_millis(25));
            };
            let mut out = String::new();
            let stdout = child.stdout.as_mut().expect("piped stdout");
            stdout.read_to_string(&mut out).expect("read child stdout");
            assert!(
                status.success() && out.contains("clean shutdown"),
                "node {node} exited with {status}; stdout:\n{out}"
            );
        }
    }
}

/// `n` distinct loopback addresses that were free a moment ago: bound to
/// port 0 all at once, then released. (The tiny bind race after dropping
/// them is acceptable on loopback.)
pub fn reserve_loopback_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// Blocking connect with retries until `timeout` has passed: a
/// just-spawned daemon's listener may still be binding, and a big fleet
/// can transiently overflow its accept backlog.
///
/// # Panics
///
/// When `addr` still refuses at the deadline.
pub fn connect_within(addr: SocketAddr, timeout: Duration) -> TcpStream {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) if Instant::now() >= deadline => panic!("connect {addr}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Writes a bench example's JSON record and returns where it went. A full
/// run refreshes the committed `BENCH_<name>.json` in the working
/// directory (the repository root); a `--smoke` run — what CI executes —
/// goes to `target/bench/<name>.json`, so a one-point smoke record can
/// never replace a recorded baseline.
///
/// # Errors
///
/// Fails if the directory cannot be created or the file not written.
pub fn write_bench_record(name: &str, smoke: bool, json: &str) -> std::io::Result<PathBuf> {
    let path = if smoke {
        std::fs::create_dir_all("target/bench")?;
        PathBuf::from(format!("target/bench/{name}.json"))
    } else {
        PathBuf::from(format!("BENCH_{name}.json"))
    };
    std::fs::write(&path, json)?;
    Ok(path)
}

/// One operation as observed by the client that issued it.
#[derive(Clone, Debug)]
pub struct RecordedOp {
    /// Key the operation targeted.
    pub key: Key,
    /// Global clock stamp when the operation was submitted.
    pub invoke: u64,
    /// Global clock stamp when its reply was observed.
    pub response: u64,
    /// Checker vocabulary for what the operation did.
    pub kind: OpKind,
    /// Whether the effect is certain or indeterminate (timeout/abort).
    pub outcome: Outcome,
}

/// Drives `ops` operations through `session` with up to `depth` in flight,
/// cycling writes (unique values), reads and fetch-add RMWs over `keys`
/// keys, and records every invocation/response against the shared `clock`.
///
/// `sid` salts keys and write values so concurrent sessions collide on
/// keys (that is the point) but never write identical values.
pub fn run_recorded_session<C: SessionChannel>(
    session: &mut ClientSession<C>,
    clock: &AtomicU64,
    sid: u64,
    keys: u64,
    ops: u64,
    depth: usize,
) -> Vec<RecordedOp> {
    let mut observed = Vec::with_capacity(ops as usize);
    // (ticket, key, op, invoke-stamp) for operations still in flight.
    let mut pending: Vec<(Ticket, Key, ClientOp, u64)> = Vec::new();
    let mut issued = 0u64;
    while issued < ops || !pending.is_empty() {
        // Fill the pipeline.
        while issued < ops && pending.len() < depth {
            let key = Key((issued + sid) % keys);
            let cop = match issued % 3 {
                0 => ClientOp::Write(Value::from_u64(1 + sid * 1_000_000 + issued)),
                1 => ClientOp::Read,
                _ => ClientOp::Rmw(RmwOp::FetchAdd { delta: 1 }),
            };
            let invoke = clock.fetch_add(1, Ordering::SeqCst);
            let ticket = session.submit(key, cop.clone());
            pending.push((ticket, key, cop, invoke));
            issued += 1;
        }
        // Collect one completion (out of order across keys).
        let Some((done, reply)) = session.wait_any() else {
            // Service gone: mark the remainder indeterminate and stop.
            for (_, key, cop, invoke) in pending.drain(..) {
                let response = clock.fetch_add(1, Ordering::SeqCst);
                let (kind, outcome) = observe(&cop, None);
                observed.push(RecordedOp {
                    key,
                    invoke,
                    response,
                    kind,
                    outcome,
                });
            }
            break;
        };
        let response = clock.fetch_add(1, Ordering::SeqCst);
        let at = pending
            .iter()
            .position(|(t, _, _, _)| *t == done)
            .expect("completion matches a pending ticket");
        let (_, key, cop, invoke) = pending.swap_remove(at);
        let (kind, outcome) = observe(&cop, reply);
        observed.push(RecordedOp {
            key,
            invoke,
            response,
            kind,
            outcome,
        });
    }
    observed
}

/// Checks every per-key sub-history of `all` with the Wing & Gong checker
/// (Hermes registers are independent per key).
///
/// # Errors
///
/// Names the first non-linearizable key, or a key whose history exceeds
/// the checker's 63-op bound (size the workload down instead).
pub fn check_linearizable_per_key(all: &[RecordedOp], keys: u64) -> Result<(), String> {
    for k in 0..keys {
        let history: Vec<HistoryOp> = all
            .iter()
            .filter(|o| o.key == Key(k))
            .map(|o| HistoryOp {
                invoke: o.invoke,
                response: o.response,
                kind: o.kind.clone(),
                outcome: o.outcome,
            })
            .collect();
        if history.len() > 63 {
            return Err(format!(
                "key {k}: {} ops exceed the bitmask checker's bound",
                history.len()
            ));
        }
        if !check_linearizable(&history) {
            return Err(format!(
                "key {k}: history of {} ops is not linearizable",
                history.len()
            ));
        }
    }
    Ok(())
}

/// Records one multi-key transaction as a transaction-granularity history
/// event ([`TxnObs`], checked by
/// [`hermes_txn::check_txns_serializable`]): the recorder's analogue of
/// [`observe`] one level up — a whole transaction is one operation whose
/// observation is its committed values.
///
/// `invoke` must be stamped from the shared clock *before* the
/// transaction was submitted; the response is stamped here. An in-doubt
/// result records as unresolved (`reply: None`, open response window): it
/// may have taken partial effect, and the checker branches over that.
pub fn observe_txn(op: &TxnOp, result: &TxnResult, invoke: u64, clock: &AtomicU64) -> TxnObs {
    let reply = result.as_reply();
    let response = if reply.is_some() {
        clock.fetch_add(1, Ordering::SeqCst)
    } else {
        u64::MAX
    };
    TxnObs {
        invoke,
        response,
        op: op.clone(),
        reply,
    }
}
