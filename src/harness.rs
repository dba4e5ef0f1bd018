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
//! The replica daemon lives here too. [`daemon_main`] is the whole of
//! `hermesd` (`src/bin/hermesd.rs` is a `main` over it), and the examples
//! that spawn copies of themselves run it in their children.
//! [`spawn_daemons`] starts a replica group of such a program — the
//! integration tests spawn the built `hermesd` — [`Daemons::kill`] and
//! [`Daemons::rejoin`] crash and restart one, and [`Daemons::shutdown`]
//! stops them and checks they stopped cleanly.

use hermes_common::{ClientOp, Key, NodeSet, RmwOp, TxnOp, Value};
use hermes_model::{check_linearizable, observe, HistoryOp, OpKind, Outcome};
use hermes_obs::obs_info;
use hermes_replica::{ClientSession, NodeOptions, NodeRuntime, SessionChannel, Ticket, TxnResult};
use hermes_txn::TxnObs;
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raised by the SIGINT handler; polled by [`daemon_main`]'s loop.
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Installs a minimal SIGINT handler (an async-signal-safe atomic store)
/// without any external dependency: std already links libc.
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

fn fmt_set(set: NodeSet) -> String {
    let ids: Vec<String> = set.iter().map(|n| n.0.to_string()).collect();
    format!("{{{}}}", ids.join(","))
}

/// The replica daemon `hermesd`: serves one replica from its command line
/// (`--node <id> --peers … --client …`, [`NodeOptions::parse`]) until one
/// of its clean exit paths, each of which joins every lane thread:
///
/// * stdin reaching end of file (the supervising process hung up),
/// * `--duration` elapsing,
/// * SIGINT,
/// * the shutdown RPC on the client port
///   ([`request_shutdown`](hermes_replica::request_shutdown)).
///
/// It logs every membership view transition, and a transport line on
/// exit, through the `HERMES_LOG` logger (DESIGN.md §9); `--metrics-dump
/// <secs>` also prints the whole metrics exposition to stderr on that
/// interval. Only two markers go to stdout, for supervising harnesses to
/// parse: `hermesd: node <id> serving …` and `… clean shutdown …`. A bad
/// command line exits with status 2, a replica that cannot serve with 1.
pub fn daemon_main(args: &[String]) {
    let opts = NodeOptions::parse(args).unwrap_or_else(|e| {
        eprintln!("hermesd: {e}");
        eprintln!(
            "usage: hermesd --node <id> --peers <addr,addr,...> --client <addr> \
             [--workers <n>] [--duration <secs>] [--join] \
             [--no-membership] [--metrics-dump <secs>]"
        );
        std::process::exit(2);
    });
    install_sigint_handler();
    let (node, joining, run_for, metrics_dump) =
        (opts.node, opts.join, opts.run_for, opts.metrics_dump);
    let runtime = NodeRuntime::serve(opts).unwrap_or_else(|e| {
        eprintln!("hermesd: node {node}: failed to serve: {e}");
        std::process::exit(1);
    });
    let deadline = run_for.map(|d| Instant::now() + d);
    println!(
        "hermesd: node {node} serving clients at {} with {} workers{}",
        runtime.client_addr(),
        runtime.workers(),
        if joining { " (joining as shadow)" } else { "" }
    );
    let stdin_closed = Arc::new(AtomicBool::new(false));
    let watcher = Arc::clone(&stdin_closed);
    // Detached: it stays blocked in read() until stdin closes.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        watcher.store(true, Ordering::SeqCst);
    });
    let status = runtime.membership();
    let view = || (status.epoch(), status.serving(), status.synced());
    let mut last = view();
    let mut next_dump = metrics_dump.map(|every| Instant::now() + every);
    loop {
        if stdin_closed.load(Ordering::SeqCst) || deadline.is_some_and(|d| Instant::now() >= d) {
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
        if let (Some(due), Some(every)) = (next_dump, metrics_dump) {
            if Instant::now() >= due {
                // Stderr, whole exposition at once: stdout stays reserved
                // for the two markers.
                eprint!("{}", runtime.metrics_text());
                next_dump = Some(due + every);
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
    obs_info!("hermesd", "node {node} transport: {transport}");
    println!("hermesd: node {node} clean shutdown (epoch={epoch} view_changes={view_changes})");
}

/// Per-node environment of a [`Daemons`] group: `env(node)` lists the
/// variables set for that node's process.
pub type DaemonEnv = fn(usize) -> Vec<(&'static str, String)>;

/// One child daemon and the threads collecting its stdout and stderr as it
/// runs (so a chatty daemon never stalls on a full pipe). Dropping it
/// kills the process.
struct Daemon {
    process: Child,
    /// The stdout and stderr collectors, until the daemon is waited for.
    output: Option<(JoinHandle<String>, JoinHandle<String>)>,
}

impl Daemon {
    /// Waits for the collectors to reach end of file: `(stdout, stderr)`.
    fn output(&mut self) -> (String, String) {
        let (out, err) = self.output.take().expect("output collected once");
        (
            out.join().unwrap_or_default(),
            err.join().unwrap_or_default(),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// Reads `stream` to its end on a thread of its own.
fn collect(mut stream: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = stream.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// A loopback replica group of child daemons, started by [`spawn_daemons`].
/// Dropping it kills them; [`Daemons::shutdown`] stops them in order.
pub struct Daemons {
    /// Each node's client-port address, by node id.
    pub clients: Vec<SocketAddr>,
    program: PathBuf,
    peers: String,
    flags: Vec<String>,
    env: DaemonEnv,
    children: Vec<Daemon>,
}

/// Spawns `nodes` processes of `program` as one replica group on loopback
/// ports, node `i` with `--node <i> --peers <all> --client <own>` followed
/// by `flags`, and with the variables `env(i)` — `program` must hand those
/// arguments to [`daemon_main`]. Returns once the processes exist; a
/// client port accepts a moment later
/// ([`ClientConn::connect_within`](hermes_replica::ClientConn::connect_within)).
pub fn spawn_daemons(
    program: impl Into<PathBuf>,
    nodes: usize,
    flags: &[&str],
    env: DaemonEnv,
) -> Daemons {
    let mut daemons = Daemons {
        clients: reserve_loopback_addrs(nodes),
        program: program.into(),
        peers: addr_list(&reserve_loopback_addrs(nodes)),
        flags: flags.iter().map(|f| f.to_string()).collect(),
        env,
        children: Vec::new(),
    };
    daemons.children = (0..nodes).map(|node| daemons.spawn(node, false)).collect();
    daemons
}

/// `a,b,c` — the form `--peers` and `hermes_top --nodes` take.
pub fn addr_list(addrs: &[SocketAddr]) -> String {
    let addrs: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    addrs.join(",")
}

impl Daemons {
    fn spawn(&self, node: usize, join: bool) -> Daemon {
        let mut process = Command::new(&self.program)
            .args(["--node", &node.to_string(), "--peers", &self.peers])
            .args(["--client", &self.clients[node].to_string()])
            .args(&self.flags)
            .args(join.then_some("--join"))
            .envs((self.env)(node))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn replica daemon");
        let stdout = collect(process.stdout.take().expect("piped stdout"));
        let stderr = collect(process.stderr.take().expect("piped stderr"));
        Daemon {
            process,
            output: Some((stdout, stderr)),
        }
    }

    /// `node`'s process id.
    pub fn pid(&self, node: usize) -> u32 {
        self.children[node].process.id()
    }

    /// `kill -9`s `node`: no shutdown path runs, the kernel closes its
    /// sockets.
    pub fn kill(&mut self, node: usize) {
        let victim = &mut self.children[node].process;
        victim.kill().expect("SIGKILL");
        let _ = victim.wait();
    }

    /// Starts `node` again with `--join`: it must be admitted as a shadow,
    /// bulk-sync and be promoted before it serves.
    pub fn rejoin(&mut self, node: usize) {
        self.children[node] = self.spawn(node, true);
    }

    /// Hangs up every daemon's stdin — its shutdown request — then
    /// requires each to exit cleanly within 15 s
    /// ([`Daemons::expect_clean_exit`]).
    pub fn shutdown(mut self) {
        for child in &mut self.children {
            drop(child.process.stdin.take());
        }
        self.expect_clean_exit(Duration::from_secs(15));
    }

    /// Requires each daemon to exit successfully within `within`, having
    /// printed its `clean shutdown` marker — whatever asked it to stop.
    ///
    /// # Panics
    ///
    /// When a daemon overstays (it is killed then), fails or did not print
    /// the marker; the message carries its stdout and stderr.
    pub fn expect_clean_exit(mut self, within: Duration) {
        for (node, child) in self.children.iter_mut().enumerate() {
            let deadline = Instant::now() + within;
            let status = loop {
                if let Some(status) = child.process.try_wait().expect("wait child") {
                    break Some(status);
                }
                if Instant::now() >= deadline {
                    let _ = child.process.kill();
                    break None;
                }
                std::thread::sleep(Duration::from_millis(25));
            };
            let (out, err) = child.output();
            assert!(
                status.is_some_and(|s| s.success()) && out.contains("clean shutdown"),
                "node {node} exited with {status:?} (None: not within {within:?}); \
                 stdout:\n{out}\nstderr:\n{err}"
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
