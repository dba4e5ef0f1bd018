//! Child-daemon plumbing shared by the multi-process integration tests
//! (`membership_failover`, `txn_transfer`, `trace_smoke`).
//!
//! The trick is libtest re-execution: a harness test spawns copies of its
//! *own* test binary, each told through the `HERMES_TEST_DAEMON_*`
//! environment to run only `daemon_process` — a `#[test]` every such
//! binary defines as a one-line call to [`daemon_process`] — which serves
//! a `NodeRuntime` through the examples' child-daemon body
//! ([`daemon_main`]) until its stdin closes. Under a plain `cargo test`
//! the environment is unset and `daemon_process` does nothing.
//!
//! Include with `#[path = "support/daemon.rs"] mod daemon;`.

// Each test binary uses the subset its scenario needs.
#![allow(dead_code)]

use hermes::harness::{daemon_main, reserve_loopback_addrs, ChildGuard};
use std::io::Read;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const ENV_NODE: &str = "HERMES_TEST_DAEMON_NODE";
const ENV_PEERS: &str = "HERMES_TEST_DAEMON_PEERS";
const ENV_CLIENT: &str = "HERMES_TEST_DAEMON_CLIENT";
const ENV_JOIN: &str = "HERMES_TEST_DAEMON_JOIN";

/// Whether this process is a spawned daemon child — harness tests return
/// at once when it is, so only `daemon_process` runs there.
pub fn is_child() -> bool {
    std::env::var(ENV_NODE).is_ok()
}

/// Daemon half of the re-execution trick: serves one replica (2 workers,
/// live membership) from the `HERMES_TEST_DAEMON_*` environment with
/// [`daemon_main`], until the harness hangs up stdin or SIGKILLs the
/// process; a clean exit prints the `clean shutdown` marker
/// [`Daemons::shutdown`] checks.
pub fn daemon_process() {
    let Ok(node) = std::env::var(ENV_NODE) else {
        return; // Normal test run: nothing to do.
    };
    let mut args = vec![
        "--node".to_string(),
        node,
        "--peers".to_string(),
        std::env::var(ENV_PEERS).expect("peers env"),
        "--client".to_string(),
        std::env::var(ENV_CLIENT).expect("client env"),
        "--workers".to_string(),
        "2".to_string(),
    ];
    if std::env::var(ENV_JOIN).is_ok() {
        args.push("--join".to_string());
    }
    daemon_main(&args);
}

/// `a,b,c` — the form `--peers` and `hermes_top --nodes` take.
pub fn addr_list(addrs: &[SocketAddr]) -> String {
    let addrs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    addrs.join(",")
}

/// A loopback cluster of daemon children of this test binary.
pub struct Daemons {
    children: Vec<ChildGuard>,
    peers: String,
    /// Each node's client-port address.
    pub clients: Vec<SocketAddr>,
    /// Extra environment per node, re-applied when a node is respawned.
    env: Box<dyn Fn(usize) -> Vec<(&'static str, String)>>,
}

impl Daemons {
    /// Spawns `nodes` founding members; `env(node)` adds environment
    /// variables to that node's process.
    pub fn launch(
        nodes: usize,
        env: impl Fn(usize) -> Vec<(&'static str, String)> + 'static,
    ) -> Daemons {
        let mut daemons = Daemons {
            children: Vec::new(),
            peers: addr_list(&reserve_loopback_addrs(nodes)),
            clients: reserve_loopback_addrs(nodes),
            env: Box::new(env),
        };
        for node in 0..nodes {
            let child = daemons.spawn(node, false);
            daemons.children.push(child);
        }
        daemons
    }

    fn spawn(&self, node: usize, join: bool) -> ChildGuard {
        let exe = std::env::current_exe().expect("own path");
        let mut cmd = Command::new(exe);
        cmd.args(["daemon_process", "--exact", "--nocapture"])
            .env(ENV_NODE, node.to_string())
            .env(ENV_PEERS, &self.peers)
            .env(ENV_CLIENT, self.clients[node].to_string())
            .envs((self.env)(node))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if join {
            cmd.env(ENV_JOIN, "1");
        }
        ChildGuard(Some(cmd.spawn().expect("spawn replica daemon")))
    }

    /// `kill -9`s `node`: no shutdown path runs, the kernel closes its
    /// sockets.
    pub fn kill(&mut self, node: usize) {
        let victim = self.children[node].0.as_mut().expect("victim alive");
        victim.kill().expect("SIGKILL");
        let _ = victim.wait();
    }

    /// Starts `node` again outside the group (`--join`): it must be
    /// admitted as a shadow, bulk-sync and be promoted before it serves.
    pub fn rejoin(&mut self, node: usize) {
        self.children[node] = self.spawn(node, true);
    }

    /// Orderly teardown: hangs up every daemon's stdin (EOF is the
    /// shutdown request), then requires each to exit successfully within
    /// 15 s having printed its `clean shutdown` marker.
    pub fn shutdown(mut self) {
        for guard in &mut self.children {
            drop(guard.0.as_mut().expect("child alive").stdin.take());
        }
        for (node, guard) in self.children.iter_mut().enumerate() {
            let mut child = guard.0.take().expect("child alive");
            let deadline = Instant::now() + Duration::from_secs(15);
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
            let mut err = String::new();
            let _ = child.stdout.take().expect("piped").read_to_string(&mut out);
            let _ = child.stderr.take().expect("piped").read_to_string(&mut err);
            assert!(
                status.success(),
                "node {node} exited with {status}; stdout:\n{out}\nstderr:\n{err}"
            );
            assert!(
                out.contains("clean shutdown"),
                "node {node} missing shutdown marker; stdout:\n{out}"
            );
        }
    }
}
