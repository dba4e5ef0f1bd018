//! # hermes-replica — cluster runtimes
//!
//! Binds protocol state machines (Hermes and the baselines) to the
//! substrates: networks, stores, membership and workloads (DESIGN.md §3.3).
//!
//! * [`run_sim`] — a deterministic discrete-event cluster: N nodes × W
//!   worker servers with a calibrated [`CostModel`], closed-loop client
//!   sessions, the `hermes-net` fault-injecting network, optional reliable
//!   membership and crash injection, producing throughput/latency
//!   [`RunReport`]s. Every figure of the paper's evaluation is regenerated
//!   through this entry point.
//! * The real runtime is one replica `Node` in two deployment shapes. A
//!   node is W worker lanes — each a clock-free `Lane` owning one key
//!   shard's `HermesNode` protocol engine, stepped by its own thread —
//!   Wings-framed datagrams over any pluggable transport, and a
//!   per-node seqlock KVS mirror serving lock-free local reads (the
//!   HermesKV architecture of paper §4):
//!   * [`ThreadCluster`] holds N nodes in one process, over crossbeam
//!     channels or loopback TCP, reached through pipelined
//!     [`ClientSession`]s with many operations in flight;
//!   * [`NodeRuntime`] holds one node per OS process over the TCP
//!     transport and adds a client-facing RPC port, across which
//!     [`RemoteChannel`] connects a [`ClientSession`] (the `hermesd`
//!     binary of the root package, DESIGN.md §4).
//!
//! Either shape can additionally run the **live membership subsystem**
//! (DESIGN.md §5): lane 0 of each node hosts a wall-clock
//! [`MembershipDriver`](hermes_membership::MembershipDriver) whose
//! heartbeats and Paxos view agreement travel as Wings control frames over
//! the same transport, so a replica group survives real process crashes —
//! lease expiry drives a view change, survivors replay pending writes, and
//! a restarted node rejoins as a shadow, bulk-syncs, and is promoted back
//! to full member ([`MembershipStatus`], [`MembershipOptions`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod host;
mod lane;
mod membership;
mod metrics;
mod node;
mod poller;
mod remote;
mod session;
mod simrun;
mod threaded;
mod timers;

pub use cost::CostModel;
pub use membership::{MembershipOptions, MembershipStatus};
pub use node::{query_metrics, query_traces, request_shutdown, NodeOptions, NodeRuntime};
pub use remote::{KillSwitch, RemoteChannel};
pub use session::{ClientSession, LaneChannel, PendingTxn, SessionChannel, Ticket, TxnResult};
pub use simrun::{run_sim, RunReport, SimConfig};
pub use threaded::{ClusterConfig, ThreadCluster};
pub use timers::DeadlineQueue;
