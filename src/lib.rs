//! # hermes — a full reproduction of the Hermes replication protocol
//!
//! This crate is the front door to a from-scratch Rust reproduction of
//! *"Hermes: a Fast, Fault-Tolerant and Linearizable Replication Protocol"*
//! (Katsarakis et al., ASPLOS 2020): the protocol itself, every substrate it
//! depends on, the baselines it is evaluated against, and a harness that
//! regenerates the paper's evaluation. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The pieces (each re-exported as a module below):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `hermes-core` | the Hermes protocol state machine (§3) |
//! | [`common`] | `hermes-common` | ids, values, views, the `ReplicaProtocol` trait |
//! | [`baselines`] | `hermes-baselines` | rZAB, rCRAQ, CR, ABD, lock-step SMR (§5.1) |
//! | [`replica`] | `hermes-replica` | simulated + threaded cluster runtimes (§4) |
//! | [`membership`] | `hermes-membership` | leases, Paxos, reliable membership (§2.4) |
//! | [`store`] | `hermes-store` | seqlock CRCW key-value store (§4.1) |
//! | [`wings`] | `hermes-wings` | batching / credit / codec messaging layer (§4.2) |
//! | [`net`] | `hermes-net` | simulated and in-process datagram networks |
//! | [`sim`] | `hermes-sim` | discrete-event kernel, RNG, histograms |
//! | [`workload`] | `hermes-workload` | uniform/zipfian YCSB-style workloads (§5.2) |
//! | [`model`] | `hermes-model` | model checker + linearizability checker (§3.2) |
//! | [`txn`] | `hermes-txn` | cross-shard multi-key transactions over single-key Hermes (§7) |
//! | [`obs`] | `hermes-obs` | metrics registry, phase tracing, leveled logging (§9) |
//!
//! # Quickstart
//!
//! Run a real multi-threaded 5-replica Hermes cluster in-process:
//!
//! ```
//! use hermes::prelude::*;
//!
//! let cluster = ThreadCluster::start(5, ProtocolConfig::default());
//! assert_eq!(cluster.write(0, Key(7), Value::from_u64(1)), Reply::WriteOk);
//! // Linearizable local reads at every replica:
//! for node in 0..5 {
//!     assert_eq!(cluster.read(node, Key(7)), Reply::ReadOk(Value::from_u64(1)));
//! }
//! cluster.shutdown();
//! ```
//!
//! More: `examples/quickstart.rs`, `examples/lock_service.rs`,
//! `examples/fault_tolerance.rs`, `examples/figure4_trace.rs`,
//! `examples/ycsb_sweep.rs`.

#![warn(missing_docs)]

pub mod harness;

pub use hermes_baselines as baselines;
pub use hermes_common as common;
pub use hermes_core as core;
pub use hermes_membership as membership;
pub use hermes_model as model;
pub use hermes_net as net;
pub use hermes_obs as obs;
pub use hermes_replica as replica;
pub use hermes_sim as sim;
pub use hermes_store as store;
pub use hermes_txn as txn;
pub use hermes_wings as wings;
pub use hermes_workload as workload;

/// The types most programs need, in one import.
pub mod prelude {
    pub use hermes_common::{
        ClientOp, Effect, Epoch, Key, MembershipView, NodeId, NodeSet, OpId, ReplicaProtocol,
        Reply, RmwOp, ShardSpec, TxnAbort, TxnOp, TxnReply, Value,
    };
    pub use hermes_core::{HermesNode, KeyState, Msg, ProtocolConfig, Ts, UpdateKind};
    pub use hermes_membership::RmConfig;
    pub use hermes_obs::{Histogram, HistogramSnapshot, Quantiles};
    pub use hermes_replica::{
        query_metrics, query_traces, request_shutdown, run_sim, ClientSession, ClusterConfig,
        CostModel, MembershipOptions, MembershipStatus, NodeOptions, NodeRuntime, PendingTxn,
        RemoteChannel, RunReport, SessionChannel, SimConfig, ThreadCluster, Ticket, TxnResult,
    };
    pub use hermes_txn::{check_txns_serializable, lock_key, TxnConfig, TxnMachine, TxnObs};
    pub use hermes_workload::{BankConfig, BankWorkload, Workload, WorkloadConfig};
}
