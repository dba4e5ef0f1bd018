//! Network substrates for the Hermes reproduction.
//!
//! The paper runs over RDMA UD (unreliable datagrams): messages may be
//! dropped, duplicated and reordered, and the protocol is explicitly designed
//! to tolerate all three (paper §3.4). This crate provides two stand-ins that
//! preserve exactly that service model (see DESIGN.md §1):
//!
//! * [`SimNet`] — a deterministic *policy object* for discrete-event
//!   simulations: given a send, it decides delivery times (latency + jitter +
//!   per-NIC bandwidth serialization), drops, duplicates and partitions, all
//!   from a seeded RNG so that runs reproduce exactly.
//! * [`InProcNet`] — a real multi-threaded transport over crossbeam channels
//!   for in-process clusters (used by examples and integration tests), with
//!   optional probabilistic fault injection.
//! * [`TcpNet`] / [`TcpEndpoint`] — length-prefixed Wings frames over real
//!   `std::net` TCP sockets: lane *i* of a node talks to lane *i* of each
//!   peer over a connection only those two lanes touch, each lane writing
//!   and reading its own links ([`TcpLinks`]), dialing with backoff. The
//!   transport that runs a replica group as separate OS processes
//!   (DESIGN.md §4).
//!
//! The in-process and TCP transports implement the pluggable
//! [`Transport`]/[`Endpoint`] trait pair, so cluster runtimes are written
//! once and deployed over either: [`Endpoint::split`] gives every worker
//! lane its [`LaneLinks`] — the lane's thread blocks in one [`Wait`] and
//! gets what it reads handed to it — and [`Endpoint::start`] runs the same
//! receive half on a thread of its own, pushing [`NetEvent`]s into an
//! [`IngressSink`].
//!
//! The crate also provides the readiness substrate under both network
//! edges — the replica links above and the sharded-poller client plane
//! (DESIGN.md §7): a [`Poller`] multiplexes thousands of non-blocking
//! sockets per thread (`epoll(7)`; the crate is Linux-only), and a
//! [`Waker`] (an `eventfd`) lets other threads interrupt a blocked wait,
//! coalescing bursts of wakes into one.
//!
//! # Examples
//!
//! ```
//! use hermes_common::NodeId;
//! use hermes_net::{DeliveryOutcome, SimNet, SimNetConfig};
//! use hermes_sim::SimTime;
//!
//! let mut net = SimNet::new(5, SimNetConfig::default(), 42);
//! match net.plan_delivery(NodeId(0), NodeId(1), 64, SimTime::ZERO) {
//!     DeliveryOutcome::Deliver(at) => assert!(at > SimTime::ZERO),
//!     other => panic!("lossless default config must deliver: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod inproc;
mod poll;
mod simnet;
mod tcp;
mod transport;

pub use inproc::{InProcEndpoint, InProcLinks, InProcNet, InProcSender, NetFaults};
pub use poll::{Interest, PollEvent, Poller, Wait, Waker};
pub use simnet::{DeliveryOutcome, SimNet, SimNetConfig};
pub use tcp::{TcpConfig, TcpEndpoint, TcpLinks, TcpNet, TcpSender, TcpStats};
pub use transport::{
    Endpoint, IngressGuard, IngressSink, LaneLinks, NetEvent, NetSender, Transport,
};
