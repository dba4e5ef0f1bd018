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
//!   `std::net` TCP sockets: senders write their own frames to the peer
//!   socket, one link-poller thread per node reads, dials (with backoff)
//!   and finishes short writes. The transport that runs a replica group as
//!   separate OS processes (DESIGN.md §4).
//!
//! The in-process and TCP transports implement the pluggable
//! [`Transport`]/[`Endpoint`] trait pair, so cluster runtimes are written
//! once and deployed over either. Ingress is push-based ([`NetEvent`]s into
//! an [`IngressSink`]), which is what gives runtimes event-driven wakeup.
//!
//! The crate also provides the readiness substrate under both network
//! edges — the replica links above and the sharded-poller client plane
//! (DESIGN.md §7): a [`Poller`] multiplexes thousands of non-blocking
//! sockets per thread (epoll on Linux, `poll(2)` elsewhere), and a
//! [`Waker`] lets worker threads interrupt a blocked wait, coalescing
//! bursts of wakes into one.
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

pub use inproc::{InProcEndpoint, InProcNet, InProcSender, NetFaults};
pub use poll::{Interest, PollEvent, Poller, Waker};
pub use simnet::{DeliveryOutcome, SimNet, SimNetConfig};
pub use tcp::{TcpConfig, TcpEndpoint, TcpNet, TcpSender, TcpStats};
pub use transport::{Endpoint, IngressGuard, IngressSink, NetEvent, NetSender, Transport};
