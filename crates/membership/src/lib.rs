//! # hermes-membership — Vertical-Paxos-style reliable membership (RM)
//!
//! Hermes is a *membership-based* protocol: it relies on a reliable
//! membership service that maintains a lease-guarded, epoch-numbered view of
//! live replicas, updated through a majority-based protocol only on
//! reconfiguration (paper §2.4, §3.4; modelled after Vertical Paxos and the
//! Service Fabric-style RM of reference \[54\]). This crate implements that
//! service from scratch:
//!
//! * [`Ballot`] / [`Paxos`] — a single-decree Paxos instance (prepare /
//!   promise / accept / accepted) used to decide each new view;
//! * [`RmNode`] — the per-replica membership agent: heartbeats, a timeout
//!   failure detector, majority-quorum leases, lease-expiry-gated
//!   reconfiguration proposals, view dissemination, and the join a
//!   restarted replica makes to re-enter the group (shadow admission →
//!   bulk catch-up → promotion). Sans-io like every protocol core in this
//!   workspace: it consumes ticks, messages and catch-up marks, each at a
//!   virtual time its host supplies — the simulator's clock, or a
//!   replica's wall clock read by the lane that hosts it — and emits
//!   [`RmEffect`]s;
//! * [`wire`] — the byte layout [`RmMsg`]s use when travelling as Wings
//!   control frames over real transports.
//!
//! The safety chain mirrors the paper: a node serves requests only while its
//! lease is valid; a lease is valid only while the node hears from a
//! majority; a failed node is removed only after its lease must have
//! expired; and the view update itself is decided by Paxos among a majority,
//! so a minority partition can never install a competing view.
//!
//! # Examples
//!
//! ```
//! use hermes_common::MembershipView;
//! use hermes_membership::{RmConfig, RmNode};
//! use hermes_sim::SimTime;
//!
//! let view = MembershipView::initial(3);
//! let rm = RmNode::new(hermes_common::NodeId(0), view, RmConfig::default(), SimTime::ZERO);
//! assert!(rm.lease_valid(SimTime::ZERO));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod paxos;
mod rm;
pub mod wire;

pub use paxos::{AcceptorState, Ballot, Paxos, PaxosMsg};
pub use rm::{RmConfig, RmEffect, RmMsg, RmNode};
