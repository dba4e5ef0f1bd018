//! # hermes-model — model checking and linearizability checking
//!
//! The paper verifies Hermes in TLA+ "for safety and absence of deadlocks in
//! the presence of message reorderings and duplicates, and membership
//! reconfigurations due to crash-stop failures" (§3.2). This crate
//! reproduces that verification story natively against the *actual
//! implementation* (not a separate spec):
//!
//! * [`checker`] — a Wing & Gong linearizability checker for single-key
//!   register histories (reads, writes, CAS, fetch-add, aborts), and
//!   [`observe`], the one mapping from a client operation and its reply to
//!   the checker's vocabulary. Because linearizability is compositional
//!   (paper §2.2), multi-key histories are checked by splitting per key;
//! * [`cluster`] — [`Cluster`], a deterministic world of real
//!   [`hermes_core::HermesNode`] state machines whose every message
//!   delivery, loss, duplication, timer fire and crash its caller picks.
//!   It stamps each operation on a logical clock and hands out per-key
//!   histories. `hermes-core`'s integration tests drive it by hand and the
//!   schedule fuzzer (`tests/linearizability_fuzz.rs`) at random;
//! * [`explore`] — a bounded exhaustive explorer over a [`Cluster`]: every
//!   interleaving of message deliveries, bounded losses/duplications,
//!   timer fires and one crash-reconfiguration is enumerated, checking
//!   safety invariants at every state and linearizability at every
//!   terminal state.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod cluster;
pub mod explore;

pub use checker::{check_linearizable, observe, HistoryOp, OpKind, Outcome};
pub use cluster::{Cluster, Envelope};
pub use explore::{ExploreConfig, ExploreReport, Explorer, ScriptOp};
