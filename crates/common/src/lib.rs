//! Shared primitive types for the Hermes reproduction workspace.
//!
//! Every other crate in the workspace builds on the identifiers defined here:
//! [`NodeId`] names a replica, [`Key`] names an object in the replicated
//! datastore, [`Value`] is the object payload, [`Epoch`] tags messages with a
//! membership-configuration number, and [`OpId`] names a single client
//! operation end to end (through protocol cores, runtimes and the
//! linearizability checker).
//!
//! The types are deliberately small, `Copy` where possible, and ordered so
//! they can be used as map keys in deterministic (`BTreeMap`) containers.
//!
//! # Examples
//!
//! ```
//! use hermes_common::{Key, NodeId, Value};
//!
//! let node = NodeId(2);
//! let key = Key(0xfeed);
//! let value = Value::from_static(b"hello");
//! assert_eq!(value.len(), 5);
//! assert!(node < NodeId(3));
//! assert!(key.shard(16) < 16);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod ids;
mod nodeset;
pub mod protocol;
pub mod shard;
pub mod txn;
mod value;

pub use error::{ClientError, ProtocolFault};
pub use ids::{ClientId, Epoch, Key, NodeId, OpId};
pub use nodeset::NodeSet;
pub use protocol::{Capabilities, ClientOp, Effect, MembershipView, ReplicaProtocol, Reply, RmwOp};
pub use shard::ShardSpec;
pub use txn::{TxnAbort, TxnOp, TxnReply};
pub use value::Value;
