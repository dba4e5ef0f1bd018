//! Multi-key operation vocabulary for cross-shard transactions.
//!
//! Hermes itself is deliberately single-key (paper §7); the `hermes-txn`
//! crate builds multi-key transactions *on top of* the verified single-key
//! protocol, using CAS-acquired per-key lock records — the lock-service
//! primitive from the paper's own introduction — as the commit mechanism.
//! This module defines only the shared vocabulary: what a transaction asks
//! for ([`TxnOp`]) and how it completes ([`TxnReply`], [`TxnAbort`]), so
//! the coordinator (`hermes-txn`), the client sessions that drive it
//! (`hermes-replica`) and the workloads (`hermes-workload`) all speak the
//! same types without depending on the coordinator itself. The wire does
//! not: a transaction crosses it as the ordinary single-key operations its
//! session issues.

use crate::{Key, Value};

/// A multi-key operation submitted as one atomic transaction.
///
/// Every variant is executed by the `hermes-txn` coordinator as a
/// deterministic lock → read/validate → apply → unlock state machine over
/// ordinary single-key Hermes operations, so the transaction either takes
/// effect in full or leaves no trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// Read a consistent snapshot of several keys at once.
    MultiGet(Vec<Key>),
    /// Install several key/value pairs atomically.
    MultiPut(Vec<(Key, Value)>),
    /// Transfer-style read-modify-write set: interpret both balances as
    /// little-endian `u64` (empty reads as 0), debit one account and
    /// credit the other, aborting (without effect) on insufficient funds.
    Transfer {
        /// Account to debit.
        debit: Key,
        /// Account to credit.
        credit: Key,
        /// Amount moved from `debit` to `credit`.
        amount: u64,
    },
}

impl TxnOp {
    /// The distinct data keys this transaction touches, sorted ascending —
    /// the coordinator's lock-acquisition order (deadlock freedom by
    /// global ordering).
    pub fn keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = match self {
            TxnOp::MultiGet(keys) => keys.clone(),
            TxnOp::MultiPut(puts) => puts.iter().map(|(k, _)| *k).collect(),
            TxnOp::Transfer { debit, credit, .. } => vec![*debit, *credit],
        };
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of data keys named by the request (duplicates included).
    pub fn len(&self) -> usize {
        match self {
            TxnOp::MultiGet(keys) => keys.len(),
            TxnOp::MultiPut(puts) => puts.len(),
            TxnOp::Transfer { .. } => 2,
        }
    }

    /// Whether the request names no keys at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a transaction aborted. Every cause is decided strictly *before* any
/// data write, so an abort never leaves a partial update behind. A
/// transaction whose outcome is unresolved is not aborted: its session
/// hands back the coordinator state for resumption instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnAbort {
    /// A lock could not be acquired within the retry budget (another
    /// transaction holds a conflicting key). No effect; retryable.
    Conflict,
    /// A `Transfer` found the debit account short of funds. No effect;
    /// not retryable until the balance changes.
    InsufficientFunds,
    /// A `Transfer` found the credit balance too close to `u64::MAX` to
    /// receive the amount without wrapping (which would silently destroy
    /// funds). No effect; not retryable until the balance changes.
    Overflow,
    /// The request itself is malformed: no keys, duplicate keys in a
    /// `MultiPut`, a self-transfer, or a key inside the reserved lock
    /// namespace. No effect.
    Invalid,
}

impl core::fmt::Display for TxnAbort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TxnAbort::Conflict => write!(f, "lock conflict"),
            TxnAbort::InsufficientFunds => write!(f, "insufficient funds"),
            TxnAbort::Overflow => write!(f, "credit balance overflow"),
            TxnAbort::Invalid => write!(f, "invalid transaction"),
        }
    }
}

/// The completion of a multi-key transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnReply {
    /// The transaction committed. `values` carries the committed
    /// observation: the snapshot for a [`TxnOp::MultiGet`], the prior
    /// balances (debit first) for a [`TxnOp::Transfer`], and nothing for a
    /// [`TxnOp::MultiPut`].
    Committed {
        /// Key/value observations made while every lock was held.
        values: Vec<(Key, Value)>,
    },
    /// The transaction aborted, with no effect.
    Aborted(TxnAbort),
}

impl TxnReply {
    /// Whether the transaction took effect.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnReply::Committed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_sorted_and_deduped() {
        let op = TxnOp::MultiGet(vec![Key(9), Key(2), Key(9), Key(5)]);
        assert_eq!(op.keys(), vec![Key(2), Key(5), Key(9)]);
        let t = TxnOp::Transfer {
            debit: Key(7),
            credit: Key(3),
            amount: 1,
        };
        assert_eq!(t.keys(), vec![Key(3), Key(7)]);
    }

    #[test]
    fn len_counts_request_keys() {
        assert_eq!(TxnOp::MultiGet(vec![]).len(), 0);
        assert!(TxnOp::MultiGet(vec![]).is_empty());
        assert_eq!(
            TxnOp::MultiPut(vec![(Key(1), Value::EMPTY), (Key(1), Value::EMPTY)]).len(),
            2
        );
        assert!(!TxnOp::Transfer {
            debit: Key(0),
            credit: Key(1),
            amount: 0
        }
        .is_empty());
    }

    #[test]
    fn reply_classification() {
        assert!(TxnReply::Committed { values: vec![] }.is_committed());
        assert!(!TxnReply::Aborted(TxnAbort::Conflict).is_committed());
        assert_eq!(TxnAbort::Conflict.to_string(), "lock conflict");
    }
}
