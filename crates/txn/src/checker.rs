//! Transaction-granularity serializability checking.
//!
//! The single-key Wing & Gong checker (`hermes-model`) validates per-key
//! register histories; transactions need the multi-key analogue: is there
//! a total order of the transactions, consistent with real time, in which
//! every committed transaction's *observation* (the balances a `Transfer`
//! saw, the snapshot a `MultiGet` returned) matches a sequential execution
//! over the whole key space? Because every transaction holds all its locks
//! across read, validate and apply, the lock protocol promises strict
//! serializability — this checker is what turns that promise into an
//! executable acceptance gate.
//!
//! The search mirrors `hermes_model::check_linearizable`: a DFS over
//! "which transactions have linearized", pruned by real-time precedence
//! and memoized on `(linearized-set, state)`. State is the full key→u64
//! map (missing = 0, matching the coordinator's empty-reads-as-zero rule).
//! Unresolved (in-doubt) transactions may take effect wholly, partially
//! (a crashed coordinator may have applied only some writes), or not at
//! all; their recorded observation is advisory.

use crate::machine::lock_key;
use hermes_common::{Key, TxnAbort, TxnOp, TxnReply};
use std::collections::{BTreeMap, HashSet};

/// One transaction as observed by the client that issued it.
#[derive(Clone, Debug)]
pub struct TxnObs {
    /// Global clock stamp when the transaction was submitted.
    pub invoke: u64,
    /// Global clock stamp when its completion was observed (`u64::MAX`
    /// for a transaction that never resolved).
    pub response: u64,
    /// The request.
    pub op: TxnOp,
    /// The completion; `None` marks an unresolved (in-doubt) transaction,
    /// which may or may not have taken (partial) effect.
    pub reply: Option<TxnReply>,
}

type State = BTreeMap<u64, u64>;

fn get(state: &State, key: Key) -> u64 {
    state.get(&key.0).copied().unwrap_or(0)
}

/// The writes a transaction applies when it takes effect in `state`.
fn writes_in(op: &TxnOp, state: &State) -> Vec<(Key, u64)> {
    match op {
        TxnOp::MultiGet(_) => Vec::new(),
        TxnOp::MultiPut(puts) => puts
            .iter()
            .map(|(k, v)| (*k, v.to_u64().unwrap_or(0)))
            .collect(),
        TxnOp::Transfer {
            debit,
            credit,
            amount,
        } => {
            let bal = get(state, *debit);
            if bal < *amount {
                return Vec::new(); // Insufficient funds: no effect.
            }
            let Some(credited) = get(state, *credit).checked_add(*amount) else {
                return Vec::new(); // Credit would overflow: no effect.
            };
            vec![(*debit, bal - amount), (*credit, credited)]
        }
    }
}

/// Applies a *committed* transaction to `state`, checking its recorded
/// observation; `None` when the observation is inconsistent with `state`.
fn apply(obs: &TxnObs, state: &State) -> Option<State> {
    let reply = obs.reply.as_ref().expect("committed txns carry a reply");
    match (&obs.op, reply) {
        (TxnOp::MultiGet(_), TxnReply::Committed { values }) => {
            // The committed snapshot must cover exactly the requested
            // keys (sorted, deduped — the coordinator's reply order): a
            // truncated observation is inconsistent, not vacuously valid.
            let keys = obs.op.keys();
            if values.len() != keys.len() {
                return None;
            }
            for ((k, v), want) in values.iter().zip(keys) {
                if *k != want || get(state, *k) != v.to_u64().unwrap_or(0) {
                    return None;
                }
            }
            Some(state.clone())
        }
        (TxnOp::MultiPut(_), TxnReply::Committed { .. }) => {
            let mut next = state.clone();
            for (k, v) in writes_in(&obs.op, state) {
                next.insert(k.0, v);
            }
            Some(next)
        }
        (
            TxnOp::Transfer {
                debit,
                credit,
                amount,
            },
            TxnReply::Committed { values },
        ) => {
            // The committed observation is the pair of prior balances.
            let [(ok_d, pd), (ok_c, pc)] = values.as_slice() else {
                return None;
            };
            if ok_d != debit || ok_c != credit {
                return None;
            }
            let (pd, pc) = (pd.to_u64().unwrap_or(0), pc.to_u64().unwrap_or(0));
            if get(state, *debit) != pd || get(state, *credit) != pc || pd < *amount {
                return None;
            }
            // The coordinator aborts (Overflow) rather than commit a
            // wrapping credit, so a committed observation must not wrap.
            let credited = pc.checked_add(*amount)?;
            let mut next = state.clone();
            next.insert(debit.0, pd - amount);
            next.insert(credit.0, credited);
            Some(next)
        }
        (TxnOp::Transfer { debit, amount, .. }, TxnReply::Aborted(TxnAbort::InsufficientFunds)) => {
            // A funds abort is a committed read of "balance < amount".
            (get(state, *debit) < *amount).then(|| state.clone())
        }
        (TxnOp::Transfer { credit, amount, .. }, TxnReply::Aborted(TxnAbort::Overflow)) => {
            // An overflow abort is a committed read of "credit balance
            // cannot receive amount without wrapping".
            get(state, *credit)
                .checked_add(*amount)
                .is_none()
                .then(|| state.clone())
        }
        _ => None,
    }
}

/// Checks whether `history` is strictly serializable over a key space
/// starting all-zero (the coordinator reads empty keys as 0).
///
/// Rules: transactions with a committed reply (or a funds/overflow abort,
/// which is a committed observation) must linearize exactly once with a
/// consistent observation; conflict/invalid aborts never take effect and
/// are excluded; unresolved transactions (`reply: None`) may apply any subset
/// of their writes — including none — with their observation ignored.
///
/// # Panics
///
/// Panics if more than 63 transactions must linearize (size workloads
/// down, as with the single-key checker), or if an unresolved transaction
/// could write more than 8 keys (the partial-effect branching is 2^writes).
pub fn check_txns_serializable(history: &[TxnObs]) -> bool {
    // Effect-free aborts impose no constraint and are excluded up front.
    let ops: Vec<&TxnObs> = history
        .iter()
        .filter(|o| {
            !matches!(
                o.reply,
                Some(TxnReply::Aborted(TxnAbort::Conflict | TxnAbort::Invalid))
            )
        })
        .collect();
    assert!(
        ops.len() <= 63,
        "history too large for the bitmask checker ({} txns)",
        ops.len()
    );
    for o in &ops {
        if !is_resolved(o) {
            assert!(
                o.op.len() <= 8,
                "unresolved txn writes too many keys for subset branching"
            );
        }
    }
    let full: u64 = (1u64 << ops.len()) - 1;
    let mut precedes = vec![0u64; ops.len()];
    for (i, a) in ops.iter().enumerate() {
        for (j, b) in ops.iter().enumerate() {
            if i != j && a.response < b.invoke {
                precedes[j] |= 1 << i;
            }
        }
    }
    let mut seen: HashSet<(u64, Vec<(u64, u64)>)> = HashSet::new();
    dfs(&ops, &precedes, 0, &State::new(), full, &mut seen)
}

/// Whether a transaction's effect is pinned down: committed or observably
/// aborted. Unresolved ones (no reply) branch over partial effects.
fn is_resolved(obs: &TxnObs) -> bool {
    obs.reply.is_some()
}

fn dfs(
    ops: &[&TxnObs],
    precedes: &[u64],
    done: u64,
    state: &State,
    full: u64,
    seen: &mut HashSet<(u64, Vec<(u64, u64)>)>,
) -> bool {
    if done == full {
        return true;
    }
    let snapshot: Vec<(u64, u64)> = state.iter().map(|(&k, &v)| (k, v)).collect();
    if !seen.insert((done, snapshot)) {
        return false;
    }
    for (i, obs) in ops.iter().enumerate() {
        let bit = 1u64 << i;
        if done & bit != 0 || precedes[i] & !done != 0 {
            continue;
        }
        if is_resolved(obs) {
            if let Some(next) = apply(obs, state) {
                if dfs(ops, precedes, done | bit, &next, full, seen) {
                    return true;
                }
            }
        } else {
            // Unresolved: any subset of its writes may have landed.
            let writes = writes_in(&obs.op, state);
            for subset in 0..(1u32 << writes.len()) {
                let mut next = state.clone();
                for (w, (k, v)) in writes.iter().enumerate() {
                    if subset & (1 << w) != 0 {
                        next.insert(k.0, *v);
                    }
                }
                if dfs(ops, precedes, done | bit, &next, full, seen) {
                    return true;
                }
            }
        }
    }
    false
}

/// Finds the first lock record of `keys` that does not read unlocked
/// (`is_unlocked` is given the *lock* key). Harnesses call this after a
/// workload quiesces — a leaked lock means an unresolved coordinator left
/// a key unusable for future transactions.
pub fn leaked_lock(keys: &[Key], mut is_unlocked: impl FnMut(Key) -> bool) -> Option<Key> {
    keys.iter()
        .map(|&k| lock_key(k))
        .find(|&lk| !is_unlocked(lk))
}
