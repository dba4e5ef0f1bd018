//! # hermes-txn — cross-shard multi-key transactions over Hermes
//!
//! Hermes is deliberately single-key (paper §7): every operation involves
//! exactly one key, which is what buys inter-key concurrency and local
//! reads. This crate opens the multi-key workload class — transfers,
//! swaps, consistent multi-get snapshots — *without touching the verified
//! single-key core*: a transaction is coordinated entirely client-side as
//! a deterministic sequence of ordinary Hermes operations, using the CAS
//! lock-service primitive from the paper's own introduction as the commit
//! mechanism (DESIGN.md §6).
//!
//! The pieces:
//!
//! * [`TxnMachine`] — the sans-io coordinator: lock (sorted CAS
//!   acquisition in the reserved [`lock_key`] namespace) → read/validate →
//!   apply → unlock, with bounded conflict retries and idempotent resume
//!   after transport loss;
//! * [`check_txns_serializable`] — the transaction-granularity analogue of
//!   the Wing & Gong linearizability checker: validates a concurrent
//!   multi-key history against a sequential execution;
//! * the request/reply vocabulary lives in `hermes_common::txn`
//!   ([`TxnOp`], [`TxnReply`], [`TxnAbort`]) so every layer — wire codec,
//!   runtimes, workloads — shares it without depending on this crate.
//!
//! Drivers live where the transports are: `hermes_replica::ClientSession::txn`
//! fans sub-operations across shard lanes (in-process) or a TCP connection
//! (remote), and the `hermesd` client port accepts whole transactions as
//! one RPC (`hermes_wings::client`).
//!
//! # Examples
//!
//! Driving a machine by hand against a toy sequential KV:
//!
//! ```
//! use hermes_common::{ClientOp, Key, Reply, RmwOp, TxnOp, TxnReply, Value};
//! use hermes_txn::{TxnConfig, TxnMachine, TxnToken};
//! use std::collections::HashMap;
//!
//! let mut kv: HashMap<Key, Value> = HashMap::new();
//! kv.insert(Key(1), Value::from_u64(10));
//! let op = TxnOp::Transfer { debit: Key(1), credit: Key(2), amount: 4 };
//! let mut m = TxnMachine::new(TxnToken::new(9, 0), op, TxnConfig::default());
//! let mut subs = Vec::new();
//! while m.outcome().is_none() {
//!     m.poll(&mut subs);
//!     for s in subs.drain(..) {
//!         let current = kv.get(&s.key).cloned().unwrap_or(Value::EMPTY);
//!         let reply = match &s.cop {
//!             ClientOp::Read => Reply::ReadOk(current),
//!             ClientOp::Write(v) => { kv.insert(s.key, v.clone()); Reply::WriteOk }
//!             ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }) => {
//!                 if current == *expect { kv.insert(s.key, new.clone()); Reply::RmwOk { prior: current } }
//!                 else { Reply::CasFailed { current } }
//!             }
//!             _ => unreachable!(),
//!         };
//!         m.on_reply(s.tag, reply);
//!     }
//! }
//! assert!(matches!(m.outcome(), Some(TxnReply::Committed { .. })));
//! assert_eq!(kv[&Key(1)].to_u64(), Some(6));
//! assert_eq!(kv[&Key(2)].to_u64(), Some(4));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checker;
mod machine;

pub use checker::{check_txns_serializable, leaked_lock, TxnObs};
pub use machine::{
    conflict_backoff, is_lock_key, lock_key, process_nonce, SubOp, TxnConfig, TxnMachine, TxnToken,
    LOCK_BASE,
};

// The shared vocabulary, re-exported for convenience.
pub use hermes_common::{TxnAbort, TxnOp, TxnReply};

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{ClientOp, Key, Reply, RmwOp, Value};
    use std::collections::HashMap;

    /// A toy sequential KV with Hermes reply semantics.
    #[derive(Default)]
    struct MockKv {
        map: HashMap<Key, Value>,
        /// Keys whose next CAS artificially answers `RmwAborted` (the
        /// advisory abort of paper §3.6) before behaving normally.
        abort_next_cas: Vec<Key>,
        /// When set, every reply is `NotOperational` (dead transport).
        dead: bool,
    }

    impl MockKv {
        fn get(&self, key: Key) -> Value {
            self.map.get(&key).cloned().unwrap_or(Value::EMPTY)
        }

        fn serve(&mut self, sub: &SubOp) -> Reply {
            if self.dead {
                return Reply::NotOperational;
            }
            let current = self.get(sub.key);
            match &sub.cop {
                ClientOp::Read => Reply::ReadOk(current),
                ClientOp::Write(v) => {
                    self.map.insert(sub.key, v.clone());
                    Reply::WriteOk
                }
                ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }) => {
                    if let Some(at) = self.abort_next_cas.iter().position(|&k| k == sub.key) {
                        self.abort_next_cas.remove(at);
                        return Reply::RmwAborted;
                    }
                    if current == *expect {
                        self.map.insert(sub.key, new.clone());
                        Reply::RmwOk { prior: current }
                    } else {
                        Reply::CasFailed { current }
                    }
                }
                ClientOp::Rmw(_) => unreachable!("coordinator only issues CAS RMWs"),
            }
        }
    }

    fn drive(m: &mut TxnMachine, kv: &mut MockKv) {
        let mut subs = Vec::new();
        let mut budget = 10_000;
        while m.outcome().is_none() && !m.in_doubt() {
            m.poll(&mut subs);
            if subs.is_empty() {
                break;
            }
            for s in subs.drain(..) {
                let reply = kv.serve(&s);
                m.on_reply(s.tag, reply);
            }
            budget -= 1;
            assert!(budget > 0, "machine did not terminate");
        }
    }

    fn token(serial: u64) -> TxnToken {
        TxnToken {
            nonce: 1,
            owner: 7,
            serial,
        }
    }

    fn committed_values(m: &TxnMachine) -> Vec<(Key, Value)> {
        match m.outcome() {
            Some(TxnReply::Committed { values }) => values.clone(),
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn transfer_moves_funds_and_releases_locks() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(100));
        let mut m = TxnMachine::new(
            token(0),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 30,
            },
            TxnConfig::default(),
        );
        drive(&mut m, &mut kv);
        let values = committed_values(&m);
        assert_eq!(values[0], (Key(1), Value::from_u64(100)));
        assert_eq!(values[1], (Key(2), Value::from_u64(0)));
        assert_eq!(kv.get(Key(1)).to_u64(), Some(70));
        assert_eq!(kv.get(Key(2)).to_u64(), Some(30));
        assert!(kv.get(lock_key(Key(1))).is_empty(), "lock 1 released");
        assert!(kv.get(lock_key(Key(2))).is_empty(), "lock 2 released");
    }

    #[test]
    fn insufficient_funds_aborts_without_any_write() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(5));
        let mut m = TxnMachine::new(
            token(1),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 30,
            },
            TxnConfig::default(),
        );
        drive(&mut m, &mut kv);
        assert_eq!(
            m.outcome(),
            Some(&TxnReply::Aborted(TxnAbort::InsufficientFunds))
        );
        assert_eq!(kv.get(Key(1)).to_u64(), Some(5), "debit untouched");
        assert!(kv.get(Key(2)).is_empty(), "credit untouched");
        assert!(kv.get(lock_key(Key(1))).is_empty(), "locks released");
        assert!(kv.get(lock_key(Key(2))).is_empty());
    }

    #[test]
    fn multiget_snapshots_and_multiput_installs() {
        let mut kv = MockKv::default();
        let puts = TxnOp::MultiPut(vec![
            (Key(3), Value::from_u64(33)),
            (Key(4), Value::from_u64(44)),
        ]);
        let mut m = TxnMachine::new(token(2), puts, TxnConfig::default());
        drive(&mut m, &mut kv);
        assert!(committed_values(&m).is_empty());

        let mut m = TxnMachine::new(
            token(3),
            TxnOp::MultiGet(vec![Key(4), Key(3), Key(5)]),
            TxnConfig::default(),
        );
        drive(&mut m, &mut kv);
        // Snapshot comes back in sorted key order; unwritten keys read empty.
        assert_eq!(
            committed_values(&m),
            vec![
                (Key(3), Value::from_u64(33)),
                (Key(4), Value::from_u64(44)),
                (Key(5), Value::EMPTY),
            ]
        );
    }

    #[test]
    fn conflict_retries_then_aborts_when_budget_exhausts() {
        let mut kv = MockKv::default();
        // Key 2's lock is held by someone else, forever.
        kv.map.insert(
            lock_key(Key(2)),
            TxnToken {
                nonce: 1,
                owner: 99,
                serial: 0,
            }
            .value(),
        );
        kv.map.insert(Key(1), Value::from_u64(10));
        let mut m = TxnMachine::new(
            token(4),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 1,
            },
            TxnConfig { max_attempts: 3 },
        );
        drive(&mut m, &mut kv);
        assert_eq!(m.outcome(), Some(&TxnReply::Aborted(TxnAbort::Conflict)));
        assert_eq!(m.attempts(), 3);
        // The lock it *did* get (key 1, first in sorted order) was released
        // on every attempt; no data was written.
        assert!(kv.get(lock_key(Key(1))).is_empty(), "held lock released");
        assert_eq!(kv.get(Key(1)).to_u64(), Some(10));
        assert!(kv.get(Key(2)).is_empty());
    }

    #[test]
    fn advisory_rmw_abort_is_reissued_until_definitive() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(10));
        // Both lock CASes first answer the advisory abort (paper §3.6).
        kv.abort_next_cas = vec![lock_key(Key(1)), lock_key(Key(2))];
        let mut m = TxnMachine::new(
            token(5),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 10,
            },
            TxnConfig::default(),
        );
        drive(&mut m, &mut kv);
        assert!(matches!(m.outcome(), Some(TxnReply::Committed { .. })));
        assert_eq!(kv.get(Key(1)).to_u64(), Some(0));
        assert_eq!(kv.get(Key(2)).to_u64(), Some(10));
    }

    #[test]
    fn resume_replays_idempotently_after_transport_loss() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(50));
        let mut m = TxnMachine::new(
            token(6),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 20,
            },
            TxnConfig::default(),
        );
        // Let the first lock CAS *apply* but lose its reply: the transport
        // dies right after the server applied the CAS.
        let mut subs = Vec::new();
        m.poll(&mut subs);
        assert_eq!(subs.len(), 1, "locking is sequential");
        let first = subs.remove(0);
        let _applied = kv.serve(&first); // server applied it...
        m.on_reply(first.tag, Reply::NotOperational); // ...but we never saw it.
        assert!(m.in_doubt());

        // Reconnect: resume re-issues the CAS; the mock now answers
        // CasFailed { current: our token }, which the machine accepts.
        m.resume();
        assert!(!m.in_doubt());
        drive(&mut m, &mut kv);
        assert!(matches!(m.outcome(), Some(TxnReply::Committed { .. })));
        assert_eq!(kv.get(Key(1)).to_u64(), Some(30));
        assert_eq!(kv.get(Key(2)).to_u64(), Some(20));
        assert!(kv.get(lock_key(Key(1))).is_empty());
        assert!(kv.get(lock_key(Key(2))).is_empty());
    }

    #[test]
    fn resumed_release_never_frees_anothers_lock() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(10));
        // Key 2's lock is held by someone else, so the transfer conflicts
        // after acquiring key 1's lock and (budget of one attempt) moves
        // straight to releasing it.
        let rival = TxnToken {
            nonce: 1,
            owner: 99,
            serial: 0,
        };
        kv.map.insert(lock_key(Key(2)), rival.value());
        let mut m = TxnMachine::new(
            token(9),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 1,
            },
            TxnConfig { max_attempts: 1 },
        );
        let mut subs = Vec::new();
        m.poll(&mut subs);
        let lock1 = subs.remove(0);
        m.on_reply(lock1.tag, kv.serve(&lock1)); // lock 1 acquired
        m.poll(&mut subs);
        let lock2 = subs.remove(0);
        m.on_reply(lock2.tag, kv.serve(&lock2)); // conflict → release lock 1
        m.poll(&mut subs);
        let release = subs.remove(0);
        // The release *applies* but its reply is lost mid-flight.
        let _applied = kv.serve(&release);
        assert!(kv.get(lock_key(Key(1))).is_empty(), "release applied");
        m.on_reply(release.tag, Reply::NotOperational);
        assert!(m.in_doubt());
        // Another coordinator CAS-acquires key 1's lock in the meantime.
        let newcomer = TxnToken {
            nonce: 1,
            owner: 100,
            serial: 0,
        };
        kv.map.insert(lock_key(Key(1)), newcomer.value());
        // Resume replays the release as CAS(our token → empty): it answers
        // CasFailed (read as already-released) and must NOT blindly clear
        // the newcomer's lock.
        m.resume();
        drive(&mut m, &mut kv);
        assert_eq!(m.outcome(), Some(&TxnReply::Aborted(TxnAbort::Conflict)));
        assert_eq!(
            kv.get(lock_key(Key(1))),
            newcomer.value(),
            "the newcomer's lock survives our replayed release"
        );
    }

    #[test]
    fn transfer_credit_overflow_aborts_before_any_write() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(10));
        kv.map.insert(Key(2), Value::from_u64(u64::MAX));
        let mut m = TxnMachine::new(
            token(10),
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 5,
            },
            TxnConfig::default(),
        );
        drive(&mut m, &mut kv);
        assert_eq!(m.outcome(), Some(&TxnReply::Aborted(TxnAbort::Overflow)));
        assert_eq!(kv.get(Key(1)).to_u64(), Some(10), "debit untouched");
        assert_eq!(kv.get(Key(2)).to_u64(), Some(u64::MAX), "credit untouched");
        assert!(kv.get(lock_key(Key(1))).is_empty(), "locks released");
        assert!(kv.get(lock_key(Key(2))).is_empty());
    }

    #[test]
    fn multiget_duplicates_collapse_to_one_read() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(1), Value::from_u64(7));
        let mut m = TxnMachine::new(
            token(11),
            TxnOp::MultiGet(vec![Key(1), Key(1), Key(2)]),
            TxnConfig::default(),
        );
        drive(&mut m, &mut kv);
        assert_eq!(
            committed_values(&m),
            vec![(Key(1), Value::from_u64(7)), (Key(2), Value::EMPTY)]
        );
    }

    #[test]
    fn invalid_requests_abort_immediately() {
        for op in [
            TxnOp::MultiGet(vec![]),
            TxnOp::MultiPut(vec![(Key(1), Value::EMPTY), (Key(1), Value::from_u64(2))]),
            TxnOp::Transfer {
                debit: Key(3),
                credit: Key(3),
                amount: 1,
            },
            TxnOp::MultiGet(vec![lock_key(Key(1))]),
        ] {
            let mut m = TxnMachine::new(token(7), op.clone(), TxnConfig::default());
            assert_eq!(
                m.outcome(),
                Some(&TxnReply::Aborted(TxnAbort::Invalid)),
                "{op:?}"
            );
            let mut subs = Vec::new();
            m.poll(&mut subs);
            assert!(subs.is_empty(), "invalid txns issue no sub-ops");
        }
    }

    #[test]
    fn locks_are_acquired_in_sorted_order() {
        let mut kv = MockKv::default();
        kv.map.insert(Key(9), Value::from_u64(1));
        let mut m = TxnMachine::new(
            token(8),
            TxnOp::Transfer {
                debit: Key(9),
                credit: Key(2),
                amount: 1,
            },
            TxnConfig::default(),
        );
        let mut subs = Vec::new();
        m.poll(&mut subs);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].key, lock_key(Key(2)), "lowest key locks first");
        m.on_reply(subs[0].tag, kv.serve(&subs[0]));
        subs.clear();
        m.poll(&mut subs);
        assert_eq!(subs[0].key, lock_key(Key(9)));
    }

    #[test]
    fn serializability_checker_accepts_real_and_rejects_fabricated() {
        use obs_helpers::*;
        // Two sequential transfers over {1,2} funded by a MultiPut.
        let fund = obs(
            0,
            1,
            TxnOp::MultiPut(vec![(Key(1), Value::from_u64(100))]),
            Some(TxnReply::Committed { values: vec![] }),
        );
        let t1 = obs(
            2,
            3,
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 30,
            },
            Some(TxnReply::Committed {
                values: vec![(Key(1), Value::from_u64(100)), (Key(2), Value::from_u64(0))],
            }),
        );
        let t2_good = obs(
            4,
            5,
            TxnOp::Transfer {
                debit: Key(2),
                credit: Key(1),
                amount: 10,
            },
            Some(TxnReply::Committed {
                values: vec![(Key(2), Value::from_u64(30)), (Key(1), Value::from_u64(70))],
            }),
        );
        assert!(check_txns_serializable(&[
            fund.clone(),
            t1.clone(),
            t2_good
        ]));
        // A fabricated prior (key 2 never held 99) must be rejected.
        let t2_bad = obs(
            4,
            5,
            TxnOp::Transfer {
                debit: Key(2),
                credit: Key(1),
                amount: 10,
            },
            Some(TxnReply::Committed {
                values: vec![(Key(2), Value::from_u64(99)), (Key(1), Value::from_u64(70))],
            }),
        );
        assert!(!check_txns_serializable(&[fund, t1, t2_bad]));
    }

    #[test]
    fn serializability_checker_rejects_truncated_snapshots() {
        use obs_helpers::*;
        let fund = obs(
            0,
            1,
            TxnOp::MultiPut(vec![(Key(1), Value::from_u64(100))]),
            Some(TxnReply::Committed { values: vec![] }),
        );
        let full = obs(
            2,
            3,
            TxnOp::MultiGet(vec![Key(1), Key(2)]),
            Some(TxnReply::Committed {
                values: vec![(Key(1), Value::from_u64(100)), (Key(2), Value::EMPTY)],
            }),
        );
        assert!(check_txns_serializable(&[fund.clone(), full]));
        // A snapshot missing requested keys must not validate vacuously.
        let truncated = obs(
            2,
            3,
            TxnOp::MultiGet(vec![Key(1), Key(2)]),
            Some(TxnReply::Committed { values: vec![] }),
        );
        assert!(!check_txns_serializable(&[fund, truncated]));
    }

    #[test]
    fn serializability_checker_validates_overflow_aborts() {
        use obs_helpers::*;
        let transfer = TxnOp::Transfer {
            debit: Key(1),
            credit: Key(2),
            amount: 5,
        };
        // With the credit account at u64::MAX, the overflow abort is a
        // consistent committed observation.
        let fund_max = obs(
            0,
            1,
            TxnOp::MultiPut(vec![
                (Key(1), Value::from_u64(10)),
                (Key(2), Value::from_u64(u64::MAX)),
            ]),
            Some(TxnReply::Committed { values: vec![] }),
        );
        let aborted = obs(
            2,
            3,
            transfer.clone(),
            Some(TxnReply::Aborted(TxnAbort::Overflow)),
        );
        assert!(check_txns_serializable(&[fund_max, aborted.clone()]));
        // A fabricated overflow abort (credit nowhere near MAX) is rejected.
        let fund_small = obs(
            0,
            1,
            TxnOp::MultiPut(vec![(Key(1), Value::from_u64(10))]),
            Some(TxnReply::Committed { values: vec![] }),
        );
        assert!(!check_txns_serializable(&[fund_small, aborted]));
    }

    #[test]
    fn serializability_checker_handles_unresolved_partial_effects() {
        use obs_helpers::*;
        let fund = obs(
            0,
            1,
            TxnOp::MultiPut(vec![
                (Key(1), Value::from_u64(50)),
                (Key(2), Value::from_u64(50)),
            ]),
            Some(TxnReply::Committed { values: vec![] }),
        );
        // An unresolved transfer: may have debited without crediting.
        let crashed = obs(
            2,
            u64::MAX,
            TxnOp::Transfer {
                debit: Key(1),
                credit: Key(2),
                amount: 10,
            },
            None,
        );
        // A later snapshot seeing the *partial* effect is accepted only
        // because the transfer is unresolved.
        let snap = obs(
            10,
            11,
            TxnOp::MultiGet(vec![Key(1), Key(2)]),
            Some(TxnReply::Committed {
                values: vec![(Key(1), Value::from_u64(40)), (Key(2), Value::from_u64(50))],
            }),
        );
        assert!(check_txns_serializable(&[
            fund.clone(),
            crashed.clone(),
            snap
        ]));
        // But a snapshot no subset of its writes can explain is rejected.
        let impossible = obs(
            10,
            11,
            TxnOp::MultiGet(vec![Key(1), Key(2)]),
            Some(TxnReply::Committed {
                values: vec![(Key(1), Value::from_u64(41)), (Key(2), Value::from_u64(50))],
            }),
        );
        assert!(!check_txns_serializable(&[fund, crashed, impossible]));
    }

    #[test]
    fn tokens_from_different_processes_can_never_match() {
        // `TxnToken::new` stamps the per-process nonce: two coordinators
        // whose process-local (owner, serial) counters coincide still
        // mint distinct lock values when their nonces differ — the
        // property mutual exclusion across client processes rests on.
        let ours = TxnToken::new(0, 0);
        assert_eq!(ours.nonce, process_nonce());
        assert_eq!(process_nonce(), process_nonce(), "stable per process");
        let other_process = TxnToken {
            nonce: ours.nonce.wrapping_add(1),
            owner: 0,
            serial: 0,
        };
        assert_ne!(ours.value(), other_process.value());
        // And the nonce really is part of the lock value (24 bytes).
        assert_eq!(ours.value().len(), 24);
    }

    #[test]
    fn leaked_lock_finds_held_records() {
        let keys = [Key(1), Key(2)];
        assert_eq!(leaked_lock(&keys, |_| true), None);
        assert_eq!(
            leaked_lock(&keys, |lk| lk != lock_key(Key(2))),
            Some(lock_key(Key(2)))
        );
    }

    /// Tiny local helper namespace for checker tests.
    mod obs_helpers {
        use super::super::*;

        pub fn obs(invoke: u64, response: u64, op: TxnOp, reply: Option<TxnReply>) -> TxnObs {
            TxnObs {
                invoke,
                response,
                op,
                reply,
            }
        }
    }
}
