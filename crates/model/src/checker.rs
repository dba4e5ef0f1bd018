//! Wing & Gong linearizability checking for single-key register histories.
//!
//! A history is a set of operations with invocation/response times. It is
//! *linearizable* iff there is a total order of the operations, consistent
//! with real time (if A completed before B started, A orders before B), in
//! which every operation's result matches a sequential register execution.
//! The checker performs the classic Wing & Gong search with memoization on
//! `(linearized-set, register-state)` — exponential worst case, fine for
//! the bounded histories the explorer and the fuzz tests produce.

use hermes_common::{ClientOp, Reply, RmwOp, Value};
use std::collections::HashSet;

/// What a history operation did, with its observed result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Read that returned the given value (`None` = initial/empty value).
    Read {
        /// Observed value.
        returned: Option<u64>,
    },
    /// Write of a value.
    Write {
        /// Value written.
        value: u64,
    },
    /// Fetch-add that observed `prior` and added `delta`.
    FetchAdd {
        /// Increment applied.
        delta: u64,
        /// Value the RMW reported having observed.
        prior: Option<u64>,
    },
    /// Compare-and-swap that succeeded (observed `expect`, wrote `new`).
    CasOk {
        /// Expected (and observed) value.
        expect: u64,
        /// Value installed.
        new: u64,
    },
    /// Compare-and-swap that failed, observing `current ≠ expect`.
    CasFailed {
        /// Expected value.
        expect: u64,
        /// Observed value.
        current: Option<u64>,
    },
}

/// Completion status of a history operation.
///
/// A note on Hermes RMW aborts (paper §3.6): an `RmwAborted` reply means
/// the RMW did not commit *at its coordinator*. If the RMW's INV had
/// already propagated, another replica may replay it to completion — so in
/// runs where replays can fire (spurious timeouts, faults), an aborted RMW
/// must be modelled as [`Outcome::Indeterminate`]. [`Outcome::Aborted`] (no
/// effect, ever) is only sound when no replay can have raced the abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the result in [`OpKind`]: must linearize exactly once.
    Completed,
    /// Never completed, or completed with an advisory/unknown result: may
    /// or may not take effect, and its *recorded observation* (e.g. an RMW
    /// prior) imposes no constraint.
    Indeterminate,
    /// Guaranteed to never take effect.
    Aborted,
}

/// One operation of a single-key history.
#[derive(Clone, Debug)]
pub struct HistoryOp {
    /// Invocation time (any monotonic ordering domain).
    pub invoke: u64,
    /// Response time; use `u64::MAX` for operations without a response.
    pub response: u64,
    /// Operation and observed result.
    pub kind: OpKind,
    /// Completion status.
    pub outcome: Outcome,
}

impl HistoryOp {
    fn takes_effect_optional(&self) -> bool {
        self.outcome == Outcome::Indeterminate
    }

    fn excluded(&self) -> bool {
        self.outcome == Outcome::Aborted
    }
}

/// Turns a client operation and its reply (`None`: never answered) into
/// the checker's vocabulary. `Value::to_u64` maps the empty (never-written)
/// value to `None`, the register's initial state; written values must be
/// u64 payloads.
///
/// Only the reply the operation asked for completes it. Anything else — no
/// reply, `NotOperational`, or an `RmwAborted` that another replica may
/// still replay to completion (paper §3.6) — leaves it
/// [`Outcome::Indeterminate`]: an RMW may have added its delta, a CAS may
/// have installed `new`, and a read observed nothing.
pub fn observe(cop: &ClientOp, reply: impl Into<Option<Reply>>) -> (OpKind, Outcome) {
    let u64_of = |v: &Value| v.to_u64().expect("history values are u64 payloads");
    let (kind, completed) = match (cop, reply.into()) {
        (ClientOp::Read, Some(Reply::ReadOk(v))) => (
            OpKind::Read {
                returned: v.to_u64(),
            },
            true,
        ),
        (ClientOp::Read, _) => (OpKind::Read { returned: None }, false),
        (ClientOp::Write(v), reply) => (
            OpKind::Write { value: u64_of(v) },
            matches!(reply, Some(Reply::WriteOk)),
        ),
        (ClientOp::Rmw(RmwOp::FetchAdd { delta }), Some(Reply::RmwOk { prior })) => (
            OpKind::FetchAdd {
                delta: *delta,
                prior: prior.to_u64(),
            },
            true,
        ),
        (ClientOp::Rmw(RmwOp::FetchAdd { delta }), _) => (
            OpKind::FetchAdd {
                delta: *delta,
                prior: None,
            },
            false,
        ),
        (
            ClientOp::Rmw(RmwOp::CompareAndSwap { expect, .. }),
            Some(Reply::CasFailed { current }),
        ) => (
            OpKind::CasFailed {
                expect: u64_of(expect),
                current: current.to_u64(),
            },
            true,
        ),
        (ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }), reply) => (
            OpKind::CasOk {
                expect: u64_of(expect),
                new: u64_of(new),
            },
            matches!(reply, Some(Reply::RmwOk { .. })),
        ),
    };
    let outcome = if completed {
        Outcome::Completed
    } else {
        Outcome::Indeterminate
    };
    (kind, outcome)
}

/// Applies `kind` to the register `state`, returning the new state, or
/// `None` if the observed result is inconsistent with `state`.
fn apply(state: Option<u64>, kind: &OpKind) -> Option<Option<u64>> {
    match kind {
        OpKind::Read { returned } => {
            if *returned == state {
                Some(state)
            } else {
                None
            }
        }
        OpKind::Write { value } => Some(Some(*value)),
        OpKind::FetchAdd { delta, prior } => {
            if *prior == state {
                let base = state.unwrap_or(0);
                Some(Some(base.wrapping_add(*delta)))
            } else {
                None
            }
        }
        OpKind::CasOk { expect, new } => {
            if state == Some(*expect) {
                Some(Some(*new))
            } else {
                None
            }
        }
        OpKind::CasFailed { expect, current } => {
            if *current == state && state != Some(*expect) {
                Some(state)
            } else {
                None
            }
        }
    }
}

/// Applies `kind`'s *effect* to `state`, ignoring the recorded observation
/// (used for indeterminate operations whose reported result is advisory).
fn apply_unconstrained(state: Option<u64>, kind: &OpKind) -> Option<u64> {
    match kind {
        OpKind::Read { .. } => state,
        OpKind::Write { value } => Some(*value),
        OpKind::FetchAdd { delta, .. } => Some(state.unwrap_or(0).wrapping_add(*delta)),
        OpKind::CasOk { expect, new } => {
            if state == Some(*expect) {
                Some(*new)
            } else {
                state
            }
        }
        // An indeterminate failed CAS carries no new value to install.
        OpKind::CasFailed { .. } => state,
    }
}

/// Checks whether a single-key history is linearizable against a register
/// that starts empty (`None`).
///
/// Rules: `Completed` operations must appear in the linearization;
/// `Indeterminate` ones may be included or omitted; `Aborted` ones are never
/// included (an aborted RMW must not take effect).
///
/// # Examples
///
/// ```
/// use hermes_model::{check_linearizable, HistoryOp, OpKind, Outcome};
///
/// // w(1) completes before a read that returns 1: linearizable.
/// let history = vec![
///     HistoryOp { invoke: 0, response: 1, kind: OpKind::Write { value: 1 }, outcome: Outcome::Completed },
///     HistoryOp { invoke: 2, response: 3, kind: OpKind::Read { returned: Some(1) }, outcome: Outcome::Completed },
/// ];
/// assert!(check_linearizable(&history));
///
/// // ...but a read of 2 out of nowhere is not.
/// let bad = vec![
///     HistoryOp { invoke: 0, response: 1, kind: OpKind::Write { value: 1 }, outcome: Outcome::Completed },
///     HistoryOp { invoke: 2, response: 3, kind: OpKind::Read { returned: Some(2) }, outcome: Outcome::Completed },
/// ];
/// assert!(!check_linearizable(&bad));
/// ```
pub fn check_linearizable(history: &[HistoryOp]) -> bool {
    // Operations that can never linearize are simply excluded up front.
    let ops: Vec<&HistoryOp> = history.iter().filter(|o| !o.excluded()).collect();
    assert!(
        ops.len() <= 63,
        "history too large for the bitmask checker ({} ops)",
        ops.len()
    );
    // But aborted ops still impose no constraints; completed ones must all
    // linearize.
    let full_mask: u64 = (1u64 << ops.len()) - 1;

    // precedence[i] = bitmask of ops that must linearize before op i.
    let mut precedes = vec![0u64; ops.len()];
    for (i, a) in ops.iter().enumerate() {
        for (j, b) in ops.iter().enumerate() {
            if i != j && a.response < b.invoke {
                precedes[j] |= 1 << i;
            }
        }
    }

    let mut seen: HashSet<(u64, Option<u64>)> = HashSet::new();

    fn dfs(
        ops: &[&HistoryOp],
        precedes: &[u64],
        done: u64,
        state: Option<u64>,
        full: u64,
        seen: &mut HashSet<(u64, Option<u64>)>,
    ) -> bool {
        if done == full {
            return true;
        }
        if !seen.insert((done, state)) {
            return false;
        }
        for (i, op) in ops.iter().enumerate() {
            let bit = 1u64 << i;
            if done & bit != 0 {
                continue;
            }
            // All real-time predecessors must already be linearized.
            if precedes[i] & !done != 0 {
                continue;
            }
            if op.takes_effect_optional() {
                // Indeterminate: the recorded observation is advisory, so
                // apply the effect unconstrained — or drop the op entirely.
                let next = apply_unconstrained(state, &op.kind);
                if dfs(ops, precedes, done | bit, next, full, seen) {
                    return true;
                }
                if dfs(ops, precedes, done | bit, state, full, seen) {
                    return true;
                }
            } else if let Some(next) = apply(state, &op.kind) {
                if dfs(ops, precedes, done | bit, next, full, seen) {
                    return true;
                }
            }
        }
        false
    }

    // Indeterminate ops that are "dropped" are modelled by letting dfs skip
    // their effect while still marking them done.
    dfs(&ops, &precedes, 0, None, full_mask, &mut seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(invoke: u64, response: u64, kind: OpKind) -> HistoryOp {
        HistoryOp {
            invoke,
            response,
            kind,
            outcome: Outcome::Completed,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable(&[]));
    }

    #[test]
    fn read_of_initial_state() {
        assert!(check_linearizable(&[op(
            0,
            1,
            OpKind::Read { returned: None }
        )]));
        assert!(!check_linearizable(&[op(
            0,
            1,
            OpKind::Read { returned: Some(5) }
        )]));
    }

    #[test]
    fn sequential_write_read() {
        assert!(check_linearizable(&[
            op(0, 1, OpKind::Write { value: 1 }),
            op(2, 3, OpKind::Read { returned: Some(1) }),
        ]));
    }

    #[test]
    fn stale_read_after_completed_write_is_rejected() {
        assert!(!check_linearizable(&[
            op(0, 1, OpKind::Write { value: 1 }),
            op(2, 3, OpKind::Read { returned: None }),
        ]));
    }

    #[test]
    fn concurrent_write_read_may_see_either_value() {
        // Read overlaps the write: both old and new values are legal.
        for returned in [None, Some(1)] {
            assert!(check_linearizable(&[
                op(0, 10, OpKind::Write { value: 1 }),
                op(5, 6, OpKind::Read { returned }),
            ]));
        }
    }

    #[test]
    fn non_monotonic_reads_are_rejected() {
        // Two sequential reads observing new-then-old is the classic
        // linearizability violation.
        assert!(!check_linearizable(&[
            op(0, 10, OpKind::Write { value: 1 }),
            op(11, 12, OpKind::Read { returned: Some(1) }),
            op(13, 14, OpKind::Read { returned: None }),
        ]));
    }

    #[test]
    fn concurrent_writes_allow_either_final_order() {
        for final_read in [Some(1), Some(2)] {
            assert!(check_linearizable(&[
                op(0, 10, OpKind::Write { value: 1 }),
                op(0, 10, OpKind::Write { value: 2 }),
                op(
                    11,
                    12,
                    OpKind::Read {
                        returned: final_read
                    }
                ),
            ]));
        }
        assert!(!check_linearizable(&[
            op(0, 10, OpKind::Write { value: 1 }),
            op(0, 10, OpKind::Write { value: 2 }),
            op(11, 12, OpKind::Read { returned: Some(3) }),
        ]));
    }

    #[test]
    fn fetch_add_chains_must_be_consistent() {
        assert!(check_linearizable(&[
            op(0, 1, OpKind::Write { value: 10 }),
            op(
                2,
                3,
                OpKind::FetchAdd {
                    delta: 5,
                    prior: Some(10)
                }
            ),
            op(4, 5, OpKind::Read { returned: Some(15) }),
        ]));
        // A fetch-add reporting a prior nobody wrote is invalid.
        assert!(!check_linearizable(&[
            op(0, 1, OpKind::Write { value: 10 }),
            op(
                2,
                3,
                OpKind::FetchAdd {
                    delta: 5,
                    prior: Some(11)
                }
            ),
        ]));
    }

    #[test]
    fn cas_semantics() {
        assert!(check_linearizable(&[
            op(0, 1, OpKind::Write { value: 0 }),
            op(2, 3, OpKind::CasOk { expect: 0, new: 1 }),
            op(4, 5, OpKind::Read { returned: Some(1) }),
        ]));
        // Failed CAS must observe a non-matching current value.
        assert!(check_linearizable(&[
            op(0, 1, OpKind::Write { value: 7 }),
            op(
                2,
                3,
                OpKind::CasFailed {
                    expect: 0,
                    current: Some(7)
                }
            ),
        ]));
        assert!(!check_linearizable(&[
            op(0, 1, OpKind::Write { value: 0 }),
            op(
                2,
                3,
                OpKind::CasFailed {
                    expect: 0,
                    current: Some(0)
                }
            ),
        ]));
    }

    #[test]
    fn two_concurrent_cas_only_one_may_win() {
        // Both CAS from 0: both claiming success is not linearizable.
        assert!(!check_linearizable(&[
            op(0, 1, OpKind::Write { value: 0 }),
            op(2, 10, OpKind::CasOk { expect: 0, new: 1 }),
            op(2, 10, OpKind::CasOk { expect: 0, new: 2 }),
        ]));
    }

    #[test]
    fn aborted_ops_must_not_take_effect() {
        // The aborted fetch-add's effect must be invisible: a read of 6
        // (5+1) proves it took effect — not linearizable.
        let mut aborted = op(
            2,
            3,
            OpKind::FetchAdd {
                delta: 1,
                prior: Some(5),
            },
        );
        aborted.outcome = Outcome::Aborted;
        assert!(!check_linearizable(&[
            op(0, 1, OpKind::Write { value: 5 }),
            aborted.clone(),
            op(4, 5, OpKind::Read { returned: Some(6) }),
        ]));
        // Reading 5 (abort invisible) is fine.
        assert!(check_linearizable(&[
            op(0, 1, OpKind::Write { value: 5 }),
            aborted,
            op(4, 5, OpKind::Read { returned: Some(5) }),
        ]));
    }

    #[test]
    fn indeterminate_ops_may_or_may_not_take_effect() {
        let mut maybe = op(0, u64::MAX, OpKind::Write { value: 9 });
        maybe.outcome = Outcome::Indeterminate;
        // Visible:
        assert!(check_linearizable(&[
            maybe.clone(),
            op(10, 11, OpKind::Read { returned: Some(9) }),
        ]));
        // Or invisible:
        assert!(check_linearizable(&[
            maybe,
            op(10, 11, OpKind::Read { returned: None }),
        ]));
    }

    #[test]
    fn real_time_order_is_enforced_transitively() {
        // w(1) -> w(2) -> read must not return 1.
        assert!(!check_linearizable(&[
            op(0, 1, OpKind::Write { value: 1 }),
            op(2, 3, OpKind::Write { value: 2 }),
            op(4, 5, OpKind::Read { returned: Some(1) }),
        ]));
    }

    #[test]
    fn larger_random_consistent_history_passes() {
        // Sequential counter increments: always linearizable.
        let mut history = Vec::new();
        history.push(op(0, 1, OpKind::Write { value: 0 }));
        let mut t = 2;
        for val in 0..20 {
            history.push(op(
                t,
                t + 1,
                OpKind::FetchAdd {
                    delta: 1,
                    prior: Some(val),
                },
            ));
            t += 2;
        }
        history.push(op(t, t + 1, OpKind::Read { returned: Some(20) }));
        assert!(check_linearizable(&history));
    }
}
