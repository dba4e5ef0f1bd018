//! An ordered deadline queue for per-key message-loss timers.
//!
//! The replica event loop used to keep `HashMap<Key, Instant>` and scan the
//! whole map every iteration, paying O(armed timers) even when nothing is
//! due. [`DeadlineQueue`] keeps deadlines in a `BTreeMap<(Instant, Key), ()>`
//! so an idle iteration costs one ordered-map peek, and expiry pops only
//! what is actually due.

use hermes_common::Key;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// At most one deadline per key (the Hermes mlt invariant, paper §3.4);
/// re-arming a key replaces its previous deadline.
#[derive(Debug, Default)]
pub struct DeadlineQueue {
    /// Deadlines in firing order. The `Key` in the composite key
    /// disambiguates identical instants.
    queue: BTreeMap<(Instant, Key), ()>,
    /// Current deadline per key, to locate stale queue entries on re-arm.
    armed: HashMap<Key, Instant>,
}

impl DeadlineQueue {
    /// An empty queue.
    pub fn new() -> Self {
        DeadlineQueue::default()
    }

    /// Arms (or re-arms) `key` to fire at `at`.
    pub fn arm(&mut self, key: Key, at: Instant) {
        if let Some(prev) = self.armed.insert(key, at) {
            self.queue.remove(&(prev, key));
        }
        self.queue.insert((at, key), ());
    }

    /// Disarms `key` (no-op if not armed).
    pub fn disarm(&mut self, key: Key) {
        if let Some(prev) = self.armed.remove(&key) {
            self.queue.remove(&(prev, key));
        }
    }

    /// Pops one key whose deadline is at or before `now`, earliest first.
    /// Returns `None` when nothing is due — after one ordered-map peek,
    /// regardless of how many timers are armed.
    pub fn pop_due(&mut self, now: Instant) -> Option<Key> {
        let (&(at, key), ()) = self.queue.iter().next()?;
        if at > now {
            return None;
        }
        self.queue.remove(&(at, key));
        self.armed.remove(&key);
        Some(key)
    }

    /// The earliest armed deadline, if any (lets an idle loop sleep exactly
    /// as long as it may).
    pub fn next_deadline(&self) -> Option<Instant> {
        self.queue.keys().next().map(|&(at, _)| at)
    }

    /// Whether `key` has a deadline armed.
    pub fn is_armed(&self, key: Key) -> bool {
        self.armed.contains_key(&key)
    }

    /// Number of armed keys.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// Whether no key is armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_deadline_order() {
        let t0 = Instant::now();
        let mut q = DeadlineQueue::new();
        q.arm(Key(3), t0 + Duration::from_millis(30));
        q.arm(Key(1), t0 + Duration::from_millis(10));
        q.arm(Key(2), t0 + Duration::from_millis(20));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(t0 + Duration::from_millis(10)));
        let late = t0 + Duration::from_millis(25);
        assert_eq!(q.pop_due(late), Some(Key(1)));
        assert_eq!(q.pop_due(late), Some(Key(2)));
        assert_eq!(q.pop_due(late), None, "k3 is not due yet");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rearm_replaces_the_previous_deadline() {
        let t0 = Instant::now();
        let mut q = DeadlineQueue::new();
        q.arm(Key(1), t0 + Duration::from_millis(10));
        q.arm(Key(1), t0 + Duration::from_millis(50));
        assert_eq!(q.len(), 1);
        // The stale 10ms entry must not fire.
        assert_eq!(q.pop_due(t0 + Duration::from_millis(30)), None);
        assert_eq!(q.pop_due(t0 + Duration::from_millis(60)), Some(Key(1)));
        assert!(q.is_empty());
    }

    #[test]
    fn disarm_removes_the_deadline() {
        let t0 = Instant::now();
        let mut q = DeadlineQueue::new();
        q.arm(Key(1), t0);
        q.arm(Key(2), t0);
        q.disarm(Key(1));
        q.disarm(Key(99)); // no-op
        assert!(!q.is_armed(Key(1)) && q.is_armed(Key(2)));
        assert_eq!(q.pop_due(t0 + Duration::from_millis(1)), Some(Key(2)));
        assert_eq!(q.pop_due(t0 + Duration::from_millis(1)), None);
    }

    #[test]
    fn identical_deadlines_coexist() {
        let t0 = Instant::now();
        let mut q = DeadlineQueue::new();
        q.arm(Key(1), t0);
        q.arm(Key(2), t0);
        let mut fired = vec![
            q.pop_due(t0).expect("first"),
            q.pop_due(t0).expect("second"),
        ];
        fired.sort();
        assert_eq!(fired, vec![Key(1), Key(2)]);
    }
}
