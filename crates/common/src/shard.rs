//! Shard/partition vocabulary for multi-worker replica runtimes.
//!
//! Hermes' headline property is *inter-key concurrency* (paper §2.3,
//! §5.1.1): any worker on any replica can coordinate any write, so a
//! replica can be partitioned into W independent per-key-shard protocol
//! engines that never synchronize with each other. [`ShardSpec`] is the
//! partition function (`hash(key) % W` via [`Key::shard`]): the real
//! runtime hands every client operation and peer message about a key to
//! the lane it names.
//!
//! # Examples
//!
//! ```
//! use hermes_common::{Key, ShardSpec};
//!
//! let spec = ShardSpec::new(4);
//! let lane = spec.owner(Key(42));
//! assert!(lane < 4);
//! assert_eq!(lane, spec.owner(Key(42)), "ownership is stable");
//! ```

use crate::Key;

/// The key partition of one replica: `workers` lanes, keys assigned by
/// `hash(key) % workers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    workers: usize,
}

impl ShardSpec {
    /// A partition into `workers` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a replica needs at least one worker");
        ShardSpec { workers }
    }

    /// Number of lanes (worker threads) per replica.
    #[inline]
    pub fn workers(self) -> usize {
        self.workers
    }

    /// The lane that owns `key`.
    #[inline]
    pub fn owner(self, key: Key) -> usize {
        key.shard(self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_stable_and_in_range() {
        let spec = ShardSpec::new(4);
        for raw in 0..1000u64 {
            let lane = spec.owner(Key(raw));
            assert!(lane < 4);
            assert_eq!(lane, spec.owner(Key(raw)));
        }
    }

    #[test]
    fn single_worker_maps_everything_to_lane_zero() {
        let spec = ShardSpec::new(1);
        for raw in 0..100u64 {
            assert_eq!(spec.owner(Key(raw)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ShardSpec::new(0);
    }
}
