use hermes_common::Key;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Protocol state of a slot, as stored in the KVS (the per-key metadata of
/// paper Figure 3, §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotState {
    /// Latest committed value; local reads may be served.
    Valid = 0,
    /// An update is in flight; local reads must stall or be forwarded.
    Invalid = 1,
}

/// Metadata stored alongside each value: the Hermes per-key logical
/// timestamp, state and update kind, packed to fit the seqlock'd hot path.
/// With the value, this is everything a replica keeps of an idle key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotMeta {
    /// Key version (Lamport clock high part).
    pub version: u64,
    /// Coordinator id (Lamport clock low part).
    pub cid: u32,
    /// Valid/Invalid visibility state.
    pub state: SlotState,
    /// Whether the update that wrote this version is a read-modify-write
    /// (Hermes keeps the kind for faithful replays, paper §3.6).
    pub rmw: bool,
}

/// Bits of the cid+state word below the cid.
const STATE_BIT: u64 = 1;
const RMW_BIT: u64 = 2;

impl SlotMeta {
    /// Metadata for a committed (Valid) version of a plain write.
    pub fn valid(version: u64, cid: u32) -> Self {
        SlotMeta {
            version,
            cid,
            state: SlotState::Valid,
            rmw: false,
        }
    }

    /// Metadata for an in-flight (Invalid) version of a plain write.
    pub fn invalid(version: u64, cid: u32) -> Self {
        SlotMeta {
            state: SlotState::Invalid,
            ..SlotMeta::valid(version, cid)
        }
    }

    /// The same metadata, for a version a read-modify-write wrote if `rmw`.
    pub fn with_rmw(self, rmw: bool) -> Self {
        SlotMeta { rmw, ..self }
    }

    fn pack(self) -> (u64, u64) {
        let rmw = if self.rmw { RMW_BIT } else { 0 };
        let w1 = (self.cid as u64) << 8 | rmw | self.state as u64;
        (self.version, w1)
    }

    fn unpack(w0: u64, w1: u64) -> Self {
        SlotMeta {
            version: w0,
            cid: (w1 >> 8) as u32,
            state: if w1 & STATE_BIT == 0 {
                SlotState::Valid
            } else {
                SlotState::Invalid
            },
            rmw: w1 & RMW_BIT != 0,
        }
    }
}

/// Header words of a slot, ahead of the value words.
const SEQ: usize = 0;
const VERSION: usize = 1;
const CID_STATE: usize = 2;
const LEN: usize = 3;
const HEADER: usize = 4;

/// One key's storage cell: a sequence-locked `(meta, value)` pair in a
/// single allocation — four header words, then the value, eight bytes to
/// a word, as long as the longest value the key has held.
///
/// Readers are lock-free (retry loop over relaxed atomic words bracketed by
/// the acquire/release sequence protocol, the crossbeam `SeqLock`
/// memory-ordering recipe); writers exclude each other by taking the
/// sequence word from even to odd with a compare-exchange. A slot is only
/// reached through its shard's guard, so replacing it by a longer one under
/// the write guard overlaps no reader and no writer of the old one.
#[derive(Debug)]
struct Slot(Box<[AtomicU64]>);

impl Slot {
    fn new(meta: SlotMeta, value: &[u8]) -> Self {
        let words = HEADER + value.len().div_ceil(8);
        let slot = Slot((0..words).map(|_| AtomicU64::new(0)).collect());
        let fits = slot.write(meta, value);
        debug_assert!(fits);
        slot
    }

    /// Writes `(meta, value)` in place and returns `true`, or writes
    /// nothing and returns `false` when `value` is longer than the slot.
    ///
    /// The value bytes move only when the timestamp does: a Hermes
    /// timestamp names one value (equal timestamps carry equal values,
    /// paper §3.1), so when the slot already holds `meta`'s
    /// `(version, cid)` and `value`'s length, only the state is rewritten —
    /// the Invalid → Valid flip of a VAL or a commit.
    fn write(&self, meta: SlotMeta, value: &[u8]) -> bool {
        let (head, words) = self.0.split_at(HEADER);
        if value.len() > words.len() * 8 {
            return false;
        }
        // Writer lock: the sequence goes even → odd by compare-exchange,
        // and readers retry while it is odd. Acquire pairs with the last
        // writer's Release publish; the Release fence keeps the data stores
        // below behind the odd sequence for a reader whose Acquire fence
        // follows its data loads.
        let seq = loop {
            let seq = head[SEQ].load(Ordering::Relaxed);
            let free = seq & 1 == 0;
            if free
                && head[SEQ]
                    .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break seq;
            }
            std::thread::yield_now();
        };
        fence(Ordering::Release);
        let (w0, w1) = meta.pack();
        let len = value.len() as u64;
        let held = head[VERSION].load(Ordering::Relaxed) == w0
            && head[CID_STATE].load(Ordering::Relaxed) >> 8 == w1 >> 8
            && head[LEN].load(Ordering::Relaxed) == len;
        head[VERSION].store(w0, Ordering::Relaxed);
        head[CID_STATE].store(w1, Ordering::Relaxed);
        if !held {
            head[LEN].store(len, Ordering::Relaxed);
            for (word, chunk) in words.iter().zip(value.chunks(8)) {
                let mut bytes = [0u8; 8];
                bytes[..chunk.len()].copy_from_slice(chunk);
                word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            }
        }
        // Even sequence: publish. Release keeps the data stores above it.
        head[SEQ].store(seq + 2, Ordering::Release);
        true
    }

    /// Lock-free consistent snapshot; returns the number of retries.
    fn read(&self, buf: &mut Vec<u8>) -> (SlotMeta, u64) {
        let (head, words) = self.0.split_at(HEADER);
        let mut retries = 0;
        loop {
            let s1 = head[SEQ].load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let w0 = head[VERSION].load(Ordering::Relaxed);
                let w1 = head[CID_STATE].load(Ordering::Relaxed);
                let len = head[LEN].load(Ordering::Relaxed) as usize;
                buf.clear();
                // Every length ever stored here fits this slot, torn or not.
                for word in &words[..len.div_ceil(8)] {
                    buf.extend_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
                }
                buf.truncate(len);
                // The fence orders the relaxed data loads before the
                // validation load of the sequence.
                fence(Ordering::Acquire);
                if head[SEQ].load(Ordering::Relaxed) == s1 {
                    return (SlotMeta::unpack(w0, w1), retries);
                }
            }
            retries += 1;
            std::hint::spin_loop();
        }
    }
}

/// Configuration of a [`Store`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Number of index shards (power of two recommended).
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { shards: 64 }
    }
}

/// Counters of the store's rare events (approximate, relaxed atomics).
/// Nothing here is touched by a read that did not retry or a write that
/// fitted its slot.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Seqlock read retries (contention indicator).
    pub read_retries: AtomicU64,
    /// Slots replaced by a longer one because a value outgrew them.
    pub grows: AtomicU64,
}

/// A sharded CRCW key-value store with lock-free reads (the ccKVS/MICA
/// substrate of paper §4.1).
///
/// All methods take `&self`: the store is meant to be shared across worker
/// threads via `Arc`.
#[derive(Debug)]
pub struct Store {
    shards: Vec<RwLock<HashMap<Key, Slot>>>,
    stats: StoreStats,
}

impl Store {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "store must have at least one shard");
        Store {
            shards: (0..config.shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            stats: StoreStats::default(),
        }
    }

    /// Writes `value` with `meta` for `key`. A key's slot is as long as the
    /// longest value it has held: a value that fits is written in place
    /// under the shard's read guard, a first or longer one gets a slot of
    /// its own size swapped in under the write guard. Either way the write
    /// is in the store when `put` returns, and a `get` that starts after
    /// that finds it or a later one.
    ///
    /// `meta`'s `(version, cid)` must name `value`: a put under the
    /// timestamp and length the slot already holds rewrites the state only.
    pub fn put(&self, key: Key, meta: SlotMeta, value: &[u8]) {
        let shard = &self.shards[key.shard(self.shards.len())];
        let in_place = |slot: &Slot| slot.write(meta, value);
        if shard.read().get(&key).is_some_and(in_place) {
            return;
        }
        // Checked again under the write guard: another put may have grown
        // the slot in between, and a slot never shrinks.
        let mut map = shard.write();
        if !map.get(&key).is_some_and(in_place) && map.insert(key, Slot::new(meta, value)).is_some()
        {
            self.stats.grows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads `key`'s value into `buf` and returns its metadata, or `None`
    /// if the key has never been written.
    ///
    /// Lock-free with respect to concurrent writers: retries until it
    /// obtains a consistent snapshot.
    pub fn get(&self, key: Key, buf: &mut Vec<u8>) -> Option<SlotMeta> {
        let map = self.shards[key.shard(self.shards.len())].read();
        let (meta, retries) = map.get(&key)?.read(buf);
        if retries > 0 {
            self.stats
                .read_retries
                .fetch_add(retries, Ordering::Relaxed);
        }
        Some(meta)
    }

    /// Number of materialized keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rare-event counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Visits every key with a consistent snapshot of its `(meta, value)`.
    /// The iteration is not atomic across keys. `f` runs under the shard's
    /// read guard and must not call back into the store.
    pub fn for_each(&self, mut f: impl FnMut(Key, SlotMeta, &[u8])) {
        let mut buf = Vec::new();
        for shard in &self.shards {
            for (key, slot) in shard.read().iter() {
                let (meta, _) = slot.read(&mut buf);
                f(*key, meta, &buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn get_of_missing_key_is_none() {
        let store = Store::new(StoreConfig::default());
        let mut buf = Vec::new();
        assert!(store.get(Key(1), &mut buf).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn put_then_get_roundtrip() {
        let store = Store::new(StoreConfig::default());
        store.put(Key(1), SlotMeta::valid(5, 2), b"payload");
        let mut buf = Vec::new();
        let meta = store.get(Key(1), &mut buf).unwrap();
        assert_eq!(meta, SlotMeta::valid(5, 2));
        assert_eq!(&buf, b"payload");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn overwrite_replaces_value_and_meta() {
        let store = Store::new(StoreConfig::default());
        store.put(Key(1), SlotMeta::invalid(1, 0), b"short");
        store.put(Key(1), SlotMeta::valid(2, 1), b"a-longer-value");
        let mut buf = Vec::new();
        let meta = store.get(Key(1), &mut buf).unwrap();
        assert_eq!(meta, SlotMeta::valid(2, 1));
        assert_eq!(&buf, b"a-longer-value");
        // Shrinking works too (stale tail bytes must not leak).
        store.put(Key(1), SlotMeta::valid(3, 1), b"x");
        let meta = store.get(Key(1), &mut buf).unwrap();
        assert_eq!(meta.version, 3);
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn put_meta_keeps_value() {
        // A put under the timestamp and length the slot holds moves the
        // state and no value byte: "lost" would show if it did.
        let store = Store::new(StoreConfig::default());
        store.put(Key(9), SlotMeta::invalid(4, 3), b"kept");
        store.put(Key(9), SlotMeta::valid(4, 3), b"lost");
        let mut buf = Vec::new();
        let meta = store.get(Key(9), &mut buf).unwrap();
        assert_eq!(meta, SlotMeta::valid(4, 3));
        assert_eq!(&buf, b"kept");
        // Another cid, version or length is another value.
        for (meta, value) in [
            (SlotMeta::valid(4, 2), &b"cid."[..]),
            (SlotMeta::valid(5, 2), b"ver."),
            (SlotMeta::valid(5, 2), b"length"),
        ] {
            store.put(Key(9), meta, value);
            assert_eq!(store.get(Key(9), &mut buf), Some(meta));
            assert_eq!(buf, value);
        }
    }

    #[test]
    fn empty_values_are_representable() {
        let store = Store::new(StoreConfig::default());
        store.put(Key(2), SlotMeta::valid(1, 0), b"");
        let mut buf = vec![1, 2, 3];
        let meta = store.get(Key(2), &mut buf).unwrap();
        assert_eq!(meta.version, 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn values_up_to_capacity_roundtrip() {
        // On one key per length, and on one key across all of them: up
        // through the growth path and back down inside the grown slot.
        let store = Store::new(StoreConfig { shards: 4 });
        let lens = [1usize, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 4096, 65536];
        let mut buf = Vec::new();
        for (i, len) in lens.iter().chain(lens.iter().rev()).enumerate() {
            let value: Vec<u8> = (0..*len).map(|b| (b % 251) as u8).collect();
            for key in [Key(*len as u64), Key(0)] {
                store.put(key, SlotMeta::valid(i as u64 + 1, 0), &value);
                store.get(key, &mut buf).unwrap();
                assert_eq!(buf, value, "roundtrip failed for len {len}");
            }
        }
    }

    #[test]
    fn a_slot_grows_to_its_longest_value_and_never_shrinks() {
        let store = Store::new(StoreConfig::default());
        let grows = || store.stats().grows.load(Ordering::Relaxed);
        let put = |version: u64, len: usize| {
            store.put(
                Key(1),
                SlotMeta::valid(version, 0),
                &vec![version as u8; len],
            );
            let mut buf = Vec::new();
            assert_eq!(store.get(Key(1), &mut buf).unwrap().version, version);
            assert_eq!(buf, vec![version as u8; len]);
        };
        put(1, 8);
        assert_eq!(grows(), 0, "the first slot is built, not grown");
        put(2, 100);
        assert_eq!(grows(), 1);
        put(3, 8);
        put(4, 100);
        put(5, 104);
        assert_eq!(grows(), 1, "100 B hold 13 words: 104 B fit them");
        put(6, 105);
        assert_eq!(grows(), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn meta_pack_unpack_roundtrip() {
        for meta in [
            SlotMeta::valid(0, 0),
            SlotMeta::invalid(u64::MAX, u32::MAX),
            SlotMeta::valid(123456789, 42),
            SlotMeta::valid(7, u32::MAX).with_rmw(true),
            SlotMeta::invalid(u64::MAX, u32::MAX).with_rmw(true),
        ] {
            let (w0, w1) = meta.pack();
            assert_eq!(SlotMeta::unpack(w0, w1), meta);
        }
    }

    #[test]
    fn an_rmw_kind_round_trips_and_survives_the_metadata_only_flip() {
        let store = Store::new(StoreConfig::default());
        let mut buf = Vec::new();
        let rmw = SlotMeta::invalid(3, 1).with_rmw(true);
        store.put(Key(4), rmw, b"sum");
        assert_eq!(store.get(Key(4), &mut buf), Some(rmw));
        assert!(
            !SlotMeta::valid(3, 1).rmw,
            "the plain constructors are writes"
        );
        // The commit's flip under the held timestamp keeps the value and
        // carries the kind.
        let flipped = SlotMeta::valid(3, 1).with_rmw(true);
        store.put(Key(4), flipped, b"sum");
        assert_eq!(store.get(Key(4), &mut buf), Some(flipped));
        assert_eq!(buf, b"sum");
        // The next write's kind replaces it.
        store.put(Key(4), SlotMeta::valid(5, 0), b"write");
        assert!(!store.get(Key(4), &mut buf).unwrap().rmw);
    }

    /// 16 B under an even version, 900 B under an odd one, every byte the
    /// version's low byte: a snapshot mixing two writes shows in one of
    /// `(meta, len, value)`.
    fn payload(version: u64) -> Vec<u8> {
        vec![version as u8; if version.is_multiple_of(2) { 16 } else { 900 }]
    }

    /// Reads `key` until `stop`, counting into `reads`: every snapshot is
    /// whole, and (with one writer) versions never go backwards.
    fn read_until(
        store: &Store,
        key: &AtomicU64,
        stop: &AtomicU64,
        rising: bool,
        reads: &AtomicU64,
    ) {
        let (mut buf, mut last) = (Vec::new(), 0);
        while stop.load(Ordering::Acquire) == 0 {
            let Some(meta) = store.get(Key(key.load(Ordering::Acquire)), &mut buf) else {
                continue;
            };
            assert_eq!(buf, payload(meta.version), "torn under {meta:?}");
            assert!(
                !rising || meta.version >= last,
                "{} after {last}",
                meta.version
            );
            last = meta.version;
            reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn concurrent_readers_and_writers_no_torn_values() {
        // One writer, three readers. A slot never shrinks, so the growth
        // path is crossed once per key: the writer takes a fresh key every
        // four writes (build 16 B, grow to 900 B, then both in place) and
        // the readers follow it. It writes on until the readers have taken
        // their share of snapshots alongside it.
        const MIN_KEYS: u64 = 2_000;
        const MAX_KEYS: u64 = 20_000;
        let store = Store::new(StoreConfig { shards: 4 });
        let (key, stop, reads) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let start = Barrier::new(4);
        thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    start.wait();
                    read_until(&store, &key, &stop, true, &reads);
                });
            }
            start.wait();
            let mut k = 0;
            while k < MIN_KEYS || reads.load(Ordering::Relaxed) < 3 * MIN_KEYS {
                assert!(k < MAX_KEYS, "the readers never ran alongside the writer");
                for version in 4 * k..4 * k + 4 {
                    store.put(Key(k), SlotMeta::valid(version, 0), &payload(version));
                    key.store(k, Ordering::Release);
                }
                k += 1;
            }
            stop.store(1, Ordering::Release);
        });
        assert_eq!(
            store.stats().grows.load(Ordering::Relaxed),
            store.len() as u64
        );
    }

    #[test]
    fn two_writers_on_one_key_lose_no_update() {
        // Each round two writers meet on a fresh key: one builds 16 B and
        // grows to 900 B, the other builds 900 B and shrinks in place to
        // 16 B, so building, growing and in-place writes race each other.
        // Whichever order the slot saw, it ends on one writer's *last* put
        // — an earlier one there is a lost update. Readers check no
        // snapshot is torn meanwhile.
        const ROUNDS: u64 = 3_000;
        let store = Store::new(StoreConfig { shards: 2 });
        let (key, stop, reads) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let round = Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| read_until(&store, &key, &stop, false, &reads));
            }
            let writer = |versions: [u64; 2]| {
                let (store, key, round) = (&store, &key, &round);
                move || {
                    let mut buf = Vec::new();
                    for k in 0..ROUNDS {
                        round.wait();
                        key.store(k, Ordering::Release);
                        for v in versions {
                            store.put(Key(k), SlotMeta::valid(4 * k + v, 0), &payload(4 * k + v));
                        }
                        round.wait();
                        let last = store.get(Key(k), &mut buf).unwrap().version - 4 * k;
                        assert!(last == 1 || last == 2, "round {k} ended on put {last}");
                    }
                }
            };
            let a = s.spawn(writer([0, 1]));
            let b = s.spawn(writer([3, 2]));
            a.join().unwrap();
            b.join().unwrap();
            stop.store(1, Ordering::Release);
        });
        assert_eq!(store.len() as u64, ROUNDS);
    }

    #[test]
    fn concurrent_distinct_key_writers_scale() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    for i in 0..5_000u64 {
                        store.put(
                            Key(t * 10_000 + i % 100),
                            SlotMeta::valid(i, t as u32),
                            &i.to_le_bytes(),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 800);
        assert_eq!(store.stats().grows.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn for_each_visits_every_key_once() {
        let store = Store::new(StoreConfig { shards: 8 });
        for i in 0..100u64 {
            store.put(Key(i), SlotMeta::valid(i, 0), &i.to_le_bytes());
        }
        let mut seen = std::collections::BTreeSet::new();
        store.for_each(|k, meta, value| {
            assert_eq!(meta.version, k.0);
            assert_eq!(value, k.0.to_le_bytes());
            assert!(seen.insert(k), "key visited twice: {k}");
        });
        assert_eq!(seen.len(), 100);
    }
}
