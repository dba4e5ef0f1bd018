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
/// timestamp, state and update kind, packed into two of the slot's three
/// header words (the third is the seqlock's sequence). With the value, this
/// is everything a replica keeps of an idle key.
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

/// Bits of the meta word below the cid (bits 8..40); the value's length
/// takes the 24 bits above it.
const STATE_BIT: u64 = 1;
const RMW_BIT: u64 = 2;
const LEN_SHIFT: u32 = 40;

/// The longest value a slot holds, 16 MiB less a byte: its length has the
/// top 24 bits of a header word.
pub const MAX_VALUE: usize = (1 << (64 - LEN_SHIFT)) - 1;

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

    /// The inverse of `pack`; a length above the cid is ignored.
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

/// Header words of a slot, ahead of the value words. `META` is the packed
/// cid, kind and state with the value's length in its top 24 bits.
const SEQ: usize = 0;
const VERSION: usize = 1;
const META: usize = 2;
const HEADER: usize = 3;

/// One key's storage cell, a run of its shard's arena: a sequence-locked
/// `(meta, value)` pair — three header words, then the value, eight bytes
/// to a word, as long as the longest value the key has held.
///
/// Readers are lock-free (retry loop over relaxed atomic words bracketed by
/// the acquire/release sequence protocol, the crossbeam `SeqLock`
/// memory-ordering recipe); writers exclude each other by taking the
/// sequence word from even to odd with a compare-exchange. A slot is only
/// reached through its shard's guard, so moving it under the write guard
/// (a re-slot or a compaction) overlaps no reader and no writer of it.
#[derive(Debug)]
struct Slot<'a>(&'a [AtomicU64]);

impl Slot<'_> {
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
        let w1 = (value.len() as u64) << LEN_SHIFT | w1;
        // Above the state and kind bits: the cid and the length.
        let held = head[VERSION].load(Ordering::Relaxed) == w0
            && head[META].load(Ordering::Relaxed) >> 8 == w1 >> 8;
        head[VERSION].store(w0, Ordering::Relaxed);
        head[META].store(w1, Ordering::Relaxed);
        if !held {
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
                let w1 = head[META].load(Ordering::Relaxed);
                let len = (w1 >> LEN_SHIFT) as usize;
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

/// Where a key's slot sits in its shard's arena: the segment in the top
/// bits of `at`, the slot's first word within it in the low
/// `SEGMENT_BITS`. With the key, a 16-byte index entry.
#[derive(Clone, Copy, Debug)]
struct SlotRef {
    at: u32,
    words: u32,
}

impl SlotRef {
    fn of(self, arena: &Arena) -> Slot<'_> {
        let segment = &arena.segments[(self.at >> SEGMENT_BITS) as usize];
        let at = self.at as usize & (SEGMENT_MAX - 1);
        Slot(&segment[at..][..self.words as usize])
    }
}

/// Bits of a [`SlotRef`]'s `at` that address a word within its segment,
/// and so the longest segment: 2^24 words (128 MiB), over any slot's
/// length. The 8 bits above them number up to 256 segments.
const SEGMENT_BITS: u32 = 24;
const SEGMENT_MAX: usize = 1 << SEGMENT_BITS;
/// A new segment holds at least `1 / GROWTH` of the words the arena has
/// handed out already: few segments, and a spare tail under an eighth.
const GROWTH: usize = 8;
/// An arena is re-packed once more than `1 / DEAD_SHARE` of the words it
/// handed out belong to no key.
const DEAD_SHARE: usize = 4;

/// Where a shard's slots live: segments of words, each allocated at its
/// full length once and filled from its start, so growing the arena copies
/// nothing and a segment's unfilled tail is memory nobody has touched.
/// (A `Vec` grown in place would copy every slot per step and leave the
/// allocator holes that stay resident.)
#[derive(Debug, Default)]
struct Arena {
    /// Only the last segment has room.
    segments: Vec<Vec<AtomicU64>>,
    /// Words handed out, in every segment.
    used: usize,
}

impl Arena {
    /// Appends `slot`'s words at the tail, opening a segment of at least
    /// `open` words when the last one has no room for them.
    fn push(&mut self, slot: impl ExactSizeIterator<Item = AtomicU64>, open: usize) -> SlotRef {
        let words = slot.len();
        let room = self.segments.last().map_or(0, |s| s.capacity() - s.len());
        if room < words {
            // Whole slots of this length: values of one size fill it.
            let len = open.max(words).next_multiple_of(words).min(SEGMENT_MAX);
            self.segments.push(Vec::with_capacity(len));
        }
        let top = self.segments.len() - 1;
        let top = u8::try_from(top).expect("a shard's arena has at most 256 segments");
        let segment = &mut self.segments[top as usize];
        let at = segment.len();
        segment.extend(slot);
        self.used += words;
        SlotRef {
            at: u32::from(top) << SEGMENT_BITS | at as u32,
            words: words as u32, // at most HEADER + MAX_VALUE / 8
        }
    }
}

/// One index shard: its keys' slots inline in one arena, each found
/// through its index entry. A slot stays where it is until its key needs
/// a longer one or the arena is re-packed, both under the shard's write
/// guard.
#[derive(Debug, Default)]
struct Shard {
    index: HashMap<Key, SlotRef>,
    arena: Arena,
    /// Arena words no index entry points at: slots left by a re-slot.
    dead: usize,
}

impl Shard {
    fn slot(&self, key: Key) -> Option<Slot<'_>> {
        Some(self.index.get(&key)?.of(&self.arena))
    }

    /// Gives `key` a slot of `value`'s size at the arena's tail, holding
    /// `(meta, value)`, and returns whether it replaced a shorter one (now
    /// dead). Write guard only.
    fn place(&mut self, key: Key, meta: SlotMeta, value: &[u8]) -> bool {
        let old = self.index.remove(&key);
        if let Some(old) = old {
            self.dead += old.words as usize;
            if self.dead * DEAD_SHARE > self.arena.used {
                self.compact();
            }
        }
        let words = HEADER + value.len().div_ceil(8);
        let zeroed = (0..words).map(|_| AtomicU64::new(0));
        let slot = self.arena.push(zeroed, self.arena.used / GROWTH);
        let fits = slot.of(&self.arena).write(meta, value);
        debug_assert!(fits);
        self.index.insert(key, slot);
        old.is_some()
    }

    /// Copies every live slot into a new arena sized for them with
    /// `1 / GROWTH` to spare, and drops the old one. Write guard only.
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.arena);
        let live = old.used - self.dead;
        for slot in self.index.values_mut() {
            let words = slot.of(&old).0.iter();
            let copy = words.map(|w| AtomicU64::new(w.load(Ordering::Relaxed)));
            *slot = self.arena.push(copy, live + live / GROWTH);
        }
        self.dead = 0;
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
    shards: Vec<RwLock<Shard>>,
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
            shards: (0..config.shards).map(|_| RwLock::default()).collect(),
            stats: StoreStats::default(),
        }
    }

    /// Writes `value` with `meta` for `key`. A key's slot is as long as the
    /// longest value it has held: a value that fits is written in place
    /// under the shard's read guard, a first or longer one gets a slot of
    /// its own size at the tail of the shard's arena under the write
    /// guard. Either way the write is in the store when `put` returns, and
    /// a `get` that starts after that finds it or a later one.
    ///
    /// `meta`'s `(version, cid)` must name `value`: a put under the
    /// timestamp and length the slot already holds rewrites the state only.
    ///
    /// # Panics
    ///
    /// Panics if `value` is longer than [`MAX_VALUE`]: a slot keeps the
    /// length in 24 bits. A client frame, 16 MiB with its framing, carries
    /// no such value, and a lane refuses one from an in-process session.
    pub fn put(&self, key: Key, meta: SlotMeta, value: &[u8]) {
        assert!(
            value.len() <= MAX_VALUE,
            "a {} B value is over the store's {MAX_VALUE} B limit",
            value.len()
        );
        let shard = &self.shards[key.shard(self.shards.len())];
        let in_place = |shard: &Shard| shard.slot(key).is_some_and(|s| s.write(meta, value));
        if in_place(&shard.read()) {
            return;
        }
        // Checked again under the write guard: another put may have
        // re-slotted the key in between, and a slot never shrinks.
        let mut shard = shard.write();
        if !in_place(&shard) && shard.place(key, meta, value) {
            self.stats.grows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads `key`'s value into `buf` and returns its metadata, or `None`
    /// if the key has never been written.
    ///
    /// Lock-free with respect to concurrent writers: retries until it
    /// obtains a consistent snapshot.
    pub fn get(&self, key: Key, buf: &mut Vec<u8>) -> Option<SlotMeta> {
        let shard = self.shards[key.shard(self.shards.len())].read();
        let (meta, retries) = shard.slot(key)?.read(buf);
        if retries > 0 {
            self.stats
                .read_retries
                .fetch_add(retries, Ordering::Relaxed);
        }
        Some(meta)
    }

    /// Number of materialized keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().index.len()).sum()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the store has reserved for its keys: every shard's arena
    /// segments at their full length, and its index's capacity in entries
    /// (the hash table's control bytes left out).
    pub fn footprint(&self) -> usize {
        let entry = std::mem::size_of::<(Key, SlotRef)>();
        let word = std::mem::size_of::<AtomicU64>();
        let shard = |s: &Shard| {
            let arena: usize = s.arena.segments.iter().map(Vec::capacity).sum();
            arena * word + s.index.capacity() * entry
        };
        self.shards.iter().map(|s| shard(&s.read())).sum()
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
            let shard = shard.read();
            for (key, slot) in &shard.index {
                let (meta, _) = slot.of(&shard.arena).read(&mut buf);
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
    fn a_value_one_byte_under_16_mib_round_trips_beside_a_full_cid() {
        // The length's 24 bits sit right above the cid's 32 in one word.
        let store = Store::new(StoreConfig { shards: 1 });
        let meta = SlotMeta::invalid(u64::MAX, u32::MAX).with_rmw(true);
        let value: Vec<u8> = (0..MAX_VALUE).map(|b| (b % 251) as u8).collect();
        store.put(Key(1), meta, &value);
        let mut buf = Vec::new();
        assert_eq!(store.get(Key(1), &mut buf), Some(meta));
        assert!(buf == value, "{} B read back", buf.len());
        store.put(Key(1), SlotMeta::valid(1, u32::MAX), b"");
        assert_eq!(
            store.get(Key(1), &mut buf),
            Some(SlotMeta::valid(1, u32::MAX))
        );
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "over the store's 16777215 B limit")]
    fn a_16_mib_value_is_refused() {
        let store = Store::new(StoreConfig { shards: 1 });
        store.put(Key(1), SlotMeta::valid(1, 0), &vec![0; 1 << 24]);
    }

    #[test]
    fn regrown_keys_keep_their_values_and_dead_words_stay_under_a_quarter() {
        // 100 keys in one shard, each grown in 8 B steps: without
        // compaction the dead slots would hold 50 times the live ones.
        let store = Store::new(StoreConfig { shards: 1 });
        let mut buf = Vec::new();
        for (step, len) in (8..=800).step_by(8).enumerate() {
            for k in 0..100 {
                let version = step as u64 * 100 + k + 1;
                store.put(Key(k), SlotMeta::valid(version, 0), &vec![k as u8; len]);
            }
            let shard = store.shards[0].read();
            assert!(shard.dead * DEAD_SHARE <= shard.arena.used, "step {step}");
            let live: usize = shard.index.values().map(|s| s.words as usize).sum();
            assert_eq!(shard.arena.used - shard.dead, live);
            drop(shard);
            for k in 0..100 {
                let meta = store.get(Key(k), &mut buf).unwrap();
                assert_eq!(meta.version, step as u64 * 100 + k + 1);
                assert_eq!(buf, vec![k as u8; len]);
            }
        }
        assert_eq!(store.stats().grows.load(Ordering::Relaxed), 99 * 100);
        let shard = store.shards[0].read();
        let live = 100 * (HEADER + 100);
        let reserved: usize = shard.arena.segments.iter().map(Vec::capacity).sum();
        assert!(
            reserved <= live * 2,
            "{reserved} words reserved for {live} live"
        );
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
