//! # hermes-store — seqlock-based CRCW in-memory KVS
//!
//! The paper's HermesKV builds on ccKVS (a MICA derivative) modified for
//! concurrent-read-concurrent-write (CRCW) access using **seqlocks**, which
//! allow lock-free reads (paper §4.1). This crate reproduces that substrate:
//!
//! [`Store`] is a sharded hash index of seqlock-guarded slots holding
//! `(protocol metadata, value)` pairs, supporting lock-free reads concurrent
//! with writes, as the Hermes threaded runtime requires for its local reads.
//! A reader takes its shard's read guard and copies a snapshot between two
//! equal, even reads of the slot's sequence word, retrying on a torn one; it
//! writes nothing but the guard's reader count — not the slot, not a
//! counter. Writers of one slot exclude each other by taking that word from
//! even to odd.
//!
//! A slot is three header words — the sequence, the version, and one word
//! packing the value's length (its top 24 bits) with the cid, update kind
//! and state — then the value, eight bytes to a word, as long as the
//! longest value its key has held; so a key costs what it holds. A shard
//! keeps its slots inline in one arena, found through a 16-byte index entry
//! per key (≈ 94 B of resident memory per 32 B key, against 130 B with a
//! heap allocation per slot). The arena grows by segments that are never
//! moved, so growing it copies nothing. A value that outgrows its slot is
//! re-slotted at the arena's tail under the shard's write guard, and the
//! arena is re-packed once a quarter of it is dead; every other access to
//! a slot happens under the read guard, so none overlaps a move.
//!
//! The implementation avoids `unsafe`: slot payloads are stored as arrays of
//! relaxed atomics bracketed by the sequence word's acquire/release pairs,
//! which is the data-race-free formulation of a seqlock.
//!
//! # Examples
//!
//! ```
//! use hermes_common::Key;
//! use hermes_store::{SlotMeta, Store, StoreConfig};
//!
//! let store = Store::new(StoreConfig::default());
//! store.put(Key(1), SlotMeta::valid(3, 0), b"hello");
//! let mut buf = Vec::new();
//! let meta = store.get(Key(1), &mut buf).unwrap();
//! assert_eq!(&buf, b"hello");
//! assert_eq!(meta.version, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod store;

pub use store::{SlotMeta, SlotState, Store, StoreConfig, StoreStats, MAX_VALUE};
