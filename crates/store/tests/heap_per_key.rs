//! Resource bound: a key costs the store what it holds — the value, a
//! 24-byte slot header and a 16-byte index entry, with the shard arena's
//! spare tail (under an eighth) and the index's spare buckets on top — not
//! a fixed-size slot; and a key that outgrows its slot again and again
//! leaves dead slots that compaction reclaims. Alone in its test binary
//! because the counting allocator is process-wide, and one test function
//! so nothing else allocates while it counts.

use hermes_common::Key;
use hermes_store::{SlotMeta, Store, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountLive;

// SAFETY: every request goes to `System` unchanged (`realloc` and
// `alloc_zeroed` through the trait's defaults, which call these two); the
// byte count is kept on the side.
unsafe impl GlobalAlloc for CountLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountLive = CountLive;

/// Live heap bytes per key of a store holding `keys` values of `len` bytes.
fn heap_per_key(keys: u64, len: usize) -> usize {
    let value = vec![7u8; len];
    let before = LIVE.load(Ordering::Relaxed);
    let store = Store::new(StoreConfig::default());
    for k in 0..keys {
        store.put(Key(k), SlotMeta::valid(1, 0), &value);
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(store.len() as u64, keys);
    held / keys as usize
}

/// Heap bytes of a store whose `keys` keys each climbed a ladder of value
/// lengths, 16 B → 900 B → 4 KiB in 33 rungs: `(after the first rung,
/// after the last)`. Without compaction the dead slots of the 32 shorter
/// rungs would hold eleven times the live ones.
fn heap_after_regrowth(keys: u64) -> (usize, usize) {
    let up = |from: usize, to: usize| (0..16).map(move |i| from + i * (to - from) / 16);
    let ladder: Vec<usize> = up(16, 900).chain(up(900, 4096)).chain([4096]).collect();
    let before = LIVE.load(Ordering::Relaxed);
    let store = Store::new(StoreConfig::default());
    let mut first = 0;
    for (rung, &len) in ladder.iter().enumerate() {
        let value = vec![rung as u8; len];
        for k in 0..keys {
            store.put(Key(k), SlotMeta::valid(rung as u64 + 1, 0), &value);
        }
        drop(value);
        if rung == 0 {
            first = LIVE.load(Ordering::Relaxed) - before;
        }
    }
    (first, LIVE.load(Ordering::Relaxed) - before)
}

#[test]
fn a_key_costs_its_bytes_and_regrown_keys_leave_bounded_dead_space() {
    // The paper's record (§5.1: 32 B values) and its largest (Figure 8).
    // At 32 B: a 56 B slot, a 16 B index entry at hashbrown's load, and
    // the arenas' spare tails — 91 B measured at 10 000 keys; 20 B margin.
    let small = heap_per_key(10_000, 32);
    assert!(small <= 110, "{small} B of heap per 32 B key");
    // At 1 KiB the spare tail, up to an eighth of each 1 048 B slot, takes
    // most of the old margin: 1 207 B measured, so it stays.
    let large = heap_per_key(10_000, 1024);
    assert!(large <= 1024 + 200, "{large} B of heap per 1 KiB key");
    // Regrowth: the reserve stays within twice the live slots (3 header
    // words + 512 value words a key) plus what the first rung held, the
    // index among it.
    let keys = 2_000;
    let (first, last) = heap_after_regrowth(keys);
    let live = keys as usize * (3 + 512) * 8;
    assert!(
        last <= 2 * live + first,
        "{last} B of heap for {live} B of live slots ({first} B at 16 B values)"
    );
    eprintln!(
        "store heap per key: {small} B at 32 B values, {large} B at 1 KiB; \
         {} B per key after regrowth to 4 KiB",
        last / keys as usize
    );
}
