//! Resource bound: a key costs the store what it holds — the value, a
//! 32-byte slot header and its index entry — not a fixed-size slot. Alone
//! in its test binary because the counting allocator is process-wide, and
//! one test function so nothing else allocates while it counts.

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

#[test]
fn a_key_costs_its_value_plus_at_most_200_bytes() {
    // The paper's record (§5.1: 32 B values) and its largest (Figure 8).
    let small = heap_per_key(10_000, 32);
    assert!(small <= 200, "{small} B of heap per 32 B key");
    let large = heap_per_key(10_000, 1024);
    assert!(large <= 1024 + 200, "{large} B of heap per 1 KiB key");
    eprintln!("store heap per key: {small} B at 32 B values, {large} B at 1 KiB");
}
