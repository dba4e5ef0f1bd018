//! Model-based property testing: the seqlock store must behave exactly like
//! a reference `BTreeMap` under arbitrary operation sequences.

use hermes_common::Key;
use hermes_store::{SlotMeta, SlotState, Store, StoreConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Put {
        key: u8,
        version: u64,
        len: u16,
    },
    /// Re-puts the key's `(version, cid, value)` under the other state: the
    /// metadata-only write of a VAL or a commit.
    Flip {
        key: u8,
    },
    Get {
        key: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // 0 – 2 000 B: sequences grow a slot, shrink inside it and re-grow.
        3 => (any::<u8>(), 1u64..1000, 0u16..2001).prop_map(|(key, version, len)| Op::Put {
            key: key % 16,
            version,
            len
        }),
        1 => any::<u8>().prop_map(|key| Op::Flip { key: key % 16 }),
        4 => any::<u8>().prop_map(|key| Op::Get { key: key % 16 }),
    ]
}

/// A function of `(version, len)` alone: the store may take a put under the
/// `(version, cid)` and length it holds as carrying the bytes it holds.
fn payload(version: u64, len: u16) -> Vec<u8> {
    (0..len)
        .map(|i| (version as u8).wrapping_add(i as u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let store = Store::new(StoreConfig { shards: 4 });
        let mut reference: BTreeMap<u8, (SlotMeta, Vec<u8>)> = BTreeMap::new();
        let mut buf = Vec::new();

        for op in ops {
            match op {
                Op::Put { key, version, len } => {
                    let value = payload(version, len);
                    let meta = SlotMeta::valid(version, (key as u32) % 7);
                    store.put(Key(key as u64), meta, &value);
                    reference.insert(key, (meta, value));
                }
                Op::Flip { key } => {
                    if let Some((meta, value)) = reference.get_mut(&key) {
                        meta.state = match meta.state {
                            SlotState::Valid => SlotState::Invalid,
                            SlotState::Invalid => SlotState::Valid,
                        };
                        store.put(Key(key as u64), *meta, value);
                    }
                }
                Op::Get { key } => {
                    let got = store.get(Key(key as u64), &mut buf);
                    match reference.get(&key) {
                        None => prop_assert!(got.is_none(), "phantom key {key}"),
                        Some((meta, value)) => {
                            prop_assert_eq!(got, Some(*meta), "meta mismatch for {}", key);
                            prop_assert_eq!(&buf, value, "value mismatch for {}", key);
                        }
                    }
                }
            }
        }
        // Final sweep: every reference entry is present and correct.
        prop_assert_eq!(store.len(), reference.len());
        for (key, (meta, value)) in &reference {
            let got = store.get(Key(*key as u64), &mut buf);
            prop_assert_eq!(got, Some(*meta));
            prop_assert_eq!(&buf, value);
        }
    }

    #[test]
    fn for_each_agrees_with_gets(puts in proptest::collection::vec((any::<u8>(), 0u16..64), 1..60)) {
        let store = Store::new(StoreConfig { shards: 8 });
        let mut reference: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        for (i, (key, len)) in puts.iter().enumerate() {
            let value = payload(i as u64, *len);
            store.put(Key(*key as u64), SlotMeta::valid(i as u64 + 1, 0), &value);
            reference.insert(*key, value);
        }
        let mut seen = BTreeMap::new();
        store.for_each(|k, _, v| {
            seen.insert(k.0 as u8, v.to_vec());
        });
        prop_assert_eq!(seen, reference);
    }
}
