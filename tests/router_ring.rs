//! Stability of the router's consistent-hash ring.
//!
//! `HashRing` must hash identically across router restarts and across
//! versions: a worker pool that comes back after an upgrade has to find each
//! model on the worker that holds its warm caches and its jobs. The ownership
//! of 256 model names over slots 0..4 is hashed with FNV-1a and compared with
//! a recorded constant, so a change to the point hash, the finalizer, the
//! virtual-node count or the clockwise lookup fails here. A second test
//! checks the consistent-hashing promise: when a slot joins, a key either
//! keeps its owner or moves to the joiner.

use sam::router::HashRing;

/// FNV-1a of the owners of `names()` on a ring of slots 0..4, one byte per
/// name in name order, recorded on `5268845`.
const OWNERSHIP_FNV: u64 = 0xb21e_c84c_f277_1667;

fn names() -> Vec<String> {
    (0..256).map(|i| format!("model-{i}")).collect()
}

fn ring(slots: impl IntoIterator<Item = usize>) -> HashRing {
    let mut ring = HashRing::new();
    for slot in slots {
        ring.add_slot(slot);
    }
    ring
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn ownership_of_256_names_over_four_slots_is_the_recorded_one() {
    let ring = ring(0..4);
    let owners: Vec<u8> = names()
        .iter()
        .map(|name| {
            ring.slot_for(name)
                .expect("a non-empty ring owns every key") as u8
        })
        .collect();
    for slot in 0..4u8 {
        assert!(owners.contains(&slot), "slot {slot} owns none of 256 names");
    }
    let got = fnv1a(&owners);
    assert_eq!(
        got, OWNERSHIP_FNV,
        "ring ownership moved: 0x{got:016x} (owners {owners:?})"
    );
}

#[test]
fn a_joining_slot_takes_keys_and_no_other_key_moves() {
    for joiner in 0..4 {
        let before = ring((0..4).filter(|&s| s != joiner));
        let after = ring(0..4);
        let mut moved = 0;
        for name in names() {
            let (old, new) = (before.slot_for(&name), after.slot_for(&name));
            assert_eq!(
                before.slot_for_with(&name, joiner),
                new,
                "{name}: the preview of slot {joiner} joining disagrees with the join"
            );
            if old != new {
                assert_eq!(new, Some(joiner), "{name} moved {old:?} -> {new:?}");
                moved += 1;
            }
        }
        assert!(moved > 0, "slot {joiner} joined and took no key");
    }
}
