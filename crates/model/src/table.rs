//! A small open-addressing table keyed by `u64`.
//!
//! [`ProfileBuilder`](crate::ProfileBuilder) keeps three kinds of map
//! from block or word indices to per-item state (last-touch marks per
//! reuse granularity, expected unit-run blocks, expected strided words
//! per czone size) and updates several of them on every event; the
//! replay engine's czone-class test uses one as a set of partition
//! tags. An ordered map costs a tree walk per update; this table costs
//! one multiply and, at its bounded load, a probe or two.
//!
//! Determinism holds by construction: the hash is a fixed
//! multiplicative constant (no per-process seed) and the table has no
//! iteration API, so nothing can observe its slot order. Lookups see
//! only the key, and every answer is a pure function of the sequence of
//! inserts and removes.
//!
//! Collisions are resolved by linear probing, and
//! [`remove`](KeyTable::remove) uses backward-shift deletion, so the
//! table never holds tombstones and a probe always stops at the first
//! empty slot. Slots are bare `(key, value)` pairs with one key value
//! reserved to mark a free slot, so a slot costs no more than its
//! pair. The table starts small and doubles when it passes 3/4 full.

/// Slots a fresh table allocates (a power of two).
const INITIAL_SLOTS: usize = 16;

/// Fibonacci hashing: the odd 64-bit constant nearest 2^64/φ spreads
/// consecutive keys (the common case here: block indices and words)
/// over the whole table.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The key that marks an empty slot. The key itself is still a valid
/// key: its value lives beside the slots, in `KeyTable::empty_key`.
const EMPTY: u64 = u64::MAX;

/// A map from `u64` keys to `Copy` values with insert, get and remove.
#[derive(Clone, Debug)]
pub struct KeyTable<V> {
    /// `slots.len()` is a power of two; a slot whose key is `EMPTY`
    /// is free (its value is a placeholder).
    slots: Vec<(u64, V)>,
    /// The value stored under the key `EMPTY`, if any.
    empty_key: Option<V>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots.len())`: the home slot is the hash's top bits.
    shift: u32,
}

impl<V: Copy + Default> Default for KeyTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> KeyTable<V> {
    /// An empty table of 16 slots.
    pub fn new() -> Self {
        KeyTable {
            slots: vec![(EMPTY, V::default()); INITIAL_SLOTS],
            empty_key: None,
            len: 0,
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MULTIPLIER) >> self.shift) as usize
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot holding `key` (not `EMPTY`), or the free slot that
    /// ends its probe.
    fn find(&self, key: u64) -> (usize, bool) {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.slots[i].0 {
                k if k == key => return (i, true),
                EMPTY => return (i, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        if key == EMPTY {
            return self.empty_key;
        }
        match self.find(key) {
            (i, true) => Some(self.slots[i].1),
            (_, false) => None,
        }
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == EMPTY {
            return self.empty_key.replace(value);
        }
        let (mut i, found) = self.find(key);
        if found {
            return Some(std::mem::replace(&mut self.slots[i].1, value));
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            i = self.find(key).0;
        }
        self.slots[i] = (key, value);
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value. The slots after it in its
    /// probe run shift back to close the gap (no tombstones).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key == EMPTY {
            return self.empty_key.take();
        }
        let (mut hole, found) = self.find(key);
        if !found {
            return None;
        }
        let removed = self.slots[hole].1;
        self.len -= 1;
        let mask = self.mask();
        let mut i = (hole + 1) & mask;
        while self.slots[i].0 != EMPTY {
            // The entry at `i` may move back into the hole only if its
            // home slot does not lie cyclically in (hole, i]: otherwise
            // a probe from its home would start past the hole.
            let home = self.home(self.slots[i].0);
            let stays = if hole <= i {
                hole < home && home <= i
            } else {
                hole < home || home <= i
            };
            if !stays {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.slots[hole].0 = EMPTY;
        Some(removed)
    }

    /// Doubles the slot count and re-homes every key.
    fn grow(&mut self) {
        let doubled = vec![(EMPTY, V::default()); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for (key, value) in old {
            if key != EMPTY {
                let (i, _) = self.find(key);
                self.slots[i] = (key, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = KeyTable::new();
        assert_eq!(t.insert(7, 70u32), None);
        assert_eq!(t.insert(7, 71), Some(70));
        assert_eq!(t.get(7), Some(71));
        assert_eq!(t.len, 1);
        assert_eq!(t.remove(7), Some(71));
        assert_eq!(t.remove(7), None);
        assert_eq!(t.get(7), None);
        assert_eq!(t.len, 0);
    }

    #[test]
    fn grows_past_the_initial_slots() {
        let mut t = KeyTable::new();
        for k in 0..1000u64 {
            t.insert(k * 3, k);
        }
        assert_eq!(t.len, 1000);
        assert!(t.slots.len() >= 1000 * 4 / 3);
        for k in 0..1000u64 {
            assert_eq!(t.get(k * 3), Some(k));
            assert_eq!(t.get(k * 3 + 1), None);
        }
    }

    /// Keys whose home is the last slot of a fresh table probe past the
    /// end into slot 0; removing the first of them must shift the
    /// wrapped ones back across the boundary.
    #[test]
    fn probe_runs_wrap_around_the_end() {
        let mut t = KeyTable::new();
        let last = t.slots.len() - 1;
        let keys: Vec<u64> = (0u64..).filter(|&k| t.home(k) == last).take(3).collect();
        for &k in &keys {
            t.insert(k, k);
        }
        assert_eq!(t.slots[0].0, keys[1], "wrapped");
        assert_eq!(t.remove(keys[0]), Some(keys[0]));
        assert_eq!(t.slots[last].0, keys[1], "shifted back");
        assert_eq!(t.get(keys[1]), Some(keys[1]));
        assert_eq!(t.get(keys[2]), Some(keys[2]));
        assert_eq!(t.remove(keys[1]), Some(keys[1]));
        assert_eq!(t.get(keys[2]), Some(keys[2]));
    }

    /// Random insert/get/remove sequences agree with a `BTreeMap` step
    /// by step. Keys come from a narrow range (so removes and overwrites
    /// hit) mixed with arbitrary `u64`s and the free-slot marker, and
    /// sequences are long enough to double the table several times.
    #[test]
    fn matches_a_btreemap_on_random_operations() {
        use std::collections::BTreeMap;
        use streamsim_prng::quickcheck::check_with;
        use streamsim_prng::Rng;

        check_with("key_table_matches_a_btreemap", 48, |g| {
            let narrow = g.gen_range(4u64..512);
            let mut t = KeyTable::new();
            let mut model = BTreeMap::new();
            for step in 0..g.gen_range(1usize..3000) {
                let key = match g.gen_range(0u32..20) {
                    0 => u64::MAX,
                    1 | 2 => g.gen_range(0..u64::MAX),
                    _ => g.gen_range(0..narrow),
                };
                match g.gen_range(0u32..5) {
                    0 | 1 => assert_eq!(t.insert(key, step), model.insert(key, step)),
                    2 => assert_eq!(t.remove(key), model.remove(&key)),
                    _ => assert_eq!(t.get(key), model.get(&key).copied()),
                }
                assert_eq!(t.len + usize::from(t.empty_key.is_some()), model.len());
            }
            for (&key, &value) in &model {
                assert_eq!(t.get(key), Some(value));
            }
        });
    }

    #[test]
    fn extreme_keys_are_ordinary_keys() {
        let mut t = KeyTable::new();
        for k in [0, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            t.insert(k, k);
        }
        for k in [0, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            assert_eq!(t.get(k), Some(k));
        }
        assert_eq!(t.remove(u64::MAX), Some(u64::MAX));
        assert_eq!(t.get(u64::MAX), None);
        assert_eq!(t.get(u64::MAX - 1), Some(u64::MAX - 1));
    }
}
