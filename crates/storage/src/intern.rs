//! Key interning: map wire-form [`Key`]s to dense store-local [`KeyId`]s.
//!
//! Every store operation used to hash (and often clone) the key string.
//! Interning pays that hash exactly once per message — at the boundary where
//! a key enters the replica — and hands back a `u32` index that the hot path
//! (validate / accept / decide / read) uses for direct vector addressing.
//!
//! Determinism note: the interner assigns ids in first-seen order, which in
//! the simulation is the (deterministic) message order. The internal
//! `HashMap` (hashed with the process-seeded [`FastHash`]) is only ever
//! *probed*, never iterated, so no hash-order nondeterminism can escape;
//! ordered key traversal goes through [`KeyInterner::keys_sorted`] or, in
//! first-seen order, [`KeyInterner::iter`].
//!
//! This is the workspace's one interning implementation: a replica's store
//! interns the keys it holds, and a `planet_plan::TxnProgram` interns its key
//! table through the same type, which is what makes the table a set by
//! construction.
//!
//! What the interner keeps is a clone of the key it was handed. A key is a
//! value — inline up to 23 bytes, else an `Arc<str>` — so keeping it copies
//! nothing.

use std::collections::HashMap;

use planet_sim::FastHash;

use crate::paged::PagedVec;
use crate::types::{Key, KeyId};

/// A key interner: per store (and therefore per site, per shard), or per
/// transaction program.
///
/// The id → key direction lives in pages a store snapshot shares; the
/// key → id map is not part of a snapshot and is rebuilt from the names at
/// recovery (`KeyInterner::from_names`).
#[derive(Default, Clone)]
pub struct KeyInterner {
    ids: HashMap<Key, KeyId, FastHash>,
    names: PagedVec<Key>,
}

/// Prints the keys in id order. The map is left out: it says the same
/// thing in hash order, which differs from run to run.
impl std::fmt::Debug for KeyInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two interners are equal when they issued the same ids for the same keys.
impl PartialEq for KeyInterner {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for KeyInterner {}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `key`, assigning the next dense id on first sight, and keep
    /// a clone of it: no allocation for a key held inline. A hit is one
    /// probe; a new key probes again to insert, which measures cheaper than
    /// `entry`'s one probe (`intern/*` rows of the micro bench).
    pub fn intern(&mut self, key: &Key) -> KeyId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        // 2^32 distinct keys would exhaust memory long before this id
        // counter overflows; the bound is structural.
        // check:allow(panic)
        let id = KeyId(u32::try_from(self.names.len()).expect("more than u32::MAX keys interned"));
        self.names.push(key.clone());
        self.ids.insert(key.clone(), id);
        id
    }

    /// Look up the id of an already-interned key.
    pub fn get(&self, key: &Key) -> Option<KeyId> {
        self.ids.get(key).copied()
    }

    /// The key a given id stands for, if this interner issued it.
    pub fn try_name(&self, id: KeyId) -> Option<&Key> {
        self.names.get(id.0 as usize)
    }

    /// The key a given id stands for.
    ///
    /// # Panics
    /// If `id` was not issued by this interner.
    pub fn name(&self, id: KeyId) -> &Key {
        // Ids are issued only by `intern`, which pushed the name first, and
        // never cross the wire.
        // check:allow(panic)
        self.try_name(id).expect("key id issued by this interner")
    }

    /// The interned keys in id (first-seen) order.
    pub fn iter(&self) -> impl Iterator<Item = &Key> {
        self.names.iter()
    }

    /// A snapshot of the id → key pages, sharing them with this interner.
    pub(crate) fn names_snapshot(&mut self) -> PagedVec<Key> {
        self.names.snapshot()
    }

    /// Take back a names snapshot the store no longer needs (see
    /// `PagedVec::recycle`).
    pub(crate) fn recycle_names(&mut self, names: PagedVec<Key>) {
        self.names.recycle(names);
    }

    /// Rebuild an interner around snapshotted names: one hash per key, the
    /// only O(keys) step of a recovery.
    pub(crate) fn from_names(names: PagedVec<Key>) -> Self {
        let mut ids = HashMap::with_capacity_and_hasher(names.len(), FastHash::default());
        ids.extend(
            names
                .iter()
                .zip(0u32..)
                .map(|(key, id)| (key.clone(), KeyId(id))),
        );
        KeyInterner { ids, names }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned keys in sorted (not insertion) order, for deterministic
    /// traversal regardless of arrival order.
    pub fn keys_sorted(&self) -> Vec<&Key> {
        let mut keys: Vec<&Key> = self.names.iter().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_dense_ids_in_first_seen_order() {
        let mut i = KeyInterner::new();
        assert!(i.is_empty());
        let a = i.intern(&Key::new("a"));
        let b = i.intern(&Key::new("b"));
        assert_eq!(a, KeyId(0));
        assert_eq!(b, KeyId(1));
        assert_eq!(i.intern(&Key::new("a")), a, "re-intern is stable");
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(b).as_str(), "b");
        assert_eq!(i.get(&Key::new("b")), Some(b));
        assert_eq!(i.get(&Key::new("zz")), None);
        assert_eq!(i.try_name(KeyId(2)), None);
        let order: Vec<&str> = i.iter().map(|k| k.as_str()).collect();
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn rebuilt_from_names_issues_the_same_ids() {
        let mut i = KeyInterner::new();
        for n in 0..200 {
            i.intern(&Key::new(format!("k{n}")));
        }
        let mut rebuilt = KeyInterner::from_names(i.names_snapshot());
        assert_eq!(rebuilt, i);
        assert_eq!(rebuilt.get(&Key::new("k137")), Some(KeyId(137)));
        assert_eq!(rebuilt.intern(&Key::new("new")), KeyId(200));
        assert_eq!(i.len(), 200, "the original does not see the new key");
        assert_ne!(rebuilt, i);
    }

    /// Against a `BTreeMap` model, over a seeded stream that mixes new and
    /// seen keys, inline and heap: ids are dense in first-seen order, `get`
    /// agrees with `intern` before and after, and an interner rebuilt from
    /// its names answers the same.
    #[test]
    fn agrees_with_an_ordered_map_model() {
        let mut rng = planet_sim::DetRng::new(49);
        let mut interner = KeyInterner::new();
        let mut model: std::collections::BTreeMap<Key, KeyId> = Default::default();
        let mut order = Vec::new();
        for _ in 0..20_000 {
            let n = rng.index(3_000);
            // Past 23 bytes a key is held on the heap.
            let key = if n.is_multiple_of(3) {
                Key::new(format!("a-key-long-enough-for-the-heap:{n}"))
            } else {
                Key::new(format!("k{n}"))
            };
            assert_eq!(interner.get(&key), model.get(&key).copied(), "{key:?}");
            let next = KeyId(model.len() as u32);
            let want = *model.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                next
            });
            assert_eq!(interner.intern(&key), want, "{key:?}");
            assert_eq!(interner.get(&key), Some(want));
        }
        let inline = |k: &Key| k.as_bytes().len() <= 23;
        assert!(model.keys().any(inline) && !model.keys().all(inline));
        assert_eq!(interner.len(), model.len());
        assert!(
            interner.iter().eq(order.iter()),
            "names in first-seen order"
        );
        let rebuilt = KeyInterner::from_names(interner.names_snapshot());
        assert_eq!(rebuilt, interner);
        for (key, &id) in &model {
            assert_eq!(rebuilt.get(key), Some(id), "{key:?}");
            assert_eq!(rebuilt.name(id), key);
        }
        assert_eq!(rebuilt.get(&Key::new("never")), None);
    }

    #[test]
    fn keys_sorted_ignores_insertion_order() {
        let mut i = KeyInterner::new();
        for k in ["m", "a", "z"] {
            i.intern(&Key::new(k));
        }
        let sorted: Vec<&str> = i.keys_sorted().iter().map(|k| k.as_str()).collect();
        assert_eq!(sorted, vec!["a", "m", "z"]);
    }
}
