//! Per-trace tables indexed by the raw trace id.
//!
//! Every model and observer on the replay path keeps state per trace.
//! The frontend allocates trace ids densely from zero, so a table indexed
//! by the id itself is the natural layout: a lookup is one bounds check
//! and one load, with no hashing. Ids arriving from elsewhere (a log
//! written by another tool, an upload to a daemon) need not be dense, so
//! [`TraceMap`] only covers an id with its dense part while that id stays
//! below a fixed multiple of the population; any other id lives in a
//! std `HashMap` with its default (SipHash) hasher. Memory is therefore
//! O(insertions), never O(largest id), and hostile ids cost what a plain
//! `HashMap` costs.
//!
//! Iteration visits the dense part in ascending id order, then the
//! fallback in unspecified order. Callers must not depend on the order.

use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

use crate::record::TraceId;

/// The dense part covers an id only while it is below
/// `DENSE_FACTOR × population`, or below [`DENSE_MIN`].
const DENSE_FACTOR: u64 = 4;
/// The dense part may always cover ids below this.
const DENSE_MIN: u64 = 64;

/// A key of a [`TraceMap`]: a value with a lossless `u64` form.
pub trait TraceKey: Copy {
    /// The raw id this key is stored under.
    fn to_raw(self) -> u64;
    /// Rebuilds the key from its raw id.
    fn from_raw(raw: u64) -> Self;
}

impl TraceKey for TraceId {
    fn to_raw(self) -> u64 {
        self.as_u64()
    }
    fn from_raw(raw: u64) -> Self {
        TraceId::new(raw)
    }
}

impl TraceKey for u64 {
    fn to_raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

/// A map from trace ids to per-trace state: a `Vec` indexed by the id
/// for dense ids, a SipHash `HashMap` for the rest.
///
/// Invariant: an id is stored in the dense part exactly when it is below
/// `dense.len()`; the dense part only ever grows, and growth migrates
/// the fallback entries it now covers.
///
/// ```
/// use gencache_cache::{TraceId, TraceMap};
///
/// let mut sizes: TraceMap<TraceId, u32> = TraceMap::new();
/// sizes.insert(TraceId::new(3), 120);
/// sizes.insert(TraceId::new(u64::MAX), 80); // far past the dense part
/// assert_eq!(sizes.get(TraceId::new(3)), Some(&120));
/// assert_eq!(sizes[TraceId::new(u64::MAX)], 80);
/// assert_eq!(sizes.len(), 2);
/// ```
#[derive(Clone)]
pub struct TraceMap<K, V> {
    dense: Vec<Option<V>>,
    sparse: HashMap<u64, V>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for TraceMap<K, V> {
    fn default() -> Self {
        TraceMap {
            dense: Vec::new(),
            sparse: HashMap::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: TraceKey + fmt::Debug, V: fmt::Debug> fmt::Debug for TraceMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: TraceKey, V> TraceMap<K, V> {
    /// An empty map; allocates nothing until the first insertion.
    pub fn new() -> Self {
        TraceMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense-part index of `raw`, if the dense part covers it.
    fn dense_index(&self, raw: u64) -> Option<usize> {
        usize::try_from(raw).ok().filter(|&i| i < self.dense.len())
    }

    /// Grows the dense part to cover `raw` if the growth rule allows it
    /// for a population of `len + 1`, migrating the fallback entries the
    /// new range covers. Returns the dense index on success.
    fn grow_to_cover(&mut self, raw: u64) -> Option<usize> {
        let population = self.len as u64 + 1;
        if raw >= DENSE_MIN.max(population.saturating_mul(DENSE_FACTOR)) {
            return None;
        }
        let index = usize::try_from(raw).ok()?;
        let old = self.dense.len();
        let new = index + 1;
        self.dense.resize_with(new, || None);
        if !self.sparse.is_empty() {
            // Probing the new range costs O(growth), so migration over
            // the map's life is bounded by the dense length.
            for i in old..new {
                if let Some(v) = self.sparse.remove(&(i as u64)) {
                    self.dense[i] = Some(v);
                }
            }
        }
        Some(index)
    }

    /// The value stored for `key`.
    pub fn get(&self, key: K) -> Option<&V> {
        let raw = key.to_raw();
        match self.dense_index(raw) {
            Some(i) => self.dense[i].as_ref(),
            None => self.sparse.get(&raw),
        }
    }

    /// A mutable reference to the value stored for `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let raw = key.to_raw();
        match self.dense_index(raw) {
            Some(i) => self.dense[i].as_mut(),
            None => self.sparse.get_mut(&raw),
        }
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` for `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let raw = key.to_raw();
        let old = match self.dense_index(raw).or_else(|| self.grow_to_cover(raw)) {
            Some(i) => self.dense[i].replace(value),
            None => self.sparse.insert(raw, value),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value stored for `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let raw = key.to_raw();
        let old = match self.dense_index(raw) {
            Some(i) => self.dense[i].take(),
            None => self.sparse.remove(&raw),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value stored for `key`, inserting `make()` first if there is
    /// none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let raw = key.to_raw();
        match self.dense_index(raw).or_else(|| self.grow_to_cover(raw)) {
            Some(i) => {
                let slot = &mut self.dense[i];
                if slot.is_none() {
                    self.len += 1;
                }
                slot.get_or_insert_with(make)
            }
            None => {
                let len = &mut self.len;
                self.sparse.entry(raw).or_insert_with(|| {
                    *len += 1;
                    make()
                })
            }
        }
    }

    /// Every `(key, value)` pair, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (K::from_raw(i as u64), v)));
        let sparse = self.sparse.iter().map(|(&raw, v)| (K::from_raw(raw), v));
        dense.chain(sparse)
    }

    /// Every key, in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

impl<K: TraceKey, V> Index<K> for TraceMap<K, V> {
    type Output = V;

    fn index(&self, key: K) -> &V {
        self.get(key).expect("no entry for trace id")
    }
}

/// A set of trace ids: a [`TraceMap`] with no values.
///
/// ```
/// use gencache_cache::TraceSet;
///
/// let mut evicted: TraceSet<u64> = TraceSet::new();
/// assert!(evicted.insert(7));
/// assert!(!evicted.insert(7));
/// assert!(evicted.contains(7));
/// ```
#[derive(Clone)]
pub struct TraceSet<K> {
    map: TraceMap<K, ()>,
}

impl<K> Default for TraceSet<K> {
    fn default() -> Self {
        TraceSet {
            map: TraceMap::default(),
        }
    }
}

impl<K: TraceKey + fmt::Debug> fmt::Debug for TraceSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: TraceKey> TraceSet<K> {
    /// An empty set; allocates nothing until the first insertion.
    pub fn new() -> Self {
        TraceSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is a member.
    pub fn contains(&self, key: K) -> bool {
        self.map.contains_key(key)
    }

    /// Adds `key`; returns whether it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns whether it was a member.
    pub fn remove(&mut self, key: K) -> bool {
        self.map.remove(key).is_some()
    }

    /// Every member, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.map.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The largest dense length the growth rule allows once the
    /// population has peaked at `peak`.
    fn dense_bound(peak: usize) -> usize {
        (DENSE_MIN as usize).max(DENSE_FACTOR as usize * (peak + 1))
    }

    #[test]
    fn dense_ids_never_touch_the_fallback() {
        let mut m: TraceMap<TraceId, u64> = TraceMap::new();
        for i in 0..1000 {
            m.insert(TraceId::new(i), i * 2);
        }
        assert!(m.sparse.is_empty());
        assert_eq!(m.dense.len(), 1000);
        assert_eq!(m[TraceId::new(999)], 1998);
        let keys: Vec<u64> = m.keys().map(TraceId::as_u64).collect();
        assert_eq!(keys, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn high_ids_stay_in_the_fallback() {
        let mut s: TraceSet<u64> = TraceSet::new();
        for i in 0..500u64 {
            assert!(s.insert((1 << 63) + i * 7919));
        }
        assert!(s.insert(u64::MAX));
        assert!(!s.insert(u64::MAX));
        assert_eq!(s.map.dense.len(), 0);
        assert_eq!(s.len(), 501);
        assert!(s.remove(u64::MAX));
        assert!(!s.contains(u64::MAX));
    }

    #[test]
    fn growth_migrates_fallback_entries() {
        let mut m: TraceMap<u64, &str> = TraceMap::new();
        m.insert(100, "early");
        assert!(m.sparse.contains_key(&100), "100 is past the initial bound");
        for i in 0..30 {
            m.insert(i, "dense");
        }
        m.insert(101, "grows");
        assert!(m.sparse.is_empty(), "growth past 100 migrates it");
        assert_eq!(m.get(100), Some(&"early"));
        assert_eq!(m.len(), 32);
        assert_eq!(*m.get_or_insert_with(100, || "unused"), "early");
        assert_eq!(m.remove(100), Some("early"));
        assert_eq!(m.len(), 31);
    }

    #[derive(Debug, Clone)]
    enum Key {
        /// A small id, mostly covered by the dense part.
        Small(u64),
        /// An id at `delta` from the growth bound of the current
        /// population.
        NearBound(i8),
        /// Any 64-bit id.
        Random(u64),
        Max,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Key, u32),
        GetOrInsert(Key, u32),
        Bump(Key),
        Remove(Key),
    }

    fn key() -> impl Strategy<Value = Key> {
        prop_oneof![
            6 => (0u64..600).prop_map(Key::Small),
            3 => any::<i8>().prop_map(Key::NearBound),
            2 => any::<u64>().prop_map(Key::Random),
            1 => proptest::Just(Key::Max),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => (key(), any::<u32>()).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
            1 => key().prop_map(Op::Bump),
            2 => key().prop_map(Op::Remove),
        ]
    }

    fn resolve(key: &Key, population: usize) -> u64 {
        match *key {
            Key::Small(k) | Key::Random(k) => k,
            Key::NearBound(delta) => (DENSE_MIN.max(DENSE_FACTOR * (population as u64 + 1)) as i64
                + i64::from(delta))
            .max(0) as u64,
            Key::Max => u64::MAX,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn map_and_set_match_std(ops in proptest::collection::vec(op(), 1..400)) {
            let mut map: TraceMap<TraceId, u32> = TraceMap::new();
            let mut set: TraceSet<u64> = TraceSet::new();
            let mut model: HashMap<u64, u32> = HashMap::new();
            let mut peak = 0usize;
            for op in &ops {
                let (k, expect_value) = match op {
                    Op::Insert(key, v) => {
                        let k = resolve(key, model.len());
                        let was = model.contains_key(&k);
                        prop_assert_eq!(map.insert(TraceId::new(k), *v), model.insert(k, *v));
                        prop_assert_eq!(set.insert(k), !was);
                        (k, true)
                    }
                    Op::GetOrInsert(key, v) => {
                        let k = resolve(key, model.len());
                        let got = *map.get_or_insert_with(TraceId::new(k), || *v);
                        prop_assert_eq!(got, *model.entry(k).or_insert(*v));
                        set.insert(k);
                        (k, true)
                    }
                    Op::Bump(key) => {
                        let k = resolve(key, model.len());
                        if let Some(v) = map.get_mut(TraceId::new(k)) {
                            *v = v.wrapping_add(1);
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v = v.wrapping_add(1);
                        }
                        (k, model.contains_key(&k))
                    }
                    Op::Remove(key) => {
                        let k = resolve(key, model.len());
                        let was = model.contains_key(&k);
                        prop_assert_eq!(map.remove(TraceId::new(k)), model.remove(&k));
                        prop_assert_eq!(set.remove(k), was);
                        (k, false)
                    }
                };
                peak = peak.max(model.len());
                let id = TraceId::new(k);
                prop_assert_eq!(map.get(id), model.get(&k));
                prop_assert_eq!(map.contains_key(id), expect_value);
                prop_assert_eq!(set.contains(k), expect_value);
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                prop_assert_eq!(map.iter().count(), map.len(), "iteration repeats a key");
                let pairs: HashMap<u64, u32> = map.iter().map(|(k, &v)| (k.as_u64(), v)).collect();
                prop_assert_eq!(&pairs, &model);
                prop_assert!(map.keys().all(|k| pairs[&k.as_u64()] == map[k]));
                prop_assert_eq!(set.iter().collect::<HashSet<_>>(), model.keys().copied().collect());
                prop_assert!(map.dense.len() <= dense_bound(peak));
                prop_assert!(set.map.dense.len() <= dense_bound(peak));
                prop_assert!(map.sparse.keys().all(|&k| k >= map.dense.len() as u64));
            }
        }
    }
}
