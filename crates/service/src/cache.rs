//! Bounded LRU read memo for client `coverage` requests.
//!
//! Clients re-ask the same patterns (dashboards polling a fixed watch list),
//! so [`crate::CoverageEngine::coverage`] answers repeats from here. Nothing
//! else fills it: the delta walks probe the oracle directly with early-exit
//! `covered` checks behind a walk-local memo, because their probes rarely
//! repeat across writes and storing them only lengthened the invalidation
//! scan every write pays. Raw coverage *counts* are cached (never
//! covered/uncovered booleans), so a shifting rate threshold never
//! invalidates an entry — only an inserted or deleted tuple does, and only
//! for the patterns that match it, because `cov(P)` counts exactly the rows
//! matching `P`.

use std::collections::HashMap;

use coverage_index::X;

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot {
    key: Box<[u8]>,
    value: u64,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used map from pattern codes to coverage counts.
///
/// Implemented as a slab of slots threaded on an intrusive doubly-linked
/// list (no external dependencies): `get`/`insert` are O(1);
/// [`Self::invalidate_matching_any`] is O(entries), run once per write batch.
#[derive(Debug, Clone)]
pub struct CoverageCache {
    map: HashMap<Box<[u8]>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl CoverageCache {
    /// Creates a cache holding at most `capacity` patterns. A capacity of
    /// zero disables caching entirely (every probe misses, inserts are
    /// dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(4096)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            invalidated: 0,
        }
    }

    /// Number of cached patterns.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of cached patterns.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of probes answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of probes that fell through to the oracle.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries dropped by [`Self::invalidate_matching`].
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up a pattern's cached coverage, refreshing its recency.
    pub fn get(&mut self, codes: &[u8]) -> Option<u64> {
        match self.map.get(codes).copied() {
            Some(i) => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(self.slots[i].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Caches a pattern's coverage, evicting the least-recently-used entry
    /// when full. Overwrites an existing entry for the same pattern.
    pub fn insert(&mut self, codes: &[u8], value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(codes) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let key = std::mem::take(&mut self.slots[lru].key);
            self.map.remove(&key);
            self.free.push(lru);
        }
        let key: Box<[u8]> = codes.to_vec().into_boxed_slice();
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Drops every cached pattern that matches the inserted tuple — exactly
    /// the entries whose coverage the insert changed. All other entries stay
    /// valid because `cov(P)` only counts rows matching `P`.
    pub fn invalidate_matching(&mut self, tuple: &[u8]) {
        self.invalidate_matching_any(std::slice::from_ref(&tuple));
    }

    /// Batch form of [`Self::invalidate_matching`]: one O(entries) pass
    /// dropping every pattern that matches *any* of the inserted tuples,
    /// instead of one pass per tuple.
    pub fn invalidate_matching_any<R: AsRef<[u8]>>(&mut self, tuples: &[R]) {
        let stale: Vec<usize> = self
            .map
            .values()
            .copied()
            .filter(|&i| {
                let key = &self.slots[i].key;
                tuples.iter().any(|tuple| {
                    key.iter()
                        .zip(tuple.as_ref())
                        .all(|(&p, &v)| p == X || p == v)
                })
            })
            .collect();
        for i in stale {
            self.unlink(i);
            let key = std::mem::take(&mut self.slots[i].key);
            self.map.remove(&key);
            self.free.push(i);
            self.invalidated += 1;
        }
    }

    /// Drops all entries (counters are preserved).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip() {
        let mut cache = CoverageCache::new(4);
        assert_eq!(cache.get(&[1, X]), None);
        cache.insert(&[1, X], 7);
        assert_eq!(cache.get(&[1, X]), Some(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = CoverageCache::new(2);
        cache.insert(&[0], 10);
        cache.insert(&[1], 11);
        assert_eq!(cache.get(&[0]), Some(10)); // refresh [0]; LRU is now [1]
        cache.insert(&[2], 12);
        assert_eq!(cache.get(&[1]), None);
        assert_eq!(cache.get(&[0]), Some(10));
        assert_eq!(cache.get(&[2]), Some(12));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn overwrite_updates_value_and_recency() {
        let mut cache = CoverageCache::new(2);
        cache.insert(&[0], 1);
        cache.insert(&[1], 2);
        cache.insert(&[0], 3); // refresh [0]; LRU is [1]
        cache.insert(&[2], 4);
        assert_eq!(cache.get(&[0]), Some(3));
        assert_eq!(cache.get(&[1]), None);
    }

    #[test]
    fn invalidate_matching_drops_only_matching_patterns() {
        let mut cache = CoverageCache::new(8);
        cache.insert(&[1, X, X], 5); // matches tuple (1,0,1)
        cache.insert(&[X, 0, 1], 6); // matches
        cache.insert(&[0, X, X], 7); // does not match
        cache.insert(&[X, 1, X], 8); // does not match
        cache.invalidate_matching(&[1, 0, 1]);
        assert_eq!(cache.get(&[1, X, X]), None);
        assert_eq!(cache.get(&[X, 0, 1]), None);
        assert_eq!(cache.get(&[0, X, X]), Some(7));
        assert_eq!(cache.get(&[X, 1, X]), Some(8));
        assert_eq!(cache.invalidated(), 2);
    }

    #[test]
    fn batch_invalidation_matches_per_tuple_passes() {
        let patterns: [&[u8]; 5] = [&[1, X, X], &[X, 0, 1], &[0, X, X], &[X, 1, X], &[0, 1, 0]];
        let tuples = [[1u8, 0, 1], [0, 1, 0]];
        let mut per_tuple = CoverageCache::new(8);
        let mut batched = CoverageCache::new(8);
        for (v, p) in patterns.iter().enumerate() {
            per_tuple.insert(p, v as u64);
            batched.insert(p, v as u64);
        }
        for t in &tuples {
            per_tuple.invalidate_matching(t);
        }
        batched.invalidate_matching_any(&tuples);
        assert_eq!(per_tuple.invalidated(), batched.invalidated());
        for p in &patterns {
            assert_eq!(per_tuple.get(p), batched.get(p), "pattern {p:?}");
        }
    }

    #[test]
    fn reuses_freed_slots_after_invalidation() {
        let mut cache = CoverageCache::new(4);
        for v in 0..4u8 {
            cache.insert(&[v], v as u64);
        }
        cache.invalidate_matching(&[2]); // drops [2] and [X]-free others? no: only exact-match [2]
        assert_eq!(cache.len(), 3);
        cache.insert(&[9], 9);
        cache.insert(&[8], 8); // back at capacity — evicts LRU [0]
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&[0]), None);
        assert_eq!(cache.get(&[9]), Some(9));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = CoverageCache::new(0);
        cache.insert(&[1], 1);
        assert_eq!(cache.get(&[1]), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let mut cache = CoverageCache::new(4);
        cache.insert(&[1], 1);
        let _ = cache.get(&[1]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1);
        cache.insert(&[2], 2);
        assert_eq!(cache.get(&[2]), Some(2));
    }
}
