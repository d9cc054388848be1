//! Memoization cache: a fixed-capacity LRU map from content fingerprints
//! to schedule payloads.
//!
//! Implemented as a `HashMap` from key to slot index plus a slab-backed
//! intrusive doubly-linked list ordering slots from most- to
//! least-recently used — O(1) hit, insert, and eviction with no per-access
//! allocation. The service wraps one instance in a `parking_lot::Mutex`;
//! the structure itself is single-threaded.

use std::collections::HashMap;

const NONE: usize = usize::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map keyed by `u64` fingerprints.
#[derive(Debug)]
pub struct LruCache<V> {
    map: HashMap<u64, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<V> LruCache<V> {
    /// Create a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache capacity must be positive");
        LruCache {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            capacity,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NONE;
        self.slots[idx].next = self.head;
        if self.head != NONE {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }

    /// Look up `key`, promoting it to most-recently used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let idx = *self.map.get(&key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.slots[idx].value)
    }

    /// Insert or replace `key`, evicting the least-recently-used entry if
    /// the cache is full.
    pub fn insert(&mut self, key: u64, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NONE);
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key,
                    value,
                    prev: NONE,
                    next: NONE,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NONE,
                    next: NONE,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drop every entry whose value fails `keep`; survivors keep their
    /// recency order.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        let mut cur = self.head;
        while cur != NONE {
            let next = self.slots[cur].next;
            if !keep(&self.slots[cur].value) {
                self.unlink(cur);
                self.map.remove(&self.slots[cur].key);
                self.free.push(cur);
            }
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_mru_to_lru<V>(c: &LruCache<V>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = c.head;
        while cur != NONE {
            out.push(c.slots[cur].key);
            cur = c.slots[cur].next;
        }
        out
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.get(1), Some(&"a"));
        assert_eq!(keys_mru_to_lru(&c), vec![1, 3, 2]);
        assert_eq!(c.get(9), None);
    }

    #[test]
    fn eviction_is_lru() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(1); // 2 becomes LRU
        c.insert(3, 30);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replace_updates_value_and_order() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2"); // replacement never evicts
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Some(&"a2"));
        c.insert(3, "c"); // evicts 2, not 1
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(&"a2"));
    }

    #[test]
    fn retain_drops_failing_entries_and_keeps_order() {
        let mut c = LruCache::new(4);
        for k in 1..=4u64 {
            c.insert(k, k * 10);
        }
        c.retain(|&v| v != 20 && v != 40);
        assert_eq!(keys_mru_to_lru(&c), vec![3, 1]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(4), None);
        // freed slots are reused before the slab grows
        c.insert(5, 50);
        c.insert(6, 60);
        assert_eq!(keys_mru_to_lru(&c), vec![6, 5, 3, 1]);
        assert_eq!(c.slots.len(), 4);
    }

    #[test]
    fn slab_reuse_after_heavy_churn() {
        let mut c = LruCache::new(4);
        for k in 0..1000u64 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 4);
        assert!(c.slots.len() <= 5, "slab grew: {}", c.slots.len());
        for k in 996..1000 {
            assert_eq!(c.get(k), Some(&k));
        }
    }
}
