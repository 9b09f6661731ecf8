//! LRU cache of completed estimates, sitting in front of the estimator.
//!
//! Estimation is deterministic given (model version, canonical query,
//! sample count, seed) — requests repeat heavily in serving traffic
//! (dashboards, retried optimizer calls) — so a repeated request can be
//! answered without touching the estimator at all. The model version
//! is part of the key, so a hot swap naturally invalidates every cached
//! entry of the old version without any flush coordination.
//!
//! Implementation: a `HashMap` plus an access-stamp queue with lazy
//! deletion — no per-entry linked list. Each hit pushes a fresh stamp;
//! eviction pops stamps until one still matches its entry's latest stamp
//! (stale stamps are skipped). The queue is bounded to a small multiple of
//! capacity by compaction, keeping both operations amortised O(1). All
//! methods take `&self`; the single mutex is held only for map/queue
//! bookkeeping, never across an estimate.

use crate::sync::Lock;
use std::collections::{HashMap, VecDeque};

/// Cache key: everything that determines an estimate's value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EstimateKey {
    /// Registry name of the model.
    pub model: String,
    /// Model version (bumps on hot swap ⇒ old entries unreachable).
    pub version: u64,
    /// [`sam_query::Query::canonical_string`] of the parsed query.
    pub query: String,
    /// Progressive-sampling path count.
    pub samples: usize,
    /// Request RNG seed.
    pub seed: u64,
}

#[derive(Debug)]
struct Entry {
    value: f64,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<EstimateKey, Entry>,
    /// (stamp, key) in stamp order; entries whose stamp no longer matches
    /// the map are stale and skipped at eviction.
    order: VecDeque<(u64, EstimateKey)>,
    next_stamp: u64,
}

/// Bounded LRU map from [`EstimateKey`] to the computed estimate.
/// Capacity 0 disables caching entirely (every lookup misses, inserts are
/// dropped).
#[derive(Debug)]
pub struct EstimateCache {
    capacity: usize,
    inner: Lock<Inner>,
}

impl EstimateCache {
    /// Cache holding at most `capacity` estimates.
    pub fn new(capacity: usize) -> Self {
        EstimateCache {
            capacity,
            inner: Lock::new(Inner::default()),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no estimates are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &EstimateKey) -> Option<f64> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        let stamp = inner.next_stamp;
        let value = match inner.map.get_mut(key) {
            None => return None,
            Some(entry) => {
                entry.stamp = stamp;
                entry.value
            }
        };
        inner.next_stamp += 1;
        inner.order.push_back((stamp, key.clone()));
        Self::compact(&mut inner, self.capacity);
        Some(value)
    }

    /// Insert (or refresh) `key` → `value`, evicting the least-recently
    /// used entry when full.
    pub fn insert(&self, key: EstimateKey, value: f64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.map.insert(key.clone(), Entry { value, stamp });
        inner.order.push_back((stamp, key));
        while inner.map.len() > self.capacity {
            match inner.order.pop_front() {
                None => break,
                Some((stamp, key)) => {
                    // Only evict if this is the entry's *latest* stamp;
                    // otherwise the stamp is stale and the entry was
                    // touched more recently.
                    if inner.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                        inner.map.remove(&key);
                    }
                }
            }
        }
        Self::compact(&mut inner, self.capacity);
    }

    /// Drop stale stamps once they dominate the queue, restoring
    /// `order.len() == map.len()` — so the queue stays O(capacity) and
    /// every operation is amortised O(1).
    fn compact(inner: &mut Inner, capacity: usize) {
        if inner.order.len() <= capacity.saturating_mul(4).max(16) {
            return;
        }
        let Inner { map, order, .. } = inner;
        order.retain(|(stamp, key)| map.get(key).is_some_and(|e| e.stamp == *stamp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: &str, seed: u64) -> EstimateKey {
        EstimateKey {
            model: "m".into(),
            version: 1,
            query: q.into(),
            samples: 100,
            seed,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = EstimateCache::new(4);
        assert_eq!(cache.get(&key("q1", 0)), None);
        cache.insert(key("q1", 0), 42.0);
        assert_eq!(cache.get(&key("q1", 0)), Some(42.0));
        // Any key component change misses.
        assert_eq!(cache.get(&key("q1", 1)), None);
        assert_eq!(
            cache.get(&EstimateKey {
                version: 2,
                ..key("q1", 0)
            }),
            None
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = EstimateCache::new(2);
        cache.insert(key("a", 0), 1.0);
        cache.insert(key("b", 0), 2.0);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(&key("a", 0)), Some(1.0));
        cache.insert(key("c", 0), 3.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key("a", 0)), Some(1.0));
        assert_eq!(cache.get(&key("b", 0)), None, "LRU entry evicted");
        assert_eq!(cache.get(&key("c", 0)), Some(3.0));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = EstimateCache::new(0);
        cache.insert(key("a", 0), 1.0);
        assert_eq!(cache.get(&key("a", 0)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn stamp_queue_stays_bounded() {
        let cache = EstimateCache::new(2);
        cache.insert(key("a", 0), 1.0);
        for _ in 0..1000 {
            assert_eq!(cache.get(&key("a", 0)), Some(1.0));
        }
        let inner = cache.inner.lock();
        assert!(
            inner.order.len() <= 2 * 4 + 16 + 1,
            "queue grew to {}",
            inner.order.len()
        );
    }
}
