//! Binding caches (paper §3.5, §3.6, §4.1).
//!
//! "Bindings are first class entities that can be passed around the system
//! and cached within objects." Caches appear at three tiers (Fig. 17):
//! inside every object's communication layer, inside Binding Agents, and
//! inside class objects. All three use this [`BindingCache`]: an LRU with
//! per-entry expiry and hit/miss/stale accounting.
//!
//! The LRU is implemented as a slab-backed doubly linked list plus a hash
//! index — O(1) lookup, insert and eviction, suitable for the large agent
//! caches in the scalability experiments.

use legion_core::binding::Binding;
use legion_core::fxmap::FxHashMap;
use legion_core::loid::Loid;
use legion_core::time::SimTime;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live binding.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an entry but it had expired (counted as miss).
    pub expired: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries explicitly invalidated.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups.
    #[cfg(test)]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.expired;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Node {
    loid: Loid,
    binding: Binding,
    prev: usize,
    next: usize,
}

/// An LRU + TTL cache from LOID to [`Binding`].
///
/// ```
/// use legion_core::address::{ObjectAddress, ObjectAddressElement};
/// use legion_core::binding::Binding;
/// use legion_core::loid::Loid;
/// use legion_core::time::SimTime;
/// use legion_naming::cache::BindingCache;
///
/// let mut cache = BindingCache::new(128);
/// let b = Binding::forever(
///     Loid::instance(16, 1),
///     ObjectAddress::single(ObjectAddressElement::sim(9)),
/// );
/// cache.insert(b.clone());
/// assert_eq!(cache.get(&b.loid, SimTime::ZERO), Some(b));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct BindingCache {
    map: FxHashMap<Loid, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    stats: CacheStats,
}

impl BindingCache {
    /// A cache holding at most `capacity` bindings (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BindingCache {
            map: FxHashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached bindings (including not-yet-expired-checked ones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    // ----- linked-list plumbing ------------------------------------------

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn remove_node(&mut self, idx: usize) -> Binding {
        self.detach(idx);
        let loid = self.nodes[idx].loid;
        self.map.remove(&loid);
        self.free.push(idx);
        self.nodes[idx].binding.clone()
    }

    // ----- public API ------------------------------------------------------

    /// Look up a live binding, refreshing its LRU position. Expired
    /// entries are removed and counted.
    pub fn get(&mut self, loid: &Loid, now: SimTime) -> Option<Binding> {
        let Some(&idx) = self.map.get(loid) else {
            self.stats.misses += 1;
            return None;
        };
        if !self.nodes[idx].binding.is_valid_at(now) {
            self.stats.expired += 1;
            self.remove_node(idx);
            return None;
        }
        self.stats.hits += 1;
        self.detach(idx);
        self.push_front(idx);
        Some(self.nodes[idx].binding.clone())
    }

    /// [`BindingCache::get`] without the clone: same LRU refresh and
    /// stats, but hands back a borrow. The §5.2 hot path pairs this with
    /// `Ctx::binding_value` so a cache hit copies into a recycled shell
    /// instead of allocating a fresh one.
    pub fn get_ref(&mut self, loid: &Loid, now: SimTime) -> Option<&Binding> {
        let Some(&idx) = self.map.get(loid) else {
            self.stats.misses += 1;
            return None;
        };
        if !self.nodes[idx].binding.is_valid_at(now) {
            self.stats.expired += 1;
            self.remove_node(idx);
            return None;
        }
        self.stats.hits += 1;
        self.detach(idx);
        self.push_front(idx);
        Some(&self.nodes[idx].binding)
    }

    /// Peek without touching LRU order or stats (for tests/inspection).
    #[cfg(test)]
    pub(crate) fn peek(&self, loid: &Loid) -> Option<&Binding> {
        self.map.get(loid).map(|&idx| &self.nodes[idx].binding)
    }

    /// [`BindingCache::insert`] from a borrow. Replacing an existing
    /// entry copies field-wise into the resident node (reusing its
    /// element buffer — allocation-free on the steady refresh path);
    /// only a genuinely new entry clones.
    pub fn insert_ref(&mut self, binding: &Binding) {
        if let Some(&idx) = self.map.get(&binding.loid) {
            let node = &mut self.nodes[idx].binding;
            node.loid = binding.loid;
            node.expiry = binding.expiry;
            node.address.semantics = binding.address.semantics;
            node.address.elements.clone_from(&binding.address.elements);
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        self.insert(binding.clone());
    }

    /// Insert or replace a binding (`AddBinding`). Evicts the LRU entry
    /// when at capacity.
    pub fn insert(&mut self, binding: Binding) {
        if let Some(&idx) = self.map.get(&binding.loid) {
            self.nodes[idx].binding = binding;
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            if lru != NIL {
                self.remove_node(lru);
                self.stats.evictions += 1;
            }
        }
        let loid = binding.loid;
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    loid,
                    binding,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    loid,
                    binding,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(loid, idx);
        self.push_front(idx);
    }

    /// Remove any binding for `loid` (`InvalidateBinding(LOID)`).
    /// Returns the removed binding.
    pub fn invalidate(&mut self, loid: &Loid) -> Option<Binding> {
        let idx = *self.map.get(loid)?;
        self.stats.invalidations += 1;
        Some(self.remove_node(idx))
    }

    /// Remove a binding only if it *exactly matches* the argument
    /// (`InvalidateBinding(binding)` — the paper's second overload).
    pub fn invalidate_exact(&mut self, binding: &Binding) -> bool {
        let Some(&idx) = self.map.get(&binding.loid) else {
            return false;
        };
        if &self.nodes[idx].binding != binding {
            return false;
        }
        self.stats.invalidations += 1;
        self.remove_node(idx);
        true
    }

    /// Drop every entry.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// LOIDs currently cached, most recently used first.
    #[cfg(test)]
    pub(crate) fn loids_mru_order(&self) -> Vec<Loid> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur].loid);
            cur = self.nodes[cur].next;
        }
        out
    }
}

impl std::fmt::Debug for BindingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindingCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::address::{ObjectAddress, ObjectAddressElement};
    use legion_core::time::Expiry;

    fn b(seq: u64, ep: u64) -> Binding {
        Binding::forever(
            Loid::instance(16, seq),
            ObjectAddress::single(ObjectAddressElement::sim(ep)),
        )
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 10));
        let got = c.get(&Loid::instance(16, 1), SimTime::ZERO).unwrap();
        assert_eq!(got, b(1, 10));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_is_counted() {
        let mut c = BindingCache::new(4);
        assert!(c.get(&Loid::instance(16, 9), SimTime::ZERO).is_none());
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn expired_entries_are_removed_and_counted() {
        let mut c = BindingCache::new(4);
        let mut binding = b(1, 10);
        binding.expiry = Expiry::At(SimTime::from_secs(1));
        c.insert(binding);
        assert!(c
            .get(&Loid::instance(16, 1), SimTime::from_millis(500))
            .is_some());
        assert!(c
            .get(&Loid::instance(16, 1), SimTime::from_secs(2))
            .is_none());
        assert_eq!(c.stats().expired, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BindingCache::new(3);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        c.insert(b(3, 3));
        // Touch 1 so 2 becomes LRU.
        c.get(&Loid::instance(16, 1), SimTime::ZERO);
        c.insert(b(4, 4));
        assert_eq!(c.len(), 3);
        assert!(c.peek(&Loid::instance(16, 2)).is_none(), "2 evicted");
        assert!(c.peek(&Loid::instance(16, 1)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(
            c.loids_mru_order(),
            vec![
                Loid::instance(16, 4),
                Loid::instance(16, 1),
                Loid::instance(16, 3)
            ]
        );
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = BindingCache::new(2);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        c.insert(b(1, 99)); // replace, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(
            c.get(&Loid::instance(16, 1), SimTime::ZERO).unwrap(),
            b(1, 99)
        );
    }

    #[test]
    fn invalidate_by_loid() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        assert_eq!(c.invalidate(&Loid::instance(16, 1)), Some(b(1, 1)));
        assert_eq!(c.invalidate(&Loid::instance(16, 1)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_exact_requires_match() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        // Same LOID, different address: not removed.
        assert!(!c.invalidate_exact(&b(1, 99)));
        assert_eq!(c.len(), 1);
        assert!(c.invalidate_exact(&b(1, 1)));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_one_works() {
        let mut c = BindingCache::new(1);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        assert_eq!(c.len(), 1);
        assert!(c.peek(&Loid::instance(16, 2)).is_some());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        c.clear();
        assert!(c.is_empty());
        assert!(c.loids_mru_order().is_empty());
        // And the cache still works after clearing.
        c.insert(b(3, 3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heavy_churn_preserves_invariants() {
        let mut c = BindingCache::new(16);
        for i in 0..1000u64 {
            c.insert(b(i % 64, i));
            if i % 3 == 0 {
                c.get(&Loid::instance(16, i % 64), SimTime::ZERO);
            }
            if i % 7 == 0 {
                c.invalidate(&Loid::instance(16, (i + 1) % 64));
            }
            assert!(c.len() <= 16);
            assert_eq!(c.loids_mru_order().len(), c.len());
        }
    }

    #[test]
    fn hit_rate_math() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        c.get(&Loid::instance(16, 1), SimTime::ZERO); // hit
        c.get(&Loid::instance(16, 2), SimTime::ZERO); // miss
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
