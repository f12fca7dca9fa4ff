//! Jurisdictions (paper §2.2).
//!
//! "A Jurisdiction consists of some aggregate persistent storage space and
//! a set of Legion hosts. Jurisdictions are potentially non-disjoint; both
//! hosts and persistent storage may be contained in two or more
//! Jurisdictions, and Jurisdictions can be organized to form hierarchies.
//! The union of all Jurisdictions comprises the full Legion system."
//!
//! This module is the *descriptor* level: which hosts belong to which
//! jurisdictions, hierarchy, and splitting ("if a Jurisdiction's resources
//! impose a substantial load on its Magistrate, the Jurisdiction can be
//! split, and a new Magistrate can be created"). The Magistrate endpoint
//! holds the live storage and host connections.

use legion_core::loid::Loid;
use std::collections::{BTreeMap, BTreeSet};

/// A jurisdiction descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jurisdiction {
    /// Numeric id (also the topology's jurisdiction index).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Parent jurisdiction for hierarchies.
    pub parent: Option<u32>,
    /// LOIDs of member Host Objects.
    pub hosts: BTreeSet<Loid>,
    /// LOID of the governing Magistrate.
    pub magistrate: Option<Loid>,
}

impl Jurisdiction {
    /// A new jurisdiction.
    pub fn new(id: u32, name: impl Into<String>) -> Self {
        Jurisdiction {
            id,
            name: name.into(),
            parent: None,
            hosts: BTreeSet::new(),
            magistrate: None,
        }
    }
}

/// The registry of jurisdiction descriptors.
#[derive(Debug, Clone, Default)]
pub struct JurisdictionMap {
    by_id: BTreeMap<u32, Jurisdiction>,
    next_id: u32,
}

impl JurisdictionMap {
    /// An empty map.
    pub fn new() -> Self {
        JurisdictionMap::default()
    }

    /// Create a jurisdiction, returning its id.
    pub fn create(&mut self, name: impl Into<String>) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.by_id.insert(id, Jurisdiction::new(id, name));
        id
    }

    /// Create a child jurisdiction under `parent`.
    #[cfg(test)]
    pub(crate) fn create_child(&mut self, parent: u32, name: impl Into<String>) -> Option<u32> {
        if !self.by_id.contains_key(&parent) {
            return None;
        }
        let id = self.create(name);
        self.by_id.get_mut(&id).expect("just created").parent = Some(parent);
        Some(id)
    }

    /// Fetch a descriptor.
    pub fn get(&self, id: u32) -> Option<&Jurisdiction> {
        self.by_id.get(&id)
    }

    /// Fetch a descriptor mutably.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut Jurisdiction> {
        self.by_id.get_mut(&id)
    }

    /// Number of jurisdictions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Is the map empty?
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Add a host to a jurisdiction. A host may belong to several
    /// (non-disjointness, §2.2).
    pub fn add_host(&mut self, id: u32, host: Loid) -> bool {
        match self.by_id.get_mut(&id) {
            Some(j) => {
                j.hosts.insert(host);
                true
            }
            None => false,
        }
    }

    /// Every jurisdiction containing `host`.
    #[cfg(test)]
    pub(crate) fn jurisdictions_of(&self, host: &Loid) -> Vec<u32> {
        self.by_id
            .values()
            .filter(|j| j.hosts.contains(host))
            .map(|j| j.id)
            .collect()
    }

    /// Are two jurisdictions non-disjoint (share at least one host)?
    #[cfg(test)]
    pub(crate) fn overlap(&self, a: u32, b: u32) -> bool {
        match (self.by_id.get(&a), self.by_id.get(&b)) {
            (Some(ja), Some(jb)) => ja.hosts.intersection(&jb.hosts).next().is_some(),
            _ => false,
        }
    }

    /// The ancestor chain of `id`, nearest first (excluding `id`).
    #[cfg(test)]
    pub(crate) fn ancestors(&self, id: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.by_id.get(&id).and_then(|j| j.parent);
        while let Some(p) = cur {
            out.push(p);
            cur = self.by_id.get(&p).and_then(|j| j.parent);
        }
        out
    }

    /// Split a jurisdiction (§2.2): move the hosts in `moved` out of `id`
    /// into a fresh jurisdiction; returns the new id. Hosts not actually
    /// in `id` are ignored.
    pub fn split(&mut self, id: u32, name: impl Into<String>, moved: &[Loid]) -> Option<u32> {
        if !self.by_id.contains_key(&id) {
            return None;
        }
        let new_id = self.create(name);
        let mut actually_moved = Vec::new();
        {
            let old = self.by_id.get_mut(&id).expect("checked");
            for h in moved {
                if old.hosts.remove(h) {
                    actually_moved.push(*h);
                }
            }
        }
        let parent = self.by_id[&id].parent;
        let newj = self.by_id.get_mut(&new_id).expect("just created");
        newj.hosts.extend(actually_moved);
        newj.parent = parent;
        Some(new_id)
    }

    /// All jurisdiction ids.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> Vec<u32> {
        self.by_id.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(n: u64) -> Loid {
        Loid::instance(3, n)
    }

    #[test]
    fn create_and_lookup() {
        let mut m = JurisdictionMap::new();
        let uva = m.create("uva");
        let doe = m.create("doe");
        assert_ne!(uva, doe);
        assert_eq!(m.get(uva).unwrap().name, "uva");
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.ids(), vec![uva, doe]);
    }

    #[test]
    fn hosts_can_be_in_multiple_jurisdictions() {
        let mut m = JurisdictionMap::new();
        let a = m.create("a");
        let b = m.create("b");
        assert!(m.add_host(a, host(1)));
        assert!(m.add_host(b, host(1)));
        assert!(m.add_host(a, host(2)));
        assert_eq!(m.jurisdictions_of(&host(1)), vec![a, b]);
        assert!(m.overlap(a, b));
        assert!(!m.add_host(99, host(1)));
    }

    #[test]
    fn disjoint_jurisdictions_do_not_overlap() {
        let mut m = JurisdictionMap::new();
        let a = m.create("a");
        let b = m.create("b");
        m.add_host(a, host(1));
        m.add_host(b, host(2));
        assert!(!m.overlap(a, b));
        assert!(!m.overlap(a, 99));
    }

    #[test]
    fn hierarchy_and_ancestors() {
        let mut m = JurisdictionMap::new();
        let root = m.create("campus");
        let dept = m.create_child(root, "cs-dept").unwrap();
        let lab = m.create_child(dept, "lab").unwrap();
        assert_eq!(m.ancestors(lab), vec![dept, root]);
        assert_eq!(m.ancestors(root), Vec::<u32>::new());
        assert_eq!(m.create_child(999, "orphan"), None);
    }

    #[test]
    fn split_moves_hosts() {
        let mut m = JurisdictionMap::new();
        let root = m.create("campus");
        let big = m.create_child(root, "big").unwrap();
        for i in 1..=4 {
            m.add_host(big, host(i));
        }
        let new = m
            .split(big, "big-east", &[host(3), host(4), host(99)])
            .unwrap();
        assert_eq!(
            m.get(big).unwrap().hosts,
            [host(1), host(2)].into_iter().collect()
        );
        assert_eq!(
            m.get(new).unwrap().hosts,
            [host(3), host(4)].into_iter().collect()
        );
        // The split sibling sits under the same parent.
        assert_eq!(m.get(new).unwrap().parent, Some(root));
        assert_eq!(m.split(999, "x", &[]), None);
    }
}
