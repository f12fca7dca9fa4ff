//! The three relations between Legion objects (paper §2.1.1, Figures 2–6).
//!
//! * **is-a** — instance → class, created by `Create()`. "Classes
//!   typically instantiate many objects, but an object belongs to exactly
//!   one class."
//! * **kind-of** — subclass → superclass, created by `Derive()`. "A class
//!   can be the superclass for any number of different subclasses, but it
//!   is the subclass of exactly one superclass."
//! * **inherits-from** — class → base class, created by `InheritFrom()`.
//!   "A class can inherit from, and be a base class for, any number of
//!   other classes." No new objects are created; unlike is-a/kind-of, the
//!   base has no responsibility for locating the inheritor.
//!
//! [`RelationGraph`] maintains all three and enforces their structural
//! invariants: is-a and kind-of are functions (exactly one target);
//! kind-of chains terminate at `LegionObject` (the sole sink of
//! kind-of ∪ is-a, §2.1.3); inherits-from is acyclic.

use crate::error::{CoreError, CoreResult};
use crate::loid::Loid;
use crate::wellknown::LEGION_OBJECT;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The registry of is-a, kind-of and inherits-from edges.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RelationGraph {
    /// instance → its one class.
    is_a: BTreeMap<Loid, Loid>,
    /// subclass → its one superclass.
    kind_of: BTreeMap<Loid, Loid>,
    /// class → its base classes, in InheritFrom order.
    inherits_from: BTreeMap<Loid, Vec<Loid>>,
    /// class → its direct subclasses (inverse of kind_of, for queries).
    subclasses: BTreeMap<Loid, BTreeSet<Loid>>,
    /// class → its direct instances (inverse of is_a, for queries).
    instances: BTreeMap<Loid, BTreeSet<Loid>>,
}

impl RelationGraph {
    /// An empty graph.
    pub fn new() -> Self {
        RelationGraph::default()
    }

    // ----- mutation -----------------------------------------------------

    /// Record `instance is-a class` (the effect of `Create()`).
    pub fn add_is_a(&mut self, instance: Loid, class: Loid) -> CoreResult<()> {
        if !class.is_class() {
            return Err(CoreError::NotAClass(class));
        }
        if instance.is_class() {
            return Err(CoreError::NotAnInstance(instance));
        }
        if let Some(existing) = self.is_a.get(&instance) {
            if *existing != class {
                return Err(CoreError::Invalid(format!(
                    "{instance} already is-a {existing}; an object belongs to exactly one class"
                )));
            }
            return Ok(());
        }
        self.is_a.insert(instance, class);
        self.instances.entry(class).or_default().insert(instance);
        Ok(())
    }

    /// Record `subclass kind-of superclass` (the effect of `Derive()`).
    pub fn add_kind_of(&mut self, subclass: Loid, superclass: Loid) -> CoreResult<()> {
        if !subclass.is_class() {
            return Err(CoreError::NotAClass(subclass));
        }
        if !superclass.is_class() {
            return Err(CoreError::NotAClass(superclass));
        }
        if subclass == superclass {
            return Err(CoreError::Invalid(format!(
                "{subclass} cannot be kind-of itself"
            )));
        }
        if let Some(existing) = self.kind_of.get(&subclass) {
            if *existing != superclass {
                return Err(CoreError::Invalid(format!(
                    "{subclass} already kind-of {existing}; a class has exactly one superclass"
                )));
            }
            return Ok(());
        }
        self.kind_of.insert(subclass, superclass);
        self.subclasses
            .entry(superclass)
            .or_default()
            .insert(subclass);
        Ok(())
    }

    /// Record `class inherits-from base` (the effect of `InheritFrom()`),
    /// rejecting cycles: a class must not (transitively) inherit from
    /// itself, or interface composition would not terminate.
    pub fn add_inherits_from(&mut self, class: Loid, base: Loid) -> CoreResult<()> {
        if !class.is_class() {
            return Err(CoreError::NotAClass(class));
        }
        if !base.is_class() {
            return Err(CoreError::NotAClass(base));
        }
        if class == base || self.inheritance_reaches(base, class) {
            return Err(CoreError::InheritanceCycle { class, base });
        }
        let bases = self.inherits_from.entry(class).or_default();
        if !bases.contains(&base) {
            bases.push(base);
        }
        Ok(())
    }

    /// Remove every edge touching `loid`, on either side (the object was
    /// deleted). Instances and subclasses of a removed class lose their
    /// is-a / kind-of edges — the model layer is responsible for deleting
    /// them first if cascade semantics are wanted.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, loid: &Loid) {
        if let Some(class) = self.is_a.remove(loid) {
            if let Some(set) = self.instances.get_mut(&class) {
                set.remove(loid);
            }
        }
        if let Some(sup) = self.kind_of.remove(loid) {
            if let Some(set) = self.subclasses.get_mut(&sup) {
                set.remove(loid);
            }
        }
        // Edges pointing *to* the removed object.
        self.is_a.retain(|_, class| class != loid);
        self.kind_of.retain(|_, sup| sup != loid);
        self.inherits_from.remove(loid);
        for bases in self.inherits_from.values_mut() {
            bases.retain(|b| b != loid);
        }
        self.instances.remove(loid);
        self.subclasses.remove(loid);
    }

    // ----- queries ------------------------------------------------------

    /// The class `instance` is-a, if recorded.
    pub fn class_of(&self, instance: &Loid) -> Option<Loid> {
        self.is_a.get(instance).copied()
    }

    /// The superclass of `class`, if recorded.
    pub fn superclass_of(&self, class: &Loid) -> Option<Loid> {
        self.kind_of.get(class).copied()
    }

    /// The bases of `class`, in InheritFrom order.
    pub fn bases_of(&self, class: &Loid) -> &[Loid] {
        self.inherits_from
            .get(class)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Direct subclasses of `class`.
    #[cfg(test)]
    pub(crate) fn subclasses_of(&self, class: &Loid) -> Vec<Loid> {
        self.subclasses
            .get(class)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Direct instances of `class`.
    pub fn instances_of(&self, class: &Loid) -> Vec<Loid> {
        self.instances
            .get(class)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The kind-of chain from `class` up to (and including) the root with
    /// no recorded superclass — for a well-formed graph, `LegionObject`.
    pub fn superclass_chain(&self, class: Loid) -> Vec<Loid> {
        let mut chain = vec![class];
        let mut cur = class;
        while let Some(sup) = self.superclass_of(&cur) {
            chain.push(sup);
            cur = sup;
        }
        chain
    }

    /// Is `descendant` transitively kind-of `ancestor`? (Reflexive.)
    #[cfg(test)]
    pub(crate) fn is_kind_of(&self, descendant: Loid, ancestor: Loid) -> bool {
        let mut cur = descendant;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.superclass_of(&cur) {
                Some(s) => cur = s,
                None => return false,
            }
        }
    }

    /// Would recording `class inherits-from base` create a cycle?
    /// (Read-only pre-check used by the model before mutating interfaces.)
    pub fn would_create_inheritance_cycle(&self, class: Loid, base: Loid) -> bool {
        class == base || self.inheritance_reaches(base, class)
    }

    /// Does `from` reach `to` through inherits-from edges (reflexive)?
    fn inheritance_reaches(&self, from: Loid, to: Loid) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            for b in self.bases_of(&c) {
                if *b == to {
                    return true;
                }
                stack.push(*b);
            }
        }
        false
    }

    /// All inheritance ancestors of `class`: the superclass chain plus the
    /// transitive closure of inherits-from along it, deduplicated, in
    /// deterministic discovery order (self first). This is the set whose
    /// interfaces compose into the class's effective interface.
    pub fn all_ancestors(&self, class: Loid) -> Vec<Loid> {
        let mut order = Vec::new();
        let mut seen = BTreeSet::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(class);
        while let Some(c) = queue.pop_front() {
            if !seen.insert(c) {
                continue;
            }
            order.push(c);
            // Own bases first (closer relationship), then the superclass.
            for b in self.bases_of(&c) {
                queue.push_back(*b);
            }
            if let Some(s) = self.superclass_of(&c) {
                queue.push_back(s);
            }
        }
        order
    }

    /// Verify the structural claim of §2.1.3: every recorded class's
    /// kind-of chain terminates at `LegionObject` (the sole sink). Returns
    /// the offending class on failure.
    pub fn verify_single_sink(&self) -> Result<(), Loid> {
        for class in self
            .kind_of
            .keys()
            .chain(self.subclasses.keys())
            .chain(self.is_a.values())
        {
            let chain = self.superclass_chain(*class);
            let last = *chain.last().expect("chain includes self");
            if last != LEGION_OBJECT {
                return Err(*class);
            }
        }
        Ok(())
    }

    /// Total number of recorded is-a edges.
    pub fn instance_count(&self) -> usize {
        self.is_a.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellknown::{LEGION_CLASS, LEGION_OBJECT};

    fn cls(id: u64) -> Loid {
        Loid::class_object(id)
    }

    fn inst(class: u64, seq: u64) -> Loid {
        Loid::instance(class, seq)
    }

    /// A small hierarchy mirroring the paper's Figure 8.
    fn host_hierarchy() -> (RelationGraph, Loid, Loid, Loid, Loid) {
        let mut g = RelationGraph::new();
        let legion_host = cls(3);
        let unix_host = cls(16);
        let spmd_host = cls(17);
        let unix_smmp = cls(18);
        g.add_kind_of(LEGION_CLASS, LEGION_OBJECT).unwrap();
        g.add_kind_of(legion_host, LEGION_OBJECT).unwrap();
        g.add_kind_of(unix_host, legion_host).unwrap();
        g.add_kind_of(spmd_host, legion_host).unwrap();
        g.add_kind_of(unix_smmp, unix_host).unwrap();
        (g, legion_host, unix_host, spmd_host, unix_smmp)
    }

    #[test]
    fn is_a_is_a_function() {
        let mut g = RelationGraph::new();
        let c = cls(16);
        let o = inst(16, 1);
        g.add_is_a(o, c).unwrap();
        // Idempotent re-add.
        g.add_is_a(o, c).unwrap();
        // But a second class is rejected: exactly one class per object.
        assert!(g.add_is_a(o, cls(17)).is_err());
        assert_eq!(g.class_of(&o), Some(c));
        assert_eq!(g.instances_of(&c), vec![o]);
        assert_eq!(g.instance_count(), 1);
    }

    #[test]
    fn is_a_rejects_malformed_edges() {
        let mut g = RelationGraph::new();
        assert!(matches!(
            g.add_is_a(inst(16, 1), inst(16, 2)),
            Err(CoreError::NotAClass(_))
        ));
        assert!(matches!(
            g.add_is_a(cls(16), cls(17)),
            Err(CoreError::NotAnInstance(_))
        ));
    }

    #[test]
    fn kind_of_is_a_function_and_irreflexive() {
        let mut g = RelationGraph::new();
        let a = cls(16);
        let b = cls(17);
        g.add_kind_of(a, b).unwrap();
        g.add_kind_of(a, b).unwrap(); // idempotent
        assert!(g.add_kind_of(a, cls(18)).is_err()); // one superclass
        assert!(g.add_kind_of(b, b).is_err()); // irreflexive
        assert_eq!(g.superclass_of(&a), Some(b));
        assert_eq!(g.subclasses_of(&b), vec![a]);
    }

    #[test]
    fn superclass_chain_reaches_root() {
        let (g, legion_host, unix_host, _, unix_smmp) = host_hierarchy();
        assert_eq!(
            g.superclass_chain(unix_smmp),
            vec![unix_smmp, unix_host, legion_host, LEGION_OBJECT]
        );
    }

    #[test]
    fn is_kind_of_is_transitive_and_reflexive() {
        let (g, legion_host, unix_host, spmd_host, unix_smmp) = host_hierarchy();
        assert!(g.is_kind_of(unix_smmp, unix_smmp));
        assert!(g.is_kind_of(unix_smmp, unix_host));
        assert!(g.is_kind_of(unix_smmp, legion_host));
        assert!(g.is_kind_of(unix_smmp, LEGION_OBJECT));
        assert!(!g.is_kind_of(unix_smmp, spmd_host));
        assert!(!g.is_kind_of(unix_host, unix_smmp));
    }

    #[test]
    fn verify_single_sink_accepts_figure8() {
        let (g, ..) = host_hierarchy();
        assert!(g.verify_single_sink().is_ok());
    }

    #[test]
    fn verify_single_sink_catches_orphans() {
        let mut g = RelationGraph::new();
        let orphan_root = cls(50);
        let child = cls(51);
        g.add_kind_of(child, orphan_root).unwrap();
        assert_eq!(g.verify_single_sink(), Err(child));
    }

    #[test]
    fn inherits_from_allows_many_bases() {
        let mut g = RelationGraph::new();
        let c = cls(16);
        g.add_inherits_from(c, cls(17)).unwrap();
        g.add_inherits_from(c, cls(18)).unwrap();
        g.add_inherits_from(c, cls(17)).unwrap(); // idempotent
        assert_eq!(g.bases_of(&c), &[cls(17), cls(18)]);
    }

    #[test]
    fn inherits_from_rejects_self_and_cycles() {
        let mut g = RelationGraph::new();
        let a = cls(16);
        let b = cls(17);
        let c = cls(18);
        assert!(matches!(
            g.add_inherits_from(a, a),
            Err(CoreError::InheritanceCycle { .. })
        ));
        g.add_inherits_from(a, b).unwrap();
        g.add_inherits_from(b, c).unwrap();
        // c → a would close a cycle a → b → c → a.
        assert!(matches!(
            g.add_inherits_from(c, a),
            Err(CoreError::InheritanceCycle { .. })
        ));
        // Diamonds are fine (not cycles).
        let d = cls(19);
        g.add_inherits_from(d, b).unwrap();
        g.add_inherits_from(d, c).unwrap();
    }

    #[test]
    fn all_ancestors_covers_chain_and_bases() {
        let mut g = RelationGraph::new();
        let base1 = cls(20);
        let base2 = cls(21);
        let sup = cls(22);
        let c = cls(23);
        g.add_kind_of(sup, LEGION_OBJECT).unwrap();
        g.add_kind_of(c, sup).unwrap();
        g.add_inherits_from(c, base1).unwrap();
        g.add_inherits_from(sup, base2).unwrap();
        let anc = g.all_ancestors(c);
        assert_eq!(anc[0], c, "self first");
        for x in [base1, sup, base2, LEGION_OBJECT] {
            assert!(anc.contains(&x), "missing ancestor {x}");
        }
        assert_eq!(anc.len(), 5, "no duplicates");
    }

    #[test]
    fn remove_cleans_all_edges() {
        let mut g = RelationGraph::new();
        let c = cls(16);
        let d = cls(17);
        let o = inst(16, 1);
        g.add_kind_of(c, LEGION_OBJECT).unwrap();
        g.add_kind_of(d, c).unwrap();
        g.add_is_a(o, c).unwrap();
        g.add_inherits_from(d, c).unwrap();
        g.remove(&c);
        assert_eq!(g.superclass_of(&c), None);
        assert_eq!(g.subclasses_of(&LEGION_OBJECT), Vec::<Loid>::new());
        assert_eq!(g.bases_of(&d), &[] as &[Loid]);
        // The instance edge is gone too.
        assert_eq!(g.class_of(&o), None);
    }
}
