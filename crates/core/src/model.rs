//! The assembled object model: classes, relations, and the metaclass
//! working together (paper §2.1, §4.2).
//!
//! [`ObjectModel`] is the in-memory registry a Legion deployment keeps of
//! its class objects. It orchestrates the class-mandatory operations
//! end-to-end:
//!
//! * `create(class)` — allocate an instance LOID, add the table row, and
//!   record the **is-a** edge;
//! * `derive(superclass, name, kind)` — obtain a Class Identifier from the
//!   LegionClass authority, copy the superclass's interface, record the
//!   **kind-of** edge and the responsibility pair;
//! * `inherit_from(class, base)` — merge the base's interface (rejecting
//!   cycles and unresolved conflicts) and record the **inherits-from**
//!   edge;
//! * `delete(loid)` — remove the object and all its edges.
//!
//! The model is purely local state; in the full system each class object
//! runs as its own endpoint and the `legion-sim` crate drives these same
//! operations through messages. Keeping the state machine here lets both
//! the message-driven system and the unit tests share one implementation.

use crate::class::{ClassKind, ClassObject};
use crate::error::{CoreError, CoreResult};
use crate::inherit;
use crate::interface::{Interface, MethodSignature};
use crate::loid::Loid;
use crate::metaclass::LegionClassAuthority;
use crate::object::object_mandatory_interface;
use crate::relations::RelationGraph;
use crate::wellknown::{
    LEGION_BINDING_AGENT, LEGION_CLASS, LEGION_HOST, LEGION_MAGISTRATE, LEGION_OBJECT,
};
use std::collections::BTreeMap;

/// The registry of class objects plus the relation graph and the
/// LegionClass authority.
///
/// ```
/// use legion_core::class::ClassKind;
/// use legion_core::model::ObjectModel;
/// use legion_core::wellknown::LEGION_CLASS;
///
/// let mut m = ObjectModel::bootstrap();
/// let file = m.derive(LEGION_CLASS, "File", ClassKind::NORMAL).unwrap();
/// let f1 = m.create(file).unwrap();
/// assert_eq!(m.graph().class_of(&f1), Some(file));
/// m.verify().unwrap(); // interfaces match from-scratch composition
/// ```
#[derive(Debug, Clone)]
pub struct ObjectModel {
    classes: BTreeMap<Loid, ClassObject>,
    /// Methods each class *declares itself* (vs inherits) — the input to
    /// from-scratch interface composition checks.
    own_methods: BTreeMap<Loid, Interface>,
    graph: RelationGraph,
    authority: LegionClassAuthority,
}

impl Default for ObjectModel {
    fn default() -> Self {
        Self::bootstrap()
    }
}

impl ObjectModel {
    /// Bring up the core Abstract classes exactly once (paper §4.2.1):
    /// `LegionObject` (the kind-of sink, providing the object-mandatory
    /// interface), `LegionClass` (kind-of LegionObject, adding the
    /// class-mandatory interface), and the three core service roots
    /// (`LegionHost`, `LegionMagistrate`, `LegionBindingAgent`, each
    /// kind-of LegionClass).
    pub fn bootstrap() -> Self {
        let mut m = ObjectModel {
            classes: BTreeMap::new(),
            own_methods: BTreeMap::new(),
            graph: RelationGraph::new(),
            authority: LegionClassAuthority::new(),
        };

        // LegionObject: the sole sink; declares the object-mandatory set.
        let mut legion_object =
            ClassObject::new(LEGION_OBJECT, "LegionObject", ClassKind::ABSTRACT);
        let obj_if = object_mandatory_interface(LEGION_OBJECT);
        legion_object.interface = obj_if.clone();
        m.own_methods.insert(LEGION_OBJECT, obj_if);
        m.classes.insert(LEGION_OBJECT, legion_object);

        // LegionClass: kind-of LegionObject; adds the class-mandatory set.
        let mut legion_class = ClassObject::new(LEGION_CLASS, "LegionClass", ClassKind::ABSTRACT);
        legion_class.superclass = Some(LEGION_OBJECT);
        let cls_if = crate::class::class_mandatory_interface(LEGION_CLASS);
        let mut eff = m.classes[&LEGION_OBJECT].interface.clone();
        eff.merge_from_with_owner(&cls_if, LEGION_CLASS)
            .expect("core interfaces cannot conflict");
        // Class-mandatory methods are LegionClass's own declarations.
        for (sig, _) in cls_if.iter_with_providers() {
            eff.define(sig.clone(), LEGION_CLASS);
        }
        legion_class.interface = eff;
        m.own_methods.insert(LEGION_CLASS, cls_if);
        m.graph
            .add_kind_of(LEGION_CLASS, LEGION_OBJECT)
            .expect("bootstrap edge");
        m.classes.insert(LEGION_CLASS, legion_class);
        m.classes
            .get_mut(&LEGION_OBJECT)
            .expect("bootstrapped")
            .record_subclass(LEGION_CLASS)
            .expect("LegionObject accepts subclasses");

        // The three core service roots: Abstract, kind-of LegionClass.
        for (loid, name) in [
            (LEGION_HOST, "LegionHost"),
            (LEGION_MAGISTRATE, "LegionMagistrate"),
            (LEGION_BINDING_AGENT, "LegionBindingAgent"),
        ] {
            let mut c = ClassObject::new(loid, name, ClassKind::ABSTRACT);
            c.superclass = Some(LEGION_CLASS);
            c.interface = m.classes[&LEGION_CLASS].interface.clone();
            m.own_methods.insert(loid, Interface::new());
            m.graph
                .add_kind_of(loid, LEGION_CLASS)
                .expect("bootstrap edge");
            m.classes.insert(loid, c);
            m.classes
                .get_mut(&LEGION_CLASS)
                .expect("bootstrapped")
                .record_subclass(loid)
                .expect("LegionClass accepts subclasses");
        }
        m
    }

    // ----- lookup -------------------------------------------------------

    /// The class object named `loid`.
    pub fn class(&self, loid: &Loid) -> CoreResult<&ClassObject> {
        self.classes.get(loid).ok_or_else(|| {
            if loid.is_class() {
                CoreError::UnknownLoid(*loid)
            } else {
                CoreError::NotAClass(*loid)
            }
        })
    }

    /// Mutable access to the class object named `loid`.
    pub fn class_mut(&mut self, loid: &Loid) -> CoreResult<&mut ClassObject> {
        self.classes.get_mut(loid).ok_or_else(|| {
            if loid.is_class() {
                CoreError::UnknownLoid(*loid)
            } else {
                CoreError::NotAClass(*loid)
            }
        })
    }

    /// The relation graph (read-only).
    pub fn graph(&self) -> &RelationGraph {
        &self.graph
    }

    /// The LegionClass authority.
    #[cfg(test)]
    pub(crate) fn authority(&self) -> &LegionClassAuthority {
        &self.authority
    }

    /// Mutable access to the authority (for experiment counters and the
    /// message-driven system that proxies requests into it).
    #[cfg(test)]
    pub(crate) fn authority_mut(&mut self) -> &mut LegionClassAuthority {
        &mut self.authority
    }

    /// Number of registered classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The interface exported by `loid` — its class's interface for an
    /// instance, its own effective interface for a class.
    #[cfg(test)]
    pub(crate) fn interface_of(&self, loid: &Loid) -> CoreResult<&Interface> {
        if loid.is_class() {
            Ok(&self.class(loid)?.interface)
        } else {
            let class = self
                .graph
                .class_of(loid)
                .ok_or(CoreError::UnknownLoid(*loid))?;
            Ok(&self.class(&class)?.interface)
        }
    }

    // ----- class-mandatory operations ------------------------------------

    /// `Create()`: instantiate a non-class object of `class` (Figure 3).
    pub fn create(&mut self, class: Loid) -> CoreResult<Loid> {
        let instance = self.class_mut(&class)?.create_instance()?;
        self.graph
            .add_is_a(instance, class)
            .expect("fresh instance LOID cannot collide");
        Ok(instance)
    }

    /// `Derive()`: create a subclass of `superclass` (Figure 4). The new
    /// class starts with its superclass's full interface ("a class that is
    /// derived from another class inherits the superclass's member
    /// functions and variables").
    pub fn derive(
        &mut self,
        superclass: Loid,
        name: impl Into<String>,
        kind: ClassKind,
    ) -> CoreResult<Loid> {
        // Validate the superclass exists and accepts subclasses before
        // consuming a Class Identifier.
        let sup = self.class(&superclass)?;
        if sup.kind.is_private {
            return Err(CoreError::PrivateClass(superclass));
        }
        if sup.deleted {
            return Err(CoreError::Deleted(superclass));
        }
        let inherited = sup.interface.clone();
        let default_sched = sup.default_scheduling_agent;

        let (_, new_loid) = self.authority.issue_class_id(superclass)?;
        let mut class = ClassObject::new(new_loid, name, kind);
        class.superclass = Some(superclass);
        class.interface = inherited;
        class.default_scheduling_agent = default_sched;

        self.class_mut(&superclass)?.record_subclass(new_loid)?;
        self.graph
            .add_kind_of(new_loid, superclass)
            .expect("fresh class LOID cannot collide");
        self.own_methods.insert(new_loid, Interface::new());
        self.classes.insert(new_loid, class);
        Ok(new_loid)
    }

    /// `InheritFrom()`: add `base` to `class`'s composition (Figure 5).
    pub fn inherit_from(&mut self, class: Loid, base: Loid) -> CoreResult<()> {
        // Existence and shape checks first.
        let base_interface = self.class(&base)?.interface.clone();
        let c = self.class(&class)?;
        if c.kind.is_fixed {
            return Err(CoreError::FixedClass(class));
        }
        if self.graph.would_create_inheritance_cycle(class, base) {
            return Err(CoreError::InheritanceCycle { class, base });
        }
        // Merge the interface; only then record the edge, so a conflict
        // leaves the graph untouched. The merge is the *conflict gate*;
        // the recomputation below is the authoritative composition.
        self.class_mut(&class)?
            .inherit_from(base, &base_interface)?;
        self.graph
            .add_inherits_from(class, base)
            .expect("cycle pre-checked");
        self.recompute_dependents(class);
        Ok(())
    }

    /// Declare a method on `class` itself (the class's own contribution to
    /// its instances' interface, e.g. from IDL). Subclasses and inheritors
    /// see the method too — inheritance in Legion is "an active process
    /// that is carried out at run-time" (§2.1), so future instances of
    /// every dependent class reflect the change.
    pub fn define_method(&mut self, class: Loid, sig: MethodSignature) -> CoreResult<()> {
        // Existence check.
        self.class(&class)?;
        self.own_methods
            .entry(class)
            .or_default()
            .define(sig, class);
        self.recompute_dependents(class);
        Ok(())
    }

    /// Recompute the effective interface of `changed` and every class that
    /// (transitively) inherits from it, from the composition specification
    /// in [`inherit::compose`].
    fn recompute_dependents(&mut self, changed: Loid) {
        let loids: Vec<Loid> = self.classes.keys().copied().collect();
        for d in loids {
            if inherit::resolution_order(&self.graph, d).contains(&changed) {
                let eff = inherit::compose(&self.graph, d, &self.own_methods);
                self.classes
                    .get_mut(&d)
                    .expect("iterating existing keys")
                    .interface = eff;
            }
        }
    }

    /// `Delete()`: remove an instance or an (empty) subclass.
    ///
    /// Deleting a class that still has instances or subclasses is refused —
    /// the caller must delete the children first (stale bindings to them
    /// could otherwise never be refreshed, §4.1.4).
    #[cfg(test)]
    pub(crate) fn delete(&mut self, target: Loid) -> CoreResult<()> {
        if target.is_class() {
            let c = self.class(&target)?;
            if !c.table.is_empty() {
                return Err(CoreError::Invalid(format!(
                    "class {target} still has {} children; delete them first",
                    c.table.len()
                )));
            }
            let superclass = c.superclass;
            if let Some(sup) = superclass {
                // The parent's table row for this subclass goes away.
                let _ = self.class_mut(&sup)?.delete_child(&target);
            }
            self.classes.remove(&target);
            self.own_methods.remove(&target);
            self.graph.remove(&target);
            self.authority.forget(&target);
            Ok(())
        } else {
            let class = self
                .graph
                .class_of(&target)
                .ok_or(CoreError::UnknownLoid(target))?;
            self.class_mut(&class)?.delete_child(&target)?;
            self.graph.remove(&target);
            Ok(())
        }
    }

    // ----- consistency ----------------------------------------------------

    /// Recompose every class's interface from scratch and verify it matches
    /// the incrementally maintained one; also verify the single-sink
    /// property of the kind-of graph. Used by tests and after bulk edits.
    pub fn verify(&self) -> CoreResult<()> {
        self.graph
            .verify_single_sink()
            .map_err(|c| CoreError::Invalid(format!("kind-of chain of {c} misses LegionObject")))?;
        for (loid, class) in &self.classes {
            inherit::verify_composition(&self.graph, *loid, &self.own_methods, &class.interface)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::ParamType;

    fn sig(name: &str) -> MethodSignature {
        MethodSignature::new(name, vec![], ParamType::Void)
    }

    #[test]
    fn bootstrap_registers_core_classes() {
        let m = ObjectModel::bootstrap();
        assert_eq!(m.class_count(), 5);
        for c in crate::wellknown::CORE_CLASSES {
            assert!(m.class(&c).is_ok(), "core class {c} missing");
        }
        m.verify().expect("bootstrap model is consistent");
    }

    #[test]
    fn core_hierarchy_matches_paper() {
        let m = ObjectModel::bootstrap();
        assert_eq!(m.class(&LEGION_OBJECT).unwrap().superclass, None);
        assert_eq!(
            m.class(&LEGION_CLASS).unwrap().superclass,
            Some(LEGION_OBJECT)
        );
        for c in [LEGION_HOST, LEGION_MAGISTRATE, LEGION_BINDING_AGENT] {
            assert_eq!(m.class(&c).unwrap().superclass, Some(LEGION_CLASS));
            assert!(m.graph().is_kind_of(c, LEGION_OBJECT));
        }
    }

    #[test]
    fn classes_inherit_object_and_class_mandatory_functions() {
        let m = ObjectModel::bootstrap();
        let host = m.class(&LEGION_HOST).unwrap();
        for method in ["MayI", "SaveState", "RestoreState", "Create", "Derive"] {
            assert!(host.interface.contains(method), "missing {method}");
        }
    }

    #[test]
    fn core_classes_are_abstract() {
        let mut m = ObjectModel::bootstrap();
        for c in crate::wellknown::CORE_CLASSES {
            assert!(matches!(m.create(c), Err(CoreError::AbstractClass(_))));
        }
    }

    #[test]
    fn derive_then_create_full_path() {
        let mut m = ObjectModel::bootstrap();
        let unix_host = m
            .derive(LEGION_HOST, "UnixHost", ClassKind::NORMAL)
            .unwrap();
        let h1 = m.create(unix_host).unwrap();
        assert_eq!(m.graph().class_of(&h1), Some(unix_host));
        assert_eq!(m.graph().superclass_of(&unix_host), Some(LEGION_HOST));
        // The instance exports the inherited interface.
        let iface = m.interface_of(&h1).unwrap();
        assert!(iface.contains("MayI"));
        m.verify().unwrap();
    }

    #[test]
    fn derive_records_responsibility_pair() {
        let mut m = ObjectModel::bootstrap();
        let d = m
            .derive(LEGION_HOST, "UnixHost", ClassKind::NORMAL)
            .unwrap();
        assert_eq!(m.authority_mut().find_responsible(&d).unwrap(), LEGION_HOST);
    }

    #[test]
    fn derive_from_private_class_fails() {
        let mut m = ObjectModel::bootstrap();
        let p = m
            .derive(LEGION_CLASS, "Sealed", ClassKind::PRIVATE)
            .unwrap();
        assert!(matches!(
            m.derive(p, "Sub", ClassKind::NORMAL),
            Err(CoreError::PrivateClass(_))
        ));
        // No Class Identifier was burned by the failed derive.
        let before = m.authority().stats().ids_issued;
        let _ = m.derive(p, "Sub2", ClassKind::NORMAL);
        assert_eq!(m.authority().stats().ids_issued, before);
    }

    #[test]
    fn inherit_from_composes_interfaces() {
        let mut m = ObjectModel::bootstrap();
        let a = m.derive(LEGION_CLASS, "A", ClassKind::NORMAL).unwrap();
        let b = m.derive(LEGION_CLASS, "B", ClassKind::NORMAL).unwrap();
        m.define_method(b, sig("Render")).unwrap();
        m.inherit_from(a, b).unwrap();
        assert!(m.class(&a).unwrap().interface.contains("Render"));
        assert_eq!(m.graph().bases_of(&a), &[b]);
        m.verify().unwrap();
    }

    #[test]
    fn inherit_from_rejects_cycle_without_side_effects() {
        let mut m = ObjectModel::bootstrap();
        let a = m.derive(LEGION_CLASS, "A", ClassKind::NORMAL).unwrap();
        let b = m.derive(LEGION_CLASS, "B", ClassKind::NORMAL).unwrap();
        m.inherit_from(a, b).unwrap();
        assert!(matches!(
            m.inherit_from(b, a),
            Err(CoreError::InheritanceCycle { .. })
        ));
        assert_eq!(m.graph().bases_of(&b), &[] as &[Loid]);
        m.verify().unwrap();
    }

    #[test]
    fn inherit_from_conflict_leaves_graph_clean() {
        let mut m = ObjectModel::bootstrap();
        let a = m.derive(LEGION_CLASS, "A", ClassKind::NORMAL).unwrap();
        let b = m.derive(LEGION_CLASS, "B", ClassKind::NORMAL).unwrap();
        let c = m.derive(LEGION_CLASS, "C", ClassKind::NORMAL).unwrap();
        m.define_method(b, MethodSignature::new("f", vec![], ParamType::Int))
            .unwrap();
        m.define_method(c, MethodSignature::new("f", vec![], ParamType::Str))
            .unwrap();
        m.inherit_from(a, b).unwrap();
        assert!(matches!(
            m.inherit_from(a, c),
            Err(CoreError::InterfaceConflict { .. })
        ));
        assert_eq!(m.graph().bases_of(&a), &[b], "failed merge adds no edge");
        m.verify().unwrap();
    }

    #[test]
    fn own_redefinition_resolves_conflict() {
        let mut m = ObjectModel::bootstrap();
        let a = m.derive(LEGION_CLASS, "A", ClassKind::NORMAL).unwrap();
        let b = m.derive(LEGION_CLASS, "B", ClassKind::NORMAL).unwrap();
        let c = m.derive(LEGION_CLASS, "C", ClassKind::NORMAL).unwrap();
        m.define_method(b, MethodSignature::new("f", vec![], ParamType::Int))
            .unwrap();
        m.define_method(c, MethodSignature::new("f", vec![], ParamType::Str))
            .unwrap();
        // A declares f itself: its definition shadows both bases.
        m.define_method(a, MethodSignature::new("f", vec![], ParamType::Bool))
            .unwrap();
        m.inherit_from(a, b).unwrap();
        m.inherit_from(a, c).unwrap();
        assert_eq!(
            m.class(&a).unwrap().interface.get("f").unwrap().returns,
            ParamType::Bool
        );
        m.verify().unwrap();
    }

    #[test]
    fn delete_instance() {
        let mut m = ObjectModel::bootstrap();
        let c = m.derive(LEGION_CLASS, "C", ClassKind::NORMAL).unwrap();
        let o = m.create(c).unwrap();
        m.delete(o).unwrap();
        assert_eq!(m.graph().class_of(&o), None);
        assert!(matches!(m.delete(o), Err(CoreError::UnknownLoid(_))));
        m.verify().unwrap();
    }

    #[test]
    fn delete_class_requires_empty_table() {
        let mut m = ObjectModel::bootstrap();
        let c = m.derive(LEGION_CLASS, "C", ClassKind::NORMAL).unwrap();
        let o = m.create(c).unwrap();
        assert!(m.delete(c).is_err(), "non-empty class refuses deletion");
        m.delete(o).unwrap();
        m.delete(c).unwrap();
        assert!(m.class(&c).is_err());
        m.verify().unwrap();
    }

    #[test]
    fn fixed_class_cannot_inherit() {
        let mut m = ObjectModel::bootstrap();
        let f = m.derive(LEGION_CLASS, "F", ClassKind::FIXED).unwrap();
        let b = m.derive(LEGION_CLASS, "B", ClassKind::NORMAL).unwrap();
        assert!(matches!(
            m.inherit_from(f, b),
            Err(CoreError::FixedClass(_))
        ));
    }

    #[test]
    fn deep_hierarchy_stays_consistent() {
        let mut m = ObjectModel::bootstrap();
        let mut cur = LEGION_CLASS;
        for depth in 0..20 {
            cur = m
                .derive(cur, format!("Depth{depth}"), ClassKind::NORMAL)
                .unwrap();
            m.define_method(cur, sig(&format!("m{depth}"))).unwrap();
        }
        let leaf_if = &m.class(&cur).unwrap().interface;
        for depth in 0..20 {
            assert!(leaf_if.contains(&format!("m{depth}")));
        }
        assert_eq!(m.graph().superclass_chain(cur).len(), 22); // 20 + LegionClass + LegionObject
        m.verify().unwrap();
    }
}
