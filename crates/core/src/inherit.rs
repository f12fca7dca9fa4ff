//! Multiple-inheritance composition (paper §2.1, §2.1.1).
//!
//! "Multiple inheritance in Legion is a two step process. First, the class
//! is created by calling `Derive()` on an existing class object. Second,
//! the composition of future instances of the class is set via calls to
//! the `InheritFrom()` method ... When the instances of the class are
//! created via the `Create()` method, their composition reflects the way
//! the class was defined in the inheritance process."
//!
//! This module provides:
//!
//! * [`resolution_order`] — the linearization used to compose interfaces
//!   (self, then bases in `InheritFrom` order, then the superclass, breadth
//!   first);
//! * [`compose`] — rebuild a class's *effective* interface from scratch
//!   out of every ancestor's own declarations (nearest definition wins);
//! * `find_ambiguities` (test builds only) — detect method names that two
//!   unrelated bases define with incompatible signatures and that the class
//!   itself does not disambiguate.
//!
//! `ClassObject` maintains its effective interface incrementally
//! (`Derive()` copies, `InheritFrom()` merges); [`compose`] is the
//! from-scratch specification of the same result, used by tests and by
//! consistency checks after bulk graph edits.

use crate::error::CoreResult;
use crate::interface::Interface;
#[cfg(test)]
use crate::interface::MethodSignature;
use crate::loid::Loid;
use crate::relations::RelationGraph;
use std::collections::BTreeMap;

/// The interface-composition order for `class`: itself first, then its
/// ancestors breadth-first (bases before superclass at each level), with
/// duplicates removed. Earlier classes shadow later ones.
pub fn resolution_order(graph: &RelationGraph, class: Loid) -> Vec<Loid> {
    graph.all_ancestors(class)
}

/// Rebuild the effective interface of `class` from the ancestors' *own*
/// method declarations, looked up through `own`.
///
/// The nearest declaration of each method (in [`resolution_order`]) wins;
/// an incompatible duplicate further away is shadowed, exactly as a C++
/// derived-class redefinition hides a base's. Unrelated-sibling conflicts
/// are *not* errors here.
pub fn compose(graph: &RelationGraph, class: Loid, own: &BTreeMap<Loid, Interface>) -> Interface {
    let mut effective = Interface::new();
    for ancestor in resolution_order(graph, class) {
        let Some(decls) = own.get(&ancestor) else {
            continue;
        };
        for (sig, provider) in decls.iter_with_providers() {
            if !effective.contains(&sig.name) {
                effective.define(sig.clone(), provider);
            }
        }
    }
    effective
}

/// An ambiguity: two bases reachable from `class` declare `method` with
/// incompatible signatures, and `class` itself does not redefine it.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Ambiguity {
    /// The ambiguous method name.
    pub method: String,
    /// The first declaring ancestor encountered.
    pub first: Loid,
    /// First ancestor's signature.
    pub first_sig: MethodSignature,
    /// The second, incompatible declaring ancestor.
    pub second: Loid,
    /// Second ancestor's signature.
    pub second_sig: MethodSignature,
}

/// Find all ambiguities in `class`'s inheritance closure.
///
/// A class resolves an ambiguity by declaring the method itself — its own
/// declaration shadows every ancestor and no ambiguity is reported.
#[cfg(test)]
pub(crate) fn find_ambiguities(
    graph: &RelationGraph,
    class: Loid,
    own: &BTreeMap<Loid, Interface>,
) -> Vec<Ambiguity> {
    let mut first_seen: BTreeMap<String, (Loid, MethodSignature)> = BTreeMap::new();
    let own_decls: Option<&Interface> = own.get(&class);
    let mut out = Vec::new();
    for ancestor in resolution_order(graph, class) {
        let Some(decls) = own.get(&ancestor) else {
            continue;
        };
        for sig in decls.iter() {
            // The class's own declarations disambiguate.
            if ancestor != class && own_decls.is_some_and(|d| d.contains(&sig.name)) {
                continue;
            }
            match first_seen.get(&sig.name) {
                None => {
                    first_seen.insert(sig.name.clone(), (ancestor, sig.clone()));
                }
                Some((first, first_sig)) => {
                    if *first != ancestor && !first_sig.compatible_with(sig) {
                        out.push(Ambiguity {
                            method: sig.name.clone(),
                            first: *first,
                            first_sig: first_sig.clone(),
                            second: ancestor,
                            second_sig: sig.clone(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Check that an incrementally maintained effective interface matches the
/// from-scratch composition — the invariant tying `ClassObject`'s eager
/// merging to the model of this module.
pub fn verify_composition(
    graph: &RelationGraph,
    class: Loid,
    own: &BTreeMap<Loid, Interface>,
    effective: &Interface,
) -> CoreResult<()> {
    let expected = compose(graph, class, own);
    if &expected == effective {
        Ok(())
    } else {
        Err(crate::error::CoreError::Invalid(format!(
            "effective interface of {class} diverged from composition \
             ({} methods expected, {} present)",
            expected.len(),
            effective.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::ParamType;
    use crate::wellknown::LEGION_OBJECT;

    fn cls(id: u64) -> Loid {
        Loid::class_object(id)
    }

    fn decl(owner: Loid, name: &str, ret: ParamType) -> Interface {
        let mut i = Interface::new();
        i.define(MethodSignature::new(name, vec![], ret), owner);
        i
    }

    /// C kind-of S kind-of LegionObject; C inherits-from B1, B2.
    fn diamondish() -> (RelationGraph, Loid, Loid, Loid, Loid) {
        let mut g = RelationGraph::new();
        let s = cls(20);
        let c = cls(21);
        let b1 = cls(22);
        let b2 = cls(23);
        g.add_kind_of(s, LEGION_OBJECT).unwrap();
        g.add_kind_of(c, s).unwrap();
        g.add_inherits_from(c, b1).unwrap();
        g.add_inherits_from(c, b2).unwrap();
        (g, s, c, b1, b2)
    }

    #[test]
    fn resolution_order_self_bases_superclass() {
        let (g, s, c, b1, b2) = diamondish();
        let order = resolution_order(&g, c);
        assert_eq!(order, vec![c, b1, b2, s, LEGION_OBJECT]);
    }

    #[test]
    fn compose_nearest_wins() {
        let (g, s, c, b1, _) = diamondish();
        let mut own = BTreeMap::new();
        own.insert(c, decl(c, "f", ParamType::Int));
        own.insert(b1, decl(b1, "f", ParamType::Void)); // shadowed by c
        own.insert(s, decl(s, "g", ParamType::Void));
        let eff = compose(&g, c, &own);
        assert_eq!(eff.get("f").unwrap().returns, ParamType::Int);
        assert_eq!(eff.provider("f"), Some(c));
        assert!(eff.contains("g"));
        assert_eq!(eff.len(), 2);
    }

    #[test]
    fn compose_base_beats_superclass() {
        let (g, s, c, b1, _) = diamondish();
        let mut own = BTreeMap::new();
        own.insert(b1, decl(b1, "f", ParamType::Int));
        own.insert(s, decl(s, "f", ParamType::Void));
        let eff = compose(&g, c, &own);
        assert_eq!(eff.provider("f"), Some(b1), "bases precede superclass");
    }

    #[test]
    fn ambiguity_between_unrelated_bases() {
        let (g, _, c, b1, b2) = diamondish();
        let mut own = BTreeMap::new();
        own.insert(b1, decl(b1, "f", ParamType::Int));
        own.insert(b2, decl(b2, "f", ParamType::Void));
        let ambs = find_ambiguities(&g, c, &own);
        assert_eq!(ambs.len(), 1);
        assert_eq!(ambs[0].method, "f");
        assert_eq!(ambs[0].first, b1);
        assert_eq!(ambs[0].second, b2);
    }

    #[test]
    fn own_declaration_disambiguates() {
        let (g, _, c, b1, b2) = diamondish();
        let mut own = BTreeMap::new();
        own.insert(c, decl(c, "f", ParamType::Str));
        own.insert(b1, decl(b1, "f", ParamType::Int));
        own.insert(b2, decl(b2, "f", ParamType::Void));
        assert!(find_ambiguities(&g, c, &own).is_empty());
        let eff = compose(&g, c, &own);
        assert_eq!(eff.get("f").unwrap().returns, ParamType::Str);
    }

    #[test]
    fn compatible_duplicates_are_not_ambiguous() {
        let (g, _, c, b1, b2) = diamondish();
        let mut own = BTreeMap::new();
        own.insert(b1, decl(b1, "f", ParamType::Int));
        own.insert(b2, decl(b2, "f", ParamType::Int));
        assert!(find_ambiguities(&g, c, &own).is_empty());
    }

    #[test]
    fn diamond_single_grandbase_not_ambiguous() {
        // b1 and b2 both inherit from d; d's method reaches c twice but
        // from the same declaring class — no ambiguity.
        let (mut g, _, c, b1, b2) = diamondish();
        let d = cls(24);
        g.add_inherits_from(b1, d).unwrap();
        g.add_inherits_from(b2, d).unwrap();
        let mut own = BTreeMap::new();
        own.insert(d, decl(d, "f", ParamType::Int));
        assert!(find_ambiguities(&g, c, &own).is_empty());
        let eff = compose(&g, c, &own);
        assert_eq!(eff.provider("f"), Some(d));
    }

    #[test]
    fn verify_composition_accepts_and_rejects() {
        let (g, _, c, b1, _) = diamondish();
        let mut own = BTreeMap::new();
        own.insert(b1, decl(b1, "f", ParamType::Int));
        let eff = compose(&g, c, &own);
        assert!(verify_composition(&g, c, &own, &eff).is_ok());
        let bogus = decl(c, "other", ParamType::Void);
        assert!(verify_composition(&g, c, &own, &bogus).is_err());
    }
}
