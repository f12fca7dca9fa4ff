//! Well-known LOIDs of Legion's core Abstract classes (paper §2.1.3).
//!
//! The paper names five core Abstract class objects — `LegionObject`,
//! `LegionClass`, `LegionHost`, `LegionMagistrate`, `LegionBindingAgent` —
//! that are started exactly once, "when the Legion system comes alive"
//! (§4.2.1). Their Class Identifiers are reserved here so that every
//! participant agrees on their names without any lookup.
//!
//! Class Identifiers `1..=15` are reserved for the core; user classes are
//! issued identifiers starting at [`FIRST_USER_CLASS_ID`].

use crate::loid::Loid;

/// Class Identifier of `LegionObject` — the sole sink of the kind-of ∪ is-a
/// graph; defines the object-mandatory member functions.
pub const LEGION_OBJECT_CLASS_ID: u64 = 1;
/// Class Identifier of `LegionClass` — the metaclass; defines the
/// class-mandatory member functions and issues Class Identifiers.
pub const LEGION_CLASS_CLASS_ID: u64 = 2;
/// Class Identifier of `LegionHost` — root of all Host Object classes.
pub const LEGION_HOST_CLASS_ID: u64 = 3;
/// Class Identifier of `LegionMagistrate` — root of all Magistrate classes.
pub const LEGION_MAGISTRATE_CLASS_ID: u64 = 4;
/// Class Identifier of `LegionBindingAgent` — root of all Binding Agents.
pub const LEGION_BINDING_AGENT_CLASS_ID: u64 = 5;
/// First Class Identifier available to non-core classes.
pub const FIRST_USER_CLASS_ID: u64 = 16;

/// LOID of the `LegionObject` class object.
pub const LEGION_OBJECT: Loid = Loid::class_object(LEGION_OBJECT_CLASS_ID);
/// LOID of the `LegionClass` class object (the metaclass).
pub const LEGION_CLASS: Loid = Loid::class_object(LEGION_CLASS_CLASS_ID);
/// LOID of the `LegionHost` class object.
pub const LEGION_HOST: Loid = Loid::class_object(LEGION_HOST_CLASS_ID);
/// LOID of the `LegionMagistrate` class object.
pub const LEGION_MAGISTRATE: Loid = Loid::class_object(LEGION_MAGISTRATE_CLASS_ID);
/// LOID of the `LegionBindingAgent` class object.
pub const LEGION_BINDING_AGENT: Loid = Loid::class_object(LEGION_BINDING_AGENT_CLASS_ID);

/// All core class LOIDs, in bootstrap order (paper §4.2.1: the Abstract
/// class objects are started exactly once, LegionObject first since
/// everything eventually derives from it).
#[cfg(test)]
pub(crate) const CORE_CLASSES: [Loid; 5] = [
    LEGION_OBJECT,
    LEGION_CLASS,
    LEGION_HOST,
    LEGION_MAGISTRATE,
    LEGION_BINDING_AGENT,
];

/// Is this LOID one of the reserved core class objects?
pub fn is_core_class(loid: &Loid) -> bool {
    loid.is_class() && loid.class_id.0 >= 1 && loid.class_id.0 < FIRST_USER_CLASS_ID
}

/// Human-readable name for a core class LOID, if it is one.
#[cfg(test)]
pub(crate) fn core_class_name(loid: &Loid) -> Option<&'static str> {
    if !loid.is_class() {
        return None;
    }
    match loid.class_id.0 {
        LEGION_OBJECT_CLASS_ID => Some("LegionObject"),
        LEGION_CLASS_CLASS_ID => Some("LegionClass"),
        LEGION_HOST_CLASS_ID => Some("LegionHost"),
        LEGION_MAGISTRATE_CLASS_ID => Some("LegionMagistrate"),
        LEGION_BINDING_AGENT_CLASS_ID => Some("LegionBindingAgent"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn core_class_loids_are_class_objects() {
        for c in CORE_CLASSES {
            assert!(c.is_class(), "{c} must be a class object");
            assert!(is_core_class(&c));
        }
    }

    #[test]
    fn core_class_ids_are_distinct() {
        let ids: HashSet<u64> = CORE_CLASSES.iter().map(|l| l.class_id.0).collect();
        assert_eq!(ids.len(), CORE_CLASSES.len());
    }

    #[test]
    fn user_classes_are_not_core() {
        assert!(!is_core_class(&Loid::class_object(FIRST_USER_CLASS_ID)));
        assert!(!is_core_class(&Loid::class_object(999)));
    }

    #[test]
    fn instances_are_never_core_classes() {
        let inst = Loid::instance(LEGION_HOST_CLASS_ID, 1);
        assert!(!is_core_class(&inst));
        assert_eq!(core_class_name(&inst), None);
    }

    #[test]
    fn names_resolve() {
        assert_eq!(core_class_name(&LEGION_OBJECT), Some("LegionObject"));
        assert_eq!(core_class_name(&LEGION_CLASS), Some("LegionClass"));
        assert_eq!(core_class_name(&LEGION_HOST), Some("LegionHost"));
        assert_eq!(
            core_class_name(&LEGION_MAGISTRATE),
            Some("LegionMagistrate")
        );
        assert_eq!(
            core_class_name(&LEGION_BINDING_AGENT),
            Some("LegionBindingAgent")
        );
        assert_eq!(core_class_name(&Loid::class_object(77)), None);
    }
}
