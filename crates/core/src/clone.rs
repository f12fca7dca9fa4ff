//! Class cloning for hot classes (paper §5.2.2).
//!
//! "The problem of popular class objects becoming bottlenecks can be
//! alleviated by 'cloning' class objects when they become heavily used.
//! The cloned class is derived from the heavily used class without
//! changing the interface in any way. New instantiation and derivation
//! requests are passed to the cloned object, making it responsible for the
//! new objects. Further, several clones can exist simultaneously, with the
//! different clones residing in different domains."
//!
//! [`CloneSet`] manages a hot class and its clones, dispatching creation
//! requests round-robin (experiment E6 measures the resulting throughput);
//! [`clone_class`] performs the derivation-without-interface-change.

use crate::error::{CoreError, CoreResult};
use crate::loid::Loid;
use crate::model::ObjectModel;
use serde::{Deserialize, Serialize};

/// Derive a clone of `original`: a subclass with the identical interface
/// and kind flags. Returns the clone's LOID.
pub fn clone_class(model: &mut ObjectModel, original: Loid) -> CoreResult<Loid> {
    let (name, kind) = {
        let c = model.class(&original)?;
        (format!("{}#clone", c.name), c.kind)
    };
    if kind.is_private {
        // A Private class cannot be derived from, so it cannot be cloned;
        // surface the underlying rule rather than a partial clone.
        return Err(CoreError::PrivateClass(original));
    }
    let clone = model.derive(original, name, kind)?;
    debug_assert_eq!(
        model.class(&clone)?.interface,
        model.class(&original)?.interface,
        "cloning must not change the interface in any way"
    );
    Ok(clone)
}

/// A hot class together with its clones, dispatching new-object requests
/// across the set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CloneSet {
    original: Loid,
    clones: Vec<Loid>,
    next: usize,
    /// Requests dispatched to each member (original first), for load
    /// accounting in E6.
    dispatched: Vec<u64>,
}

impl CloneSet {
    /// A set containing only the original (no clones yet).
    pub fn new(original: Loid) -> Self {
        CloneSet {
            original,
            clones: Vec::new(),
            next: 0,
            dispatched: vec![0],
        }
    }

    /// Total members (original + clones).
    pub fn len(&self) -> usize {
        1 + self.clones.len()
    }

    /// A clone set is never empty (the original is always a member).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Derive one more clone and add it to the set.
    pub fn grow(&mut self, model: &mut ObjectModel) -> CoreResult<Loid> {
        let clone = clone_class(model, self.original)?;
        self.clones.push(clone);
        self.dispatched.push(0);
        Ok(clone)
    }

    /// Pick the member that should service the next creation request
    /// (round-robin across original + clones).
    pub fn pick(&mut self) -> Loid {
        let n = self.len();
        let idx = self.next % n;
        self.next = (self.next + 1) % n;
        self.dispatched[idx] += 1;
        if idx == 0 {
            self.original
        } else {
            self.clones[idx - 1]
        }
    }

    /// Create an instance through the set; the instance is-a whichever
    /// member serviced the request (the clone becomes "responsible for the
    /// new objects").
    pub fn create(&mut self, model: &mut ObjectModel) -> CoreResult<Loid> {
        let member = self.pick();
        model.create(member)
    }

    /// Requests dispatched per member (original first).
    #[cfg(test)]
    pub(crate) fn load(&self) -> &[u64] {
        &self.dispatched
    }

    /// The maximum per-member load — the bottleneck measure of §5.2.2.
    #[cfg(test)]
    pub(crate) fn max_load(&self) -> u64 {
        self.dispatched.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassKind;
    use crate::interface::{MethodSignature, ParamType};
    use crate::wellknown::LEGION_CLASS;

    fn hot_class(model: &mut ObjectModel) -> Loid {
        let c = model
            .derive(LEGION_CLASS, "HotFile", ClassKind::NORMAL)
            .unwrap();
        model
            .define_method(c, MethodSignature::new("Read", vec![], ParamType::Bytes))
            .unwrap();
        c
    }

    #[test]
    fn clone_preserves_interface_exactly() {
        let mut m = ObjectModel::bootstrap();
        let hot = hot_class(&mut m);
        let clone = clone_class(&mut m, hot).unwrap();
        assert_eq!(
            m.class(&clone).unwrap().interface,
            m.class(&hot).unwrap().interface
        );
        assert_eq!(m.graph().superclass_of(&clone), Some(hot));
    }

    #[test]
    fn clone_of_private_class_fails() {
        let mut m = ObjectModel::bootstrap();
        let p = m
            .derive(LEGION_CLASS, "Sealed", ClassKind::PRIVATE)
            .unwrap();
        assert!(matches!(
            clone_class(&mut m, p),
            Err(CoreError::PrivateClass(_))
        ));
    }

    #[test]
    fn clone_instances_belong_to_the_clone() {
        let mut m = ObjectModel::bootstrap();
        let hot = hot_class(&mut m);
        let clone = clone_class(&mut m, hot).unwrap();
        let o = m.create(clone).unwrap();
        assert_eq!(m.graph().class_of(&o), Some(clone));
        // And the clone's instances still export the hot interface.
        assert!(m.interface_of(&o).unwrap().contains("Read"));
    }

    #[test]
    fn round_robin_spreads_load_evenly() {
        let mut m = ObjectModel::bootstrap();
        let hot = hot_class(&mut m);
        let mut set = CloneSet::new(hot);
        set.grow(&mut m).unwrap();
        set.grow(&mut m).unwrap();
        set.grow(&mut m).unwrap();
        assert_eq!(set.len(), 4);
        for _ in 0..400 {
            set.create(&mut m).unwrap();
        }
        assert_eq!(set.load(), &[100, 100, 100, 100]);
        assert_eq!(set.max_load(), 100);
    }

    #[test]
    fn single_member_set_takes_all_load() {
        let mut m = ObjectModel::bootstrap();
        let hot = hot_class(&mut m);
        let mut set = CloneSet::new(hot);
        for _ in 0..50 {
            set.create(&mut m).unwrap();
        }
        assert_eq!(set.max_load(), 50);
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn cloning_reduces_max_load_proportionally() {
        // The quantitative shape behind E6: k members → max load ≈ N/k.
        let mut m = ObjectModel::bootstrap();
        let hot = hot_class(&mut m);
        let mut set = CloneSet::new(hot);
        for _ in 0..7 {
            set.grow(&mut m).unwrap();
        }
        for _ in 0..800 {
            set.create(&mut m).unwrap();
        }
        assert_eq!(set.max_load(), 100); // 800 / 8
        m.verify().unwrap();
    }
}
