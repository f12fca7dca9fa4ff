//! The `LegionClass` authority (paper §3.2, §4.1.3).
//!
//! `LegionClass` plays two system-wide roles:
//!
//! 1. **Class Identifier authority** — "LegionClass is responsible for
//!    handing out unique Class Identifiers to each new class" (§3.2).
//! 2. **Class-location authority** — it maintains **responsibility pairs**
//!    ⟨X, Y⟩ meaning "X is responsible for locating Y". When class C
//!    derives D, LegionClass records ⟨C, D⟩; objects looking for D are
//!    pointed toward C (§4.1.3). For a *non-class* object the responsible
//!    class is derived locally by zeroing the Class Specific field — no
//!    LegionClass traffic at all.
//!
//! The authority counts every request it serves; experiment E4/E12 use
//! these counters to test the paper's claim that caching and combining
//! trees keep LegionClass off the critical path.

use crate::error::{CoreError, CoreResult};
use crate::loid::{ClassId, Loid};
use crate::wellknown::{FIRST_USER_CLASS_ID, LEGION_CLASS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Traffic counters kept by the authority (for the scalability
/// experiments; the paper's "distributed systems principle" is about
/// exactly these numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthorityStats {
    /// `IssueClassId` requests served.
    pub ids_issued: u64,
    /// `FindResponsible` requests served.
    pub find_requests: u64,
}

/// The LegionClass metaclass state: the Class Identifier counter and the
/// responsibility-pair map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LegionClassAuthority {
    next_class_id: u64,
    /// created-class → creating-class (the pair ⟨creator, created⟩ keyed
    /// by the created class for O(log n) lookup).
    responsible_for: BTreeMap<Loid, Loid>,
    stats: AuthorityStats,
}

impl Default for LegionClassAuthority {
    fn default() -> Self {
        Self::new()
    }
}

impl LegionClassAuthority {
    /// A fresh authority; user class ids start at
    /// [`FIRST_USER_CLASS_ID`], core ids are pre-reserved.
    pub fn new() -> Self {
        LegionClassAuthority {
            next_class_id: FIRST_USER_CLASS_ID,
            responsible_for: BTreeMap::new(),
            stats: AuthorityStats::default(),
        }
    }

    /// Issue the next unique Class Identifier and record that `creator` is
    /// responsible for locating the new class (§4.1.3: "When a new class
    /// object D is created, the creating class C contacts LegionClass for
    /// a new Class Identifier ... At this time, LegionClass can record
    /// that C is responsible for locating D").
    pub fn issue_class_id(&mut self, creator: Loid) -> CoreResult<(ClassId, Loid)> {
        if !creator.is_class() {
            return Err(CoreError::NotAClass(creator));
        }
        if self.next_class_id == u64::MAX {
            return Err(CoreError::ClassIdExhausted);
        }
        let id = ClassId(self.next_class_id);
        self.next_class_id += 1;
        let new_class = Loid::class_object(id.0);
        self.responsible_for.insert(new_class, creator);
        self.stats.ids_issued += 1;
        Ok((id, new_class))
    }

    /// Who is responsible for locating `target`?
    ///
    /// * non-class object → its class, derived locally (`class_loid`);
    /// * class object with a recorded pair → the creating class;
    /// * a core class (or LegionClass itself) → `LegionClass`, which "simply
    ///   hands out the appropriate binding which, as a class object, it is
    ///   responsible for maintaining".
    pub fn find_responsible(&mut self, target: &Loid) -> CoreResult<Loid> {
        self.stats.find_requests += 1;
        if !target.is_class() {
            return Ok(target.class_loid());
        }
        match self.responsible_for.get(target) {
            Some(creator) => Ok(*creator),
            None => {
                if crate::wellknown::is_core_class(target) {
                    Ok(LEGION_CLASS)
                } else {
                    Err(CoreError::UnknownLoid(*target))
                }
            }
        }
    }

    /// The full responsibility chain from `target` up to `LegionClass`:
    /// §4.1.3's "the binding process may need to be repeated in order to
    /// locate C, and again to locate C's superclass, and so on ... the
    /// process can end when the responsible class is LegionClass itself."
    pub fn responsibility_chain(&mut self, target: &Loid) -> CoreResult<Vec<Loid>> {
        let mut chain = Vec::new();
        let mut cur = *target;
        loop {
            let resp = self.find_responsible(&cur)?;
            chain.push(resp);
            if resp == LEGION_CLASS || resp == cur {
                break;
            }
            cur = resp;
        }
        Ok(chain)
    }

    /// Adopt an *externally created* class (bootstrap, §4.2.1): record
    /// that `responsible` locates it, and reserve its Class Identifier so
    /// future `IssueClassId` calls cannot collide with it.
    pub fn adopt(&mut self, created: Loid, responsible: Loid) -> CoreResult<()> {
        if !created.is_class() {
            return Err(CoreError::NotAClass(created));
        }
        if !responsible.is_class() {
            return Err(CoreError::NotAClass(responsible));
        }
        self.responsible_for.insert(created, responsible);
        if created.class_id.0 >= self.next_class_id {
            self.next_class_id = created.class_id.0 + 1;
        }
        Ok(())
    }

    /// Reassign responsibility for `target` to `new_owner` (used by class
    /// cloning, §5.2.2: "new instantiation and derivation requests are
    /// passed to the cloned object, making it responsible for the new
    /// objects").
    #[cfg(test)]
    pub(crate) fn reassign(&mut self, target: Loid, new_owner: Loid) -> CoreResult<()> {
        if !new_owner.is_class() {
            return Err(CoreError::NotAClass(new_owner));
        }
        match self.responsible_for.get_mut(&target) {
            Some(owner) => {
                *owner = new_owner;
                Ok(())
            }
            None => Err(CoreError::UnknownLoid(target)),
        }
    }

    /// Drop the pair for a deleted class.
    #[cfg(test)]
    pub(crate) fn forget(&mut self, target: &Loid) {
        self.responsible_for.remove(target);
    }

    /// Number of recorded responsibility pairs.
    #[cfg(test)]
    pub(crate) fn pair_count(&self) -> usize {
        self.responsible_for.len()
    }

    /// Traffic counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> AuthorityStats {
        self.stats
    }

    /// Reset traffic counters (between experiment phases).
    #[cfg(test)]
    pub(crate) fn reset_stats(&mut self) {
        self.stats = AuthorityStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellknown::{LEGION_HOST, LEGION_OBJECT};

    #[test]
    fn issues_unique_sequential_ids() {
        let mut a = LegionClassAuthority::new();
        let creator = LEGION_CLASS;
        let (id1, l1) = a.issue_class_id(creator).unwrap();
        let (id2, l2) = a.issue_class_id(creator).unwrap();
        assert_eq!(id1.0, FIRST_USER_CLASS_ID);
        assert_eq!(id2.0, FIRST_USER_CLASS_ID + 1);
        assert_ne!(l1, l2);
        assert!(l1.is_class() && l2.is_class());
        assert_eq!(a.stats().ids_issued, 2);
    }

    #[test]
    fn rejects_non_class_creator() {
        let mut a = LegionClassAuthority::new();
        assert!(matches!(
            a.issue_class_id(Loid::instance(16, 1)),
            Err(CoreError::NotAClass(_))
        ));
    }

    #[test]
    fn non_class_target_resolves_locally() {
        let mut a = LegionClassAuthority::new();
        let o = Loid::instance(77, 5);
        assert_eq!(a.find_responsible(&o).unwrap(), Loid::class_object(77));
        assert_eq!(a.stats().find_requests, 1);
    }

    #[test]
    fn class_target_resolves_via_pair() {
        let mut a = LegionClassAuthority::new();
        let (_, d) = a.issue_class_id(LEGION_HOST).unwrap();
        assert_eq!(a.find_responsible(&d).unwrap(), LEGION_HOST);
        assert_eq!(a.pair_count(), 1);
    }

    #[test]
    fn core_classes_resolve_to_legion_class() {
        let mut a = LegionClassAuthority::new();
        assert_eq!(a.find_responsible(&LEGION_HOST).unwrap(), LEGION_CLASS);
        assert_eq!(a.find_responsible(&LEGION_OBJECT).unwrap(), LEGION_CLASS);
        assert_eq!(a.find_responsible(&LEGION_CLASS).unwrap(), LEGION_CLASS);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let mut a = LegionClassAuthority::new();
        assert!(matches!(
            a.find_responsible(&Loid::class_object(9999)),
            Err(CoreError::UnknownLoid(_))
        ));
    }

    #[test]
    fn responsibility_chain_ends_at_legion_class() {
        let mut a = LegionClassAuthority::new();
        // LegionHost derives UnixHost derives MyHost.
        let (_, unix_host) = a.issue_class_id(LEGION_HOST).unwrap();
        let (_, my_host) = a.issue_class_id(unix_host).unwrap();
        let chain = a.responsibility_chain(&my_host).unwrap();
        assert_eq!(chain, vec![unix_host, LEGION_HOST, LEGION_CLASS]);
    }

    #[test]
    fn chain_for_instance_starts_at_its_class() {
        let mut a = LegionClassAuthority::new();
        let (_, c) = a.issue_class_id(LEGION_CLASS).unwrap();
        let o = Loid::instance(c.class_id.0, 3);
        let chain = a.responsibility_chain(&o).unwrap();
        assert_eq!(chain, vec![c, LEGION_CLASS]);
    }

    #[test]
    fn reassign_moves_responsibility() {
        let mut a = LegionClassAuthority::new();
        let (_, d) = a.issue_class_id(LEGION_CLASS).unwrap();
        let (_, clone) = a.issue_class_id(LEGION_CLASS).unwrap();
        a.reassign(d, clone).unwrap();
        assert_eq!(a.find_responsible(&d).unwrap(), clone);
        assert!(a.reassign(Loid::class_object(9999), clone).is_err());
        assert!(a.reassign(d, Loid::instance(16, 1)).is_err());
    }

    #[test]
    fn forget_removes_pair() {
        let mut a = LegionClassAuthority::new();
        let (_, d) = a.issue_class_id(LEGION_CLASS).unwrap();
        a.forget(&d);
        assert_eq!(a.pair_count(), 0);
        assert!(a.find_responsible(&d).is_err());
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut a = LegionClassAuthority::new();
        let _ = a.issue_class_id(LEGION_CLASS);
        let _ = a.find_responsible(&Loid::instance(1, 1));
        a.reset_stats();
        assert_eq!(a.stats(), AuthorityStats::default());
    }
}
