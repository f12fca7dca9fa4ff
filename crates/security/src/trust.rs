//! Trust sets (paper §2.1.3, §2.2, §3.7).
//!
//! "Suppose the Department of Energy (DOE) does not trust university
//! graduate students to write a Magistrate class that adequately protects
//! its objects. The DOE can write its own Magistrate, and insist via the
//! class mechanism that all objects that the DOE owns execute only on
//! Magistrates that it trusts. Further, it can ensure that their
//! Magistrates only use Host Objects that have been certified by the DOE
//! not to leak information."
//!
//! A [`TrustRegistry`] maps labels ("doe-certified", "nasa-approved") to
//! sets of LOIDs. The Candidate Magistrate List of §3.7 may name a label
//! (`CandidateMagistrates::TrustLabel`); the runtime resolves it here
//! before scheduling an object onto a Magistrate or Host.

use legion_core::loid::Loid;
use std::collections::{BTreeMap, BTreeSet};

/// A label → certified-LOIDs registry.
#[derive(Debug, Clone, Default)]
pub struct TrustRegistry {
    sets: BTreeMap<String, BTreeSet<Loid>>,
}

impl TrustRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TrustRegistry::default()
    }

    /// Certify `who` under `label`.
    pub fn certify(&mut self, label: impl Into<String>, who: Loid) -> &mut Self {
        self.sets.entry(label.into()).or_default().insert(who);
        self
    }

    /// Revoke `who`'s certification under `label`. Returns whether it was
    /// present.
    #[cfg(test)]
    pub(crate) fn revoke(&mut self, label: &str, who: &Loid) -> bool {
        self.sets.get_mut(label).is_some_and(|s| s.remove(who))
    }

    /// Is `who` certified under `label`?
    #[cfg(test)]
    pub(crate) fn is_certified(&self, label: &str, who: &Loid) -> bool {
        self.sets.get(label).is_some_and(|s| s.contains(who))
    }

    /// All LOIDs certified under `label`, in order.
    pub fn members(&self, label: &str) -> Vec<Loid> {
        self.sets
            .get(label)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All labels `who` is certified under.
    #[cfg(test)]
    pub(crate) fn labels_of(&self, who: &Loid) -> Vec<&str> {
        self.sets
            .iter()
            .filter(|(_, s)| s.contains(who))
            .map(|(l, _)| l.as_str())
            .collect()
    }

    /// Number of labels.
    #[cfg(test)]
    pub(crate) fn label_count(&self) -> usize {
        self.sets.len()
    }

    /// Filter `candidates` down to those certified under `label`.
    #[cfg(test)]
    pub(crate) fn filter_certified<'a>(
        &self,
        label: &str,
        candidates: impl IntoIterator<Item = &'a Loid>,
    ) -> Vec<Loid> {
        candidates
            .into_iter()
            .filter(|c| self.is_certified(label, c))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn magistrate(n: u64) -> Loid {
        Loid::instance(4, n)
    }

    #[test]
    fn certify_and_check() {
        let mut t = TrustRegistry::new();
        t.certify("doe", magistrate(1));
        t.certify("doe", magistrate(2));
        t.certify("nasa", magistrate(2));
        assert!(t.is_certified("doe", &magistrate(1)));
        assert!(t.is_certified("doe", &magistrate(2)));
        assert!(!t.is_certified("nasa", &magistrate(1)));
        assert!(!t.is_certified("unknown", &magistrate(1)));
        assert_eq!(t.label_count(), 2);
    }

    #[test]
    fn revoke_removes() {
        let mut t = TrustRegistry::new();
        t.certify("doe", magistrate(1));
        assert!(t.revoke("doe", &magistrate(1)));
        assert!(!t.revoke("doe", &magistrate(1)));
        assert!(!t.is_certified("doe", &magistrate(1)));
        assert!(!t.revoke("nope", &magistrate(1)));
    }

    #[test]
    fn members_and_labels() {
        let mut t = TrustRegistry::new();
        t.certify("doe", magistrate(2));
        t.certify("doe", magistrate(1));
        t.certify("nasa", magistrate(1));
        assert_eq!(t.members("doe"), vec![magistrate(1), magistrate(2)]);
        assert_eq!(t.members("none"), Vec::<Loid>::new());
        assert_eq!(t.labels_of(&magistrate(1)), vec!["doe", "nasa"]);
        assert_eq!(t.labels_of(&magistrate(9)), Vec::<&str>::new());
    }

    #[test]
    fn filter_candidates_doe_story() {
        // The DOE example: of three candidate magistrates, only the
        // DOE-certified ones may hold DOE objects.
        let grad = magistrate(1);
        let doe1 = magistrate(2);
        let doe2 = magistrate(3);
        let mut t = TrustRegistry::new();
        t.certify("doe", doe1);
        t.certify("doe", doe2);
        let candidates = [grad, doe1, doe2];
        assert_eq!(t.filter_certified("doe", &candidates), vec![doe1, doe2]);
    }
}
