//! Scheduling Agents and placement policies (paper §3.7, §3.8).
//!
//! "Scheduling is intentionally left out of the core object model, except
//! for a few 'hooks' ... Magistrates will have some default scheduling
//! behavior, but complex scheduling policies are intended to be
//! implemented outside of the Magistrate in Scheduling Agents."
//!
//! A [`SchedulingPolicy`] picks a host for an activation given the
//! candidate hosts and their current loads. The Magistrate's default is
//! [`LeastLoaded`]; richer policies (or full Scheduling Agent objects) can
//! be plugged in per class via the logical table's Scheduling Agent field.

use legion_core::loid::Loid;

/// A candidate host as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostView {
    /// The Host Object's LOID.
    pub loid: Loid,
    /// Objects currently assigned.
    pub load: u32,
    /// Maximum objects the host will accept.
    pub capacity: u32,
}

impl HostView {
    /// Remaining slots.
    pub fn free(&self) -> u32 {
        self.capacity.saturating_sub(self.load)
    }
}

/// Picks a host for an activation. Returns `None` when no candidate can
/// accept the object.
pub trait SchedulingPolicy: Send {
    /// Choose among `hosts` (already filtered to the jurisdiction and any
    /// trust constraints). `salt` is a deterministic per-decision seed.
    fn pick(&mut self, hosts: &[HostView], salt: u64) -> Option<Loid>;
    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Deterministic pseudo-random pick among hosts with free capacity.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct RandomPick;

#[cfg(test)]
impl SchedulingPolicy for RandomPick {
    fn pick(&mut self, hosts: &[HostView], salt: u64) -> Option<Loid> {
        let open: Vec<&HostView> = hosts.iter().filter(|h| h.free() > 0).collect();
        if open.is_empty() {
            return None;
        }
        // SplitMix64 on the salt: deterministic for replay, well spread.
        let mut z = salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Some(open[(z % open.len() as u64) as usize].loid)
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// Strict rotation over hosts with free capacity.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundRobin {
    next: usize,
}

#[cfg(test)]
impl SchedulingPolicy for RoundRobin {
    fn pick(&mut self, hosts: &[HostView], _salt: u64) -> Option<Loid> {
        if hosts.is_empty() {
            return None;
        }
        for step in 0..hosts.len() {
            let idx = (self.next + step) % hosts.len();
            if hosts[idx].free() > 0 {
                self.next = (idx + 1) % hosts.len();
                return Some(hosts[idx].loid);
            }
        }
        None
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// The Magistrate default: the host with the most free slots (ties break
/// to the lowest LOID for determinism).
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl SchedulingPolicy for LeastLoaded {
    fn pick(&mut self, hosts: &[HostView], _salt: u64) -> Option<Loid> {
        hosts
            .iter()
            .filter(|h| h.free() > 0)
            .max_by(|a, b| a.free().cmp(&b.free()).then(b.loid.cmp(&a.loid)))
            .map(|h| h.loid)
    }
    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Always prefer one pinned host, falling back to least-loaded.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Affinity {
    /// The preferred host.
    pub preferred: Loid,
    fallback: LeastLoaded,
}

#[cfg(test)]
impl Affinity {
    /// Prefer `host`.
    pub(crate) fn new(host: Loid) -> Self {
        Affinity {
            preferred: host,
            fallback: LeastLoaded,
        }
    }
}

#[cfg(test)]
impl SchedulingPolicy for Affinity {
    fn pick(&mut self, hosts: &[HostView], salt: u64) -> Option<Loid> {
        if let Some(h) = hosts.iter().find(|h| h.loid == self.preferred) {
            if h.free() > 0 {
                return Some(h.loid);
            }
        }
        self.fallback.pick(hosts, salt)
    }
    fn name(&self) -> &'static str {
        "affinity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(n: u64, load: u32, capacity: u32) -> HostView {
        HostView {
            loid: Loid::instance(3, n),
            load,
            capacity,
        }
    }

    #[test]
    fn least_loaded_picks_most_free() {
        let mut p = LeastLoaded;
        let hosts = [host(1, 5, 10), host(2, 1, 10), host(3, 9, 10)];
        assert_eq!(p.pick(&hosts, 0), Some(Loid::instance(3, 2)));
    }

    #[test]
    fn least_loaded_breaks_ties_deterministically() {
        let mut p = LeastLoaded;
        let hosts = [host(2, 0, 10), host(1, 0, 10)];
        assert_eq!(p.pick(&hosts, 0), Some(Loid::instance(3, 1)));
        assert_eq!(p.pick(&hosts, 99), Some(Loid::instance(3, 1)));
    }

    #[test]
    fn full_hosts_are_skipped() {
        let mut p = LeastLoaded;
        let hosts = [host(1, 10, 10), host(2, 10, 10)];
        assert_eq!(p.pick(&hosts, 0), None);
        let mut r = RoundRobin::default();
        assert_eq!(r.pick(&hosts, 0), None);
        let mut rnd = RandomPick;
        assert_eq!(rnd.pick(&hosts, 0), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = RoundRobin::default();
        let hosts = [host(1, 0, 10), host(2, 0, 10), host(3, 0, 10)];
        let picks: Vec<_> = (0..6).map(|_| p.pick(&hosts, 0).unwrap()).collect();
        assert_eq!(
            picks,
            vec![
                Loid::instance(3, 1),
                Loid::instance(3, 2),
                Loid::instance(3, 3),
                Loid::instance(3, 1),
                Loid::instance(3, 2),
                Loid::instance(3, 3),
            ]
        );
    }

    #[test]
    fn round_robin_skips_full() {
        let mut p = RoundRobin::default();
        let hosts = [host(1, 10, 10), host(2, 0, 10)];
        assert_eq!(p.pick(&hosts, 0), Some(Loid::instance(3, 2)));
        assert_eq!(p.pick(&hosts, 0), Some(Loid::instance(3, 2)));
    }

    #[test]
    fn random_is_deterministic_per_salt_and_spreads() {
        let mut p = RandomPick;
        let hosts = [host(1, 0, 10), host(2, 0, 10), host(3, 0, 10)];
        let a = p.pick(&hosts, 42);
        let b = p.pick(&hosts, 42);
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for salt in 0..100 {
            seen.insert(p.pick(&hosts, salt).unwrap());
        }
        assert_eq!(seen.len(), 3, "all hosts get picked across salts");
    }

    #[test]
    fn affinity_prefers_then_falls_back() {
        let pinned = Loid::instance(3, 2);
        let mut p = Affinity::new(pinned);
        let hosts = [host(1, 0, 10), host(2, 3, 10)];
        assert_eq!(p.pick(&hosts, 0), Some(pinned));
        let full = [host(1, 0, 10), host(2, 10, 10)];
        assert_eq!(p.pick(&full, 0), Some(Loid::instance(3, 1)));
    }

    #[test]
    fn empty_host_list() {
        assert_eq!(LeastLoaded.pick(&[], 0), None);
        assert_eq!(RoundRobin::default().pick(&[], 0), None);
        assert_eq!(RandomPick.pick(&[], 0), None);
        assert_eq!(Affinity::new(Loid::instance(3, 1)).pick(&[], 0), None);
    }
}
