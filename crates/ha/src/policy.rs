//! Pluggable suspicion policies.
//!
//! A [`SuspicionPolicy`] turns "how long has this host been silent"
//! into a health verdict. It is deliberately shaped like
//! `SchedulingPolicy` in `legion-runtime`: a small trait object the
//! Magistrate owns, swappable per experiment, and consulted only at
//! sweep time so the choice of policy cannot perturb event ordering.

/// Classified health of a monitored host.
///
/// Ordered: `Alive < Suspect < Dead`, so "worse" compares greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Heartbeats arriving on schedule.
    Alive,
    /// Silent long enough to be suspicious, not long enough to act on.
    Suspect,
    /// Confirmed dead: the recovery driver may act.
    Dead,
}

/// A pluggable rule classifying heartbeat silence.
///
/// `silence_ns` is virtual time since the last heartbeat (or since
/// registration); `interval_ns` is the heartbeat period the hosts were
/// configured with. Implementations must be pure functions of their
/// arguments — determinism of the whole recovery flow depends on it.
pub trait SuspicionPolicy: Send {
    /// Classify a host that has been silent for `silence_ns`.
    fn classify(&self, silence_ns: u64, interval_ns: u64) -> Health;
    /// Stable name for tables and traces.
    fn name(&self) -> &'static str;
}

/// Declare Suspect/Dead after a number of *missed heartbeats* — the
/// classic φ-less accrual approximation: thresholds scale with the
/// heartbeat period, so retuning the period retunes the detector.
#[derive(Debug, Clone, Copy)]
pub struct MissThreshold {
    /// Consecutive missed intervals before Suspect.
    pub suspect_after: u32,
    /// Consecutive missed intervals before Dead. Must be ≥ `suspect_after`.
    pub dead_after: u32,
}

impl Default for MissThreshold {
    fn default() -> Self {
        MissThreshold {
            suspect_after: 2,
            dead_after: 4,
        }
    }
}

impl SuspicionPolicy for MissThreshold {
    fn classify(&self, silence_ns: u64, interval_ns: u64) -> Health {
        if interval_ns == 0 {
            return Health::Alive;
        }
        let misses = silence_ns / interval_ns;
        if misses >= u64::from(self.dead_after) {
            Health::Dead
        } else if misses >= u64::from(self.suspect_after) {
            Health::Suspect
        } else {
            Health::Alive
        }
    }

    fn name(&self) -> &'static str {
        "miss-threshold"
    }
}

/// Declare Suspect/Dead after fixed absolute silences, ignoring the
/// heartbeat period. Useful when the deployment wants a hard SLA on
/// detection latency regardless of heartbeat tuning.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedTimeout {
    /// Silence before Suspect (virtual ns).
    pub suspect_ns: u64,
    /// Silence before Dead (virtual ns). Must be ≥ `suspect_ns`.
    pub dead_ns: u64,
}

#[cfg(test)]
impl SuspicionPolicy for FixedTimeout {
    fn classify(&self, silence_ns: u64, _interval_ns: u64) -> Health {
        if silence_ns >= self.dead_ns {
            Health::Dead
        } else if silence_ns >= self.suspect_ns {
            Health::Suspect
        } else {
            Health::Alive
        }
    }

    fn name(&self) -> &'static str {
        "fixed-timeout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_orders_by_severity() {
        assert!(Health::Alive < Health::Suspect);
        assert!(Health::Suspect < Health::Dead);
    }

    #[test]
    fn miss_threshold_classifies_by_intervals() {
        let p = MissThreshold::default(); // suspect 2, dead 4
        let iv = 1_000_000;
        assert_eq!(p.classify(0, iv), Health::Alive);
        assert_eq!(p.classify(iv * 2 - 1, iv), Health::Alive);
        assert_eq!(p.classify(iv * 2, iv), Health::Suspect);
        assert_eq!(p.classify(iv * 4 - 1, iv), Health::Suspect);
        assert_eq!(p.classify(iv * 4, iv), Health::Dead);
    }

    #[test]
    fn miss_threshold_zero_interval_never_suspects() {
        let p = MissThreshold::default();
        assert_eq!(p.classify(u64::MAX, 0), Health::Alive);
    }

    #[test]
    fn fixed_timeout_ignores_interval() {
        let p = FixedTimeout {
            suspect_ns: 10,
            dead_ns: 20,
        };
        assert_eq!(p.classify(9, 1), Health::Alive);
        assert_eq!(p.classify(10, 1_000_000), Health::Suspect);
        assert_eq!(p.classify(20, u64::MAX), Health::Dead);
    }
}
