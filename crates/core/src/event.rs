//! The kernel's one event vocabulary.
//!
//! Every event the simulation kernel can report — an ingress it
//! journals, a verdict it keeps in the flight ring, a hop it records as
//! a span — is one [`KernelEventKind`]. The three sinks differ only in
//! which kinds they see, and that is one table ([`Route`] per kind), not
//! three enums with three label tables. The kind lives here, beside
//! [`crate::trace`], because the journal, the flight recorder and the
//! span schema all sit above the model layer and share it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// When a kind enters the span stream. Spans are only ever recorded
/// while the trace sink is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanRoute {
    /// Never a span.
    Never,
    /// Only inside an active trace.
    Traced,
    /// Even for untraced messages: fault fallout must be visible in
    /// the span stream without having traced the whole flow.
    Always,
}

/// Which sinks one kind reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Written to the kernel journal (the kind has a wire tag).
    pub journal: bool,
    /// Kept in the always-on flight ring.
    pub flight: bool,
    /// Recorded as a span event.
    pub span: SpanRoute,
}

/// Declares [`KernelEventKind`], its labels and its routes from one
/// table, one row per kind.
macro_rules! kernel_event_kinds {
    ($($(#[doc = $doc:literal])* $kind:ident $label:literal $journal:literal $flight:literal $span:ident,)*) => {
        /// What happened in the kernel. Serde renders the variant name
        /// (`"DeadLetter"`, the trace JSONL shape);
        /// [`KernelEventKind::label`] is the snake_case name dumps and
        /// reports use.
        ///
        /// The first seventeen variants are journaled, and the journal's
        /// wire tags (`legion_journal::record`) are frozen to them;
        /// append new kinds at the end.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub enum KernelEventKind {
            $($(#[doc = $doc])* $kind,)*
        }

        impl KernelEventKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [KernelEventKind] = &[$(KernelEventKind::$kind),*];

            /// Stable snake_case label used in dumps, JSON and journal text.
            pub fn label(self) -> &'static str {
                match self {
                    $(KernelEventKind::$kind => $label,)*
                }
            }

            /// The sinks this kind reaches.
            #[inline]
            pub const fn route(self) -> Route {
                match self {
                    $(KernelEventKind::$kind => Route {
                        journal: $journal,
                        flight: $flight,
                        span: SpanRoute::$span,
                    },)*
                }
            }
        }
    };
}

kernel_event_kinds! {
    // kind      label          journal flight span
    /// An endpoint attached to the kernel.
    Attach      "attach"        true   false  Never,
    /// An endpoint detached (or was killed).
    Detach      "detach"        true   false  Never,
    /// An endpoint's `on_start` ran.
    Start       "start"         true   false  Never,
    /// A message hop arrived at a live endpoint.
    Deliver     "deliver"       true   true   Traced,
    /// A timer fired at an endpoint.
    Timer       "timer"         true   false  Traced,
    /// A message was injected from outside the simulation.
    Inject      "inject"        true   false  Never,
    /// The fault plan silently dropped a message.
    Drop        "drop"          true   true   Always,
    /// The fault plan duplicated a message (a second copy was queued).
    Duplicate   "duplicate"     true   true   Always,
    /// The fault plan delayed a message (spike multiplier / jitter).
    Delay       "delay"         true   true   Always,
    /// The receiver's at-most-once window suppressed a duplicate.
    Dedup       "dedup"         true   true   Always,
    /// A delivery found its endpoint dead on arrival.
    DeadLetter  "dead_letter"   true   true   Always,
    /// A send was refused detectably (dead/unknown endpoint, §4.1.4).
    Refuse      "refuse"        true   true   Always,
    /// A dispatch deadline sweep expired a pending continuation.
    Timeout     "timeout"       true   true   Never,
    /// A high-availability verdict (suspect, host-dead, recovery, …).
    HaVerdict   "ha_verdict"    true   true   Never,
    /// A journal snapshot mark.
    Snapshot    "snapshot"      true   false  Never,
    /// A free-form annotation: a flight note, or a protocol-level span
    /// note such as a cache hit.
    Note        "note"          true   true   Traced,
    /// Admission control shed a call at an overloaded endpoint.
    Shed        "shed"          true   true   Never,
    /// A root span opened (one per workload-level request).
    Begin       "begin"         false  false  Traced,
    /// A request finished (successfully or not — see the span label).
    End         "end"           false  false  Traced,
    /// A message hop left its sender.
    Send        "send"          false  false  Traced,
}

impl fmt::Display for KernelEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use KernelEventKind::*;

    #[test]
    fn labels_are_distinct_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for k in KernelEventKind::ALL {
            let l = k.label();
            assert!(seen.insert(l), "duplicate label {l}");
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert_eq!(k.to_string(), l);
        }
        assert_eq!(KernelEventKind::ALL.len(), 20);
    }

    #[test]
    fn routing_matches_the_three_sinks() {
        let kinds = |keep: fn(Route) -> bool| -> Vec<KernelEventKind> {
            let all = KernelEventKind::ALL.iter().copied();
            all.filter(|k| keep(k.route())).collect()
        };
        assert_eq!(
            kinds(|r| r.flight),
            [
                Deliver, Drop, Duplicate, Delay, Dedup, DeadLetter, Refuse, Timeout, HaVerdict,
                Note, Shed
            ]
        );
        assert_eq!(kinds(|r| !r.journal), [Begin, End, Send]);
        assert_eq!(
            kinds(|r| r.span == SpanRoute::Always),
            [Drop, Duplicate, Delay, Dedup, DeadLetter, Refuse]
        );
        assert_eq!(
            kinds(|r| r.span == SpanRoute::Traced),
            [Deliver, Timer, Note, Begin, End, Send]
        );
    }
}
