//! The kernel's single emission funnel.
//!
//! Every event the kernel reports goes through [`Inner::observe`], the
//! only caller of `journal.note`, `flight.record` and `sink.record`
//! (`tools/lint_hotpath.sh` holds it single). An event reaches the sinks
//! its kind's [`legion_core::event::Route`] selects *and* its call site
//! carries a payload for: a fact for the journal and the flight ring, a
//! span for the span stream.

use super::{kind_sym, Inner};
use crate::message::Message;
use legion_core::event::{KernelEventKind, SpanRoute};
use legion_core::symbol::Sym;
use legion_core::trace::{SpanId, TraceContext};
use legion_obs::recorder::FlightEvent;
use legion_obs::span::SpanEvent;
use std::fmt;

/// A journal/flight label: a pre-interned symbol (method, counter or
/// verdict name) or a plain string (endpoint names, empty labels). The
/// journal stores labels as strings, never `Sym` ids — intern order is
/// process-local — so a symbol is resolved only while a journal is on.
/// Flight-routed kinds always carry a symbol.
#[derive(Clone, Copy)]
pub(crate) enum Label<'a> {
    Sym(Sym),
    Str(&'a str),
}

impl From<Sym> for Label<'_> {
    fn from(s: Sym) -> Self {
        Label::Sym(s)
    }
}

impl<'a> From<&'a str> for Label<'a> {
    fn from(s: &'a str) -> Self {
        Label::Str(s)
    }
}

/// One kernel event on its way to the sinks: the journal/flight fact
/// `(a, b, label)` and the span `(context, parent, label)`, each absent
/// when the call site has nothing for that sink. The span label is
/// formatted only if the span is recorded, so untraced runs build no
/// strings.
pub(crate) struct Observation<'a> {
    kind: KernelEventKind,
    endpoint: u64,
    fact: Option<(u64, u64, Label<'a>)>,
    span: Option<(TraceContext, SpanId, fmt::Arguments<'a>)>,
}

impl<'a> Observation<'a> {
    /// An event for the journal and, if routed there, the flight ring.
    pub(crate) fn fact(
        kind: KernelEventKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: impl Into<Label<'a>>,
    ) -> Self {
        Observation {
            kind,
            endpoint,
            fact: Some((a, b, label.into())),
            span: None,
        }
    }

    /// A verdict about `msg`: `a` is its call id, the label its kind.
    pub(crate) fn message(kind: KernelEventKind, endpoint: u64, msg: &Message, b: u64) -> Self {
        Self::fact(kind, endpoint, msg.id.0, b, Label::Sym(kind_sym(msg)))
    }

    /// An event for the span stream only.
    pub(crate) fn span(
        kind: KernelEventKind,
        endpoint: u64,
        trace: TraceContext,
        parent: SpanId,
        label: fmt::Arguments<'a>,
    ) -> Self {
        Observation {
            kind,
            endpoint,
            fact: None,
            span: Some((trace, parent, label)),
        }
    }

    /// Also record the event as a span under `trace`.
    pub(crate) fn traced(mut self, trace: TraceContext, label: fmt::Arguments<'a>) -> Self {
        self.span = Some((trace, SpanId::NONE, label));
        self
    }
}

impl Inner {
    /// Emit one kernel event at the current virtual time to the journal
    /// (while a session is live), the flight ring (stamped with the
    /// journal seq, 0 when off; `detail` is the journal's `b`, the extra
    /// ns, for delays and duplicates and `a` otherwise) and the span
    /// stream (while the sink is on, per the kind's [`SpanRoute`]).
    #[inline]
    pub(crate) fn observe(&mut self, ev: Observation<'_>) {
        let route = ev.kind.route();
        if let Some((a, b, label)) = ev.fact {
            let mut seq = 0;
            if route.journal && self.journal.is_on() {
                let text = match label {
                    Label::Sym(s) => s.as_str(),
                    Label::Str(s) => s,
                };
                let at = self.now.as_nanos();
                seq = self.journal.note(at, ev.kind, ev.endpoint, a, b, text);
            }
            if let (true, Label::Sym(label)) = (route.flight, label) {
                let detail = match ev.kind {
                    KernelEventKind::Delay | KernelEventKind::Duplicate => b,
                    _ => a,
                };
                self.flight.record(FlightEvent {
                    at: self.now,
                    kind: ev.kind,
                    endpoint: ev.endpoint,
                    label,
                    detail,
                    seq,
                });
            }
        }
        if let Some((trace, parent, label)) = ev.span {
            let wanted = match route.span {
                SpanRoute::Never => false,
                SpanRoute::Traced => trace.is_active(),
                SpanRoute::Always => true,
            };
            if wanted && self.sink.is_enabled() {
                self.sink.record(SpanEvent {
                    trace: trace.trace,
                    span: trace.span,
                    parent,
                    kind: ev.kind,
                    at: self.now,
                    endpoint: ev.endpoint,
                    label: label.to_string(),
                });
            }
        }
    }
}
