//! Time-travel replay: re-execute a run and verify it against a
//! reference journal, record by record.
//!
//! The kernel's state includes arbitrary user endpoints (`Box<dyn
//! Endpoint>`), which cannot be serialized and restored — so "replay"
//! here is **verified deterministic re-execution**: the same seed and
//! workload re-run from the origin, with every kernel ingress compared
//! byte-for-byte against the reference journal. Snapshots make this
//! cheap to *check* from the middle: starting [`ReplayStart::LatestSnapshot`]
//! (or [`ReplayStart::SnapshotAtOrBefore`]), the already-snapshotted
//! prefix is skipped with only a sequence-alignment check, the snapshot
//! mark's content-addressed state root is compared — proving the
//! re-executed state is byte-identical to the recorded one at that point
//! — and full byte verification covers only the tail.
//!
//! A mismatch produces a [`Divergence`] naming the exact journal seq,
//! what the journal expected, what the run produced, and a
//! flight-recorder-style context window around the divergent record.

use crate::journal::{index, render_context, JournalHeader, JournalWriter, RecordSlice};
use crate::record::{decode_body, decode_seq, encode_body, JournalError};
use crate::sink::JournalSink;
use crate::snapshot::{state_root, SnapshotStore};
use legion_core::event::KernelEventKind;

/// Where verification starts within the reference journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStart {
    /// Verify every record from the beginning.
    Origin,
    /// Skip to the last snapshot mark; verify its state root and the
    /// records after it.
    LatestSnapshot,
    /// Skip to the last snapshot at or before virtual time `t` ns.
    SnapshotAtOrBefore(u64),
}

/// The first difference between a run and its reference journal.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Journal seq of the first differing record.
    pub seq: u64,
    /// What the journal recorded, rendered.
    pub expected: String,
    /// What the re-execution produced, rendered.
    pub got: String,
    /// A rendered window of journal records around the divergence.
    pub context: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "replay diverged at journal seq {}", self.seq)?;
        writeln!(f, "  expected: {}", self.expected)?;
        writeln!(f, "  got:      {}", self.got)?;
        writeln!(f, "  journal context:")?;
        for line in self.context.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// What a finished journal session reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Records written (record mode) or present in the reference
    /// (verify mode).
    pub records: u64,
    /// Snapshot marks among them.
    pub snapshots: u64,
    /// Journal size in bytes.
    pub bytes: u64,
    /// Records byte-verified against the reference (verify mode).
    pub verified: u64,
    /// Records skipped via the snapshot fast path (verify mode).
    pub skipped: u64,
}

/// Radius of the rendered context window around a divergence.
const CONTEXT_RADIUS: usize = 8;

/// Verifies a re-execution against a reference journal.
pub struct Verifier {
    data: Vec<u8>,
    header: JournalHeader,
    slices: Vec<RecordSlice>,
    /// Next reference record to consume.
    pos: usize,
    /// First record index that gets full byte verification.
    verify_from: usize,
    scratch: Vec<u8>,
    verified: u64,
    skipped: u64,
    snapshots_seen: u64,
    divergence: Option<Divergence>,
}

impl Verifier {
    /// Index `data` and resolve `start` to a record position.
    pub fn new(data: Vec<u8>, start: ReplayStart) -> Result<Self, JournalError> {
        let (header, slices) = index(&data)?;
        let snapshot_at = |cutoff: Option<u64>| -> Result<usize, JournalError> {
            for (i, s) in slices.iter().enumerate().rev() {
                let rec = decode_body(s.body(&data), s.offset)?;
                if rec.kind == KernelEventKind::Snapshot && cutoff.is_none_or(|t| rec.at <= t) {
                    return Ok(i);
                }
            }
            Ok(0)
        };
        let verify_from = match start {
            ReplayStart::Origin => 0,
            ReplayStart::LatestSnapshot => snapshot_at(None)?,
            ReplayStart::SnapshotAtOrBefore(t) => snapshot_at(Some(t))?,
        };
        Ok(Verifier {
            data,
            header,
            slices,
            pos: 0,
            verify_from,
            scratch: Vec::with_capacity(64),
            verified: 0,
            skipped: 0,
            snapshots_seen: 0,
            divergence: None,
        })
    }

    /// The snapshot cadence the recording run used.
    pub fn snap_every(&self) -> u64 {
        self.header.snap_every
    }

    /// The first divergence found, if any.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    fn diverge(&mut self, idx: usize, expected: String, got: String) {
        if self.divergence.is_some() {
            return;
        }
        let center = idx.min(self.slices.len().saturating_sub(1));
        let context = render_context(&self.data, &self.slices, center, CONTEXT_RADIUS);
        self.divergence = Some(Divergence {
            seq: idx as u64,
            expected,
            got,
            context,
        });
    }

    fn rendered(&self, idx: usize) -> String {
        self.slices
            .get(idx)
            .and_then(|s| decode_body(s.body(&self.data), s.offset).ok())
            .map(|r| r.to_string())
            .unwrap_or_else(|| "<end of journal>".to_string())
    }

    /// Consume the next reference record, comparing it with the event the
    /// re-execution just produced. Returns the record's seq.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        at: u64,
        kind: KernelEventKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &str,
    ) -> u64 {
        let idx = self.pos;
        self.pos += 1;
        let seq = idx as u64;
        if self.divergence.is_some() {
            return seq;
        }
        let Some(slice) = self.slices.get(idx).copied() else {
            let got = render_event(seq, at, kind, endpoint, a, b, label);
            self.diverge(
                idx,
                "<end of journal: run produced more events than recorded>".to_string(),
                got,
            );
            return seq;
        };
        let body = slice.body(&self.data);
        if idx < self.verify_from {
            // Snapshot fast path: alignment check only.
            self.skipped += 1;
            if decode_seq(body) != Some(seq) {
                let got = render_event(seq, at, kind, endpoint, a, b, label);
                self.diverge(idx, self.rendered(idx), got);
            }
            return seq;
        }
        encode_body(&mut self.scratch, seq, at, kind, endpoint, a, b, label);
        if self.scratch != body {
            let got = render_event(seq, at, kind, endpoint, a, b, label);
            self.diverge(idx, self.rendered(idx), got);
            return seq;
        }
        self.verified += 1;
        seq
    }

    /// Consume a snapshot mark. Roots are compared even inside the
    /// skipped prefix — a root match proves the re-executed state is
    /// byte-identical to the recorded state at this point.
    pub fn check_snapshot(&mut self, at: u64, sections: u64, ordinal: u64, root_hex: &str) -> u64 {
        let idx = self.pos;
        self.snapshots_seen += 1;
        if self.divergence.is_some() {
            self.pos += 1;
            return idx as u64;
        }
        let in_skip = idx < self.verify_from;
        let kind = KernelEventKind::Snapshot;
        let seq = self.check(at, kind, 0, sections, ordinal, root_hex);
        if in_skip && self.divergence.is_none() {
            // `check` only compared seq alignment; compare the root too.
            if let Some(slice) = self.slices.get(idx) {
                if let Ok(rec) = decode_body(slice.body(&self.data), slice.offset) {
                    if rec.kind != kind || rec.label != root_hex {
                        let got = render_event(seq, at, kind, 0, sections, ordinal, root_hex);
                        self.diverge(idx, self.rendered(idx), got);
                    }
                }
            }
        }
        seq
    }

    /// Quiescence check: the whole reference journal must have been
    /// consumed. Returns the summary (and sets a divergence if the run
    /// stopped short).
    pub fn finish(&mut self) -> JournalSummary {
        if self.pos < self.slices.len() && self.divergence.is_none() {
            let expected = self.rendered(self.pos);
            self.diverge(
                self.pos,
                expected,
                format!(
                    "<run quiesced after {} events; journal has {}>",
                    self.pos,
                    self.slices.len()
                ),
            );
        }
        JournalSummary {
            records: self.slices.len() as u64,
            snapshots: self.snapshots_seen,
            bytes: self.data.len() as u64,
            verified: self.verified,
            skipped: self.skipped,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn render_event(
    seq: u64,
    at: u64,
    kind: KernelEventKind,
    endpoint: u64,
    a: u64,
    b: u64,
    label: &str,
) -> String {
    format!(
        "seq {:>6} [{:>12}ns] {:<11} ep{:<4} {} ({},{})",
        seq,
        at,
        kind.label(),
        endpoint,
        label,
        a,
        b
    )
}

/// The kernel-facing journal facade: off, recording, or verifying.
///
/// `Off` keeps the hot path at one enum-tag check and zero allocations;
/// the kernel calls [`KernelJournal::note`] unconditionally.
#[derive(Default)]
pub enum KernelJournal {
    /// Journaling disabled (the default).
    #[default]
    Off,
    /// Recording: append every event, snapshot on cadence.
    Record {
        /// The append-only writer.
        writer: JournalWriter,
        /// Events between snapshot marks (0 = never).
        snap_every: u64,
        /// Content-addressed snapshots taken so far.
        snapshots: SnapshotStore,
        /// Event count at the last snapshot (dedups the due-check).
        last_snap_events: u64,
    },
    /// Verifying a re-execution against a reference journal.
    Verify {
        /// The reference-journal verifier.
        verifier: Verifier,
        /// Event count at the last snapshot mark.
        last_snap_events: u64,
    },
}

impl KernelJournal {
    /// Start recording to `sink`, snapshotting every `snap_every` events
    /// (0 = never).
    pub fn record(sink: Box<dyn JournalSink>, snap_every: u64) -> Self {
        KernelJournal::Record {
            writer: JournalWriter::new(sink, snap_every),
            snap_every,
            snapshots: SnapshotStore::new(),
            last_snap_events: 0,
        }
    }

    /// Start verifying against reference journal bytes. The snapshot
    /// cadence is read from the journal header, so the verifying run
    /// snapshots at exactly the recorded points.
    pub fn verify(data: Vec<u8>, start: ReplayStart) -> Result<Self, JournalError> {
        Ok(KernelJournal::Verify {
            verifier: Verifier::new(data, start)?,
            last_snap_events: 0,
        })
    }

    /// Is the journal on (recording or verifying)?
    #[inline]
    pub fn is_on(&self) -> bool {
        !matches!(self, KernelJournal::Off)
    }

    /// Journal one event; returns its seq (0 when off).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn note(
        &mut self,
        at: u64,
        kind: KernelEventKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &str,
    ) -> u64 {
        match self {
            KernelJournal::Off => 0,
            KernelJournal::Record { writer, .. } => writer.append(at, kind, endpoint, a, b, label),
            KernelJournal::Verify { verifier, .. } => {
                verifier.check(at, kind, endpoint, a, b, label)
            }
        }
    }

    /// Events between snapshot marks: the recording cadence, or the
    /// reference journal's when verifying (0 = never, or off).
    pub fn snap_every(&self) -> u64 {
        match self {
            KernelJournal::Off => 0,
            KernelJournal::Record { snap_every, .. } => *snap_every,
            KernelJournal::Verify { verifier, .. } => verifier.snap_every(),
        }
    }

    /// Should a snapshot be taken now, given the kernel has processed
    /// `events` events?
    #[inline]
    pub fn snapshot_due(&self, events: u64) -> bool {
        let last = match self {
            KernelJournal::Off => return false,
            KernelJournal::Record {
                last_snap_events, ..
            }
            | KernelJournal::Verify {
                last_snap_events, ..
            } => *last_snap_events,
        };
        let snap_every = self.snap_every();
        snap_every != 0 && events > 0 && events.is_multiple_of(snap_every) && events != last
    }

    /// Take (record mode) or verify (verify mode) a snapshot of
    /// `sections` at virtual time `at`, after `events` kernel events.
    pub fn on_snapshot(&mut self, at: u64, events: u64, sections: &[(String, Vec<u8>)]) {
        match self {
            KernelJournal::Off => {}
            KernelJournal::Record {
                writer,
                snapshots,
                last_snap_events,
                ..
            } => {
                *last_snap_events = events;
                let seq = writer.next_seq();
                let meta = snapshots.take(at, seq, sections);
                let root_hex = meta.root.to_hex();
                let (count, ordinal) = (meta.sections.len() as u64, meta.ordinal);
                writer.append(at, KernelEventKind::Snapshot, 0, count, ordinal, &root_hex);
            }
            KernelJournal::Verify {
                verifier,
                last_snap_events,
            } => {
                *last_snap_events = events;
                let ordinal = verifier.snapshots_seen;
                let root_hex = state_root(sections).to_hex();
                verifier.check_snapshot(at, sections.len() as u64, ordinal, &root_hex);
            }
        }
    }

    /// The first divergence, if verifying and one was found.
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            KernelJournal::Verify { verifier, .. } => verifier.divergence(),
            _ => None,
        }
    }

    /// Seq the next record will get (how many events journaled so far).
    pub fn next_seq(&self) -> u64 {
        match self {
            KernelJournal::Off => 0,
            KernelJournal::Record { writer, .. } => writer.next_seq(),
            KernelJournal::Verify { verifier, .. } => verifier.pos as u64,
        }
    }

    /// `(ordinal, journal seq)` of the most recent snapshot mark, for
    /// post-mortem dumps.
    pub fn last_snapshot(&self) -> Option<(u64, u64)> {
        match self {
            KernelJournal::Off => None,
            KernelJournal::Record { snapshots, .. } => {
                snapshots.latest().map(|s| (s.ordinal, s.seq))
            }
            KernelJournal::Verify { verifier, .. } => {
                if verifier.snapshots_seen == 0 {
                    None
                } else {
                    Some((verifier.snapshots_seen - 1, 0))
                }
            }
        }
    }

    /// Access the snapshots of a recording session.
    pub fn snapshots(&self) -> Option<&SnapshotStore> {
        match self {
            KernelJournal::Record { snapshots, .. } => Some(snapshots),
            _ => None,
        }
    }

    /// Finish the session: flush (record) or require full consumption
    /// (verify). Returns the summary; a verify-mode divergence is also
    /// surfaced via [`KernelJournal::divergence`] before the reset.
    pub fn finish(&mut self) -> Result<(JournalSummary, Option<Divergence>), JournalError> {
        match self {
            KernelJournal::Off => Ok((JournalSummary::default(), None)),
            KernelJournal::Record {
                writer, snapshots, ..
            } => {
                writer.finish()?;
                Ok((
                    JournalSummary {
                        records: writer.next_seq(),
                        snapshots: snapshots.snapshots().len() as u64,
                        bytes: writer.bytes(),
                        verified: 0,
                        skipped: 0,
                    },
                    None,
                ))
            }
            KernelJournal::Verify { verifier, .. } => {
                let summary = verifier.finish();
                Ok((summary, verifier.divergence.clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;

    /// Drive a toy "kernel": a fixed script of events with snapshots on
    /// the facade's cadence, state = running digest of events seen.
    fn drive(journal: &mut KernelJournal, script: &[(u64, KernelEventKind, u64, &str)]) {
        let mut state: u64 = 0;
        for (i, (at, kind, a, label)) in script.iter().enumerate() {
            let events = i as u64;
            if journal.snapshot_due(events) {
                let sections = vec![
                    ("core".to_string(), state.to_le_bytes().to_vec()),
                    ("count".to_string(), events.to_le_bytes().to_vec()),
                ];
                journal.on_snapshot(*at, events, &sections);
            }
            journal.note(*at, *kind, 1, *a, 0, label);
            state = state.wrapping_mul(31).wrapping_add(*a);
        }
    }

    fn script() -> Vec<(u64, KernelEventKind, u64, &'static str)> {
        (0..10u64)
            .map(|i| {
                (
                    100 * (i + 1),
                    if i % 3 == 0 {
                        KernelEventKind::Timer
                    } else {
                        KernelEventKind::Deliver
                    },
                    i * 7,
                    if i % 2 == 0 { "Ping" } else { "Pong" },
                )
            })
            .collect()
    }

    fn record_script() -> Vec<u8> {
        let sink = MemSink::new();
        let mut journal = KernelJournal::record(Box::new(sink.clone()), 4);
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none());
        assert_eq!(summary.snapshots, 2, "events 4 and 8 snapshot");
        assert_eq!(summary.records, 12, "10 events + 2 snapshot marks");
        sink.contents()
    }

    #[test]
    fn identical_rerun_verifies_from_origin() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none(), "{div:?}");
        assert_eq!(summary.verified, 12);
        assert_eq!(summary.skipped, 0);
    }

    #[test]
    fn identical_rerun_verifies_from_latest_snapshot() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::LatestSnapshot).unwrap();
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none(), "{div:?}");
        assert!(summary.skipped > 0, "snapshot fast path skipped a prefix");
        assert!(summary.verified < 12);
        assert_eq!(summary.verified + summary.skipped, 12);
    }

    #[test]
    fn divergent_event_is_pinpointed() {
        let data = record_script();
        let mut bad = script();
        bad[6].3 = "Evil"; // plant a divergence at the 7th event
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        drive(&mut journal, &bad);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("must diverge");
        // Events 0..6 plus the snapshot mark at event 4 → journal seq 7.
        assert_eq!(div.seq, 7);
        assert!(div.expected.contains("Ping"));
        assert!(div.got.contains("Evil"));
        assert!(div.context.contains(">>"));
    }

    #[test]
    fn state_divergence_in_skipped_prefix_caught_at_snapshot_root() {
        let data = record_script();
        let mut bad = script();
        bad[1].2 = 999; // different event → different digested state
        let mut journal = KernelJournal::verify(data, ReplayStart::LatestSnapshot).unwrap();
        drive(&mut journal, &bad);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("root check must catch the divergence");
        assert_eq!(div.seq, 4, "first snapshot mark (after events 0..=3)");
        assert!(div.expected.contains("snapshot"));
    }

    #[test]
    fn short_run_is_a_divergence() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        let half: Vec<_> = script().into_iter().take(5).collect();
        drive(&mut journal, &half);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("missing tail must diverge");
        assert!(div.got.contains("quiesced"));
    }

    #[test]
    fn long_run_is_a_divergence() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        let mut long = script();
        long.push((2000, KernelEventKind::Deliver, 1, "Extra"));
        drive(&mut journal, &long);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("extra event must diverge");
        assert!(div.expected.contains("end of journal"));
        assert!(div.got.contains("Extra"));
    }

    #[test]
    fn off_is_inert() {
        let mut journal = KernelJournal::default();
        assert!(!journal.is_on());
        assert_eq!(journal.note(1, KernelEventKind::Deliver, 1, 2, 3, "x"), 0);
        assert!(!journal.snapshot_due(100));
        assert!(journal.divergence().is_none());
        let (summary, div) = journal.finish().unwrap();
        assert_eq!(summary, JournalSummary::default());
        assert!(div.is_none());
    }

    #[test]
    fn time_travel_start_picks_earlier_snapshot() {
        let data = record_script();
        // Snapshot marks land at t=500 (events 0..=3) and t=900.
        let mut journal =
            KernelJournal::verify(data, ReplayStart::SnapshotAtOrBefore(600)).unwrap();
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none(), "{div:?}");
        assert_eq!(summary.skipped, 4, "events before the t=500 snapshot");
    }
}
