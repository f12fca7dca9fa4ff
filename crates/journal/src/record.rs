//! The journal wire format: one compact, checksummed record per kernel
//! ingress event.
//!
//! A journal is `header · record*`:
//!
//! ```text
//! header : "LJNL" | version u8 | snap_every varint
//! record : body_len u32-le | crc32(body) u32-le | body
//! body   : seq varint | at varint | kind u8 | endpoint varint
//!        | a varint | b varint | label_len varint | label utf-8
//! ```
//!
//! The framing mirrors the OPR container (`legion-persist`): length
//! prefix for skipping, CRC-32 for integrity, varints for density.
//! Labels are stored as **strings**, never interner ids — symbol ids
//! depend on interning order, which is not stable across processes.

use legion_core::event::KernelEventKind;
use legion_persist::codec::{CodecError, Reader};
use std::fmt;

/// Journal magic: "Legion JourNaL".
pub const MAGIC: [u8; 4] = *b"LJNL";

/// Current format version.
pub const VERSION: u8 = 2;

/// Sanity cap on a single record body.
pub const MAX_BODY: usize = 1 << 20;

/// Everything that can go wrong reading or writing a journal. Corrupt
/// input must surface one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The input ends inside the header.
    TruncatedHeader,
    /// The input ends inside a record frame or body.
    TruncatedRecord {
        /// Byte offset of the frame that was cut short.
        offset: usize,
    },
    /// A record body does not match its stored CRC-32.
    BadChecksum {
        /// Byte offset of the frame.
        offset: usize,
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the body bytes.
        computed: u32,
    },
    /// A length prefix exceeds [`MAX_BODY`] — almost certainly a
    /// corrupted length field.
    RecordTooLarge {
        /// Byte offset of the frame.
        offset: usize,
        /// The (implausible) claimed body length.
        len: u64,
    },
    /// A record body failed to decode.
    BadBody {
        /// Byte offset of the frame.
        offset: usize,
        /// The codec-level failure.
        source: CodecError,
    },
    /// A record carries an unknown kind tag.
    BadKind {
        /// Byte offset of the frame.
        offset: usize,
        /// The unknown tag.
        tag: u8,
    },
    /// An I/O failure in a file-backed sink, rendered.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a journal (bad magic)"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            JournalError::TruncatedHeader => write!(f, "journal truncated inside header"),
            JournalError::TruncatedRecord { offset } => {
                write!(f, "journal truncated inside record at offset {offset}")
            }
            JournalError::BadChecksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "record at offset {offset} fails checksum (stored {stored:#010x}, computed {computed:#010x})"
            ),
            JournalError::RecordTooLarge { offset, len } => {
                write!(f, "record at offset {offset} claims implausible length {len}")
            }
            JournalError::BadBody { offset, source } => {
                write!(f, "record body at offset {offset} undecodable: {source}")
            }
            JournalError::BadKind { offset, tag } => {
                write!(f, "record at offset {offset} has unknown kind tag {tag}")
            }
            JournalError::Io(e) => write!(f, "journal sink I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The frozen wire tags: a journaled kind's tag is its index here.
/// Append only, never reorder — an older build rejects a newer tag as
/// [`JournalError::BadKind`]. Span-only kinds have no tag.
const TAGS: [KernelEventKind; 17] = {
    use KernelEventKind::*;
    [
        Attach, Detach, Start, Deliver, Timer, Inject, Drop, Duplicate, Delay, Dedup, DeadLetter,
        Refuse, Timeout, HaVerdict, Snapshot, Note, Shed,
    ]
};

/// The wire tag of a journaled kind (`None` for span-only kinds, which
/// the routing table keeps out of the journal).
pub fn tag(kind: KernelEventKind) -> Option<u8> {
    TAGS.iter().position(|&k| k == kind).map(|t| t as u8)
}

/// Decode a wire tag.
pub fn from_tag(tag: u8) -> Option<KernelEventKind> {
    TAGS.get(tag as usize).copied()
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Position in the journal (0-based, dense).
    pub seq: u64,
    /// Virtual time of the event, in nanoseconds.
    pub at: u64,
    /// What happened.
    pub kind: KernelEventKind,
    /// The kernel endpoint id involved (0 when none).
    pub endpoint: u64,
    /// Kind-specific detail (e.g. message id, timer token).
    pub a: u64,
    /// Second kind-specific detail.
    pub b: u64,
    /// Human-readable tag — method name, verdict name, or state root.
    pub label: String,
}

impl fmt::Display for JournalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq {:>6} [{:>12}ns] {:<11} ep{:<4} {} ({},{})",
            self.seq,
            self.at,
            self.kind.label(),
            self.endpoint,
            self.label,
            self.a,
            self.b
        )
    }
}

/// Append a varint to `buf` (no allocation beyond `buf` growth).
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Encode a record body into `buf` (cleared first). Allocation-free once
/// `buf` has warmed to its steady-state capacity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_body(
    buf: &mut Vec<u8>,
    seq: u64,
    at: u64,
    kind: KernelEventKind,
    endpoint: u64,
    a: u64,
    b: u64,
    label: &str,
) {
    buf.clear();
    push_varint(buf, seq);
    push_varint(buf, at);
    buf.push(tag(kind).expect("span-only kinds are never journaled"));
    push_varint(buf, endpoint);
    push_varint(buf, a);
    push_varint(buf, b);
    push_varint(buf, label.len() as u64);
    buf.extend_from_slice(label.as_bytes());
}

/// Decode one record body (the bytes after the frame prefix). `offset`
/// is the frame's byte offset, for error reporting only.
pub fn decode_body(body: &[u8], offset: usize) -> Result<JournalRecord, JournalError> {
    let mut r = Reader::new(body);
    let bad = |source| JournalError::BadBody { offset, source };
    let seq = r.get_varint().map_err(bad)?;
    let at = r.get_varint().map_err(bad)?;
    let tag = r.get_u8().map_err(bad)?;
    let kind = from_tag(tag).ok_or(JournalError::BadKind { offset, tag })?;
    let endpoint = r.get_varint().map_err(bad)?;
    let a = r.get_varint().map_err(bad)?;
    let b = r.get_varint().map_err(bad)?;
    let label = r.get_str().map_err(bad)?;
    Ok(JournalRecord {
        seq,
        at,
        kind,
        endpoint,
        a,
        b,
        label,
    })
}

/// Decode just the leading `seq` varint of a body — the cheap alignment
/// check used while skipping an already-snapshotted prefix.
pub(crate) fn decode_seq(body: &[u8]) -> Option<u64> {
    let mut r = Reader::new(body);
    r.get_varint().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_roundtrip() {
        let mut buf = Vec::new();
        encode_body(
            &mut buf,
            42,
            1_000_000,
            KernelEventKind::Deliver,
            7,
            99,
            3,
            "BindingLookup",
        );
        let rec = decode_body(&buf, 0).unwrap();
        assert_eq!(rec.seq, 42);
        assert_eq!(rec.at, 1_000_000);
        assert_eq!(rec.kind, KernelEventKind::Deliver);
        assert_eq!(rec.endpoint, 7);
        assert_eq!(rec.a, 99);
        assert_eq!(rec.b, 3);
        assert_eq!(rec.label, "BindingLookup");
        assert_eq!(decode_seq(&buf), Some(42));
    }

    /// The on-disk tags are frozen: this literal table is the format,
    /// so reordering or inserting into the unified kind enum fails here.
    #[test]
    fn wire_tags_are_frozen() {
        use KernelEventKind::*;
        let frozen = [
            (0, Attach),
            (1, Detach),
            (2, Start),
            (3, Deliver),
            (4, Timer),
            (5, Inject),
            (6, Drop),
            (7, Duplicate),
            (8, Delay),
            (9, Dedup),
            (10, DeadLetter),
            (11, Refuse),
            (12, Timeout),
            (13, HaVerdict),
            (14, Snapshot),
            (15, Note),
            (16, Shed),
        ];
        let mut buf = Vec::new();
        for (t, kind) in frozen {
            assert_eq!(kind as u8, t, "{kind:?}: the enum's order is the tag order");
            assert_eq!(tag(kind), Some(t), "{kind:?}");
            assert_eq!(from_tag(t), Some(kind), "tag {t}");
            encode_body(&mut buf, 1, 2, kind, 3, 4, 5, "x");
            assert_eq!(buf[2], t, "{kind:?} on the wire");
            assert_eq!(decode_body(&buf, 0).unwrap().kind, kind);
        }
        for t in 17..=u8::MAX {
            buf[2] = t;
            assert_eq!(
                decode_body(&buf, 9),
                Err(JournalError::BadKind { offset: 9, tag: t })
            );
        }
        for kind in [Begin, End, Send] {
            assert_eq!(tag(kind), None, "{kind:?} is span-only");
        }
        // The routing table and the tag table agree on what is journaled.
        for &kind in KernelEventKind::ALL {
            assert_eq!(tag(kind).is_some(), kind.route().journal, "{kind:?}");
        }
    }

    #[test]
    fn bad_tag_is_typed() {
        let mut buf = Vec::new();
        encode_body(&mut buf, 0, 0, KernelEventKind::Note, 0, 0, 0, "x");
        // The kind tag sits after the two leading varints (both 1 byte).
        buf[2] = 0xEE;
        assert!(matches!(
            decode_body(&buf, 5),
            Err(JournalError::BadKind {
                offset: 5,
                tag: 0xEE
            })
        ));
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut buf = Vec::new();
        encode_body(&mut buf, 1, 2, KernelEventKind::Start, 3, 4, 5, "hello");
        for cut in 0..buf.len() {
            match decode_body(&buf[..cut], 0) {
                Err(JournalError::BadBody { .. }) | Err(JournalError::BadKind { .. }) => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn record_renders() {
        let rec = JournalRecord {
            seq: 9,
            at: 500,
            kind: KernelEventKind::Snapshot,
            endpoint: 0,
            a: 6,
            b: 1,
            label: "abcd".into(),
        };
        let s = rec.to_string();
        assert!(s.contains("snapshot"));
        assert!(s.contains("seq"));
    }
}
