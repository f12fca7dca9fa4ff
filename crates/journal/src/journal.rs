//! Writing and reading whole journals: header framing, the append-only
//! [`JournalWriter`], and the checked reader/indexer.

use crate::record::{
    decode_body, encode_body, JournalError, JournalRecord, MAGIC, MAX_BODY, VERSION,
};
use crate::sink::JournalSink;
use legion_core::event::KernelEventKind;
use legion_persist::checksum::crc32;

/// The decoded journal header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version.
    pub version: u8,
    /// Snapshot cadence the recording run used (events between snapshot
    /// marks; 0 = no snapshots). Stored in the journal so a verifying
    /// run snapshots at exactly the same points.
    pub snap_every: u64,
    /// Byte offset of the first record frame.
    pub records_at: usize,
}

/// Read and validate the header.
pub fn read_header(data: &[u8]) -> Result<JournalHeader, JournalError> {
    if data.len() < 4 {
        return Err(if data.is_empty() || MAGIC.starts_with(data) {
            JournalError::TruncatedHeader
        } else {
            JournalError::BadMagic
        });
    }
    if data[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = *data.get(4).ok_or(JournalError::TruncatedHeader)?;
    if version != VERSION {
        return Err(JournalError::BadVersion(version));
    }
    // Inline varint: the header predates any Reader framing.
    let mut snap_every: u64 = 0;
    for (i, shift) in (0..64).step_by(7).enumerate() {
        let byte = *data.get(5 + i).ok_or(JournalError::TruncatedHeader)?;
        snap_every |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(JournalHeader {
                version,
                snap_every,
                records_at: 5 + i + 1,
            });
        }
    }
    Err(JournalError::TruncatedHeader)
}

/// The location of one framed record inside a journal byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSlice {
    /// Byte offset of the frame (length prefix).
    pub offset: usize,
    /// Byte offset of the body.
    pub body_start: usize,
    /// Body length in bytes.
    pub body_len: usize,
    /// The stored (and verified) CRC-32 of the body.
    pub crc: u32,
}

impl RecordSlice {
    /// The body bytes within `data`.
    pub fn body<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.body_start..self.body_start + self.body_len]
    }
}

/// Walk the whole journal, verifying framing and checksums, returning
/// the header and the location of every record. This is the integrity
/// pass — every error a corrupt journal can produce is typed.
pub fn index(data: &[u8]) -> Result<(JournalHeader, Vec<RecordSlice>), JournalError> {
    let header = read_header(data)?;
    let mut slices = Vec::new();
    let mut pos = header.records_at;
    while pos < data.len() {
        let offset = pos;
        if data.len() - pos < 8 {
            return Err(JournalError::TruncatedRecord { offset });
        }
        let body_len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if body_len > MAX_BODY {
            return Err(JournalError::RecordTooLarge {
                offset,
                len: body_len as u64,
            });
        }
        pos += 8;
        if data.len() - pos < body_len {
            return Err(JournalError::TruncatedRecord { offset });
        }
        let body = &data[pos..pos + body_len];
        let computed = crc32(body);
        if computed != stored {
            return Err(JournalError::BadChecksum {
                offset,
                stored,
                computed,
            });
        }
        slices.push(RecordSlice {
            offset,
            body_start: pos,
            body_len,
            crc: stored,
        });
        pos += body_len;
    }
    Ok((header, slices))
}

/// Index and fully decode every record.
pub fn read_all(data: &[u8]) -> Result<(JournalHeader, Vec<JournalRecord>), JournalError> {
    let (header, slices) = index(data)?;
    let mut records = Vec::with_capacity(slices.len());
    for s in &slices {
        records.push(decode_body(s.body(data), s.offset)?);
    }
    Ok((header, records))
}

/// Render the records around `center` (± `radius`), flight-recorder
/// style, marking the center line. Used for divergence and bisect
/// post-mortems.
pub fn render_context(data: &[u8], slices: &[RecordSlice], center: usize, radius: usize) -> String {
    let lo = center.saturating_sub(radius);
    let hi = (center + radius + 1).min(slices.len());
    let mut out = String::new();
    for (i, s) in slices.iter().enumerate().take(hi).skip(lo) {
        let marker = if i == center { ">>" } else { "  " };
        match decode_body(s.body(data), s.offset) {
            Ok(rec) => out.push_str(&format!("{marker} {rec}\n")),
            Err(e) => out.push_str(&format!("{marker} <undecodable record: {e}>\n")),
        }
    }
    out
}

/// The append-only journal writer.
///
/// `append` is infallible on the hot path: the first sink error is
/// latched and surfaced by [`JournalWriter::error`] / `finish`-time
/// checks rather than plumbed through the kernel. Encoding reuses two
/// internal buffers, so steady-state appends do not allocate.
pub struct JournalWriter {
    sink: Box<dyn JournalSink>,
    next_seq: u64,
    body: Vec<u8>,
    frame: Vec<u8>,
    bytes: u64,
    error: Option<JournalError>,
}

impl JournalWriter {
    /// Start a journal on `sink`, writing the header.
    pub fn new(mut sink: Box<dyn JournalSink>, snap_every: u64) -> Self {
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        crate::record::push_varint(&mut header, snap_every);
        let error = sink
            .write(&header)
            .err()
            .map(|e| JournalError::Io(e.to_string()));
        JournalWriter {
            sink,
            next_seq: 0,
            body: Vec::with_capacity(64),
            frame: Vec::with_capacity(80),
            bytes: header.len() as u64,
            error,
        }
    }

    /// Sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes written (header + frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The first sink error, if any occurred.
    pub fn error(&self) -> Option<&JournalError> {
        self.error.as_ref()
    }

    /// Append one record; returns its sequence number. Panics on a
    /// span-only kind, which has no wire tag.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &mut self,
        at: u64,
        kind: KernelEventKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &str,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        encode_body(&mut self.body, seq, at, kind, endpoint, a, b, label);
        let crc = crc32(&self.body);
        self.frame.clear();
        self.frame
            .extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(&crc.to_le_bytes());
        self.frame.extend_from_slice(&self.body);
        if self.error.is_none() {
            if let Err(e) = self.sink.write(&self.frame) {
                self.error = Some(JournalError::Io(e.to_string()));
            }
        }
        self.bytes += self.frame.len() as u64;
        seq
    }

    /// Flush the sink, surfacing any latched or flush-time error.
    pub fn finish(&mut self) -> Result<(), JournalError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink
            .flush()
            .map_err(|e| JournalError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;

    fn sample_journal() -> (Vec<u8>, usize) {
        let sink = MemSink::new();
        let mut w = JournalWriter::new(Box::new(sink.clone()), 4);
        w.append(10, KernelEventKind::Attach, 1, 0, 0, "magistrate");
        w.append(20, KernelEventKind::Deliver, 1, 77, 0, "BindingLookup");
        w.append(30, KernelEventKind::Timer, 2, 5, 0, "heartbeat");
        w.finish().unwrap();
        (sink.contents(), 3)
    }

    #[test]
    fn write_read_roundtrip() {
        let (data, n) = sample_journal();
        let (header, records) = read_all(&data).unwrap();
        assert_eq!(header.version, VERSION);
        assert_eq!(header.snap_every, 4);
        assert_eq!(records.len(), n);
        assert_eq!(records[0].kind, KernelEventKind::Attach);
        assert_eq!(records[0].label, "magistrate");
        assert_eq!(records[1].a, 77);
        assert_eq!(records[2].at, 30);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "seqs are dense from 0");
        }
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(read_header(b"").unwrap_err(), JournalError::TruncatedHeader);
        assert_eq!(
            read_header(b"LJ").unwrap_err(),
            JournalError::TruncatedHeader
        );
        assert_eq!(read_header(b"NOPE!!").unwrap_err(), JournalError::BadMagic);
        assert_eq!(
            read_header(b"LJNL\x63\x00").unwrap_err(),
            JournalError::BadVersion(0x63)
        );
        assert_eq!(
            read_header(b"LJNL\x02").unwrap_err(),
            JournalError::TruncatedHeader
        );
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let (data, _) = sample_journal();
        let (header, _) = read_all(&data).unwrap();
        for cut in header.records_at..data.len() {
            if cut == data.len() {
                continue;
            }
            match read_all(&data[..cut]) {
                Ok((_, records)) => {
                    // A cut exactly on a frame boundary yields a shorter
                    // but valid journal.
                    assert!(records.len() < 3);
                }
                Err(
                    JournalError::TruncatedRecord { .. }
                    | JournalError::TruncatedHeader
                    | JournalError::RecordTooLarge { .. }
                    | JournalError::BadChecksum { .. },
                ) => {}
                Err(other) => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_body_is_caught_by_checksum() {
        let (mut data, _) = sample_journal();
        let last = data.len() - 1; // inside the final record's label
        data[last] ^= 0x01;
        assert!(matches!(
            read_all(&data),
            Err(JournalError::BadChecksum { .. })
        ));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let (mut data, _) = sample_journal();
        let (header, slices) = index(&data).unwrap();
        let _ = header;
        let off = slices[1].offset;
        data[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_all(&data),
            Err(JournalError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn sink_error_is_latched_not_panicked() {
        struct FailSink;
        impl JournalSink for FailSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<()> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let mut w = JournalWriter::new(Box::new(FailSink), 0);
        w.append(1, KernelEventKind::Note, 0, 0, 0, "x");
        assert!(w.error().is_some());
        assert!(matches!(w.finish(), Err(JournalError::Io(_))));
    }

    #[test]
    fn context_renders_window() {
        let (data, _) = sample_journal();
        let (_, slices) = index(&data).unwrap();
        let ctx = render_context(&data, &slices, 1, 1);
        assert_eq!(ctx.lines().count(), 3);
        assert!(ctx.contains(">> seq      1"));
        assert!(ctx.contains("BindingLookup"));
    }
}
