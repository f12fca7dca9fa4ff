//! Property-based corruption tests for the journal codec: truncation,
//! bit flips, and mid-record EOF must never panic and always surface a
//! typed [`JournalError`] (mirroring the OPR codec proptests in
//! `legion-persist`).

use legion_journal::record;
use legion_journal::{bisect, read_all, JournalError, JournalWriter, MemSink};
use proptest::prelude::*;

/// An arbitrary record as (at, kind tag, endpoint, a, b, label).
fn arb_record() -> impl Strategy<Value = (u64, u8, u64, u64, u64, String)> {
    (
        any::<u64>(),
        0u8..16,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        "[a-zA-Z0-9:._-]{0,24}",
    )
}

fn journal_of(records: &[(u64, u8, u64, u64, u64, String)], snap_every: u64) -> Vec<u8> {
    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), snap_every);
    for (at, tag, ep, a, b, label) in records {
        w.append(*at, record::from_tag(*tag).unwrap(), *ep, *a, *b, label);
    }
    w.finish().unwrap();
    sink.contents()
}

proptest! {
    /// Round-trip: whatever we write, we read back identically.
    #[test]
    fn journal_roundtrips(
        records in proptest::collection::vec(arb_record(), 0..20),
        snap_every in 0u64..512,
    ) {
        let data = journal_of(&records, snap_every);
        let (header, decoded) = read_all(&data).unwrap();
        prop_assert_eq!(header.snap_every, snap_every);
        prop_assert_eq!(decoded.len(), records.len());
        for (i, (rec, (at, tag, ep, a, b, label))) in
            decoded.iter().zip(records.iter()).enumerate()
        {
            prop_assert_eq!(rec.seq, i as u64);
            prop_assert_eq!(rec.at, *at);
            prop_assert_eq!(record::tag(rec.kind), Some(*tag));
            prop_assert_eq!(rec.endpoint, *ep);
            prop_assert_eq!(rec.a, *a);
            prop_assert_eq!(rec.b, *b);
            prop_assert_eq!(&rec.label, label);
        }
    }

    /// Truncation at any byte (torn write, short read) never panics: it
    /// either yields a shorter valid journal (cut on a frame boundary)
    /// or a typed error.
    #[test]
    fn truncation_never_panics(
        records in proptest::collection::vec(arb_record(), 1..12),
        cut_seed in any::<usize>(),
    ) {
        let data = journal_of(&records, 8);
        let cut = cut_seed % data.len();
        match read_all(&data[..cut]) {
            Ok((_, decoded)) => prop_assert!(decoded.len() < records.len()),
            Err(
                JournalError::TruncatedHeader
                | JournalError::BadMagic
                | JournalError::TruncatedRecord { .. }
                | JournalError::RecordTooLarge { .. }
                | JournalError::BadChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Any single-byte flip is detected: header flips fail header
    /// validation, frame/body flips fail the checksum or framing. A flip
    /// can never silently decode to different records.
    #[test]
    fn single_byte_flip_is_detected(
        records in proptest::collection::vec(arb_record(), 1..12),
        pos_seed in any::<usize>(),
        flip in 1u8..,
    ) {
        let mut data = journal_of(&records, 8);
        let pos = pos_seed % data.len();
        data[pos] ^= flip;
        if let Ok((_header, decoded)) = read_all(&data) {
            // A flip in the snap_every varint of the header leaves
            // every record intact; nothing else may decode cleanly.
            prop_assert!((5..5 + 10).contains(&pos), "flip at {pos} undetected");
            prop_assert_eq!(decoded.len(), records.len());
        }
    }

    /// Multi-byte corruption across the whole buffer never panics.
    #[test]
    fn multi_flip_never_panics(
        records in proptest::collection::vec(arb_record(), 1..10),
        flips in proptest::collection::vec((any::<usize>(), 1u8..), 1..8),
    ) {
        let mut data = journal_of(&records, 4);
        for (pos_seed, flip) in flips {
            let pos = pos_seed % data.len();
            data[pos] ^= flip;
        }
        let _ = read_all(&data); // must not panic
    }

    /// The bisector is total over corrupt input: typed error or report,
    /// never a panic.
    #[test]
    fn bisect_never_panics_on_corrupt_input(
        records in proptest::collection::vec(arb_record(), 1..10),
        pos_seed in any::<usize>(),
        flip in 1u8..,
    ) {
        let a = journal_of(&records, 4);
        let mut b = a.clone();
        let pos = pos_seed % b.len();
        b[pos] ^= flip;
        let _ = bisect(&a, &b); // must not panic
    }
}
