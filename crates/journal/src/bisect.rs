//! Divergence bisection: binary-search two journals to the first
//! differing record.
//!
//! Both journals are indexed once (O(n) — this also builds cumulative
//! prefix hashes), then the first differing prefix length is found by
//! **binary search** over the hash arrays with a direct byte comparison
//! at the boundary, and the divergence is reported with a rendered
//! flight-recorder-style context window from each journal.

use crate::journal::{index, render_context, RecordSlice};
use crate::record::{decode_body, JournalError};
use legion_persist::checksum;

/// Radius of the rendered context windows.
const CONTEXT_RADIUS: usize = 8;

/// The bisector's verdict on two journals.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// Records in journal A.
    pub total_a: u64,
    /// Records in journal B.
    pub total_b: u64,
    /// Seq of the first differing record; `None` when the journals are
    /// identical.
    pub diverged_seq: Option<u64>,
    /// Binary-search probes taken (≈ log₂ of the record count).
    pub probes: u32,
    /// Rendered context around the divergence in journal A.
    pub context_a: String,
    /// Rendered context around the divergence in journal B.
    pub context_b: String,
}

impl std::fmt::Display for BisectReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.diverged_seq {
            None => writeln!(
                f,
                "journals identical ({} records, {} probes)",
                self.total_a, self.probes
            ),
            Some(seq) => {
                writeln!(
                    f,
                    "journals diverge at seq {seq} ({} vs {} records, {} probes)",
                    self.total_a, self.total_b, self.probes
                )?;
                writeln!(f, "journal A context:")?;
                for line in self.context_a.lines() {
                    writeln!(f, "  {line}")?;
                }
                writeln!(f, "journal B context:")?;
                for line in self.context_b.lines() {
                    writeln!(f, "  {line}")?;
                }
                Ok(())
            }
        }
    }
}

/// Cumulative CRC-32 chain over record bodies: `cum[i]` covers records
/// `0..i`, so prefix equality is one comparison.
fn prefix_hashes(data: &[u8], slices: &[RecordSlice]) -> Vec<u32> {
    let mut cum = Vec::with_capacity(slices.len() + 1);
    let mut state = 0u32;
    cum.push(state);
    for s in slices {
        state = checksum::update(state, s.body(data));
        cum.push(state);
    }
    cum
}

fn bodies_equal(a: &[u8], sa: &RecordSlice, b: &[u8], sb: &RecordSlice) -> bool {
    sa.body(a) == sb.body(b)
}

/// Find the first record where journals `a` and `b` differ.
pub fn bisect(a: &[u8], b: &[u8]) -> Result<BisectReport, JournalError> {
    let (_, slices_a) = index(a)?;
    let (_, slices_b) = index(b)?;
    let common = slices_a.len().min(slices_b.len());
    let cum_a = prefix_hashes(a, &slices_a);
    let cum_b = prefix_hashes(b, &slices_b);
    let mut probes = 0u32;

    // Binary search the largest m ≤ common with equal prefix hashes.
    let (mut lo, mut hi) = (0usize, common);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        probes += 1;
        if cum_a[mid] == cum_b[mid] {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    // `lo` records agree by hash. Walk forward with direct byte
    // comparison to absorb (vanishingly unlikely) CRC collisions.
    let mut first_diff = lo;
    while first_diff < common && bodies_equal(a, &slices_a[first_diff], b, &slices_b[first_diff]) {
        first_diff += 1;
    }

    let diverged = if first_diff < common {
        Some(first_diff)
    } else if slices_a.len() != slices_b.len() {
        // Equal common prefix, one journal simply has more records.
        Some(common)
    } else {
        None
    };

    let (context_a, context_b) = match diverged {
        None => (String::new(), String::new()),
        Some(idx) => (
            context_or_end(a, &slices_a, idx),
            context_or_end(b, &slices_b, idx),
        ),
    };
    Ok(BisectReport {
        total_a: slices_a.len() as u64,
        total_b: slices_b.len() as u64,
        diverged_seq: diverged.map(|i| i as u64),
        probes,
        context_a,
        context_b,
    })
}

fn context_or_end(data: &[u8], slices: &[RecordSlice], idx: usize) -> String {
    if slices.is_empty() {
        return "<empty journal>\n".to_string();
    }
    if idx >= slices.len() {
        let mut out = render_context(data, slices, slices.len() - 1, CONTEXT_RADIUS);
        out.push_str(">> <end of journal>\n");
        return out;
    }
    render_context(data, slices, idx, CONTEXT_RADIUS)
}

/// The seq recorded inside journal `data`'s record at index `idx`
/// (convenience for reporting).
pub fn seq_at(data: &[u8], idx: usize) -> Result<Option<u64>, JournalError> {
    let (_, slices) = index(data)?;
    match slices.get(idx) {
        None => Ok(None),
        Some(s) => Ok(Some(decode_body(s.body(data), s.offset)?.seq)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::sink::MemSink;
    use legion_core::event::KernelEventKind;

    fn journal_of(n: u64, mutate_at: Option<u64>) -> Vec<u8> {
        let sink = MemSink::new();
        let mut w = JournalWriter::new(Box::new(sink.clone()), 0);
        for i in 0..n {
            let label = if Some(i) == mutate_at {
                "MUTANT"
            } else {
                "Ping"
            };
            w.append(i * 10, KernelEventKind::Deliver, i % 5, i, 0, label);
        }
        w.finish().unwrap();
        sink.contents()
    }

    #[test]
    fn identical_journals_report_no_divergence() {
        let a = journal_of(100, None);
        let r = bisect(&a, &a.clone()).unwrap();
        assert_eq!(r.diverged_seq, None);
        assert_eq!(r.total_a, 100);
    }

    #[test]
    fn planted_divergence_found_exactly() {
        for plant in [0u64, 1, 17, 63, 99] {
            let a = journal_of(100, None);
            let b = journal_of(100, Some(plant));
            let r = bisect(&a, &b).unwrap();
            assert_eq!(r.diverged_seq, Some(plant), "plant at {plant}");
            assert!(r.probes <= 8, "log₂(100) ≈ 7 probes, used {}", r.probes);
            assert!(r.context_a.contains(">>"));
            assert!(r.context_b.contains("MUTANT"));
        }
    }

    #[test]
    fn length_mismatch_diverges_at_common_end() {
        let a = journal_of(50, None);
        let b = journal_of(40, None);
        let r = bisect(&a, &b).unwrap();
        assert_eq!(r.diverged_seq, Some(40));
        assert!(r.context_b.contains("<end of journal>"));
        assert!(r.to_string().contains("diverge at seq 40"));
    }

    #[test]
    fn corrupt_input_is_typed() {
        let a = journal_of(5, None);
        assert!(matches!(
            bisect(&a, b"garbage"),
            Err(JournalError::BadMagic)
        ));
        let mut cut = a.clone();
        cut.truncate(a.len() - 2);
        assert!(matches!(
            bisect(&a, &cut),
            Err(JournalError::TruncatedRecord { .. })
        ));
    }

    #[test]
    fn seq_at_reads_through() {
        let a = journal_of(5, None);
        assert_eq!(seq_at(&a, 3).unwrap(), Some(3));
        assert_eq!(seq_at(&a, 9).unwrap(), None);
    }
}
