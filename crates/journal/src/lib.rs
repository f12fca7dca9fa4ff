//! # legion-journal — the journaled kernel substrate
//!
//! The durability and reproducibility story for the Legion simulator,
//! following the AgentOS journal/snapshotter/CAS architecture: **the
//! journal is authoritative, snapshots are a cache** — the same journal
//! always produces the same state.
//!
//! * [`record`] — the wire format: one compact, length-prefixed,
//!   CRC-checksummed record per kernel ingress (delivery, timer fire,
//!   chaos verdict, HA verdict…), with a typed [`JournalError`] for
//!   every way a corrupt journal can fail to parse;
//! * [`sink`] — pluggable byte sinks ([`MemSink`], [`FileSink`]);
//! * [`journal`] — the append-only [`JournalWriter`] and the checked
//!   reader/indexer;
//! * [`snapshot`] — content-addressed state snapshots over the
//!   `legion-persist` CAS: unchanged sections dedup across snapshots,
//!   and a SHA-256 **state root** names the whole kernel state;
//! * [`replay`] — [`KernelJournal`], the kernel-facing facade
//!   (off / record / verify), and the time-travel [`Verifier`]:
//!   re-execute a run and check every event byte-for-byte against the
//!   reference journal, starting from the origin or from a snapshot
//!   (skipped prefix, root-checked waypoint, byte-verified tail);
//! * [`bisect`] — binary-search two journals to the first differing
//!   record and dump flight-recorder-style context around it.
//!
//! The simulator kernel (`legion-net`) embeds a [`KernelJournal`] and
//! calls [`KernelJournal::note`] at every ingress; `legion-exp` exposes
//! it as `--journal-out` / `--replay-from`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bisect;
pub mod journal;
pub mod record;
pub mod replay;
pub mod sink;
pub mod snapshot;

pub use bisect::{bisect, BisectReport};
pub use journal::{index, read_all, read_header, JournalHeader, JournalWriter, RecordSlice};
pub use legion_core::event::KernelEventKind;
pub use record::{JournalError, JournalRecord};
pub use replay::{Divergence, JournalSummary, KernelJournal, ReplayStart, Verifier};
pub use sink::{FileSink, JournalSink, MemSink};
pub use snapshot::{sections_root, state_root, SnapshotMeta, SnapshotStore};
