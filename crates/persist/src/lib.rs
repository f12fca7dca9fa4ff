//! # legion-persist — Object Persistent Representations and storage
//!
//! The Inert half of the paper's object lifecycle (§3.1): when a
//! Magistrate deactivates an object it calls `SaveState()` and writes an
//! **Object Persistent Representation** — "a sequential set of bytes" —
//! to the jurisdiction's storage, locating it with an **Object Persistent
//! Address** ("typically a file name ... only meaningful within the
//! Jurisdiction").
//!
//! * [`codec`] — the byte format for values, addresses and bindings;
//! * [`checksum`] — CRC-32 and the 64-bit snapshot-witness digests
//!   (local implementations);
//! * [`cas`] — SHA-256 content-addressed chunk stores (the snapshot and
//!   incremental-checkpoint backend);
//! * [`opr`] — the OPR container (magic, version, LOID, class, interface
//!   hash, state payload, checksum);
//! * [`storage`] — simulated disks and the jurisdiction-scoped visibility
//!   rules of Figure 11.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cas;
pub mod checksum;
pub mod codec;
pub mod opr;
pub mod storage;

pub use cas::{sha256, BlobStore, ChunkId, MemBlobStore, Sha256};
pub use checksum::{crc32, digest64, mix64};
pub use codec::{decode_value, encode_value, CodecError, CodecResult, Reader, Writer};
pub use opr::{Opr, OprError};
pub use storage::{JurisdictionStorage, PersistentAddress, SimDisk, StorageError};
