//! Simulated jurisdiction storage (paper §2.2, §3.1, Figure 11).
//!
//! "A Jurisdiction consists of some aggregate persistent storage space and
//! a set of Legion hosts ... all of a Jurisdiction's persistent storage
//! space must be visible from each of its hosts." An Inert object lives on
//! one of the jurisdiction's disks and is located by an **Object
//! Persistent Address** — "typically a file name, and will only be
//! meaningful within the Jurisdiction in which it resides" (§3.1.1).
//!
//! [`JurisdictionStorage`] models the aggregate space as a set of
//! [`SimDisk`]s. Visibility-from-every-host is a property the runtime
//! enforces (any host of the jurisdiction may ask its storage for any
//! OPR); cross-jurisdiction access is a type error by construction —
//! a [`PersistentAddress`] names its jurisdiction and the storage refuses
//! foreign addresses.

use crate::cas::ChunkId;
use crate::opr::{Opr, OprError};
use legion_core::loid::Loid;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An Object Persistent Address: jurisdiction-scoped "file name" (§3.1.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PersistentAddress {
    /// The jurisdiction the address is meaningful in.
    pub jurisdiction: u32,
    /// Disk index within the jurisdiction.
    pub disk: u32,
    /// File name on that disk.
    pub path: String,
}

impl fmt::Display for PersistentAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jur{}:disk{}:{}",
            self.jurisdiction, self.disk, self.path
        )
    }
}

/// Storage failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The address names a different jurisdiction — Object Persistent
    /// Addresses are "only meaningful within the Jurisdiction".
    ForeignJurisdiction {
        /// Jurisdiction of the storage asked.
        ours: u32,
        /// Jurisdiction in the address.
        theirs: u32,
    },
    /// No such disk in this jurisdiction.
    NoSuchDisk(u32),
    /// No file at the path.
    NotFound(String),
    /// The disk is full.
    DiskFull {
        /// Disk index.
        disk: u32,
        /// Bytes that did not fit.
        needed: u64,
        /// Bytes still free.
        free: u64,
    },
    /// The stored bytes failed OPR validation.
    Corrupt(OprError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ForeignJurisdiction { ours, theirs } => write!(
                f,
                "persistent address from jurisdiction {theirs} used in jurisdiction {ours}"
            ),
            StorageError::NoSuchDisk(d) => write!(f, "no disk {d} in this jurisdiction"),
            StorageError::NotFound(p) => write!(f, "no file {p:?}"),
            StorageError::DiskFull { disk, needed, free } => {
                write!(f, "disk {disk} full ({needed} bytes needed, {free} free)")
            }
            StorageError::Corrupt(e) => write!(f, "corrupt OPR: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// One simulated disk: a byte-budgeted file map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimDisk {
    files: BTreeMap<String, Vec<u8>>,
    capacity: u64,
    used: u64,
}

impl SimDisk {
    /// A disk with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        SimDisk {
            files: BTreeMap::new(),
            capacity,
            used: 0,
        }
    }

    /// Bytes in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    fn write(&mut self, disk_index: u32, path: &str, bytes: Vec<u8>) -> Result<(), StorageError> {
        let new_len = bytes.len() as u64;
        let old_len = self.files.get(path).map(|f| f.len() as u64).unwrap_or(0);
        let needed = new_len.saturating_sub(old_len);
        if needed > self.free() {
            return Err(StorageError::DiskFull {
                disk: disk_index,
                needed: new_len,
                free: self.free(),
            });
        }
        self.used = self.used - old_len + new_len;
        self.files.insert(path.to_owned(), bytes);
        Ok(())
    }

    fn read(&self, path: &str) -> Result<&[u8], StorageError> {
        self.files
            .get(path)
            .map(|v| v.as_slice())
            .ok_or_else(|| StorageError::NotFound(path.to_owned()))
    }

    fn delete(&mut self, path: &str) -> Result<(), StorageError> {
        match self.files.remove(path) {
            Some(bytes) => {
                self.used -= bytes.len() as u64;
                Ok(())
            }
            None => Err(StorageError::NotFound(path.to_owned())),
        }
    }
}

/// One content-addressed checkpoint blob: where it lives and how many
/// Object Persistent Addresses currently reference it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CasRef {
    disk: u32,
    path: String,
    refs: u64,
    len: u64,
}

/// The aggregate persistent storage of one jurisdiction.
///
/// OPR checkpoints are stored **content-addressed**: [`store_opr`]
/// hashes the encoded OPR and, when an identical checkpoint is already
/// on disk, returns the existing address and bumps a reference count
/// instead of writing a second copy. Repeated checkpoints of an
/// unchanged object therefore cost zero extra disk — the incremental
/// half of the journal/snapshot durability story. [`delete`] decrements
/// the count and only frees the blob when the last reference goes.
///
/// [`store_opr`]: JurisdictionStorage::store_opr
/// [`delete`]: JurisdictionStorage::delete
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JurisdictionStorage {
    jurisdiction: u32,
    disks: Vec<SimDisk>,
    seq: u64,
    /// hex(ChunkId) → blob location + refcount, for `cas/` paths.
    cas: BTreeMap<String, CasRef>,
    dedup_hits: u64,
    logical_bytes: u64,
}

impl JurisdictionStorage {
    /// Storage for `jurisdiction` with `disks` disks of `disk_capacity`
    /// bytes each.
    pub fn new(jurisdiction: u32, disks: usize, disk_capacity: u64) -> Self {
        JurisdictionStorage {
            jurisdiction,
            disks: (0..disks).map(|_| SimDisk::new(disk_capacity)).collect(),
            seq: 0,
            cas: BTreeMap::new(),
            dedup_hits: 0,
            logical_bytes: 0,
        }
    }

    /// Total bytes in use across disks.
    pub fn used(&self) -> u64 {
        self.disks.iter().map(|d| d.used()).sum()
    }

    /// Total files across disks.
    pub fn file_count(&self) -> usize {
        self.disks.iter().map(|d| d.file_count()).sum()
    }

    fn check(&self, addr: &PersistentAddress) -> Result<(), StorageError> {
        if addr.jurisdiction != self.jurisdiction {
            return Err(StorageError::ForeignJurisdiction {
                ours: self.jurisdiction,
                theirs: addr.jurisdiction,
            });
        }
        if addr.disk as usize >= self.disks.len() {
            return Err(StorageError::NoSuchDisk(addr.disk));
        }
        Ok(())
    }

    /// Store an OPR content-addressed, choosing the emptiest disk for new
    /// content; returns the Object Persistent Address. A checkpoint whose
    /// bytes are already stored returns the existing address (refcounted)
    /// and writes nothing.
    pub fn store_opr(&mut self, opr: &Opr) -> Result<PersistentAddress, StorageError> {
        let bytes = opr.encode().to_vec();
        let hex = ChunkId::of(&bytes).to_hex();
        if let Some(entry) = self.cas.get_mut(&hex) {
            entry.refs += 1;
            self.dedup_hits += 1;
            self.logical_bytes += entry.len;
            return Ok(PersistentAddress {
                jurisdiction: self.jurisdiction,
                disk: entry.disk,
                path: entry.path.clone(),
            });
        }
        let disk = self
            .disks
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.free())
            .map(|(i, _)| i as u32)
            .ok_or(StorageError::NoSuchDisk(0))?;
        self.seq += 1;
        let addr = PersistentAddress {
            jurisdiction: self.jurisdiction,
            disk,
            path: format!("cas/{hex}.lopr"),
        };
        let len = bytes.len() as u64;
        self.disks[disk as usize].write(disk, &addr.path, bytes)?;
        self.logical_bytes += len;
        self.cas.insert(
            hex,
            CasRef {
                disk,
                path: addr.path.clone(),
                refs: 1,
                len,
            },
        );
        Ok(addr)
    }

    /// Checkpoints deduplicated away (stores that wrote nothing).
    #[cfg(test)]
    pub(crate) fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Bytes the vault would hold without content dedup (every
    /// `store_opr` counted at full size). Compare with [`used`] for the
    /// physical footprint.
    ///
    /// [`used`]: JurisdictionStorage::used
    #[cfg(test)]
    pub(crate) fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Store raw bytes at an explicit address (used to receive a shipped
    /// OPR from another jurisdiction during Copy/Move).
    pub fn store_at(
        &mut self,
        addr: &PersistentAddress,
        bytes: Vec<u8>,
    ) -> Result<(), StorageError> {
        self.check(addr)?;
        self.disks[addr.disk as usize].write(addr.disk, &addr.path, bytes)
    }

    /// Load and validate the OPR at `addr`.
    pub fn load_opr(&self, addr: &PersistentAddress) -> Result<Opr, StorageError> {
        self.check(addr)?;
        let bytes = self.disks[addr.disk as usize].read(&addr.path)?;
        Opr::decode(bytes).map_err(StorageError::Corrupt)
    }

    /// Read the raw bytes at `addr` (for shipping to another jurisdiction).
    pub fn read_raw(&self, addr: &PersistentAddress) -> Result<Vec<u8>, StorageError> {
        self.check(addr)?;
        Ok(self.disks[addr.disk as usize].read(&addr.path)?.to_vec())
    }

    /// Delete the file at `addr`. For content-addressed checkpoints this
    /// drops one reference; the blob is only freed when the last address
    /// referencing it is deleted.
    pub fn delete(&mut self, addr: &PersistentAddress) -> Result<(), StorageError> {
        self.check(addr)?;
        let hex = addr
            .path
            .strip_prefix("cas/")
            .and_then(|p| p.strip_suffix(".lopr"));
        if let Some(hex) = hex {
            if let Some(entry) = self.cas.get_mut(hex) {
                entry.refs -= 1;
                if entry.refs > 0 {
                    return Ok(());
                }
                self.cas.remove(hex);
                return self.disks[addr.disk as usize].delete(&addr.path);
            }
        }
        self.disks[addr.disk as usize].delete(&addr.path)
    }

    /// Does a file exist at `addr` (and in this jurisdiction)?
    #[cfg(test)]
    pub(crate) fn exists(&self, addr: &PersistentAddress) -> bool {
        self.check(addr).is_ok() && self.disks[addr.disk as usize].read(&addr.path).is_ok()
    }

    /// Corrupt one byte of the file at `addr` (fault injection for tests
    /// and the lifecycle experiments).
    #[cfg(test)]
    pub(crate) fn corrupt(
        &mut self,
        addr: &PersistentAddress,
        offset: usize,
    ) -> Result<(), StorageError> {
        self.check(addr)?;
        let disk = &mut self.disks[addr.disk as usize];
        let bytes = disk
            .files
            .get_mut(&addr.path)
            .ok_or_else(|| StorageError::NotFound(addr.path.clone()))?;
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= 0xFF;
        }
        Ok(())
    }

    /// A fresh Object Persistent Address on the emptiest disk without
    /// writing anything (for two-phase Copy).
    pub fn reserve_address(&mut self, loid: &Loid) -> PersistentAddress {
        let disk = self
            .disks
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.free())
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        self.seq += 1;
        PersistentAddress {
            jurisdiction: self.jurisdiction,
            disk,
            path: format!("opr/{}-{}.lopr", loid, self.seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opr(seq: u64) -> Opr {
        Opr::new(
            Loid::instance(16, seq),
            Loid::class_object(16),
            7,
            vec![1, 2, 3, 4],
        )
    }

    fn storage() -> JurisdictionStorage {
        JurisdictionStorage::new(3, 2, 10_000)
    }

    #[test]
    fn store_load_roundtrip() {
        let mut s = storage();
        let o = opr(1);
        let addr = s.store_opr(&o).unwrap();
        assert_eq!(addr.jurisdiction, 3);
        assert!(s.exists(&addr));
        assert_eq!(s.load_opr(&addr).unwrap(), o);
        assert_eq!(s.file_count(), 1);
        assert!(s.used() > 0);
    }

    #[test]
    fn foreign_jurisdiction_is_refused() {
        let mut s = storage();
        let addr = s.store_opr(&opr(1)).unwrap();
        let mut foreign = addr.clone();
        foreign.jurisdiction = 99;
        assert!(matches!(
            s.load_opr(&foreign),
            Err(StorageError::ForeignJurisdiction {
                ours: 3,
                theirs: 99
            })
        ));
        assert!(!s.exists(&foreign));
    }

    #[test]
    fn missing_file_and_disk() {
        let s = storage();
        let addr = PersistentAddress {
            jurisdiction: 3,
            disk: 0,
            path: "nope".into(),
        };
        assert!(matches!(s.load_opr(&addr), Err(StorageError::NotFound(_))));
        let bad_disk = PersistentAddress {
            jurisdiction: 3,
            disk: 9,
            path: "nope".into(),
        };
        assert!(matches!(
            s.load_opr(&bad_disk),
            Err(StorageError::NoSuchDisk(9))
        ));
    }

    #[test]
    fn delete_frees_space() {
        let mut s = storage();
        let addr = s.store_opr(&opr(1)).unwrap();
        let used = s.used();
        assert!(used > 0);
        s.delete(&addr).unwrap();
        assert_eq!(s.used(), 0);
        assert!(!s.exists(&addr));
        assert!(matches!(s.delete(&addr), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn disk_full_is_reported() {
        let mut s = JurisdictionStorage::new(0, 1, 16);
        let o = opr(1); // encoded OPR far exceeds 16 bytes
        assert!(matches!(
            s.store_opr(&o),
            Err(StorageError::DiskFull { .. })
        ));
        assert_eq!(s.used(), 0, "failed store consumes nothing");
    }

    #[test]
    fn store_spreads_to_emptiest_disk() {
        let mut s = storage();
        let a1 = s.store_opr(&opr(1)).unwrap();
        let a2 = s.store_opr(&opr(2)).unwrap();
        assert_ne!(a1.disk, a2.disk, "second OPR lands on the emptier disk");
    }

    #[test]
    fn corruption_detected_on_load() {
        let mut s = storage();
        let addr = s.store_opr(&opr(1)).unwrap();
        s.corrupt(&addr, 10).unwrap();
        assert!(matches!(s.load_opr(&addr), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn raw_shipping_between_jurisdictions() {
        // Fig. 11 migration path: read raw from one jurisdiction, store at
        // a reserved address in another, load there.
        let mut src = JurisdictionStorage::new(1, 1, 10_000);
        let mut dst = JurisdictionStorage::new(2, 1, 10_000);
        let o = opr(5);
        let a_src = src.store_opr(&o).unwrap();
        let bytes = src.read_raw(&a_src).unwrap();
        let a_dst = dst.reserve_address(&o.loid);
        assert_eq!(a_dst.jurisdiction, 2);
        dst.store_at(&a_dst, bytes).unwrap();
        assert_eq!(dst.load_opr(&a_dst).unwrap(), o);
        src.delete(&a_src).unwrap();
        assert_eq!(src.file_count(), 0);
        assert_eq!(dst.file_count(), 1);
    }

    #[test]
    fn overwrite_accounts_correctly() {
        let mut s = JurisdictionStorage::new(0, 1, 1000);
        let addr = PersistentAddress {
            jurisdiction: 0,
            disk: 0,
            path: "f".into(),
        };
        s.store_at(&addr, vec![0; 100]).unwrap();
        assert_eq!(s.used(), 100);
        s.store_at(&addr, vec![0; 40]).unwrap();
        assert_eq!(s.used(), 40);
        s.store_at(&addr, vec![0; 999]).unwrap();
        assert_eq!(s.used(), 999);
        // Replacing with something that doesn't fit fails cleanly.
        let r = s.store_at(&addr, vec![0; 2000]);
        assert!(matches!(r, Err(StorageError::DiskFull { .. })));
        assert_eq!(s.used(), 999);
    }

    #[test]
    fn identical_checkpoints_dedup_to_one_blob() {
        let mut s = storage();
        let o = opr(1);
        let a1 = s.store_opr(&o).unwrap();
        let used_once = s.used();
        let a2 = s.store_opr(&o).unwrap();
        assert_eq!(a1, a2, "identical content shares one address");
        assert_eq!(s.used(), used_once, "second checkpoint wrote nothing");
        assert_eq!(s.file_count(), 1);
        assert_eq!(s.dedup_hits(), 1);
        assert_eq!(s.logical_bytes(), 2 * used_once);
        // A different checkpoint is a different blob.
        let a3 = s.store_opr(&opr(2)).unwrap();
        assert_ne!(a1, a3);
        assert_eq!(s.file_count(), 2);
    }

    #[test]
    fn dedup_refcount_frees_blob_on_last_delete() {
        let mut s = storage();
        let o = opr(1);
        let a1 = s.store_opr(&o).unwrap();
        let a2 = s.store_opr(&o).unwrap();
        s.delete(&a1).unwrap();
        assert!(s.exists(&a2), "blob survives while a reference remains");
        assert_eq!(s.load_opr(&a2).unwrap(), o);
        s.delete(&a2).unwrap();
        assert!(!s.exists(&a2));
        assert_eq!(s.used(), 0);
        assert!(matches!(s.delete(&a2), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn display_formats() {
        let addr = PersistentAddress {
            jurisdiction: 1,
            disk: 2,
            path: "opr/x".into(),
        };
        assert_eq!(addr.to_string(), "jur1:disk2:opr/x");
        assert!(StorageError::NoSuchDisk(2).to_string().contains("disk 2"));
    }
}
