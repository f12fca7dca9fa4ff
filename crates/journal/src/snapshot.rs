//! Content-addressed state snapshots.
//!
//! A snapshot materializes the kernel's deterministic state as named
//! **sections** (core counters, RNG, event queue, one per endpoint…),
//! each stored as a chunk in a content-addressed blob store. Sections
//! that did not change between snapshots hash to the same [`ChunkId`]
//! and are stored once — snapshots are incremental by construction, the
//! same trick the OPR vault uses for unchanged object checkpoints.
//!
//! The **state root** — a hash over the ordered (section name, chunk id)
//! list — names the whole state in one value. Two runs whose roots match
//! at a snapshot point have byte-identical serialized state there; the
//! journal stores the root in the snapshot mark record, which is how a
//! replay proves it has reconstructed the recorded state.

use legion_persist::cas::{BlobStore, ChunkId, MemBlobStore, Sha256};

/// Metadata for one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotMeta {
    /// 0-based snapshot number within the run.
    pub ordinal: u64,
    /// Virtual time the snapshot was taken.
    pub at: u64,
    /// Journal seq of the snapshot mark record.
    pub seq: u64,
    /// Hash over the ordered (section, chunk) list.
    pub root: ChunkId,
    /// Every section with its chunk id.
    pub sections: Vec<(String, ChunkId)>,
    /// Chunks this snapshot added to the store.
    pub new_chunks: u64,
    /// Chunks shared with earlier snapshots (the incremental win).
    pub deduped: u64,
}

/// Compute the state root of an ordered (section name, chunk id) list.
pub fn sections_root(sections: &[(String, ChunkId)]) -> ChunkId {
    let mut h = Sha256::new();
    for (name, id) in sections {
        h.update(&(name.len() as u64).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&id.0);
    }
    ChunkId(h.finish())
}

/// Hash raw sections straight to a root without storing anything — the
/// verify path, which only needs to compare roots.
pub fn state_root(sections: &[(String, Vec<u8>)]) -> ChunkId {
    let ids: Vec<(String, ChunkId)> = sections
        .iter()
        .map(|(name, bytes)| (name.clone(), ChunkId::of(bytes)))
        .collect();
    sections_root(&ids)
}

/// A run's snapshots plus the chunk store deduplicating their content.
#[derive(Debug, Default, Clone)]
pub struct SnapshotStore {
    blobs: MemBlobStore,
    snaps: Vec<SnapshotMeta>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a snapshot taken at virtual time `at`, whose mark record
    /// will be journal seq `seq`. Returns the new snapshot's metadata.
    pub fn take(&mut self, at: u64, seq: u64, sections: &[(String, Vec<u8>)]) -> &SnapshotMeta {
        let mut ids = Vec::with_capacity(sections.len());
        let mut new_chunks = 0;
        let mut deduped = 0;
        for (name, bytes) in sections {
            let (id, dup) = self.blobs.put(bytes);
            if dup {
                deduped += 1;
            } else {
                new_chunks += 1;
            }
            ids.push((name.clone(), id));
        }
        let root = sections_root(&ids);
        self.snaps.push(SnapshotMeta {
            ordinal: self.snaps.len() as u64,
            at,
            seq,
            root,
            sections: ids,
            new_chunks,
            deduped,
        });
        self.snaps.last().expect("just pushed")
    }

    /// All snapshots in order.
    pub fn snapshots(&self) -> &[SnapshotMeta] {
        &self.snaps
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&SnapshotMeta> {
        self.snaps.last()
    }

    /// The most recent snapshot at or before virtual time `t`.
    #[cfg(test)]
    pub(crate) fn latest_at_or_before(&self, t: u64) -> Option<&SnapshotMeta> {
        self.snaps.iter().rev().find(|s| s.at <= t)
    }

    /// The backing chunk store.
    #[cfg(test)]
    pub(crate) fn blobs(&self) -> &MemBlobStore {
        &self.blobs
    }

    /// Fetch one section of one snapshot.
    #[cfg(test)]
    pub(crate) fn section(&self, ordinal: u64, name: &str) -> Option<Vec<u8>> {
        let snap = self.snaps.get(ordinal as usize)?;
        let (_, id) = snap.sections.iter().find(|(n, _)| n == name)?;
        self.blobs.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sections(core: &str, queue: &str) -> Vec<(String, Vec<u8>)> {
        vec![
            ("core".to_string(), core.as_bytes().to_vec()),
            ("queue".to_string(), queue.as_bytes().to_vec()),
        ]
    }

    #[test]
    fn snapshots_dedup_unchanged_sections() {
        let mut store = SnapshotStore::new();
        let s0 = store.take(100, 5, &sections("state-a", "q1")).clone();
        assert_eq!(s0.new_chunks, 2);
        assert_eq!(s0.deduped, 0);
        // Only the queue changed: core is shared with snapshot 0.
        let s1 = store.take(200, 9, &sections("state-a", "q2")).clone();
        assert_eq!(s1.new_chunks, 1);
        assert_eq!(s1.deduped, 1);
        assert_ne!(s0.root, s1.root);
        assert_eq!(store.blobs().len(), 3);
        // Identical state later: fully deduplicated, same root.
        let s2 = store.take(300, 14, &sections("state-a", "q1")).clone();
        assert_eq!(s2.new_chunks, 0);
        assert_eq!(s2.deduped, 2);
        assert_eq!(s2.root, s0.root);
    }

    #[test]
    fn root_depends_on_names_order_and_content() {
        let a = state_root(&sections("x", "y"));
        let b = state_root(&sections("y", "x"));
        assert_ne!(a, b);
        let renamed = state_root(&[("kore".to_string(), b"x".to_vec())]);
        let named = state_root(&[("core".to_string(), b"x".to_vec())]);
        assert_ne!(renamed, named);
    }

    #[test]
    fn time_travel_lookup() {
        let mut store = SnapshotStore::new();
        store.take(100, 1, &sections("a", "1"));
        store.take(200, 2, &sections("b", "2"));
        store.take(300, 3, &sections("c", "3"));
        assert_eq!(store.latest().unwrap().at, 300);
        assert_eq!(store.latest_at_or_before(250).unwrap().at, 200);
        assert_eq!(store.latest_at_or_before(200).unwrap().at, 200);
        assert!(store.latest_at_or_before(50).is_none());
        assert_eq!(store.section(1, "core").unwrap(), b"b");
        assert_eq!(store.section(1, "missing"), None);
    }
}
