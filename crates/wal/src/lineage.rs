//! The generation-lineage store: every served bundle generation, sealed
//! on disk, restorable bit-identically.
//!
//! The in-memory adaptation controller keeps exactly one previous model
//! for rollback. This store extends that to the full serve history: a
//! chain of generations where each entry records the bundle's checksum,
//! its parent's checksum, and the pristine sealed bytes in a
//! `gen-<generation>.bndl` file. `rollback --to <gen>` loads those exact
//! bytes back — `f32::to_bits`-identical scores follow from the artifact
//! layer's bit-exact float encoding.
//!
//! Chain shape. Generations are **contiguous serve events** (0, 1, 2, …
//! with no gaps): a promote after a deep rollback does not rewind the
//! numbering, it appends the next number with its parent pointer aimed at
//! the generation it was boosted from. The parent pointer must always
//! name a *strictly earlier* generation's checksum, which is what keeps
//! the chain acyclic even though it is not a straight line.
//!
//! Retention. [`LineageStore::gc`] prunes the oldest generations' *bytes*
//! down to a retained count but keeps their index entries (marked pruned),
//! so the chain stays checkable end to end; loading a pruned generation
//! is a typed refusal, not a file-not-found surprise.

use crate::dir::{fsync_dir, write_durable};
use lre_artifact::{crc32, ArtifactError, ArtifactReader, ArtifactWriter};
use std::fs;
use std::path::{Path, PathBuf};

const IDX_FILE: &str = "lineage.idx";
const IDX_KIND: [u8; 4] = *b"GLIN";
const IDX_VERSION: u32 = 1;

/// File name of a retained generation's sealed bundle bytes.
pub fn generation_name(generation: u64) -> String {
    format!("gen-{generation:010}.bndl")
}

/// One chain entry. The sealed bytes live next to the index in
/// `gen-<generation>.bndl` unless `pruned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageEntry {
    pub generation: u64,
    /// CRC-32 of the sealed bundle bytes (the workspace-wide bundle
    /// checksum).
    pub checksum: u32,
    /// Checksum of the bundle this one was boosted from. For the root
    /// entry this is whatever the bundle itself claims (typically 0).
    pub parent_checksum: u32,
    /// Utterances selected into the boost round that produced it.
    pub selected: u32,
    /// Sealed bundle byte length (kept after pruning, so a GC can report
    /// what it reclaimed).
    pub bytes_len: u64,
    /// Bytes discarded by GC; the entry remains for chain validation.
    pub pruned: bool,
}

/// Typed failures of the lineage store, beyond artifact-level damage.
#[derive(Debug)]
pub enum LineageError {
    Artifact(ArtifactError),
    /// The requested generation is not in the chain at all.
    UnknownGeneration(u64),
    /// The generation existed but its bytes were garbage-collected.
    Pruned(u64),
    /// An append that does not extend the chain head by exactly one, or
    /// whose parent checksum matches no earlier generation.
    BrokenChain(&'static str),
}

impl std::fmt::Display for LineageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineageError::Artifact(e) => write!(f, "lineage artifact error: {e}"),
            LineageError::UnknownGeneration(g) => write!(f, "unknown generation {g}"),
            LineageError::Pruned(g) => write!(f, "generation {g} was garbage-collected"),
            LineageError::BrokenChain(what) => write!(f, "lineage chain violation: {what}"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<ArtifactError> for LineageError {
    fn from(e: ArtifactError) -> LineageError {
        LineageError::Artifact(e)
    }
}

impl From<std::io::Error> for LineageError {
    fn from(e: std::io::Error) -> LineageError {
        LineageError::Artifact(ArtifactError::Io(e))
    }
}

/// The on-disk generation chain. Not internally locked: the adaptation
/// controller already serializes promotes and rollbacks, so callers wrap
/// the store in their existing mutex.
pub struct LineageStore {
    path: PathBuf,
    entries: Vec<LineageEntry>,
}

impl LineageStore {
    /// Open (or create) the store at `path` and validate the whole chain:
    /// contiguous generation numbers, acyclic parent pointers, and a
    /// present bundle file for every unpruned entry.
    pub fn open(path: &Path) -> Result<LineageStore, LineageError> {
        fs::create_dir_all(path).map_err(ArtifactError::Io)?;
        let idx_path = path.join(IDX_FILE);
        let entries = match fs::read(&idx_path) {
            Ok(bytes) => decode_index(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(ArtifactError::Io(e).into()),
        };
        let store = LineageStore {
            path: path.to_path_buf(),
            entries,
        };
        store.validate_chain()?;
        Ok(store)
    }

    fn validate_chain(&self) -> Result<(), LineageError> {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                let prev = &self.entries[i - 1];
                if e.generation != prev.generation + 1 {
                    return Err(LineageError::BrokenChain(
                        "generation numbers not contiguous",
                    ));
                }
                if !self.entries[..i]
                    .iter()
                    .any(|p| p.checksum == e.parent_checksum)
                {
                    return Err(LineageError::BrokenChain(
                        "parent checksum matches no earlier generation",
                    ));
                }
            }
            if !e.pruned && !self.path.join(generation_name(e.generation)).exists() {
                return Err(LineageError::BrokenChain(
                    "retained generation file missing",
                ));
            }
        }
        Ok(())
    }

    /// Seed an empty store with the generation being served right now
    /// (the baseline bundle). No-op if the chain already starts.
    pub fn record_root(&mut self, sealed: &[u8], generation: u64) -> Result<(), LineageError> {
        if !self.entries.is_empty() {
            return Ok(());
        }
        self.push_entry(sealed, generation, read_parent_checksum(sealed), 0)
    }

    /// Append the next served generation. `generation` must extend the
    /// head by exactly one and `parent_checksum` must name an earlier
    /// retained-or-pruned generation — the promote path calls this
    /// *before* swapping the scorer, so a bundle is never served that the
    /// chain cannot restore.
    pub fn append(
        &mut self,
        sealed: &[u8],
        generation: u64,
        parent_checksum: u32,
        selected: u32,
    ) -> Result<(), LineageError> {
        let head = self
            .entries
            .last()
            .ok_or(LineageError::BrokenChain("append to an unrooted chain"))?;
        if generation != head.generation + 1 {
            return Err(LineageError::BrokenChain(
                "append must extend the head by one",
            ));
        }
        if !self.entries.iter().any(|e| e.checksum == parent_checksum) {
            return Err(LineageError::BrokenChain(
                "parent checksum matches no earlier generation",
            ));
        }
        self.push_entry(sealed, generation, parent_checksum, selected)
    }

    fn push_entry(
        &mut self,
        sealed: &[u8],
        generation: u64,
        parent_checksum: u32,
        selected: u32,
    ) -> Result<(), LineageError> {
        let entry = LineageEntry {
            generation,
            checksum: crc32(sealed),
            parent_checksum,
            selected,
            bytes_len: sealed.len() as u64,
            pruned: false,
        };
        // Bytes first, index second: a crash in between leaves an orphan
        // bundle file (harmless), never an index entry without bytes.
        write_durable(&self.path, &generation_name(generation), sealed)?;
        self.entries.push(entry);
        self.store_index()?;
        Ok(())
    }

    /// Load the pristine sealed bytes of `generation`, verifying the
    /// stored checksum before handing them out.
    pub fn load(&self, generation: u64) -> Result<Vec<u8>, LineageError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.generation == generation)
            .ok_or(LineageError::UnknownGeneration(generation))?;
        if entry.pruned {
            return Err(LineageError::Pruned(generation));
        }
        let bytes =
            fs::read(self.path.join(generation_name(generation))).map_err(ArtifactError::Io)?;
        if crc32(&bytes) != entry.checksum {
            return Err(ArtifactError::ChecksumMismatch.into());
        }
        Ok(bytes)
    }

    /// The newest chain entry.
    pub fn head(&self) -> Option<&LineageEntry> {
        self.entries.last()
    }

    /// Every chain entry, oldest first (pruned included).
    pub fn entries(&self) -> &[LineageEntry] {
        &self.entries
    }

    /// Entries whose bytes are still on disk.
    pub fn retained(&self) -> usize {
        self.entries.iter().filter(|e| !e.pruned).count()
    }

    /// Bytes currently held by retained generations.
    pub fn retained_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.pruned)
            .map(|e| e.bytes_len)
            .sum()
    }

    /// Prune the oldest retained generations until at most `keep_count`
    /// remain. The head is never pruned — the serving generation must stay
    /// restorable. Returns (generations pruned, bytes reclaimed).
    pub fn gc(&mut self, keep_count: usize) -> Result<(u64, u64), LineageError> {
        let keep_count = keep_count.max(1);
        let mut pruned = 0u64;
        let mut reclaimed = 0u64;
        // At least two are retained here, so the oldest is not the head.
        while self.retained() > keep_count {
            let oldest = self
                .entries
                .iter_mut()
                .find(|e| !e.pruned)
                .expect("more than one generation is retained");
            fs::remove_file(self.path.join(generation_name(oldest.generation))).ok();
            oldest.pruned = true;
            pruned += 1;
            reclaimed += oldest.bytes_len;
        }
        if pruned > 0 {
            fsync_dir(&self.path)?;
            self.store_index()?;
        }
        Ok((pruned, reclaimed))
    }

    fn store_index(&self) -> Result<(), LineageError> {
        let mut w = ArtifactWriter::new();
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_u64(e.generation);
            w.put_u32(e.checksum);
            w.put_u32(e.parent_checksum);
            w.put_u32(e.selected);
            w.put_u64(e.bytes_len);
            w.put_u8(u8::from(e.pruned));
        }
        let sealed = lre_artifact::seal(IDX_KIND, IDX_VERSION, &w.into_bytes());
        write_durable(&self.path, IDX_FILE, &sealed)?;
        Ok(())
    }
}

fn decode_index(bytes: &[u8]) -> Result<Vec<LineageEntry>, ArtifactError> {
    let payload = lre_artifact::open(bytes, IDX_KIND, IDX_VERSION)?;
    let mut r = ArtifactReader::new(payload);
    let count = r.get_count(29)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(LineageEntry {
            generation: r.get_u64()?,
            checksum: r.get_u32()?,
            parent_checksum: r.get_u32()?,
            selected: r.get_u32()?,
            bytes_len: r.get_u64()?,
            pruned: match r.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(ArtifactError::Corrupt("unknown pruned flag")),
            },
        });
    }
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes);
    }
    Ok(entries)
}

/// Best-effort read of a sealed bundle's own parent-checksum field is the
/// bundle format's business, not ours; the root entry simply records 0
/// when the caller has nothing better.
fn read_parent_checksum(_sealed: &[u8]) -> u32 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_artifact::seal;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lre_wal_lin_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A synthetic sealed "bundle": a BNDL-tagged container of f32 bits.
    fn bundle(gen: u64, scores: &[f32]) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.put_u64(gen);
        w.put_f32_slice(scores);
        seal(*b"BNDL", 4, &w.into_bytes())
    }

    #[test]
    fn chain_appends_and_reloads_bit_identically() {
        let d = tmpdir("chain");
        let b0 = bundle(0, &[0.5, -1.25, f32::MIN_POSITIVE]);
        let b1 = bundle(1, &[0.75, -1.0, 3.5]);
        let b2 = bundle(2, &[0.125, 2.0, -0.0]);
        {
            let mut store = LineageStore::open(&d).unwrap();
            store.record_root(&b0, 0).unwrap();
            store.append(&b1, 1, crc32(&b0), 10).unwrap();
            store.append(&b2, 2, crc32(&b1), 12).unwrap();
        }
        let store = LineageStore::open(&d).unwrap();
        assert_eq!(store.head().unwrap().generation, 2);
        for (gen, want) in [(0, &b0), (1, &b1), (2, &b2)] {
            let got = store.load(gen).unwrap();
            assert_eq!(&got, want, "generation {gen} must be byte-identical");
        }
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn append_enforces_contiguity_and_known_parent() {
        let d = tmpdir("enforce");
        let mut store = LineageStore::open(&d).unwrap();
        let b0 = bundle(0, &[1.0]);
        assert!(matches!(
            store.append(&bundle(1, &[2.0]), 1, 0, 0),
            Err(LineageError::BrokenChain(_))
        ));
        store.record_root(&b0, 0).unwrap();
        // Gap in numbering.
        assert!(matches!(
            store.append(&bundle(2, &[2.0]), 2, crc32(&b0), 0),
            Err(LineageError::BrokenChain(_))
        ));
        // Unknown parent checksum.
        assert!(matches!(
            store.append(&bundle(1, &[2.0]), 1, 0xDEAD_BEEF, 0),
            Err(LineageError::BrokenChain(_))
        ));
        // Parent may be any earlier generation (post-deep-rollback shape).
        let b1 = bundle(1, &[2.0]);
        store.append(&b1, 1, crc32(&b0), 0).unwrap();
        store.append(&bundle(2, &[3.0]), 2, crc32(&b0), 0).unwrap();
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn gc_prunes_oldest_keeps_head_and_chain_stays_valid() {
        let d = tmpdir("gc");
        let mut store = LineageStore::open(&d).unwrap();
        let mut bundles = vec![bundle(0, &[0.0])];
        store.record_root(&bundles[0], 0).unwrap();
        for g in 1..6u64 {
            let b = bundle(g, &[g as f32]);
            let parent = crc32(&bundles[g as usize - 1]);
            store.append(&b, g, parent, g as u32).unwrap();
            bundles.push(b);
        }
        let (pruned, reclaimed) = store.gc(3).unwrap();
        assert_eq!(pruned, 3);
        assert!(reclaimed > 0);
        assert_eq!(store.retained(), 3);
        assert!(matches!(store.load(0), Err(LineageError::Pruned(0))));
        assert!(matches!(
            store.load(9),
            Err(LineageError::UnknownGeneration(9))
        ));
        assert_eq!(store.load(5).unwrap(), bundles[5]);
        // Entries survive for chain validation, and reopen still validates.
        assert_eq!(store.entries().len(), 6);
        drop(store);
        let mut store = LineageStore::open(&d).unwrap();
        assert_eq!(store.retained(), 3);
        assert_eq!(store.load(4).unwrap(), bundles[4]);
        // Asked to keep nothing, GC still keeps the head.
        let (pruned, reclaimed) = store.gc(0).unwrap();
        let freed = store.entries()[3].bytes_len + store.entries()[4].bytes_len;
        assert_eq!((pruned, reclaimed), (2, freed));
        assert_eq!(store.retained(), 1);
        assert_eq!(store.load(5).unwrap(), bundles[5]);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn damaged_bundle_bytes_are_refused_at_load() {
        let d = tmpdir("damage");
        let mut store = LineageStore::open(&d).unwrap();
        let b0 = bundle(0, &[1.0, 2.0]);
        store.record_root(&b0, 0).unwrap();
        let path = d.join(generation_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(0),
            Err(LineageError::Artifact(ArtifactError::ChecksumMismatch))
        ));
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn missing_retained_file_fails_open_validation() {
        let d = tmpdir("missing");
        {
            let mut store = LineageStore::open(&d).unwrap();
            store.record_root(&bundle(0, &[1.0]), 0).unwrap();
        }
        fs::remove_file(d.join(generation_name(0))).unwrap();
        assert!(matches!(
            LineageStore::open(&d),
            Err(LineageError::BrokenChain(_))
        ));
        fs::remove_dir_all(&d).ok();
    }
}
