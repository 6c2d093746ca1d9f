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
//!
//! Bundles enter the chain from files and leave it as files: an append
//! copies a sealed container a piece at a time, checking it on the way,
//! and [`LineageStore::file`] names a retained generation's file with the
//! identity every read of it must find. A [`LineageStore::scratch`] chain
//! is the same store in a private directory nothing reopens.

use crate::dir::{fsync_dir, write_durable, write_durable_with, ScratchDir};
use lre_artifact::{
    copy_sealed, ArtifactError, ArtifactReader, ArtifactWriter, SealedFile, SealedId,
};
use std::fs::{self, File};
use std::path::{Path, PathBuf};

const IDX_FILE: &str = "lineage.idx";
const IDX_KIND: [u8; 4] = *b"GLIN";
const IDX_VERSION: u32 = 1;

/// Name prefix of a scratch chain's directory: `lre-bundles-<pid>-<n>`.
pub const SCRATCH_PREFIX: &str = "lre-bundles";

/// File name of a retained generation's sealed bundle bytes.
pub fn generation_name(generation: u64) -> String {
    format!("gen-{generation:010}.bndl")
}

/// One chain entry. The sealed bytes live next to the index in
/// `gen-<generation>.bndl` unless `pruned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageEntry {
    pub generation: u64,
    /// The sealed bundle's CRC-32 trailer (the workspace-wide bundle
    /// checksum, [`lre_artifact::bundle_checksum`]).
    pub checksum: u32,
    /// Checksum of the bundle this one was boosted from; 0 for the root.
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
    /// A scratch chain's directory, removed when the store drops.
    scratch: Option<ScratchDir>,
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
            scratch: None,
        };
        store.validate_chain()?;
        Ok(store)
    }

    /// An empty chain that nothing ever reopens, in a fresh
    /// `lre-bundles-<pid>-<n>` directory under [`std::env::temp_dir`],
    /// removed with the store: where a controller without a durable
    /// lineage keeps the bundles it serves.
    pub fn scratch() -> Result<LineageStore, LineageError> {
        let dir = ScratchDir::create(&std::env::temp_dir(), SCRATCH_PREFIX)?;
        Ok(LineageStore {
            path: dir.path().to_path_buf(),
            entries: Vec::new(),
            scratch: Some(dir),
        })
    }

    /// The chain's directory.
    pub fn dir(&self) -> &Path {
        &self.path
    }

    /// Whether this is a [`LineageStore::scratch`] chain.
    pub fn is_scratch(&self) -> bool {
        self.scratch.is_some()
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
    /// (the baseline bundle), copied from the sealed container in file
    /// `src`. No-op if the chain already starts.
    pub fn record_root(&mut self, src: &Path, generation: u64) -> Result<(), LineageError> {
        if !self.entries.is_empty() {
            return Ok(());
        }
        self.push_entry(src, generation, 0, 0)
    }

    /// Append the next served generation, copied from the sealed
    /// container in file `src`. `generation` must extend the head by
    /// exactly one and `parent_checksum` must name an earlier
    /// retained-or-pruned generation — the promote path calls this
    /// *before* swapping the scorer, so a bundle is never served that the
    /// chain cannot restore.
    pub fn append(
        &mut self,
        src: &Path,
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
        self.push_entry(src, generation, parent_checksum, selected)
    }

    /// Copy `src` into the chain as `generation`, checking the container
    /// as it streams (a damaged source lands nothing), and record it.
    fn push_entry(
        &mut self,
        src: &Path,
        generation: u64,
        parent_checksum: u32,
        selected: u32,
    ) -> Result<(), LineageError> {
        // Bytes first, index second: a crash in between leaves an orphan
        // bundle file (harmless), never an index entry without bytes.
        let id = write_durable_with(&self.path, &generation_name(generation), |f| {
            copy_sealed(File::open(src)?, f)
        })?;
        self.entries.push(LineageEntry {
            generation,
            checksum: id.crc,
            parent_checksum,
            selected,
            bytes_len: id.len,
            pruned: false,
        });
        self.store_index()?;
        Ok(())
    }

    /// The file of retained generation `generation`, with the identity
    /// the chain recorded for it. Nothing is read here: every read of a
    /// [`SealedFile`] checks that the file still holds that container.
    pub fn file(&self, generation: u64) -> Result<SealedFile, LineageError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.generation == generation)
            .ok_or(LineageError::UnknownGeneration(generation))?;
        if entry.pruned {
            return Err(LineageError::Pruned(generation));
        }
        Ok(SealedFile {
            path: self.path.join(generation_name(generation)),
            id: SealedId {
                len: entry.bytes_len,
                crc: entry.checksum,
            },
        })
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
    /// restorable — nor a generation whose checksum is in `pinned` (what a
    /// controller serves, or would roll back to): those stay even past
    /// `keep_count`. Returns (generations pruned, bytes reclaimed).
    pub fn gc(&mut self, keep_count: usize, pinned: &[u32]) -> Result<(u64, u64), LineageError> {
        let keep_count = keep_count.max(1);
        let head = self.entries.last().map(|e| e.generation);
        let mut retained = self.retained();
        let mut pruned = 0u64;
        let mut reclaimed = 0u64;
        for e in &mut self.entries {
            if retained <= keep_count {
                break;
            }
            if e.pruned || Some(e.generation) == head || pinned.contains(&e.checksum) {
                continue;
            }
            fs::remove_file(self.path.join(generation_name(e.generation))).ok();
            e.pruned = true;
            retained -= 1;
            pruned += 1;
            reclaimed += e.bytes_len;
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

#[cfg(test)]
mod tests {
    use super::*;
    use lre_artifact::{bundle_checksum, seal};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lre_wal_lin_{tag}_{}", std::process::id()));
        cleanup(&d);
        d
    }

    fn cleanup(d: &Path) {
        let _ = fs::remove_dir_all(d);
        let _ = fs::remove_dir_all(d.with_extension("src"));
    }

    /// `bytes` as a file the chain in `d` can take a bundle from.
    fn source(d: &Path, bytes: &[u8]) -> PathBuf {
        let dir = d.with_extension("src");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{:08x}-{}", bundle_checksum(bytes), bytes.len()));
        fs::write(&path, bytes).unwrap();
        path
    }

    fn load(store: &LineageStore, generation: u64) -> Result<Vec<u8>, LineageError> {
        Ok(store.file(generation)?.read()?)
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
            store.record_root(&source(&d, &b0), 0).unwrap();
            store
                .append(&source(&d, &b1), 1, bundle_checksum(&b0), 10)
                .unwrap();
            store
                .append(&source(&d, &b2), 2, bundle_checksum(&b1), 12)
                .unwrap();
        }
        let store = LineageStore::open(&d).unwrap();
        assert_eq!(store.head().unwrap().generation, 2);
        for (gen, want) in [(0, &b0), (1, &b1), (2, &b2)] {
            let got = load(&store, gen).unwrap();
            assert_eq!(&got, want, "generation {gen} must be byte-identical");
        }
        cleanup(&d);
    }

    #[test]
    fn append_enforces_contiguity_and_known_parent() {
        let d = tmpdir("enforce");
        let mut store = LineageStore::open(&d).unwrap();
        let b0 = bundle(0, &[1.0]);
        let src = |b: Vec<u8>| source(&d, &b);
        assert!(matches!(
            store.append(&src(bundle(1, &[2.0])), 1, 0, 0),
            Err(LineageError::BrokenChain(_))
        ));
        store.record_root(&src(b0.clone()), 0).unwrap();
        // Gap in numbering.
        assert!(matches!(
            store.append(&src(bundle(2, &[2.0])), 2, bundle_checksum(&b0), 0),
            Err(LineageError::BrokenChain(_))
        ));
        // Unknown parent checksum.
        assert!(matches!(
            store.append(&src(bundle(1, &[2.0])), 1, 0xDEAD_BEEF, 0),
            Err(LineageError::BrokenChain(_))
        ));
        // Parent may be any earlier generation (post-deep-rollback shape).
        let b1 = bundle(1, &[2.0]);
        store.append(&src(b1), 1, bundle_checksum(&b0), 0).unwrap();
        store
            .append(&src(bundle(2, &[3.0])), 2, bundle_checksum(&b0), 0)
            .unwrap();
        // A source that is not an intact container lands nothing.
        let mut torn = bundle(3, &[4.0]);
        torn.pop();
        assert!(matches!(
            store.append(&src(torn), 3, bundle_checksum(&b0), 0),
            Err(LineageError::Artifact(ArtifactError::Truncated))
        ));
        assert_eq!(store.head().unwrap().generation, 2);
        assert!(!d.join(generation_name(3)).exists());
        assert!(!d.join(format!("{}.tmp", generation_name(3))).exists());
        cleanup(&d);
    }

    #[test]
    fn gc_prunes_oldest_keeps_head_and_chain_stays_valid() {
        let d = tmpdir("gc");
        let mut store = LineageStore::open(&d).unwrap();
        let mut bundles = vec![bundle(0, &[0.0])];
        store.record_root(&source(&d, &bundles[0]), 0).unwrap();
        for g in 1..6u64 {
            let b = bundle(g, &[g as f32]);
            let parent = bundle_checksum(&bundles[g as usize - 1]);
            store.append(&source(&d, &b), g, parent, g as u32).unwrap();
            bundles.push(b);
        }
        let (pruned, reclaimed) = store.gc(3, &[]).unwrap();
        assert_eq!(pruned, 3);
        assert!(reclaimed > 0);
        assert_eq!(store.retained(), 3);
        assert!(matches!(load(&store, 0), Err(LineageError::Pruned(0))));
        assert!(matches!(
            load(&store, 9),
            Err(LineageError::UnknownGeneration(9))
        ));
        assert_eq!(load(&store, 5).unwrap(), bundles[5]);
        // Entries survive for chain validation, and reopen still validates.
        assert_eq!(store.entries().len(), 6);
        drop(store);
        let mut store = LineageStore::open(&d).unwrap();
        assert_eq!(store.retained(), 3);
        assert_eq!(load(&store, 4).unwrap(), bundles[4]);
        // Asked to keep nothing, GC still keeps the head.
        let (pruned, reclaimed) = store.gc(0, &[]).unwrap();
        let freed = store.entries()[3].bytes_len + store.entries()[4].bytes_len;
        assert_eq!((pruned, reclaimed), (2, freed));
        assert_eq!(store.retained(), 1);
        assert_eq!(load(&store, 5).unwrap(), bundles[5]);
        cleanup(&d);
    }

    /// GC passes over the generations it is told are in use, however
    /// old: they stay retained past the budget, and the next-oldest go.
    #[test]
    fn gc_keeps_pinned_generations_past_the_budget() {
        let d = tmpdir("pinned");
        let mut store = LineageStore::open(&d).unwrap();
        let bundles: Vec<Vec<u8>> = (0..5u64).map(|g| bundle(g, &[g as f32])).collect();
        store.record_root(&source(&d, &bundles[0]), 0).unwrap();
        for g in 1..5u64 {
            let parent = bundle_checksum(&bundles[0]);
            store
                .append(&source(&d, &bundles[g as usize]), g, parent, 0)
                .unwrap();
        }
        let pinned = [bundle_checksum(&bundles[0]), bundle_checksum(&bundles[2])];
        let (pruned, _) = store.gc(1, &pinned).unwrap();
        assert_eq!(pruned, 2, "generations 1 and 3 go");
        let kept: Vec<u64> = store
            .entries()
            .iter()
            .filter(|e| !e.pruned)
            .map(|e| e.generation)
            .collect();
        assert_eq!(kept, [0, 2, 4]);
        for g in [0, 2, 4] {
            assert_eq!(load(&store, g).unwrap(), bundles[g as usize]);
        }
        assert_eq!(
            store.gc(1, &pinned).unwrap(),
            (0, 0),
            "nothing left to prune"
        );
        cleanup(&d);
    }

    #[test]
    fn damaged_bundle_bytes_are_refused_at_load() {
        let d = tmpdir("damage");
        let mut store = LineageStore::open(&d).unwrap();
        let b0 = bundle(0, &[1.0, 2.0]);
        store.record_root(&source(&d, &b0), 0).unwrap();
        let path = d.join(generation_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&store, 0),
            Err(LineageError::Artifact(ArtifactError::ChecksumMismatch))
        ));
        cleanup(&d);
    }

    /// The chain's identity checks tell apart bundles one payload byte
    /// apart: a parent pointer to the near twin of the root names no
    /// earlier generation, and a retained file replaced by its own near
    /// twin (a valid container) is refused at load.
    #[test]
    fn a_bundle_one_payload_byte_away_fails_each_identity_check() {
        let d = tmpdir("twin");
        let mut store = LineageStore::open(&d).unwrap();
        let twin = |scores: &[f32]| {
            let mut scores = scores.to_vec();
            scores[0] = f32::from_bits(scores[0].to_bits() ^ 1);
            scores
        };
        let (s0, s1) = ([1.0f32, 2.0], [3.0f32, 4.0]);
        let (b0, b1) = (bundle(0, &s0), bundle(1, &s1));
        let (b0_twin, b1_twin) = (bundle(0, &twin(&s0)), bundle(1, &twin(&s1)));
        assert_ne!(bundle_checksum(&b0), bundle_checksum(&b0_twin));
        store.record_root(&source(&d, &b0), 0).unwrap();
        assert!(matches!(
            store.append(&source(&d, &b1), 1, bundle_checksum(&b0_twin), 0),
            Err(LineageError::BrokenChain(_))
        ));
        store
            .append(&source(&d, &b1), 1, bundle_checksum(&b0), 0)
            .unwrap();
        assert_eq!(store.head().unwrap().parent_checksum, bundle_checksum(&b0));
        fs::write(d.join(generation_name(1)), &b1_twin).unwrap();
        assert!(matches!(
            load(&store, 1),
            Err(LineageError::Artifact(ArtifactError::Corrupt(_)))
        ));
        cleanup(&d);
    }

    #[test]
    fn missing_retained_file_fails_open_validation() {
        let d = tmpdir("missing");
        {
            let mut store = LineageStore::open(&d).unwrap();
            store
                .record_root(&source(&d, &bundle(0, &[1.0])), 0)
                .unwrap();
        }
        fs::remove_file(d.join(generation_name(0))).unwrap();
        assert!(matches!(
            LineageStore::open(&d),
            Err(LineageError::BrokenChain(_))
        ));
        cleanup(&d);
    }

    /// A scratch chain lives in its own fresh directory under the temp
    /// dir and leaves nothing behind when it drops.
    #[test]
    fn a_scratch_chain_is_private_and_removed_with_its_store() {
        let (mut a, b) = (
            LineageStore::scratch().unwrap(),
            LineageStore::scratch().unwrap(),
        );
        assert!(a.is_scratch() && !LineageStore::open(&tmpdir("durable")).unwrap().is_scratch());
        assert_ne!(a.path, b.path);
        let name = a.path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(&format!("{SCRATCH_PREFIX}-{}-", std::process::id())));
        assert!(a.path.starts_with(std::env::temp_dir()));
        let d = tmpdir("scratch_src");
        let b0 = bundle(0, &[1.0]);
        a.record_root(&source(&d, &b0), 0).unwrap();
        assert_eq!(load(&a, 0).unwrap(), b0);
        let dir = a.path.clone();
        drop(a);
        assert!(!dir.exists());
        cleanup(&d);
        cleanup(&tmpdir("durable"));
    }
}
