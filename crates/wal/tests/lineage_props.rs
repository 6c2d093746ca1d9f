//! Property tests for the generation-lineage chain: under any
//! interleaving of promote / deep-rollback / GC, the chain stays
//! contiguous and acyclic, and every retained generation reloads
//! byte-identically — with its decoded scores pinned by `f32::to_bits`.

use lre_artifact::{bundle_checksum, seal, ArtifactReader, ArtifactWriter};
use lre_wal::{generation_name, LineageError, LineageStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of the adaptation controller's life, as the store sees it.
#[derive(Debug, Clone)]
enum Op {
    /// Boost a candidate off the currently served generation and promote
    /// it (scores are the per-language payload of the synthetic bundle).
    Promote(Vec<f32>),
    /// Deep rollback: re-serve an earlier generation (index into the
    /// retained set at that moment). Changes what the next promote's
    /// parent is; changes nothing in the store.
    Rollback(usize),
    /// Retention pass keeping at most `keep` generations' bytes.
    Gc(usize),
}

fn promote() -> BoxedStrategy<Op> {
    prop::collection::vec(-1000.0f32..1000.0, 1..6)
        .prop_map(Op::Promote)
        .boxed()
}

fn op() -> impl Strategy<Value = Op> {
    // Promote repeated to weight the mix toward chain growth (the
    // vendored prop_oneof! is uniform over its arms).
    prop_oneof![
        promote(),
        promote(),
        promote(),
        (0usize..8).prop_map(Op::Rollback).boxed(),
        (1usize..5).prop_map(Op::Gc).boxed(),
    ]
}

/// A synthetic sealed bundle: generation + score vector. Small, but
/// structurally honest — sealed container, f32 bit patterns inside.
fn bundle(generation: u64, scores: &[f32]) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    w.put_u64(generation);
    w.put_f32_slice(scores);
    seal(*b"SBNL", 1, &w.into_bytes())
}

fn decode_scores(sealed: &[u8]) -> Vec<f32> {
    let payload = lre_artifact::open(sealed, *b"SBNL", 1).unwrap();
    let mut r = ArtifactReader::new(payload);
    r.get_u64().unwrap();
    r.get_f32_slice().unwrap()
}

fn load(store: &LineageStore, generation: u64) -> Result<Vec<u8>, LineageError> {
    Ok(store.file(generation)?.read()?)
}

static DIR_TAG: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lre_wal_lineage_props_{}_{}",
        std::process::id(),
        DIR_TAG.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_interleaving_keeps_the_chain_sound(ops in prop::collection::vec(op(), 1..24)) {
        let dir = fresh_dir();
        let mut store = LineageStore::open(&dir).unwrap();

        // Mirror of the truth: generation -> (sealed bytes, scores), and
        // the generation each was boosted from.
        let root_scores = vec![0.25f32, -1.5];
        let root = bundle(0, &root_scores);
        let src = dir.with_extension("root");
        std::fs::write(&src, &root).unwrap();
        store.record_root(&src, 0).unwrap();
        std::fs::remove_file(&src).unwrap();
        let mut truth: Vec<(Vec<u8>, Vec<f32>)> = vec![(root, root_scores)];
        let mut parents: Vec<u64> = vec![0];
        let mut serving: u64 = 0;

        for op in &ops {
            match op {
                Op::Promote(scores) => {
                    let next = store.head().unwrap().generation + 1;
                    let sealed = bundle(next, scores);
                    let parent_ck = bundle_checksum(&truth[serving as usize].0);
                    let src = dir.with_extension("candidate");
                    std::fs::write(&src, &sealed).unwrap();
                    store.append(&src, next, parent_ck, scores.len() as u32).unwrap();
                    std::fs::remove_file(&src).unwrap();
                    truth.push((sealed, scores.clone()));
                    parents.push(serving);
                    serving = next;
                }
                Op::Rollback(pick) => {
                    let retained: Vec<u64> = store
                        .entries()
                        .iter()
                        .filter(|e| !e.pruned)
                        .map(|e| e.generation)
                        .collect();
                    serving = retained[pick % retained.len()];
                }
                Op::Gc(keep) => {
                    // The controller pins what it serves: GC never takes
                    // the next promote's parent.
                    let pinned = [bundle_checksum(&truth[serving as usize].0)];
                    store.gc(*keep, &pinned).unwrap();
                    let still = store
                        .entries()
                        .iter()
                        .any(|e| e.generation == serving && !e.pruned);
                    prop_assert!(still, "GC pruned the served generation {}", serving);
                }
            }

            // Invariant 1: contiguous generation numbers.
            let entries = store.entries();
            for w in entries.windows(2) {
                prop_assert_eq!(w[1].generation, w[0].generation + 1, "chain not contiguous");
            }
            // Invariant 2: acyclic — every parent checksum names a
            // strictly earlier generation, and (checksums identify) exactly
            // the one it was boosted from.
            for (i, e) in entries.iter().enumerate().skip(1) {
                let named: Vec<u64> = entries[..i]
                    .iter()
                    .filter(|p| p.checksum == e.parent_checksum)
                    .map(|p| p.generation)
                    .collect();
                prop_assert_eq!(
                    named,
                    vec![parents[e.generation as usize]],
                    "generation {} names the wrong parent",
                    e.generation
                );
            }
            // Invariant 3: every retained generation reloads
            // byte-identically, scores pinned bit-for-bit.
            for e in entries.iter().filter(|e| !e.pruned) {
                let loaded = load(&store, e.generation).unwrap();
                let (want_bytes, want_scores) = &truth[e.generation as usize];
                prop_assert_eq!(&loaded, want_bytes, "generation {} bytes drifted", e.generation);
                let got_scores = decode_scores(&loaded);
                prop_assert_eq!(got_scores.len(), want_scores.len());
                for (g, w) in got_scores.iter().zip(want_scores) {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "score bits drifted");
                }
            }
            // Invariant 4: pruned generations refuse loads with the
            // typed error, not garbage.
            for e in entries.iter().filter(|e| e.pruned) {
                prop_assert!(matches!(
                    load(&store, e.generation),
                    Err(LineageError::Pruned(_))
                ));
            }
        }

        // The whole history survives a reopen (crash-restart shape).
        let head = store.head().unwrap().generation;
        let retained = store.retained();
        drop(store);
        let store = LineageStore::open(&dir).unwrap();
        prop_assert_eq!(store.head().unwrap().generation, head);
        prop_assert_eq!(store.retained(), retained);
        for e in store.entries().iter().filter(|e| !e.pruned) {
            let loaded = load(&store, e.generation).unwrap();
            prop_assert_eq!(&loaded, &truth[e.generation as usize].0);
        }
        // Sanity: the per-generation files on disk are exactly the
        // retained set.
        for e in store.entries() {
            prop_assert_eq!(
                dir.join(generation_name(e.generation)).exists(),
                !e.pruned
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
