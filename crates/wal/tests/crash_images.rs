//! Every on-disk state a crash can leave the vote log in must open.
//!
//! The log is one file, so the states are few enough to enumerate: the
//! file cut at *every* byte length (a kill mid-append), a drain
//! interrupted on either side of its rename, and — the refusals — a
//! directory still holding the segmented layout this log replaced, and a
//! partial record with a whole one behind it, which no crash leaves and
//! which `append` must therefore never write.

use lre_artifact::{seal, ArtifactError};
use lre_wal::{Wal, WalOptions, LOG_FILE};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

const K: [u8; 4] = *b"TREC";
const V: u32 = 1;

fn rec(i: u64) -> Vec<u8> {
    // Lengths vary (one payload is empty), so record boundaries fall at
    // irregular offsets.
    seal(K, V, &vec![i as u8; (i as usize * 37) % 101])
}

fn opts() -> WalOptions {
    let mut o = WalOptions::new(K, V);
    o.fsync_interval = Duration::ZERO;
    o
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lre_wal_crash_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A log that has been drained once (so its header's `base_seq` is not
/// zero) and then took `n` appends. Returns the appended records.
fn drained_then_appended(dir: &Path, n: u64) -> Vec<Vec<u8>> {
    let (wal, _) = Wal::open(dir, opts(), None).unwrap();
    for i in 0..3 {
        wal.append(&rec(100 + i)).unwrap();
    }
    wal.clear().unwrap();
    let sent: Vec<Vec<u8>> = (0..n).map(rec).collect();
    for r in &sent {
        wal.append(r).unwrap();
    }
    sent
}

#[test]
fn every_cut_of_the_file_opens_to_a_prefix() {
    let src = tmpdir("cut_src");
    let sent = drained_then_appended(&src, 12);
    let image = fs::read(src.join(LOG_FILE)).unwrap();
    let header_len = image.len() - sent.iter().map(Vec::len).sum::<usize>();

    let d = tmpdir("cut");
    for cut in 0..=image.len() {
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        fs::write(d.join(LOG_FILE), &image[..cut]).unwrap();

        if cut < header_len {
            // Not a crash image: the header lands by rename, whole or not
            // at all. A short one is damage, and says so.
            assert!(
                matches!(Wal::open(&d, opts(), None), Err(ArtifactError::Truncated)),
                "cut {cut}"
            );
            continue;
        }

        let (wal, replay) =
            Wal::open(&d, opts(), None).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let n = replay.records.len();
        assert_eq!(replay.records, sent[..n], "cut {cut}: not a prefix");
        let clean: usize = header_len + sent[..n].iter().map(Vec::len).sum::<usize>();
        assert_eq!(
            replay.torn_tail_records,
            u64::from(cut != clean),
            "cut {cut}"
        );
        assert_eq!(replay.low_water, 3, "cut {cut}");
        assert_eq!(replay.next_seq, 3 + n as u64, "cut {cut}");

        // The next append takes the next number and survives a reopen.
        assert_eq!(wal.append(&rec(200)).unwrap(), 3 + n as u64, "cut {cut}");
        drop(wal);
        let (_, again) = Wal::open(&d, opts(), None).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(again.torn_tail_records, 0, "cut {cut}");
        assert_eq!(again.records.len(), n + 1, "cut {cut}");
        assert_eq!(again.records[..n], sent[..n], "cut {cut}");
        assert_eq!(again.records[n], rec(200), "cut {cut}");
    }
    fs::remove_dir_all(&src).ok();
    fs::remove_dir_all(&d).ok();
}

#[test]
fn an_interrupted_clear_leaves_the_whole_window_or_the_empty_log() {
    // Before the rename: the old log is untouched and a (possibly
    // half-written) temp file sits beside it.
    let d = tmpdir("clear_before");
    let sent = drained_then_appended(&d, 5);
    let tmp = d.join(format!("{LOG_FILE}.tmp"));
    for stray in [&b""[..], &b"LREAWLOG\x01\0\0"[..]] {
        fs::write(&tmp, stray).unwrap();
        let (wal, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.records, sent);
        assert_eq!((replay.low_water, replay.next_seq), (3, 8));
        assert_eq!(replay.torn_tail_records, 0);
        assert!(!tmp.exists(), "the stray temp file is cleaned up");
        drop(wal);
    }

    // After the rename (the directory fsync never ran): exactly what a
    // completed clear leaves. Taken from a real one.
    let (wal, _) = Wal::open(&d, opts(), None).unwrap();
    wal.clear().unwrap();
    drop(wal);
    let (wal, replay) = Wal::open(&d, opts(), None).unwrap();
    assert!(replay.records.is_empty());
    assert_eq!((replay.low_water, replay.next_seq), (8, 8));
    assert_eq!(wal.append(&rec(0)).unwrap(), 8);
    fs::remove_dir_all(&d).ok();
}

/// good · half · good: what a failed `write_all` (a full disk) followed by
/// a successful append would leave if the failed bytes stayed in the file.
/// No crash produces it — a crash tears only the tail — so replay refuses
/// it, and every record after the fault would be lost with it (a later
/// record shorter than the missing half is worse: it reads as the torn
/// tail and is cut away silently). `append` cuts a failed write back to the
/// last whole record so that this image is unreachable (`log.rs`,
/// `a_short_write_is_cut_back_so_later_appends_replay`).
#[test]
fn a_partial_record_before_the_tail_is_refused() {
    let d = tmpdir("half_mid");
    let (wal, _) = Wal::open(&d, opts(), None).unwrap();
    wal.append(&rec(3)).unwrap();
    drop(wal);
    let mut image = fs::read(d.join(LOG_FILE)).unwrap();
    let half = rec(1);
    image.extend_from_slice(&half[..half.len() / 2]);
    image.extend_from_slice(&rec(2));
    fs::write(d.join(LOG_FILE), &image).unwrap();
    match Wal::open(&d, opts(), None) {
        Err(ArtifactError::Corrupt(msg)) => assert_eq!(msg, "torn record before log tail"),
        Err(other) => panic!("expected the torn-record refusal, got {other}"),
        Ok(_) => panic!("a buried partial record opened"),
    }
    fs::remove_dir_all(&d).ok();
}

#[test]
fn the_segmented_layout_is_refused_not_ignored() {
    // What the previous release left behind, down to the state it could
    // not reopen itself: a kill between a roll and the end of its seal —
    // two raw `.log` segments, no `.seg`.
    let d = tmpdir("old_layout");
    fs::create_dir_all(&d).unwrap();
    fs::write(d.join("wal.dir"), seal(*b"WDIR", 1, &[0; 12])).unwrap();
    fs::write(d.join("seg-00000000000000000000.log"), rec(0)).unwrap();
    fs::write(d.join("seg-00000000000000000001.log"), rec(1)).unwrap();
    match Wal::open(&d, opts(), None) {
        Err(ArtifactError::Corrupt(msg)) => assert!(msg.contains("wal.dir"), "{msg}"),
        Err(other) => panic!("expected a Corrupt refusal, got {other}"),
        Ok(_) => panic!("an old-layout directory opened as an empty log"),
    }
    // Refused means untouched: nothing was created beside the old files.
    assert!(!d.join(LOG_FILE).exists());
    fs::remove_dir_all(&d).ok();
}
