//! The write-ahead log: one append-only file.
//!
//! [`Wal`] appends opaque *sealed records* — complete `lre-artifact`
//! containers of one configured kind (the vote log uses `VREC`) — to
//! `wal.log` in its directory, and on restart replays every record that
//! was durable at the crash. The file is a small sealed header carrying
//! `base_seq`, the sequence number of the first record in it, then the
//! records back to back. Each record is a complete container with its own
//! length and CRC, so the file needs no further framing and a crash can
//! only tear the *final* record.
//!
//! * **Appends** are one `write_all`; durability is batched — a
//!   background thread fsyncs the file every `fsync_interval` (interval
//!   zero = fsync inline on every append, and no thread). A kill -9
//!   therefore loses at most one interval of acknowledged records, and
//!   never a byte that a [`Wal::sync`] returned for. A write that fails
//!   part-way (a full disk) is cut back to the end of the last whole
//!   record before the error is returned, so the next append cannot land
//!   behind a partial one.
//! * **Drain**: [`Wal::clear`] starts the file over as a bare header whose
//!   `base_seq` is the next sequence number — written under a temp name,
//!   fsynced, renamed over the log, directory fsynced. A crash at any
//!   point leaves either the whole old window or the empty log.
//! * **Replay**: [`Wal::open`] walks the records, cuts a torn *tail*
//!   record (the signature of a crash mid-append) back to the last clean
//!   boundary, and hands back every surviving record in order. Damage
//!   anywhere before the tail cannot be explained by a crash and is
//!   refused.
//!
//! Every crash image is one of four, and all four open: no file; header +
//! clean records; header + clean records + torn tail; any of those plus a
//! stray `wal.log.tmp` from an interrupted [`Wal::clear`].

use crate::dir::{fsync_dir, replace_file};
use lre_artifact::{open_prefix, seal, ArtifactError, HEADER_LEN, MAGIC, TRAILER_LEN};
use lre_obs::{Counter, FlightRecorder, Histogram, Registry, EV_WAL_RECOVER};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// The log's file name inside its directory.
pub const LOG_FILE: &str = "wal.log";

/// Index file of the segmented layout this log replaced; a directory
/// holding one is refused, not reinterpreted.
const OLD_INDEX_FILE: &str = "wal.dir";

const LOG_KIND: [u8; 4] = *b"WLOG";
const LOG_VERSION: u32 = 1;

/// Configuration for a [`Wal`].
#[derive(Clone)]
pub struct WalOptions {
    /// Container kind every appended record must carry.
    pub record_kind: [u8; 4],
    /// Container version every appended record must carry.
    pub record_version: u32,
    /// Durability interval for fsync batching. `Duration::ZERO` fsyncs
    /// inline on every append (maximum durability, per-append cost).
    pub fsync_interval: Duration,
}

impl WalOptions {
    /// Options for a log of `kind`/`version` records with 50 ms fsync
    /// batching.
    pub fn new(record_kind: [u8; 4], record_version: u32) -> WalOptions {
        WalOptions {
            record_kind,
            record_version,
            fsync_interval: Duration::from_millis(50),
        }
    }
}

/// Pre-registered WAL telemetry. Cloneable (the fsync thread keeps its
/// own handle); every series lives under the `wal.` prefix.
#[derive(Clone)]
pub struct WalObs {
    pub append_us: Arc<Histogram>,
    pub fsync_us: Arc<Histogram>,
    pub appended_records: Arc<Counter>,
    pub replayed_records: Arc<Counter>,
    pub torn_records: Arc<Counter>,
    pub write_errors: Arc<Counter>,
    pub flight: Option<Arc<FlightRecorder>>,
}

impl WalObs {
    /// Register (or re-attach to) the `wal.*` series in `registry`.
    pub fn new(registry: &Registry, flight: Option<Arc<FlightRecorder>>) -> WalObs {
        WalObs {
            append_us: registry.histogram("wal.append_us"),
            fsync_us: registry.histogram("wal.fsync_us"),
            appended_records: registry.counter("wal.appended_records"),
            replayed_records: registry.counter("wal.replayed_records"),
            torn_records: registry.counter("wal.torn_records"),
            write_errors: registry.counter("wal.write_errors"),
            flight,
        }
    }
}

/// What [`Wal::open`] recovered from disk.
pub struct WalReplay {
    /// Every durable record, in append order and in its original sealed
    /// container form; record `i` has sequence number `low_water + i`.
    pub records: Vec<Vec<u8>>,
    /// Torn tail records cut away (0 or 1 — only the final record can
    /// tear).
    pub torn_tail_records: u64,
    /// Sequence number of the first record in the log (the header's
    /// `base_seq`): everything below it was drained.
    pub low_water: u64,
    /// Sequence number the next append will receive.
    pub next_seq: u64,
}

/// A point-in-time summary of the log, cheap enough for a status RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatus {
    /// Total records ever appended (the next sequence number).
    pub next_seq: u64,
    /// First sequence number still in the log.
    pub low_water: u64,
    /// Records currently in the log (`next_seq - low_water`).
    pub buffered: u64,
    /// Records replayed by this process's `open`.
    pub replayed: u64,
    /// Torn tail records cut away by this process's `open`.
    pub torn: u64,
    /// Successful fsyncs of the log file since open.
    pub fsyncs: u64,
    /// Appends not yet covered by a successful fsync.
    pub unsynced: u64,
    /// [`Wal::append`] and [`Wal::clear`] calls that failed at the file
    /// since open: each is a record a crash would lose, or a drained
    /// window a restart would replay.
    pub write_errors: u64,
}

struct Inner {
    /// The log file, positioned at its end.
    file: File,
    /// File length at the end of the last whole record: where a failed
    /// append cuts the file back to.
    good_len: u64,
    /// Set when that cut itself failed. The file may end in a partial
    /// record, and a record appended behind it would make replay refuse the
    /// whole log, so every later append fails with this instead.
    uncut: Option<io::ErrorKind>,
    /// Test seam: the next append writes half its record, then `ENOSPC`.
    #[cfg(test)]
    short_write: bool,
    base_seq: u64,
    next_seq: u64,
    /// Records below this are on stable storage.
    synced_seq: u64,
    fsyncs: u64,
    replayed: u64,
    torn: u64,
    write_errors: u64,
    stopping: bool,
}

impl Inner {
    /// Write one record at the end of the file, whole or not at all.
    fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        if let Some(kind) = self.uncut {
            return Err(io::Error::new(
                kind,
                "an earlier failed append left a partial record that could not be cut away",
            ));
        }
        let written = self.write_all_or_short(record);
        match &written {
            Ok(()) => self.good_len += record.len() as u64,
            Err(e) => {
                let cut = self
                    .file
                    .set_len(self.good_len)
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.good_len)));
                if cut.is_err() {
                    self.uncut = Some(e.kind());
                }
            }
        }
        written
    }

    fn write_all_or_short(&mut self, record: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.short_write) {
            self.file.write_all(&record[..record.len() / 2])?;
            return Err(io::ErrorKind::StorageFull.into());
        }
        self.file.write_all(record)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.synced_seq = self.next_seq;
        self.fsyncs += 1;
        Ok(())
    }
}

struct Shared {
    inner: Mutex<Inner>,
    cv: Condvar,
    path: PathBuf,
    opts: WalOptions,
    obs: Option<WalObs>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("wal poisoned")
    }

    /// A failed append or drain, counted on its way out to the caller: the
    /// callers that carry on without the log (the vote window does) leave
    /// the degraded state readable here.
    fn counted<T>(&self, inner: &mut Inner, result: io::Result<T>) -> io::Result<T> {
        if result.is_err() {
            inner.write_errors += 1;
            if let Some(obs) = &self.obs {
                obs.write_errors.incr();
            }
        }
        result
    }

    /// One batched fsync: cover every append made so far, outside the
    /// lock so appends keep flowing. A failed sync changes nothing — the
    /// records stay counted as unsynced and the next interval retries.
    fn sync_pending(&self) {
        let (file, upto) = {
            let inner = self.lock();
            if inner.synced_seq == inner.next_seq {
                return;
            }
            match inner.file.try_clone() {
                Ok(file) => (file, inner.next_seq),
                Err(_) => return,
            }
        };
        let t0 = Instant::now();
        if file.sync_data().is_err() {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.fsync_us.record(t0.elapsed().as_micros() as u64);
        }
        let mut inner = self.lock();
        // A `clear()` meanwhile already moved the mark past `upto`.
        inner.synced_seq = inner.synced_seq.max(upto);
        inner.fsyncs += 1;
    }
}

/// The write-ahead log. All methods take `&self`; appends and the drain
/// serialize on one internal mutex, batched fsync runs on a background
/// thread.
pub struct Wal {
    shared: Arc<Shared>,
    fsync_thread: Option<thread::JoinHandle<()>>,
}

impl Wal {
    /// Open (or create) the WAL in directory `path`, replaying whatever
    /// survived. The caller owns feeding [`WalReplay::records`] back into
    /// its in-memory state.
    pub fn open(
        path: &Path,
        opts: WalOptions,
        obs: Option<WalObs>,
    ) -> Result<(Wal, WalReplay), ArtifactError> {
        fs::create_dir_all(path)?;
        if path.join(OLD_INDEX_FILE).exists() {
            return Err(ArtifactError::Corrupt(
                "directory holds a segmented vote log (wal.dir), which this release cannot read",
            ));
        }
        // Left by a `clear()` that died before its rename: the log it was
        // about to replace is still whole.
        match fs::remove_file(path.join(format!("{LOG_FILE}.tmp"))) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }

        let log = path.join(LOG_FILE);
        let (file, good_len, base_seq, records, torn) = match fs::read(&log) {
            Ok(bytes) => {
                let (payload, header_len) = open_prefix(&bytes, LOG_KIND, LOG_VERSION)?;
                let base_seq = u64::from_le_bytes(
                    payload
                        .try_into()
                        .map_err(|_| ArtifactError::Corrupt("log header is not a base_seq"))?,
                );
                let (records, torn) =
                    walk_records(&bytes[header_len..], opts.record_kind, opts.record_version)?;
                let file = OpenOptions::new().append(true).open(&log)?;
                let clean = (header_len + records.iter().map(Vec::len).sum::<usize>()) as u64;
                if torn {
                    // Cut the torn bytes away so the stream stays framed.
                    file.set_len(clean)?;
                    file.sync_data()?;
                }
                (file, clean, base_seq, records, u64::from(torn))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let (file, header_len) = start_log(path, 0)?;
                fsync_dir(path)?;
                (file, header_len, 0, Vec::new(), 0)
            }
            Err(e) => return Err(e.into()),
        };
        let replayed = records.len() as u64;
        let next_seq = base_seq
            .checked_add(replayed)
            .ok_or(ArtifactError::Corrupt("log header base_seq overflows"))?;

        if let Some(obs) = &obs {
            obs.replayed_records.add(replayed);
            obs.torn_records.add(torn);
            if let Some(flight) = &obs.flight {
                flight.record(EV_WAL_RECOVER, "wal replay", replayed, torn, 0.0, 0.0);
            }
        }

        let batched = !opts.fsync_interval.is_zero();
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                file,
                good_len,
                uncut: None,
                #[cfg(test)]
                short_write: false,
                base_seq,
                next_seq,
                synced_seq: next_seq,
                fsyncs: 0,
                replayed,
                torn,
                write_errors: 0,
                stopping: false,
            }),
            cv: Condvar::new(),
            path: path.to_path_buf(),
            opts,
            obs,
        });
        let fsync_thread = if batched {
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("lre-wal".into())
                    .spawn(move || fsync_loop(&shared))?,
            )
        } else {
            None
        };
        Ok((
            Wal {
                shared,
                fsync_thread,
            },
            WalReplay {
                records,
                torn_tail_records: torn,
                low_water: base_seq,
                next_seq,
            },
        ))
    }

    /// Append one sealed record, returning its sequence number. The
    /// record must be a container of the configured kind; only the frame
    /// is checked here (the caller just sealed it — re-verifying the CRC
    /// per append would double the checksum cost of the hot path).
    pub fn append(&self, record: &[u8]) -> Result<u64, ArtifactError> {
        let t0 = Instant::now();
        if record.len() < HEADER_LEN
            || record[0..4] != MAGIC
            || record[4..8] != self.shared.opts.record_kind
        {
            return Err(ArtifactError::Corrupt("append of unframed record"));
        }
        let mut inner = self.shared.lock();
        let seq = inner.next_seq;
        let appended = inner.write_record(record).and_then(|()| {
            inner.next_seq += 1;
            if self.shared.opts.fsync_interval.is_zero() {
                inner.sync()?;
            }
            Ok(())
        });
        self.shared.counted(&mut inner, appended)?;
        drop(inner);
        if let Some(obs) = &self.shared.obs {
            obs.appended_records.incr();
            obs.append_us.record(t0.elapsed().as_micros() as u64);
        }
        Ok(seq)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&self) -> Result<(), ArtifactError> {
        Ok(self.shared.lock().sync()?)
    }

    /// The drain: every record in the log is spent. Durably replaces the
    /// file with a bare header at the next sequence number, so a restart
    /// replays nothing and sequence numbers carry on. If this fails
    /// before the rename the log is unchanged, on disk and in memory.
    pub fn clear(&self) -> Result<(), ArtifactError> {
        let mut inner = self.shared.lock();
        let cleared = start_log(&self.shared.path, inner.next_seq).and_then(|started| {
            (inner.file, inner.good_len) = started;
            inner.uncut = None;
            inner.base_seq = inner.next_seq;
            inner.synced_seq = inner.next_seq;
            fsync_dir(&self.shared.path)
        });
        Ok(self.shared.counted(&mut inner, cleared)?)
    }

    /// Point-in-time status summary.
    pub fn status(&self) -> WalStatus {
        let inner = self.shared.lock();
        WalStatus {
            next_seq: inner.next_seq,
            low_water: inner.base_seq,
            buffered: inner.next_seq - inner.base_seq,
            replayed: inner.replayed,
            torn: inner.torn,
            fsyncs: inner.fsyncs,
            unsynced: inner.next_seq - inner.synced_seq,
            write_errors: inner.write_errors,
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shared.lock().stopping = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.fsync_thread.take() {
            let _ = handle.join();
        }
        // Orderly shutdown: nothing acknowledged is left in the page cache.
        let _ = self.shared.lock().file.sync_data();
    }
}

/// Put a bare header for `base_seq` in place of the log (temp file, fsync,
/// rename) and return its handle, positioned for the first append, and its
/// length. The caller fsyncs the directory.
fn start_log(dir: &Path, base_seq: u64) -> io::Result<(File, u64)> {
    let header = seal(LOG_KIND, LOG_VERSION, &base_seq.to_le_bytes());
    Ok((replace_file(dir, LOG_FILE, &header)?, header.len() as u64))
}

fn fsync_loop(shared: &Shared) {
    let mut inner = shared.lock();
    while !inner.stopping {
        let (guard, _) = shared
            .cv
            .wait_timeout(inner, shared.opts.fsync_interval)
            .expect("wal poisoned");
        drop(guard);
        shared.sync_pending();
        inner = shared.lock();
    }
}

/// Walk a buffer of concatenated sealed records, returning each record's
/// *container* bytes (header + payload + CRC, exactly as appended — the
/// in-memory log stores and re-serves the same sealed form) and whether
/// the stream ended in a torn record.
///
/// A damaged *final* record is reported, not refused: a torn tail is the
/// expected signature of a crash mid-append. Damage anywhere earlier
/// cannot be explained by a crash (appends are strictly ordered) and is a
/// hard error.
fn walk_records(
    bytes: &[u8],
    kind: [u8; 4],
    version: u32,
) -> Result<(Vec<Vec<u8>>, bool), ArtifactError> {
    let mut records = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        match open_prefix(rest, kind, version) {
            Ok((_payload, used)) => {
                records.push(rest[..used].to_vec());
                at += used;
            }
            Err(ArtifactError::Truncated) => return Ok((records, true)),
            Err(ArtifactError::ChecksumMismatch) => {
                // Every declared byte is there; only the last record may
                // be missing its tail.
                let payload_len = u64::from_le_bytes(
                    rest[12..HEADER_LEN]
                        .try_into()
                        .expect("open_prefix read a whole header"),
                );
                if (HEADER_LEN + TRAILER_LEN) as u64 + payload_len < rest.len() as u64 {
                    return Err(ArtifactError::Corrupt("torn record before log tail"));
                }
                return Ok((records, true));
            }
            Err(e) => return Err(e),
        }
    }
    Ok((records, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: [u8; 4] = *b"TREC";
    const V: u32 = 1;

    fn rec(i: u64) -> Vec<u8> {
        let mut p = format!("record payload number {i} ").into_bytes();
        p.extend_from_slice(&i.to_le_bytes());
        p.extend(std::iter::repeat_n(0xA5, 32));
        seal(K, V, &p)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lre_wal_log_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn opts() -> WalOptions {
        let mut o = WalOptions::new(K, V);
        o.fsync_interval = Duration::ZERO; // deterministic tests
        o
    }

    #[test]
    fn append_reopen_replays_identically() {
        let d = tmpdir("replay");
        let sent: Vec<Vec<u8>> = (0..25).map(rec).collect();
        {
            let (wal, replay) = Wal::open(&d, opts(), None).unwrap();
            assert_eq!(replay.records.len(), 0);
            for (i, r) in sent.iter().enumerate() {
                assert_eq!(wal.append(r).unwrap(), i as u64);
            }
            assert_eq!(wal.status().next_seq, 25);
        }
        let (wal, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.low_water, 0);
        assert_eq!(replay.next_seq, 25);
        assert_eq!(replay.torn_tail_records, 0);
        assert_eq!(replay.records, sent);
        // Sequence numbers continue, never restart.
        assert_eq!(wal.append(&rec(99)).unwrap(), 25);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_is_skipped_and_truncated_away() {
        let d = tmpdir("torn");
        {
            let (wal, _) = Wal::open(&d, opts(), None).unwrap();
            for i in 0..5 {
                wal.append(&rec(i)).unwrap();
            }
        }
        // Tear the last record: chop 3 bytes off the log.
        let log = d.join(LOG_FILE);
        let len = fs::metadata(&log).unwrap().len();
        let f = OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (wal, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.torn_tail_records, 1);
        assert_eq!(replay.next_seq, 4);
        // The torn bytes are gone: appending keeps the stream framed.
        assert_eq!(wal.append(&rec(77)).unwrap(), 4);
        drop(wal);
        let (_, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.torn_tail_records, 0);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn cleared_log_restarts_empty_at_the_same_next_seq() {
        let d = tmpdir("clear");
        let (wal, _) = Wal::open(&d, opts(), None).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.clear().unwrap();
        let st = wal.status();
        assert_eq!((st.next_seq, st.low_water, st.buffered), (40, 40, 0));
        assert!(!d.join(format!("{LOG_FILE}.tmp")).exists());
        drop(wal);
        let (wal, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.records.len(), 0);
        assert_eq!((replay.low_water, replay.next_seq), (40, 40));
        // Appends continue above the drained window, and only they replay.
        assert_eq!(wal.append(&rec(1000)).unwrap(), 40);
        assert_eq!(wal.append(&rec(1001)).unwrap(), 41);
        drop(wal);
        let (_, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.low_water, 40);
        assert_eq!(replay.records, vec![rec(1000), rec(1001)]);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn clear_of_an_empty_log_changes_nothing() {
        let d = tmpdir("clear_empty");
        let (wal, _) = Wal::open(&d, opts(), None).unwrap();
        wal.clear().unwrap();
        assert_eq!(wal.status(), WalStatus::default());
        wal.append(&rec(0)).unwrap();
        wal.clear().unwrap();
        wal.clear().unwrap();
        let st = wal.status();
        assert_eq!((st.next_seq, st.low_water, st.unsynced), (1, 1, 0));
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn unframed_appends_are_refused() {
        let d = tmpdir("unframed");
        let (wal, _) = Wal::open(&d, opts(), None).unwrap();
        assert!(wal.append(b"raw bytes").is_err());
        assert!(wal.append(&seal(*b"XXXX", 1, b"wrong kind")).is_err());
        assert_eq!(wal.status().next_seq, 0);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn obs_series_record_appends_and_replay() {
        let d = tmpdir("obs");
        let registry = Registry::new();
        let obs = WalObs::new(&registry, None);
        {
            let (wal, _) = Wal::open(&d, opts(), Some(obs.clone())).unwrap();
            for i in 0..3 {
                wal.append(&rec(i)).unwrap();
            }
        }
        assert_eq!(obs.appended_records.get(), 3);
        assert_eq!(obs.write_errors.get(), 0);
        let (_, replay) = Wal::open(&d, opts(), Some(obs.clone())).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(obs.replayed_records.get(), 3);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn batched_fsync_interval_still_replays_after_clean_drop() {
        let d = tmpdir("batched");
        let mut o = WalOptions::new(K, V);
        o.fsync_interval = Duration::from_millis(5);
        {
            let (wal, _) = Wal::open(&d, o.clone(), None).unwrap();
            for i in 0..10 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.status().unsynced, 0);
        }
        let (_, replay) = Wal::open(&d, o, None).unwrap();
        assert_eq!(replay.records.len(), 10);
        fs::remove_dir_all(&d).ok();
    }

    /// The disk fills half-way through a record: the append fails, the
    /// file is cut back to the last whole record, the next append takes the
    /// number the failed one would have had, and a restart replays every
    /// acknowledged record. (Left in place, the half record would sit
    /// *before* the log tail and replay would refuse the whole file.)
    #[test]
    fn a_short_write_is_cut_back_so_later_appends_replay() {
        let d = tmpdir("shortwrite");
        let obs = WalObs::new(&Registry::new(), None);
        let (wal, _) = Wal::open(&d, opts(), Some(obs.clone())).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.append(&rec(1)).unwrap();
        let whole = fs::metadata(d.join(LOG_FILE)).unwrap().len();

        wal.shared.lock().short_write = true;
        match wal.append(&rec(2)) {
            Err(ArtifactError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull),
            other => panic!("expected the write error, got {other:?}"),
        }
        assert_eq!(fs::metadata(d.join(LOG_FILE)).unwrap().len(), whole);
        let st = wal.status();
        assert_eq!((st.next_seq, st.write_errors), (2, 1));
        assert_eq!(
            obs.write_errors.get(),
            1,
            "and on the wal.write_errors series"
        );

        assert_eq!(wal.append(&rec(3)).unwrap(), 2);
        drop(wal);
        let (_, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!(replay.torn_tail_records, 0);
        assert_eq!(replay.records, vec![rec(0), rec(1), rec(3)]);

        // The same through the handle a drain leaves (not `O_APPEND`).
        let (wal, _) = Wal::open(&d, opts(), None).unwrap();
        wal.clear().unwrap();
        wal.shared.lock().short_write = true;
        assert!(wal.append(&rec(4)).is_err());
        assert_eq!(wal.append(&rec(5)).unwrap(), 3);
        assert_eq!(wal.status().write_errors, 1, "counted since this open");
        drop(wal);
        let (_, replay) = Wal::open(&d, opts(), None).unwrap();
        assert_eq!((replay.low_water, replay.records), (3, vec![rec(5)]));
        fs::remove_dir_all(&d).ok();
    }

    /// If the cut fails too, the handle refuses every later append instead
    /// of burying the partial record; a drain starts a fresh file and
    /// heals it.
    #[cfg(unix)]
    #[test]
    fn a_short_write_that_cannot_be_cut_back_refuses_later_appends() {
        use std::io::Read;
        let d = tmpdir("uncut");
        let (wal, _) = Wal::open(&d, opts(), None).unwrap();
        wal.append(&rec(0)).unwrap();
        // A socket takes the half record and then refuses `set_len`.
        let (broken, mut peer) = unsyncable_file();
        let real = std::mem::replace(&mut wal.shared.lock().file, broken);
        wal.shared.lock().short_write = true;
        assert!(wal.append(&rec(1)).is_err());
        match wal.append(&rec(2)) {
            Err(ArtifactError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull),
            other => panic!("expected the standing error, got {other:?}"),
        }
        let st = wal.status();
        assert_eq!((st.next_seq, st.write_errors), (1, 2));
        // Nothing followed the half record onto the broken handle.
        drop(std::mem::replace(&mut wal.shared.lock().file, real));
        let mut landed = Vec::new();
        peer.read_to_end(&mut landed).unwrap();
        assert_eq!(landed, rec(1)[..rec(1).len() / 2]);

        assert!(wal.append(&rec(2)).is_err(), "still refused");
        wal.clear().unwrap();
        assert_eq!(wal.append(&rec(3)).unwrap(), 1);
        assert_eq!(wal.status().write_errors, 3, "every refusal was counted");
        fs::remove_dir_all(&d).ok();
    }

    /// A handle that takes writes but cannot be fsynced (`EINVAL`): one
    /// end of a socket pair.
    #[cfg(unix)]
    fn unsyncable_file() -> (File, std::os::unix::net::UnixStream) {
        use std::os::fd::OwnedFd;
        let (ours, peer) = std::os::unix::net::UnixStream::pair().unwrap();
        (File::from(OwnedFd::from(ours)), peer)
    }

    #[cfg(unix)]
    #[test]
    fn a_failed_fsync_leaves_unsynced_standing_and_is_not_counted() {
        let d = tmpdir("syncfail");
        let mut o = WalOptions::new(K, V);
        // Batched mode, but an interval the thread never reaches: the
        // test drives `sync_pending` itself.
        o.fsync_interval = Duration::from_secs(3600);
        let (wal, _) = Wal::open(&d, o, None).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.shared.sync_pending();
        let healthy = wal.status();
        assert_eq!((healthy.unsynced, healthy.fsyncs), (0, 1));

        let (broken, _peer) = unsyncable_file();
        let real = std::mem::replace(&mut wal.shared.lock().file, broken);
        wal.append(&rec(1)).unwrap();
        wal.append(&rec(2)).unwrap();
        wal.shared.sync_pending();
        assert!(wal.sync().is_err());
        let failing = wal.status();
        assert_eq!((failing.unsynced, failing.fsyncs), (2, 1));

        // The disk comes back: the standing records are covered and counted.
        wal.shared.lock().file = real;
        wal.shared.sync_pending();
        let recovered = wal.status();
        assert_eq!((recovered.unsynced, recovered.fsyncs), (0, 2));
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn walk_handles_clean_and_torn_streams() {
        let a = seal(K, V, &[1; 10]);
        let b = seal(K, V, &[]);
        let c = seal(K, V, &[3; 300]);
        let stream = [a.clone(), b.clone(), c.clone()].concat();
        let (records, torn) = walk_records(&stream, K, V).unwrap();
        assert_eq!(records, vec![a.clone(), b.clone(), c.clone()]);
        assert!(!torn);

        // Cut anywhere inside the final record: first two survive, torn tail.
        for cut in 1..c.len() {
            let (records, torn) = walk_records(&stream[..a.len() + b.len() + cut], K, V).unwrap();
            assert_eq!(records.len(), 2, "cut {cut}");
            assert!(torn, "cut {cut}");
        }

        // A zeroed CRC on the final record (trailer never landed) is also
        // a torn tail, not an error.
        let mut zeroed = stream.clone();
        let n = zeroed.len();
        zeroed[n - 4..].fill(0);
        let (records, torn) = walk_records(&zeroed, K, V).unwrap();
        assert_eq!(records.len(), 2);
        assert!(torn);
    }

    #[test]
    fn walk_rejects_damage_before_the_tail() {
        let mut stream = seal(K, V, &[1; 8]);
        stream.extend_from_slice(b"XXXXgarbage that is not a record header!");
        assert!(matches!(
            walk_records(&stream, K, V),
            Err(ArtifactError::BadMagic)
        ));

        // A record whose CRC fails with more records behind it was not
        // torn by a crash.
        let mut stream = [
            seal(K, V, &[1; 8]),
            seal(K, V, &[2; 8]),
            seal(K, V, &[3; 8]),
        ]
        .concat();
        let second_payload = seal(K, V, &[1; 8]).len() + HEADER_LEN;
        stream[second_payload] ^= 0x40;
        assert!(matches!(
            walk_records(&stream, K, V),
            Err(ArtifactError::Corrupt("torn record before log tail"))
        ));
    }
}
