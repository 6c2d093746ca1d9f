//! Durable directory operations: the write-new-then-rename step both the
//! vote log ([`crate::log`]) and the lineage store ([`crate::lineage`])
//! land their files with, and the private scratch directory a log or a
//! chain that is never reopened lives in.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `name` under `dir` atomically and durably: the file appears with
/// its full contents or not at all, and once this returns both the data
/// and the directory entry have been fsynced.
pub fn write_durable(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    write_durable_with(dir, name, |f| io::Write::write_all(f, bytes))
}

/// [`write_durable`] with the contents written by `write`: an `Err` from
/// it removes the half-written file and leaves `name` as it was.
pub fn write_durable_with<T, E: From<io::Error>>(
    dir: &Path,
    name: &str,
    write: impl FnOnce(&mut File) -> Result<T, E>,
) -> Result<T, E> {
    let (_, out) = replace_with(dir, name, write)?;
    fsync_dir(dir)?;
    Ok(out)
}

/// The first half of [`write_durable`]: `bytes` written and fsynced under
/// `<name>.tmp`, then renamed over `name`. Returns the handle, still open
/// for reading and writing and positioned after `bytes`; the rename itself
/// is not durable until the caller's [`fsync_dir`].
pub(crate) fn replace_file(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<File> {
    replace_with(dir, name, |f| io::Write::write_all(f, bytes)).map(|(f, ())| f)
}

fn replace_with<T, E: From<io::Error>>(
    dir: &Path,
    name: &str,
    write: impl FnOnce(&mut File) -> Result<T, E>,
) -> Result<(File, T), E> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    let out = match write(&mut f) {
        Ok(out) => out,
        Err(e) => {
            drop(f);
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    };
    f.sync_all()?;
    fs::rename(&tmp, dir.join(name))?;
    Ok((f, out))
}

/// fsync a directory so renames/unlinks inside it are durable. On
/// platforms where opening a directory for sync is unsupported this is a
/// no-op (the rename is still atomic, just not crash-durable).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(f) => match f.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        },
        Err(_) => Ok(()),
    }
}

/// A directory this process created for state nothing ever reopens (a
/// scratch vote window, a scratch bundle chain); dropping it removes the
/// directory and everything in it.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

/// Scratch directories this process has named so far.
static SCRATCH_DIRS: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// A new, empty `<prefix>-<pid>-<n>` directory under `parent`. A name
    /// that exists already is never reused: it is someone else's.
    pub fn create(parent: &Path, prefix: &str) -> io::Result<ScratchDir> {
        loop {
            let n = SCRATCH_DIRS.fetch_add(1, Ordering::Relaxed);
            let dir = parent.join(format!("{prefix}-{}-{n}", std::process::id()));
            match fs::create_dir(&dir) {
                Ok(()) => return Ok(ScratchDir(dir)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_durable_replaces_whole_files_and_leaves_no_temp() {
        let d = std::env::temp_dir().join(format!("lre_wal_dir_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        write_durable(&d, "f", b"first contents").unwrap();
        write_durable(&d, "f", b"second").unwrap();
        assert_eq!(fs::read(d.join("f")).unwrap(), b"second");
        assert!(!d.join("f.tmp").exists());
        let failed: io::Result<()> = write_durable_with(&d, "f", |f| {
            io::Write::write_all(f, b"half")?;
            Err(io::Error::other("refused"))
        });
        assert!(failed.is_err());
        assert_eq!(fs::read(d.join("f")).unwrap(), b"second");
        assert!(!d.join("f.tmp").exists());
        fs::remove_dir_all(&d).ok();
    }

    /// Directories left where the next scratch names would go (a killed
    /// process with this pid) hold someone's state; a new scratch
    /// directory takes none of them, starts empty, and goes with its
    /// owner.
    #[test]
    fn a_scratch_dir_is_fresh_never_reuses_a_name_and_goes_when_dropped() {
        let parent = std::env::temp_dir().join(format!("lre_wal_scratch_{}", std::process::id()));
        let _ = fs::remove_dir_all(&parent);
        let next = SCRATCH_DIRS.load(Ordering::Relaxed);
        let stale: Vec<PathBuf> = (next..next + 16)
            .map(|n| parent.join(format!("lre-x-{}-{n}", std::process::id())))
            .collect();
        for d in &stale {
            write_durable(d, "state", b"someone's").unwrap();
        }
        let fresh = ScratchDir::create(&parent, "lre-x").unwrap();
        assert!(!stale.contains(&fresh.0));
        assert_eq!(fs::read_dir(fresh.path()).unwrap().count(), 0);
        let dir = fresh.path().to_path_buf();
        drop(fresh);
        assert!(!dir.exists());
        for d in &stale {
            assert_eq!(fs::read(d.join("state")).unwrap(), b"someone's");
        }
        fs::remove_dir_all(&parent).unwrap();
    }
}
