//! Durable directory operations: the write-new-then-rename step both the
//! vote log ([`crate::log`]) and the lineage store ([`crate::lineage`])
//! land their files with.

use std::fs::{self, File};
use std::io;
use std::path::Path;

/// Write `name` under `dir` atomically and durably: the file appears with
/// its full contents or not at all, and once this returns both the data
/// and the directory entry have been fsynced.
pub fn write_durable(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    replace_file(dir, name, bytes)?;
    fsync_dir(dir)
}

/// The first half of [`write_durable`]: `bytes` written and fsynced under
/// `<name>.tmp`, then renamed over `name`. Returns the handle, still open
/// for writing and positioned after `bytes`; the rename itself is not
/// durable until the caller's [`fsync_dir`].
pub(crate) fn replace_file(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<File> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    io::Write::write_all(&mut f, bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, dir.join(name))?;
    Ok(f)
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
        fs::remove_dir_all(&d).ok();
    }
}
