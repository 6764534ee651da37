//! The workspace's one content digest and one durable file write.
//!
//! Three on-disk or on-wire formats protect their records with the same
//! digest — the fleet journal (`wasai-core`), the solver-cache file
//! (`wasai-smt`) and the metrics snapshot frame ([`crate::snapshot`]) — and
//! two of them create files with the same crash-safe write. Both live here
//! because this crate sits below every crate that needs them.
//!
//! - [`Fnv`]: 64-bit FNV-1a with a field separator. It is tiny,
//!   dependency-free and stable across platforms; the mismatches it guards
//!   against are torn writes and hand edits, not adversaries.
//! - [`write_atomic`]: write a `<path>.tmp` sibling, fsync it, rename it
//!   over `path`, then fsync the parent directory, so a crash leaves either
//!   the old file or the new one, never a hybrid.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feed raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feed one field plus a separator byte, so adjacent fields can never
    /// alias ("ab"+"c" vs "a"+"bc").
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0x1f]);
    }

    /// The digest of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// The `<path>.tmp` sibling a durable write stages its bytes in.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory, making a rename into it
/// durable. Failure is ignored: some filesystems refuse directory fsync,
/// and the worst case is losing the rename, never a torn file.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Replace `path` with `bytes` atomically: tmp sibling, fsync, rename,
/// parent-directory fsync. On error the tmp sibling is removed and `path`
/// is left as it was.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fields_do_not_alias() {
        let digest = |parts: &[&str]| {
            let mut h = Fnv::new();
            for p in parts {
                h.field(p.as_bytes());
            }
            h.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("wasai-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_sibling(&path).exists());
        // The rename onto a non-empty directory fails after the tmp file
        // was written: the error surfaces and the tmp file is removed.
        let occupied = dir.join("occupied");
        fs::create_dir_all(occupied.join("child")).unwrap();
        assert!(write_atomic(&occupied, b"x").is_err());
        assert!(!tmp_sibling(&occupied).exists());
        assert!(occupied.is_dir());
        fs::remove_dir_all(&dir).unwrap();
    }
}
