//! Crash-safe snapshot files: write-temp + fsync + atomic rename, with a
//! rotated previous generation for torn-write recovery.
//!
//! # File contract
//!
//! [`write_atomic`] publishes `bytes` at `path` such that a crash at any
//! point leaves a readable snapshot on disk:
//!
//! 1. the bytes are written to `path.tmp` and **fsync**'d — the new
//!    generation is durable before it becomes visible;
//! 2. the current `path` (if any) is renamed to `path.prev` — the previous
//!    generation survives as the fallback;
//! 3. `path.tmp` is renamed to `path` — on POSIX filesystems a rename is
//!    atomic, so `path` always refers to either the old or the new complete
//!    file, never a mixture;
//! 4. the parent directory is fsync'd so both renames are durable.
//!
//! A reader ([`load_newest`]) therefore tries `path` first and falls
//! back to `path.prev`: if the machine died mid-step-1 (torn temp file) the
//! live `path` is untouched; if it died between steps 2 and 3, `path` is
//! missing but `path.prev` holds the last good generation; if the *newest*
//! file is later corrupted in place (bit rot, operator accident), the caller
//! validates it — every JUNO snapshot is checksummed — rejects it, and
//! restores from `path.prev` instead. Validation is deliberately left to the
//! caller: this module moves bytes, the snapshot layer knows what "valid"
//! means.

use crate::error::{Error, Result};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Suffix of the in-flight temp file (step 1 of the protocol).
const TMP_SUFFIX: &str = "tmp";
/// Suffix of the rotated previous generation (step 2 of the protocol).
const PREV_SUFFIX: &str = "prev";

/// Per-process sequence number making concurrent writers' temp files
/// distinct; combined with the pid so writers in different processes never
/// collide either.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// The path of the rotated previous snapshot generation next to `path`
/// (`<path>.prev`).
pub fn prev_path(path: &Path) -> PathBuf {
    with_suffix(path, PREV_SUFFIX)
}

/// A fresh in-flight temp path next to `path`
/// (`<path>.<pid>.<seq>.tmp`). Every call returns a distinct name: the pid
/// separates concurrent processes and the per-process sequence number
/// separates concurrent threads, so two writers racing on the same `path`
/// can never clobber each other's half-written temp file. Stale temp files
/// left behind by crashed writers are inert — readers only ever look at
/// `path` and `path.prev`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    with_suffix(path, &format!("{pid}.{seq}.{TMP_SUFFIX}"))
}

fn io_err(what: &str, path: &Path, err: std::io::Error) -> Error {
    Error::Io(format!("{what} {}: {err}", path.display()))
}

/// Durably publishes `bytes` at `path` under the crash-safe protocol
/// described in the [module docs](self). The previous contents of `path`
/// (if any) are preserved at [`prev_path`].
///
/// # Errors
///
/// Returns [`Error::Io`] when any filesystem step fails; a failed write
/// never leaves `path` truncated or half-written (the worst case is a stale
/// `.tmp` file, which the next successful write simply overwrites).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = tmp_path(path);
    {
        let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err("write", &tmp, e))?;
        file.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
    }
    // Rotate unconditionally and tolerate a missing source: either nothing
    // was ever published at `path`, or a concurrent writer rotated it
    // between our rename and theirs. (A `path.exists()` check would be a
    // TOCTOU race under concurrent writers.)
    let prev = prev_path(path);
    match fs::rename(path, &prev) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("rotate to", &prev, e)),
    }
    fs::rename(&tmp, path).map_err(|e| io_err("publish", path, e))?;
    // Make the renames durable. Directory fsync is best-effort on platforms
    // where opening a directory for sync is not supported.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads the newest generation at `path` that `decode` accepts: `path`
/// first, then [`prev_path`]. `open` brings one candidate into memory
/// (`std::fs::read` for a copy restore, [`Mmap::open`](crate::mmap::Mmap::open)
/// for a mapped one) and `decode` validates it — every JUNO snapshot is
/// checksummed, so a torn or damaged generation is rejected there and the
/// next one is tried. Only the candidate being decoded is held in memory.
///
/// # Errors
///
/// A missing candidate is normal and simply skipped, but any *other* open
/// failure (permissions, I/O error, `path` is a directory, …) is returned
/// at once as [`Error::Io`]: treating "could not read" as "torn" would make
/// a transient fault silently serve an older generation. Returns
/// [`Error::Io`] when no candidate exists, passes [`Error::Unsupported`]
/// through, and otherwise reports the last rejected candidate as
/// [`Error::Corrupted`].
pub fn load_newest<R, T>(
    path: &Path,
    open: impl Fn(&Path) -> std::io::Result<R>,
    mut decode: impl FnMut(R) -> Result<T>,
) -> Result<T> {
    let mut last_err = None;
    for candidate in [path.to_path_buf(), prev_path(path)] {
        let raw = match open(&candidate) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(io_err("read candidate", &candidate, e)),
        };
        match decode(raw) {
            Ok(value) => return Ok(value),
            // An engine without persistence fails every candidate the same
            // way; report that directly, not as file corruption.
            Err(err @ Error::Unsupported(_)) => return Err(err),
            Err(err) => {
                last_err = Some(Error::corrupted(format!("{}: {err}", candidate.display())));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        Error::Io(format!(
            "no snapshot found at {} (nor a .prev generation)",
            path.display()
        ))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("juno_atomic_file_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn tmp_files_in(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".tmp"))
            })
            .collect()
    }

    /// Every candidate `load_newest` offers, newest first (the decoder
    /// rejects each one so the walk visits them all).
    fn visit_all(path: &Path) -> Vec<Vec<u8>> {
        let mut seen = Vec::new();
        let _ = load_newest(
            path,
            |p| fs::read(p),
            |bytes| {
                seen.push(bytes);
                Err::<(), _>(Error::corrupted("visit the next candidate"))
            },
        );
        seen
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"generation-1").unwrap();
        assert_eq!(
            load_newest(&path, |p| fs::read(p), Ok).unwrap(),
            b"generation-1"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_rotates_the_previous_generation() {
        let dir = scratch_dir("rotate");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(visit_all(&path), [b"new".to_vec(), b"old".to_vec()]);
        assert_eq!(load_newest(&path, |p| fs::read(p), Ok).unwrap(), b"new");
        let reject_new = |b: Vec<u8>| {
            if b == b"new" {
                Err(Error::corrupted("rejected"))
            } else {
                Ok(b)
            }
        };
        assert_eq!(
            load_newest(&path, |p| fs::read(p), reject_new).unwrap(),
            b"old",
            "a rejected newest generation falls back to the previous one"
        );
        assert!(
            tmp_files_in(&dir).is_empty(),
            "temp files consumed by rename"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_live_file_falls_back_to_prev() {
        // Simulates a crash between the rotate and publish renames.
        let dir = scratch_dir("fallback");
        let path = dir.join("snap.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        fs::remove_file(&path).unwrap();
        assert_eq!(load_newest(&path, |p| fs::read(p), Ok).unwrap(), b"old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nothing_persisted_yields_no_candidates() {
        let dir = scratch_dir("empty");
        let path = dir.join("never-written.bin");
        assert!(visit_all(&path).is_empty());
        let err = load_newest(&path, |p| fs::read(p), Ok).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "want Error::Io, got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_ignored_not_served() {
        let dir = scratch_dir("staletmp");
        let path = dir.join("snap.bin");
        // A torn write died after creating its unique temp file…
        fs::write(tmp_path(&path), b"torn half-writ").unwrap();
        // …the live file is untouched, the next write succeeds, and the
        // stale temp is never served to readers.
        write_atomic(&path, b"good").unwrap();
        assert_eq!(visit_all(&path), [b"good".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_candidate_is_an_error_not_nothing_persisted() {
        let dir = scratch_dir("unreadable");
        let path = dir.join("snap.bin");
        // A directory squatting on the snapshot path cannot be read; that
        // must surface as an error, not as "nothing persisted" — and not as
        // a torn file either, even with a valid previous generation beside
        // it, whichever way the candidates are opened.
        fs::create_dir(&path).unwrap();
        fs::write(prev_path(&path), b"older").unwrap();
        let err = load_newest(&path, |p| fs::read(p), Ok).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "want Error::Io, got {err:?}");
        let err = load_newest(&path, crate::mmap::Mmap::open, Ok).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "want Error::Io, got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_clobber_each_other() {
        let dir = scratch_dir("concurrent");
        let path = dir.join("snap.bin");
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|i| vec![i; 4096]) // big enough that a torn mix would show
            .collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let path = path.clone();
                scope.spawn(move || {
                    for _ in 0..16 {
                        write_atomic(&path, payload).unwrap();
                    }
                });
            }
        });
        // Every candidate (live and rotated) must be exactly one writer's
        // payload — never an interleaving of two.
        let got = visit_all(&path);
        assert!(!got.is_empty());
        for bytes in &got {
            assert!(
                payloads.iter().any(|p| p == bytes),
                "a candidate holds a torn mix of payloads"
            );
        }
        assert!(
            tmp_files_in(&dir).is_empty(),
            "all temp files consumed despite the race"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
