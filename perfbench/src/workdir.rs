//! Scratch directories for the storage workloads, kept inside the
//! directory the benchmark runs from (`.perfbench_work/`), and the
//! on-disk size accounting that `disk_bytes_per_capture` rests on.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const ROOT: &str = ".perfbench_work";

/// This process's scratch root.
pub fn process_root() -> PathBuf {
    Path::new(ROOT).join(format!("pid-{}", std::process::id()))
}

/// A fresh, empty directory under this process's scratch root.
pub fn unique(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = process_root().join(format!("{tag}-{}", N.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
    dir
}

/// Remove every scratch directory, then [`settle`]. Runs once a run's
/// measurements are over: deleting thousands of files queues journal
/// and discard work that would otherwise land in the next set-up's or
/// pass's file operations.
pub fn cleanup() {
    let _ = std::fs::remove_dir_all(ROOT);
    settle();
}

/// Remove this process's scratch directories.
#[cfg(test)]
pub fn remove_process_root() {
    let _ = std::fs::remove_dir_all(process_root());
}

/// Commit the filesystem journal by fsyncing the working directory, so
/// metadata work queued earlier (by this run or a previous one) is paid
/// for now rather than inside a timed pass's fsyncs.
pub fn settle() {
    if let Ok(dir) = std::fs::File::open(".") {
        let _ = dir.sync_all();
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn disk_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            disk_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_bytes_sums_nested_files() {
        let _guard = crate::harness::GLOBALS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = unique("du-test");
        std::fs::create_dir_all(dir.join("a/b")).unwrap();
        std::fs::write(dir.join("x"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("a/b/y"), [0u8; 32]).unwrap();
        assert_eq!(disk_bytes(&dir).unwrap(), 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
