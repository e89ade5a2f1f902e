//! Outside-in instruments: wrappers that count and time the calls a
//! layer makes through its public seams, without changing what the
//! calls do or the bytes they produce.

use consent_checkpoint::{RealVfs, Vfs};
use consent_toplist::{ProbeResult, Prober};
use consent_util::Day;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Totals a [`TimingVfs`] has seen, in one consistent read.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VfsTotals {
    /// Every operation of any kind.
    pub ops: u64,
    /// `sync` plus `dir_sync` calls.
    pub fsyncs: u64,
    /// Bytes handed to `write`.
    pub bytes_written: u64,
    /// Bytes returned by `read`.
    pub bytes_read: u64,
    /// Seconds inside `sync` and `dir_sync`.
    pub sync_s: f64,
    /// Seconds inside `write` and `create`.
    pub write_s: f64,
    /// Seconds inside `read`.
    pub read_s: f64,
    /// Seconds inside `rename` and `remove_file`.
    pub meta_s: f64,
}

impl VfsTotals {
    /// All time spent in the filesystem seam.
    pub fn total_s(&self) -> f64 {
        self.sync_s + self.write_s + self.read_s + self.meta_s
    }
}

#[derive(Debug, Default)]
struct Counters {
    ops: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    sync_ns: AtomicU64,
    write_ns: AtomicU64,
    read_ns: AtomicU64,
    meta_ns: AtomicU64,
}

/// A [`Vfs`] that forwards every call to an inner one and records how
/// many operations, bytes and fsyncs passed through, and how long the
/// inner calls took. Thread-safe: the bundle store and checkpoint store
/// may share one.
#[derive(Debug)]
pub struct TimingVfs {
    inner: Arc<dyn Vfs>,
    counters: Counters,
}

impl TimingVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> TimingVfs {
        TimingVfs {
            inner,
            counters: Counters::default(),
        }
    }

    pub fn totals(&self) -> VfsTotals {
        let c = &self.counters;
        let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
        VfsTotals {
            ops: c.ops.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            bytes_read: c.bytes_read.load(Ordering::Relaxed),
            sync_s: secs(&c.sync_ns),
            write_s: secs(&c.write_ns),
            read_s: secs(&c.read_ns),
            meta_s: secs(&c.meta_ns),
        }
    }

    fn timed<T>(&self, bucket: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        bucket.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl Vfs for TimingVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        self.timed(&self.counters.write_ns, || self.inner.create(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counters
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(&self.counters.write_ns, || self.inner.write(path, bytes))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.timed(&self.counters.sync_ns, || self.inner.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(&self.counters.meta_ns, || self.inner.rename(from, to))
    }

    fn dir_sync(&self, dir: &Path) -> io::Result<()> {
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.timed(&self.counters.sync_ns, || self.inner.dir_sync(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = self.timed(&self.counters.read_ns, || self.inner.read(path));
        if let Ok(bytes) = &out {
            self.counters
                .bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(&self.counters.meta_ns, || self.inner.remove_file(path))
    }
}

/// A [`Vfs`] that writes exactly what [`RealVfs`] writes but skips
/// `sync` and `dir_sync`. Set-up uses it for archives whose bytes matter
/// and whose durability does not: the reference a pass is verified
/// against, and the archive the read path replays. Timed passes always
/// use [`RealVfs`].
#[derive(Clone, Copy, Debug, Default)]
pub struct UnsyncedVfs;

impl Vfs for UnsyncedVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        RealVfs.create(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        RealVfs.write(path, bytes)
    }

    fn sync(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }

    fn dir_sync(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(path)
    }
}

/// A [`Prober`] that counts the probes it forwards.
pub struct CountingProber<P> {
    inner: P,
    probes: AtomicU64,
}

impl<P: Prober> CountingProber<P> {
    pub fn new(inner: P) -> CountingProber<P> {
        CountingProber {
            inner,
            probes: AtomicU64::new(0),
        }
    }

    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

impl<P: Prober> Prober for CountingProber<P> {
    fn probe_tls(&self, host: &str, day: Day) -> ProbeResult {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.probe_tls(host, day)
    }

    fn probe_tcp(&self, host: &str, day: Day) -> ProbeResult {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.probe_tcp(host, day)
    }
}

/// Accumulated busy time and per-call latencies of one layer.
#[derive(Debug, Default)]
pub struct LayerClock {
    pub total: Duration,
    pub calls: u64,
    latencies_ns: Vec<u64>,
}

impl LayerClock {
    /// Time one call into the layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.total += took;
        self.calls += 1;
        self.latencies_ns.push(took.as_nanos() as u64);
        out
    }

    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Nearest-rank latency percentile in microseconds.
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        self.latencies_ns.sort_unstable();
        crate::stats::percentile(&self.latencies_ns, q) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_vfs_counts_ops_bytes_and_fsyncs() {
        let _guard = crate::harness::GLOBALS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = crate::workdir::unique("vfs-test");
        let vfs = TimingVfs::new(Arc::new(RealVfs));
        let a = dir.join("a.tmp");
        vfs.create(&a).unwrap();
        vfs.write(&a, b"twelve bytes").unwrap();
        vfs.sync(&a).unwrap();
        vfs.rename(&a, &dir.join("a")).unwrap();
        vfs.dir_sync(&dir).unwrap();
        assert_eq!(vfs.read(&dir.join("a")).unwrap(), b"twelve bytes");
        vfs.remove_file(&dir.join("a")).unwrap();
        let t = vfs.totals();
        assert_eq!(t.ops, 7);
        assert_eq!(t.fsyncs, 2);
        assert_eq!(t.bytes_written, 12);
        assert_eq!(t.bytes_read, 12);
        assert!(t.total_s() >= t.sync_s && t.sync_s > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layer_clock_percentiles() {
        let mut c = LayerClock::default();
        for _ in 0..10 {
            c.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(c.calls, 10);
        assert!(c.percentile_us(0.99) >= c.percentile_us(0.5));
    }
}
