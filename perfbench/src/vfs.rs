//! The `store`↔device seam: a [`Vfs`] over [`MemDisk`] that counts the
//! bytes written and read and the syncs issued, and when timing is on
//! also the wall time spent inside the disk.

use pmove_hwsim::disk::DiskSpec;
use pmove_tsdb::store::{MemDisk, StoreResult, Vfs, VirtualFile};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Cumulative device-side counters.
#[derive(Default)]
pub struct IoStats {
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
    pub syncs: AtomicU64,
    pub busy_ns: AtomicU64,
    timed: AtomicBool,
}

impl IoStats {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.timed.load(Relaxed) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        r
    }
}

/// Counting wrapper; clones of the inner disk share its platters, so the
/// caller keeps a [`MemDisk`] handle for `restart` and `durable_bytes`.
pub struct CountingVfs {
    disk: MemDisk,
    stats: Arc<IoStats>,
}

impl CountingVfs {
    pub fn new(disk: MemDisk, timed: bool) -> Self {
        let stats = Arc::new(IoStats::default());
        stats.timed.store(timed, Relaxed);
        CountingVfs { disk, stats }
    }

    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn wrap(&self, file: Box<dyn VirtualFile>) -> Box<dyn VirtualFile> {
        Box::new(CountingFile {
            file,
            stats: self.stats.clone(),
        })
    }
}

struct CountingFile {
    file: Box<dyn VirtualFile>,
    stats: Arc<IoStats>,
}

impl VirtualFile for CountingFile {
    fn append(&mut self, data: &[u8]) -> StoreResult<()> {
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Relaxed);
        let file = &mut self.file;
        self.stats.time(|| file.append(data))
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.stats.syncs.fetch_add(1, Relaxed);
        let file = &mut self.file;
        self.stats.time(|| file.sync())
    }

    fn len(&self) -> StoreResult<u64> {
        self.file.len()
    }
}

impl Vfs for CountingVfs {
    fn open_append(&self, name: &str) -> StoreResult<Box<dyn VirtualFile>> {
        let file = self.stats.time(|| self.disk.open_append(name))?;
        Ok(self.wrap(file))
    }

    fn create(&self, name: &str) -> StoreResult<Box<dyn VirtualFile>> {
        let file = self.stats.time(|| self.disk.create(name))?;
        Ok(self.wrap(file))
    }

    fn read(&self, name: &str) -> StoreResult<Vec<u8>> {
        let data = self.stats.time(|| self.disk.read(name))?;
        self.stats.bytes_read.fetch_add(data.len() as u64, Relaxed);
        Ok(data)
    }

    fn list(&self) -> StoreResult<Vec<String>> {
        self.stats.time(|| self.disk.list())
    }

    fn remove(&self, name: &str) -> StoreResult<()> {
        self.stats.time(|| self.disk.remove(name))
    }

    fn exists(&self, name: &str) -> StoreResult<bool> {
        self.stats.time(|| self.disk.exists(name))
    }

    fn disk_spec(&self) -> DiskSpec {
        self.disk.disk_spec()
    }
}
