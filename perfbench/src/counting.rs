//! Counting decorators for `Storage` / `WritableStorage`: exact device
//! operation counts per file, independent of timing noise.

use s3_core::{Storage, WritableStorage};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct IoCounts {
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub syncs: AtomicU64,
}

/// A point-in-time copy of [`IoCounts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub syncs: u64,
}

impl IoCounts {
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Relaxed),
            read_bytes: self.read_bytes.load(Relaxed),
            writes: self.writes.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
        }
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - rhs.reads,
            read_bytes: self.read_bytes - rhs.read_bytes,
            writes: self.writes - rhs.writes,
            write_bytes: self.write_bytes - rhs.write_bytes,
            syncs: self.syncs - rhs.syncs,
        }
    }
}

/// Wraps a storage and counts every call into it.
#[derive(Debug)]
pub struct Counting<S> {
    inner: S,
    counts: Arc<IoCounts>,
}

impl<S> Counting<S> {
    pub fn new(inner: S, counts: Arc<IoCounts>) -> Counting<S> {
        Counting { inner, counts }
    }
}

impl<S: Storage> Storage for Counting<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.counts.reads.fetch_add(1, Relaxed);
        self.counts.read_bytes.fetch_add(buf.len() as u64, Relaxed);
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl<S: WritableStorage> WritableStorage for Counting<S> {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.counts.writes.fetch_add(1, Relaxed);
        self.counts.write_bytes.fetch_add(buf.len() as u64, Relaxed);
        self.inner.write_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        self.counts.syncs.fetch_add(1, Relaxed);
        self.inner.sync()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::SharedMemStorage;

    #[test]
    fn counts_every_call_and_byte() {
        let counts = Arc::new(IoCounts::default());
        let s = Counting::new(SharedMemStorage::new(), Arc::clone(&counts));
        s.write_at(0, &[1, 2, 3, 4]).unwrap();
        s.write_at(4, &[5]).unwrap();
        s.sync().unwrap();
        let mut buf = [0u8; 3];
        s.read_at(1, &mut buf).unwrap();
        assert_eq!(buf, [2, 3, 4]);
        let snap = counts.snapshot();
        assert_eq!(
            snap,
            IoSnapshot {
                reads: 1,
                read_bytes: 3,
                writes: 2,
                write_bytes: 5,
                syncs: 1,
            }
        );
    }
}
