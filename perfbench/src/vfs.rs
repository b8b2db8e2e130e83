//! A [`Vfs`] that counts what the store asks of the file system and
//! passes every call through unchanged.

use smv_store::{Result, Vfs};
use std::sync::atomic::{AtomicU64, Ordering};

/// Totals since creation; take differences of two snapshots for one
/// operation's share.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoCounts {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub fsyncs: u64,
    pub renames: u64,
}

impl IoCounts {
    pub fn since(self, earlier: IoCounts) -> IoCounts {
        IoCounts {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            fsyncs: self.fsyncs - earlier.fsyncs,
            renames: self.renames - earlier.renames,
        }
    }
}

pub struct CountingVfs<V> {
    inner: V,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
}

impl<V: Vfs> CountingVfs<V> {
    pub fn new(inner: V) -> CountingVfs<V> {
        CountingVfs {
            inner,
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            renames: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> IoCounts {
        IoCounts {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently stored, over every file.
    pub fn bytes_on_disk(&self) -> u64 {
        self.inner
            .list()
            .iter()
            .filter_map(|f| self.inner.len(f))
            .sum()
    }

    fn add(counter: &AtomicU64, n: usize) {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        let bytes = self.inner.read(name)?;
        Self::add(&self.bytes_read, bytes.len());
        Ok(bytes)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bytes = self.inner.read_at(name, offset, len)?;
        Self::add(&self.bytes_read, bytes.len());
        Ok(bytes)
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.inner.write(name, bytes)?;
        Self::add(&self.bytes_written, bytes.len());
        Ok(())
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        self.inner.write_at(name, offset, bytes)?;
        Self::add(&self.bytes_written, bytes.len());
        Ok(())
    }

    fn fsync(&self, name: &str) -> Result<()> {
        self.inner.fsync(name)?;
        Self::add(&self.fsyncs, 1);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)?;
        Self::add(&self.renames, 1);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn len(&self, name: &str) -> Option<u64> {
        self.inner.len(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_store::SimVfs;

    #[test]
    fn counts_pass_through_calls() {
        let vfs = CountingVfs::new(SimVfs::new());
        vfs.write("a", b"hello").unwrap();
        vfs.write_at("a", 5, b"!!").unwrap();
        vfs.fsync("a").unwrap();
        vfs.rename("a", "b").unwrap();
        assert_eq!(vfs.read("b").unwrap(), b"hello!!");
        assert_eq!(vfs.read_at("b", 1, 3).unwrap(), b"ell");
        let c = vfs.counts();
        assert_eq!(
            (c.bytes_written, c.bytes_read, c.fsyncs, c.renames),
            (7, 10, 1, 1)
        );
        assert_eq!(vfs.bytes_on_disk(), 7);
        assert!(vfs.exists("b") && !vfs.exists("a"));
        assert_eq!(c.since(IoCounts::default()).bytes_written, 7);
    }
}
