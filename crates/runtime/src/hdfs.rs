//! In-process HDFS stand-in with byte accounting.
//!
//! Persistent inputs live here before a program starts; `write()` outputs
//! and exported intermediates (buffer-pool evictions to HDFS, migration
//! state) land here. Byte counters feed both verification and the
//! simulator's IO-time modeling.
//!
//! Files are shared matrices (`Arc<Matrix>`), as buffer-pool entries are:
//! a read hands out a handle to the stored value and a write stores the
//! handle it is given, so moving a matrix between the pool and the store
//! copies no cells. The byte counters still charge every read and write
//! the file's full size — the IO the modelled transfer would do.

use std::collections::BTreeMap;
use std::sync::Arc;

use reml_matrix::Matrix;

/// Byte-level IO statistics of the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdfsStats {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
}

/// A named in-process dataset store simulating HDFS.
#[derive(Debug, Clone, Default)]
pub struct HdfsStore {
    files: BTreeMap<String, Arc<Matrix>>,
    stats: HdfsStats,
}

impl HdfsStore {
    /// Empty store.
    pub fn new() -> Self {
        HdfsStore::default()
    }

    /// Stage a dataset (no IO accounted — models pre-existing input).
    pub fn stage(&mut self, path: impl Into<String>, data: Matrix) {
        self.files.insert(path.into(), Arc::new(data));
    }

    /// Read a dataset as a shared handle, accounting for the bytes moved.
    pub fn read(&mut self, path: &str) -> Option<Arc<Matrix>> {
        let m = Arc::clone(self.files.get(path)?);
        self.stats.bytes_read += m.size_bytes();
        self.stats.reads += 1;
        Some(m)
    }

    /// Write a dataset (store the handle), accounting for the bytes moved.
    pub fn write(&mut self, path: impl Into<String>, data: Arc<Matrix>) {
        self.stats.bytes_written += data.size_bytes();
        self.stats.writes += 1;
        self.files.insert(path.into(), data);
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Peek at a dataset without IO accounting (verification helper).
    pub fn peek(&self, path: &str) -> Option<&Matrix> {
        self.files.get(path).map(Arc::as_ref)
    }

    /// Remove a dataset.
    pub fn remove(&mut self, path: &str) -> Option<Arc<Matrix>> {
        self.files.remove(path)
    }

    /// Current statistics.
    pub fn stats(&self) -> HdfsStats {
        self.stats
    }

    /// Paths currently stored (sorted).
    pub fn paths(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_read_write_accounting() {
        let mut h = HdfsStore::new();
        let m = Matrix::constant(10, 10, 1.0); // 800 bytes dense
        h.stage("X", m.clone());
        assert_eq!(h.stats().bytes_read, 0);

        let r = h.read("X").unwrap();
        assert_eq!(*r, m);
        assert_eq!(h.stats().bytes_read, 800);
        assert_eq!(h.stats().reads, 1);

        h.write("out", Arc::clone(&r));
        assert!(Arc::ptr_eq(&h.read("out").unwrap(), &r));
        assert_eq!(h.stats().bytes_written, 800);
        assert!(h.exists("out"));
    }

    #[test]
    fn missing_path() {
        let mut h = HdfsStore::new();
        assert!(h.read("nope").is_none());
        assert!(!h.exists("nope"));
    }

    #[test]
    fn remove_and_paths() {
        let mut h = HdfsStore::new();
        h.stage("b", Matrix::constant(1, 1, 1.0));
        h.stage("a", Matrix::constant(1, 1, 2.0));
        assert_eq!(h.paths(), vec!["a", "b"]);
        assert!(h.remove("a").is_some());
        assert_eq!(h.paths(), vec!["b"]);
    }
}
