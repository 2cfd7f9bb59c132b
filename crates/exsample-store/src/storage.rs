//! The storage seam: a small file-system abstraction the store writes
//! through.
//!
//! Mirroring the detector stack's `Detector` / `FaultInjectingDetector`
//! split, the store never touches `std::fs` directly — it drives a
//! [`Storage`] trait with a real [`FsStorage`] backend, an in-memory
//! [`MemStorage`] backend for tests, and a seeded fault-injecting wrapper
//! ([`FaultInjectingStorage`](crate::FaultInjectingStorage)) in between when
//! robustness is under test.
//!
//! File names are flat (no directories): the store uses `"log"`,
//! `"snapshot"` and `"snapshot.tmp"` inside a single store directory.

use crate::error::StoreError;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A minimal, fault-injectable file-system surface.
///
/// Contract details the store relies on:
///
/// * [`read`](Storage::read) of a missing file is `Ok(None)`, not an error;
/// * [`append`](Storage::append) and [`write`](Storage::write) return the
///   number of bytes actually written — a short count is legal and the
///   caller must roll back and retry;
/// * [`rename`](Storage::rename) replaces the destination atomically and is
///   durable on return (the store truncates the log right after it);
/// * [`begin_op`](Storage::begin_op) marks the start of one *logical*
///   operation so fault injectors can count retries of the same operation
///   separately from new operations.  The default is a no-op.
pub trait Storage: Send {
    /// Mark the start of one logical operation (see trait docs).
    fn begin_op(&mut self) {}

    /// Read a whole file; `Ok(None)` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Append bytes to a file (creating it), returning how many were
    /// actually written.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError>;

    /// Replace a file's contents, returning how many bytes were written.
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError>;

    /// Flush a file's data to durable media (fsync).
    fn sync(&mut self, name: &str) -> Result<(), StoreError>;

    /// Atomically rename `from` over `to`.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError>;

    /// Remove a file; removing a missing file is `Ok(())`.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;

    /// Truncate a file to `len` bytes (creating it empty if missing).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError>;
}

/// Real `std::fs` backend rooted at a directory.
#[derive(Debug)]
pub(crate) struct FsStorage {
    root: PathBuf,
}

impl FsStorage {
    /// Open (creating if necessary) a store directory.
    pub(crate) fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StoreError::io("create_dir", &root.display().to_string(), &e))?;
        Ok(FsStorage { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for FsStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::io("read", name, &e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| StoreError::io("append", name, &e))?;
        file.write_all(bytes)
            .map_err(|e| StoreError::io("append", name, &e))?;
        Ok(bytes.len())
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        std::fs::write(self.path(name), bytes).map_err(|e| StoreError::io("write", name, &e))?;
        Ok(bytes.len())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .open(self.path(name))
            .map_err(|e| StoreError::io("sync", name, &e))?;
        file.sync_all()
            .map_err(|e| StoreError::io("sync", name, &e))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        std::fs::rename(self.path(from), self.path(to))
            .map_err(|e| StoreError::io("rename", from, &e))?;
        // The new name is durable only once the directory is: without this a
        // power loss after the caller truncates the log can bring back the
        // old snapshot beside a new-generation log.
        std::fs::File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::io("sync_dir", to, &e))
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io("remove", name, &e)),
        }
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(self.path(name))
            .map_err(|e| StoreError::io("truncate", name, &e))?;
        file.set_len(len)
            .map_err(|e| StoreError::io("truncate", name, &e))
    }
}

/// Shared byte map behind [`MemStorage`] — clone the handle to observe (or
/// keep, across a simulated process death) the files a store wrote.
pub type MemFiles = Arc<Mutex<HashMap<String, Vec<u8>>>>;

/// In-memory backend for tests: a `HashMap<String, Vec<u8>>` behind an
/// `Arc<Mutex>` so a "crashed" store's surviving bytes can be reopened by a
/// fresh store, exactly as a restarted process would reopen real files.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: MemFiles,
}

impl MemStorage {
    /// Fresh, empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage over an existing byte map (e.g. the survivor of a crash).
    pub fn with_files(files: MemFiles) -> Self {
        MemStorage { files }
    }

    /// Handle to the underlying byte map.
    pub fn files(&self) -> MemFiles {
        Arc::clone(&self.files)
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.files.lock().unwrap().get(name).cloned())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        self.files
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        self.files
            .lock()
            .unwrap()
            .insert(name.to_string(), bytes.to_vec());
        Ok(bytes.len())
    }

    fn sync(&mut self, _name: &str) -> Result<(), StoreError> {
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        let mut files = self.files.lock().unwrap();
        match files.remove(from) {
            Some(bytes) => {
                files.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(StoreError::Io {
                op: "rename",
                file: from.to_string(),
                kind: std::io::ErrorKind::NotFound,
                message: "no such file".to_string(),
            }),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.files.lock().unwrap().remove(name);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let mut files = self.files.lock().unwrap();
        let bytes = files.entry(name.to_string()).or_default();
        bytes.truncate(len as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &mut dyn Storage) {
        assert_eq!(storage.read("log").unwrap(), None);
        assert_eq!(storage.append("log", b"abc").unwrap(), 3);
        assert_eq!(storage.append("log", b"def").unwrap(), 3);
        assert_eq!(storage.read("log").unwrap().unwrap(), b"abcdef");
        storage.truncate("log", 4).unwrap();
        assert_eq!(storage.read("log").unwrap().unwrap(), b"abcd");
        // Rename replaces an existing destination (on `FsStorage`, through
        // the directory fsync) and a missing source is an error.
        assert_eq!(storage.write("snap", b"old").unwrap(), 3);
        assert_eq!(storage.write("tmp", b"xyz").unwrap(), 3);
        storage.sync("tmp").unwrap();
        storage.rename("tmp", "snap").unwrap();
        assert_eq!(storage.read("snap").unwrap().unwrap(), b"xyz");
        assert_eq!(storage.read("tmp").unwrap(), None);
        assert!(storage.rename("tmp", "snap").is_err());
        storage.remove("snap").unwrap();
        storage.remove("snap").unwrap(); // removing a missing file is fine
        assert_eq!(storage.read("snap").unwrap(), None);
    }

    #[test]
    fn mem_storage_honours_the_contract() {
        exercise(&mut MemStorage::new());
    }

    #[test]
    fn fs_storage_honours_the_contract() {
        let dir = std::env::temp_dir().join(format!(
            "exsample-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&mut FsStorage::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_storage_files_survive_the_handle() {
        let storage = MemStorage::new();
        let files = storage.files();
        {
            let mut s = storage.clone();
            s.append("log", b"survivor").unwrap();
        }
        let reopened = MemStorage::with_files(files);
        assert_eq!(reopened.read("log").unwrap().unwrap(), b"survivor");
    }
}
