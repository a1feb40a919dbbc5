//! Sharded visible-reader registry.
//!
//! Visible readers register in a small per-object *sharded* registry
//! (shard = reader id modulo [`READER_SHARDS`]) so that concurrent
//! read-mostly transactions don't convoy on one list mutex, and each
//! registration only scans its own short shard. Finished readers are pruned
//! lazily: registration prunes only when its shard has grown past
//! [`READER_PRUNE_THRESHOLD`], so the uncontended register/unregister pair
//! is O(1); writers ([`ReaderRegistry::active_readers`]) still prune every
//! shard they scan, which they traverse anyway to arbitrate.
//!
//! The registry is generic over the reader record (anything implementing
//! [`RegisteredReader`]) so the bounded concurrency models in
//! `crate::models` (under `--features model-check`) can drive the *same*
//! code with a two-field test reader
//! instead of a full transaction descriptor. The runtime instantiates it
//! with `TxShared` inside every `TVar`.
//!
//! All locking goes through [`crate::sync`], so under
//! `--features model-check` the shard mutexes are loomlite modeled mutexes
//! and the registry's interleavings are explored exhaustively.

use crate::sync::{Arc, Mutex};

/// Visible-reader registry shards per object. Eight shards of a few
/// entries each cover the realistic visible-reader population (readers
/// unregister on commit); the shard index is the reader's id modulo this,
/// so one transaction always lands in the same shard.
pub const READER_SHARDS: usize = 8;

/// Shard occupancy past which registration prunes finished readers before
/// pushing. Below it, registration is append-only (amortized O(1)); the
/// stale-entry population per object is bounded by
/// `READER_SHARDS × READER_PRUNE_THRESHOLD`.
pub const READER_PRUNE_THRESHOLD: usize = 8;

/// What the registry needs to know about a reader record.
pub trait RegisteredReader {
    /// A stable identity; selects the reader's shard.
    fn reader_id(&self) -> u64;
    /// Whether the reader is still running (finished readers are pruned).
    fn is_running(&self) -> bool;
}

/// A sharded set of visible readers attached to one object.
#[derive(Debug)]
pub struct ReaderRegistry<R> {
    shards: [Mutex<Vec<Arc<R>>>; READER_SHARDS],
}

impl<R> Default for ReaderRegistry<R> {
    fn default() -> Self {
        ReaderRegistry {
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }
}

impl<R: RegisteredReader> ReaderRegistry<R> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_of(&self, reader: &R) -> &Mutex<Vec<Arc<R>>> {
        &self.shards[(reader.reader_id() % READER_SHARDS as u64) as usize]
    }

    /// Registers `reader` as a visible reader. Returns `true` if it was not
    /// already registered. Only the reader's own shard is touched, and
    /// finished entries are pruned only once the shard has grown past
    /// [`READER_PRUNE_THRESHOLD`], so the uncontended call is O(1).
    pub fn register(&self, reader: &Arc<R>) -> bool {
        let mut shard = self.shard_of(reader).lock();
        if shard.iter().any(|r| Arc::ptr_eq(r, reader)) {
            return false;
        }
        if shard.len() >= READER_PRUNE_THRESHOLD {
            shard.retain(|r| r.is_running());
        }
        shard.push(Arc::clone(reader));
        true
    }

    /// Removes `reader` from its shard. Removes only the caller's entry —
    /// no full-list rescan on the release path.
    pub fn unregister(&self, reader: &R) {
        let mut shard = self.shard_of(reader).lock();
        if let Some(pos) = shard
            .iter()
            .position(|r| std::ptr::eq(Arc::as_ptr(r), reader))
        {
            shard.swap_remove(pos);
        }
    }

    /// Returns the currently registered running readers other than `me`,
    /// pruning finished readers from every shard on the way (the writer
    /// pays an O(readers) walk here regardless — it must arbitrate with
    /// each of them).
    pub fn active_readers(&self, me: &Arc<R>) -> Vec<Arc<R>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.retain(|r| r.is_running());
            out.extend(shard.iter().filter(|r| !Arc::ptr_eq(r, me)).cloned());
        }
        out
    }

    /// Number of registered readers, stale entries included (tests and
    /// instrumentation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Whether no reader (stale entries included) is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RegisteredReader for crate::txn::TxShared {
    fn reader_id(&self) -> u64 {
        self.id()
    }

    fn is_running(&self) -> bool {
        self.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeReader {
        id: u64,
        running: std::sync::atomic::AtomicBool,
    }

    impl FakeReader {
        fn new(id: u64) -> Arc<Self> {
            Arc::new(FakeReader {
                id,
                running: std::sync::atomic::AtomicBool::new(true),
            })
        }

        fn finish(&self) {
            self.running
                .store(false, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl RegisteredReader for FakeReader {
        fn reader_id(&self) -> u64 {
            self.id
        }

        fn is_running(&self) -> bool {
            self.running.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn same_id_lands_in_same_shard_and_dedupes() {
        let reg: ReaderRegistry<FakeReader> = ReaderRegistry::new();
        let r = FakeReader::new(3);
        assert!(reg.register(&r));
        assert!(!reg.register(&r));
        // A distinct reader with the same id is a distinct registration.
        let r2 = FakeReader::new(3);
        assert!(reg.register(&r2));
        assert_eq!(reg.len(), 2);
        reg.unregister(&r);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn prune_on_register_keeps_running_readers() {
        let reg: ReaderRegistry<FakeReader> = ReaderRegistry::new();
        let keep = FakeReader::new(0);
        assert!(reg.register(&keep));
        // Pile finished readers into shard 0 until the threshold prunes.
        for i in 0..(2 * READER_PRUNE_THRESHOLD as u64) {
            let r = FakeReader::new(i * READER_SHARDS as u64);
            reg.register(&r);
            r.finish();
        }
        assert!(reg.len() <= READER_PRUNE_THRESHOLD + 1);
        let me = FakeReader::new(7);
        let active = reg.active_readers(&me);
        assert_eq!(active.len(), 1);
        assert!(Arc::ptr_eq(&active[0], &keep));
        // The writer scan physically pruned every shard.
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn active_readers_excludes_me_and_prunes() {
        let reg: ReaderRegistry<FakeReader> = ReaderRegistry::new();
        let me = FakeReader::new(1);
        let other = FakeReader::new(2);
        let gone = FakeReader::new(3);
        reg.register(&me);
        reg.register(&other);
        reg.register(&gone);
        gone.finish();
        let active = reg.active_readers(&me);
        assert_eq!(active.len(), 1);
        assert!(Arc::ptr_eq(&active[0], &other));
        assert_eq!(reg.len(), 2);
    }
}
