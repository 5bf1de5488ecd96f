//! SystemML-style buffer pool for CP variables.
//!
//! The CP runtime "pins inputs and outputs into memory in order to prevent
//! repeated deserialization" (§2.1). The pool holds variables up to a byte
//! capacity (the CP memory budget); when a new entry does not fit,
//! least-recently-used entries are *evicted* to simulated local disk. The
//! executors hold shared matrices (`BufferPool<Arc<Matrix>>`, the
//! default); the discrete-event simulator holds only their byte sizes
//! (`BufferPool<u64>`) and charges local-disk time for exactly these
//! eviction/restore counters — the paper's observation that buffer-pool
//! evictions are a source of cost-model suboptimality (§5, "Sources of
//! suboptimality").
//!
//! Entries also track a *dirty* flag (in-memory state differs from HDFS),
//! which drives both `write()` elision and AM migration (§4.1: "we write
//! all dirty variables"), implemented once as [`BufferPool::migrate`].
//!
//! ## Shared matrices, per-name bytes
//!
//! A matrix entry is an `Arc<Matrix>`: binding a second name to the same
//! value (`B = A`, a persistent read or write, an MR job's `tmp/` export)
//! is a refcount bump, as SystemML's `cpvar` binds a second name to one
//! matrix object. Nothing mutates a pooled matrix in place, so sharing
//! keeps value semantics. The byte accounting stays *per name*: every
//! entry counts its own `size_bytes`, shared or not, exactly as the deep
//! copies did, so resident, evicted, restored and dirty bytes mean the
//! same on real execution and in the simulator's pool over byte sizes.
//!
//! ## Slots
//!
//! Internally the pool is a *slot arena*: each name resolves once (via
//! [`BufferPool::resolve_slot`]) to a stable [`SlotId`] — an index into a
//! `Vec` — and every subsequent access is an array index instead of a
//! string-keyed map lookup. The bytecode VM resolves all program
//! variables to slots at load time and then runs name-free; the name API
//! (`get`/`put`/`touch`/...) is a thin wrapper that does the hash lookup
//! per call — what the simulator and the reference tree walker use.
//! Slots are never reused: removing a variable clears the slot's entry
//! but keeps the `SlotId` valid for later re-`put`s.

use std::collections::HashMap;
use std::sync::Arc;

use reml_matrix::{Matrix, MatrixCharacteristics};

/// What a pool entry holds: anything with a byte size.
pub trait PoolValue: Clone {
    /// Bytes the value occupies in memory (and on local disk when evicted).
    fn size_bytes(&self) -> u64;
}

/// A shared matrix: its own bytes, counted once per name that holds it.
impl PoolValue for Arc<Matrix> {
    fn size_bytes(&self) -> u64 {
        Matrix::size_bytes(self)
    }
}

/// A bare byte size: the simulator's pool, where only footprints exist.
impl PoolValue for u64 {
    fn size_bytes(&self) -> u64 {
        *self
    }
}

/// Eviction and restore accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Number of evictions performed.
    pub evictions: u64,
    /// Bytes written to local disk by evictions.
    pub bytes_evicted: u64,
    /// Number of restores of previously evicted entries.
    pub restores: u64,
    /// Bytes read back from local disk by restores.
    pub bytes_restored: u64,
}

/// Report of one AM runtime migration (§4.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Dirty variables exported to HDFS.
    pub dirty_exported: u64,
    /// Bytes of dirty state written.
    pub dirty_bytes: u64,
    /// Total variables carried across the migration.
    pub variables: u64,
}

/// Stable handle of a pool variable: an index into the slot arena,
/// assigned by [`BufferPool::resolve_slot`] and valid for the lifetime of
/// the pool (slots are not reused after `remove`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    data: V,
    /// In memory (true) or evicted to local disk (false).
    in_memory: bool,
    /// Differs from its HDFS representation.
    dirty: bool,
    /// LRU clock.
    last_use: u64,
}

#[derive(Debug, Clone)]
struct Slot<V> {
    name: String,
    entry: Option<Entry<V>>,
}

/// A capacity-bounded pool of named variables.
#[derive(Debug, Clone)]
pub struct BufferPool<V = Arc<Matrix>> {
    capacity_bytes: u64,
    slots: Vec<Slot<V>>,
    index: HashMap<String, u32>,
    /// Bytes of in-memory entries, maintained incrementally so hot paths
    /// (every put) need no full arena scan.
    resident_bytes: u64,
    clock: u64,
    stats: BufferPoolStats,
}

impl<V: PoolValue> BufferPool<V> {
    /// Pool with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        BufferPool {
            capacity_bytes,
            slots: Vec::new(),
            index: HashMap::new(),
            resident_bytes: 0,
            clock: 0,
            stats: BufferPoolStats::default(),
        }
    }

    /// The capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Resize the pool (AM migration or restart). Shrinking below the
    /// current occupancy spills at once, in LRU order — the eviction
    /// storm a smaller container pays.
    pub fn set_capacity_bytes(&mut self, capacity_bytes: u64) {
        self.capacity_bytes = capacity_bytes;
        self.make_room(None);
    }

    /// Bytes of in-memory (non-evicted) entries.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Number of in-memory entries.
    pub fn num_resident(&self) -> usize {
        self.entries().filter(|(_, e)| e.in_memory).count()
    }

    /// Bytes of dirty entries, resident or evicted (the migration export
    /// set).
    pub fn dirty_bytes(&self) -> u64 {
        self.entries()
            .filter(|(_, e)| e.dirty)
            .map(|(_, e)| e.data.size_bytes())
            .sum()
    }

    /// Bytes of clean (HDFS-backed) in-memory entries — the state a
    /// restarted AM re-reads after a kill.
    pub fn clean_resident_bytes(&self) -> u64 {
        self.entries()
            .filter(|(_, e)| e.in_memory && !e.dirty)
            .map(|(_, e)| e.data.size_bytes())
            .sum()
    }

    /// §4.1 AM runtime migration at a program-block boundary: hand every
    /// dirty variable to `export` (clean ones already have a current HDFS
    /// representation), mark all variables clean, then resize to the new
    /// container's budget, evicting in LRU order if it is smaller. Slot
    /// ids stay valid, so a running program resumes unchanged.
    pub fn migrate(
        &mut self,
        new_capacity_bytes: u64,
        mut export: impl FnMut(&str, &V),
    ) -> MigrationReport {
        let mut report = MigrationReport::default();
        for s in &mut self.slots {
            let Some(e) = s.entry.as_mut() else {
                continue;
            };
            report.variables += 1;
            if e.dirty {
                report.dirty_exported += 1;
                report.dirty_bytes += e.data.size_bytes();
                export(&s.name, &e.data);
                e.dirty = false;
            }
        }
        self.set_capacity_bytes(new_capacity_bytes);
        report
    }

    // ------------------------------------------------------------------
    // Slot API — the VM's name-free fast path.
    // ------------------------------------------------------------------

    /// Resolve a name to its stable slot, allocating one on first use.
    /// A known name costs one hash lookup and no allocation; every later
    /// access by [`SlotId`] is a plain array index.
    pub fn resolve_slot(&mut self, name: &str) -> SlotId {
        if let Some(slot) = self.slot_of(name) {
            return slot;
        }
        let id = self.slots.len() as u32;
        self.slots.push(Slot {
            name: name.to_string(),
            entry: None,
        });
        self.index.insert(name.to_string(), id);
        SlotId(id)
    }

    /// The slot of a name, if already resolved.
    pub fn slot_of(&self, name: &str) -> Option<SlotId> {
        self.index.get(name).copied().map(SlotId)
    }

    /// The name a slot was resolved from.
    pub fn slot_name(&self, slot: SlotId) -> &str {
        &self.slots[slot.index()].name
    }

    /// Insert or replace a variable by slot; `dirty` when it was produced
    /// in memory rather than read from HDFS.
    pub fn put_slot_with_dirty(&mut self, slot: SlotId, data: V, dirty: bool) {
        self.clock += 1;
        let s = &mut self.slots[slot.index()];
        if let Some(old) = &s.entry {
            if old.in_memory {
                self.resident_bytes -= old.data.size_bytes();
            }
        }
        self.resident_bytes += data.size_bytes();
        s.entry = Some(Entry {
            data,
            in_memory: true,
            dirty,
            last_use: self.clock,
        });
        self.make_room(Some(slot));
    }

    /// Touch a slot: bump its LRU clock and restore it from local disk if
    /// evicted (with byte accounting), without cloning the data. Returns
    /// false when the slot holds no value. Pair with [`peek_slot`] to
    /// read the value by reference — the VM's clone-free operand fetch.
    ///
    /// [`peek_slot`]: BufferPool::peek_slot
    pub fn touch_slot(&mut self, slot: SlotId) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let restored = {
            let Some(e) = self.slots[slot.index()].entry.as_mut() else {
                return false;
            };
            e.last_use = clock;
            if !e.in_memory {
                e.in_memory = true;
                Some(e.data.size_bytes())
            } else {
                None
            }
        };
        if let Some(bytes) = restored {
            self.resident_bytes += bytes;
            self.stats.restores += 1;
            self.stats.bytes_restored += bytes;
            reml_trace::count("pool.restores", 1);
            reml_trace::count("pool.bytes_restored", bytes);
            // Restoring nothing adds no occupancy, so it evicts nothing.
            if bytes > 0 {
                self.make_room(Some(slot));
            }
        }
        true
    }

    /// Read a slot's value by reference without touching LRU state.
    pub fn peek_slot(&self, slot: SlotId) -> Option<&V> {
        self.slots[slot.index()].entry.as_ref().map(|e| &e.data)
    }

    /// Fetch by slot, restoring if evicted; clones the value (for a
    /// shared matrix, a refcount bump). Prefer `touch_slot` + `peek_slot`
    /// where a reference suffices.
    pub fn get_slot(&mut self, slot: SlotId) -> Option<V> {
        if !self.touch_slot(slot) {
            return None;
        }
        self.peek_slot(slot).cloned()
    }

    /// Mark a slot clean (it was just exported to HDFS).
    pub fn mark_clean_slot(&mut self, slot: SlotId) {
        if let Some(e) = self.slots[slot.index()].entry.as_mut() {
            e.dirty = false;
        }
    }

    /// Remove a slot's value (the slot id stays valid).
    pub fn remove_slot(&mut self, slot: SlotId) -> Option<V> {
        let e = self.slots[slot.index()].entry.take()?;
        if e.in_memory {
            self.resident_bytes -= e.data.size_bytes();
        }
        Some(e.data)
    }

    // ------------------------------------------------------------------
    // Name API — one hash lookup per call, then the slot path.
    // ------------------------------------------------------------------

    /// Insert or replace a variable. New entries are dirty by default
    /// (they were just produced in memory).
    pub fn put(&mut self, name: &str, data: V) {
        self.put_with_dirty(name, data, true);
    }

    /// Insert with an explicit dirty flag (false for data just read from
    /// HDFS — its on-disk representation matches).
    pub fn put_with_dirty(&mut self, name: &str, data: V, dirty: bool) {
        let slot = self.resolve_slot(name);
        self.put_slot_with_dirty(slot, data, dirty);
    }

    /// Record a use of a variable, restoring it from local disk if
    /// evicted. Returns the bytes restored, or `None` when the pool holds
    /// no such variable (a no-op).
    pub fn touch(&mut self, name: &str) -> Option<u64> {
        let slot = self.slot_of(name)?;
        let before = self.stats.bytes_restored;
        self.touch_slot(slot)
            .then(|| self.stats.bytes_restored - before)
    }

    /// Fetch a variable, restoring it from local disk if evicted. Returns
    /// a clone of the value: a shared handle for a matrix, which callers
    /// treat as an immutable value.
    pub fn get(&mut self, name: &str) -> Option<V> {
        let slot = self.slot_of(name)?;
        self.get_slot(slot)
    }

    /// A variable's value without touching LRU state.
    pub fn peek(&self, name: &str) -> Option<&V> {
        let slot = self.slot_of(name)?;
        self.peek_slot(slot)
    }

    /// Whether a variable exists in the pool (memory or evicted).
    pub fn contains(&self, name: &str) -> bool {
        self.peek(name).is_some()
    }

    /// Whether a variable is dirty (needs export before migration).
    pub fn is_dirty(&self, name: &str) -> Option<bool> {
        let slot = self.slot_of(name)?;
        self.slots[slot.index()].entry.as_ref().map(|e| e.dirty)
    }

    /// Mark a variable clean (it was just exported to HDFS).
    pub fn mark_clean(&mut self, name: &str) {
        if let Some(slot) = self.slot_of(name) {
            self.mark_clean_slot(slot);
        }
    }

    /// Remove a variable entirely.
    pub fn remove(&mut self, name: &str) -> Option<V> {
        let slot = self.slot_of(name)?;
        self.remove_slot(slot)
    }

    /// All variable names, sorted.
    pub fn variables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries().map(|(s, _)| s.name.clone()).collect();
        names.sort();
        names
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Occupied slots with their entries, in arena order.
    fn entries(&self) -> impl Iterator<Item = (&Slot<V>, &Entry<V>)> {
        self.slots
            .iter()
            .filter_map(|s| Some((s, s.entry.as_ref()?)))
    }

    /// Evict LRU in-memory entries until resident bytes fit the capacity.
    /// `protect` shields the entry just inserted or restored: it is the
    /// hottest value and evicting it immediately would thrash.
    fn make_room(&mut self, protect: Option<SlotId>) {
        while self.resident_bytes > self.capacity_bytes {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.entry.as_ref().map(|e| (i, e)))
                .filter(|(i, e)| e.in_memory && protect.map(SlotId::index) != Some(*i))
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let e = self.slots[i].entry.as_mut().expect("victim exists");
                    e.in_memory = false;
                    let bytes = e.data.size_bytes();
                    self.resident_bytes -= bytes;
                    self.stats.evictions += 1;
                    self.stats.bytes_evicted += bytes;
                    // Registry metrics: eviction counts/bytes alongside
                    // the local `BufferPoolStats`.
                    reml_trace::count("pool.evictions", 1);
                    reml_trace::count("pool.bytes_evicted", bytes);
                }
                // Only the protected entry is resident: it alone exceeds
                // the capacity, so allow the overshoot.
                None => break,
            }
        }
    }
}

impl BufferPool<Arc<Matrix>> {
    /// Actual characteristics (non-zeros included) of the matrix a live
    /// variable holds, resident or evicted; `None` for a name the pool
    /// does not hold. The input to dynamic recompilation, asked for one
    /// name at a time: a dense matrix's non-zeros cost a scan of its
    /// cells, so a recompile pays only for the variables it reads.
    pub fn characteristics(&self, name: &str) -> Option<MatrixCharacteristics> {
        self.peek(name).map(|m| m.characteristics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m_kb(kb: usize) -> Arc<Matrix> {
        // kb kilobytes dense: kb * 128 cells.
        Arc::new(Matrix::constant(kb * 128, 1, 1.0))
    }

    #[test]
    fn within_capacity_no_evictions() {
        let mut pool = BufferPool::new(10 * 1024);
        pool.put("a", m_kb(4));
        pool.put("b", m_kb(4));
        assert_eq!(pool.stats().evictions, 0);
        assert!(pool.get("a").is_some());
    }

    #[test]
    fn overflow_evicts_lru() {
        let mut pool = BufferPool::new(10 * 1024);
        pool.put("a", m_kb(4));
        pool.put("b", m_kb(4));
        let _ = pool.get("a"); // a is now more recent than b
        pool.put("c", m_kb(4)); // overflow: b is LRU victim
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().bytes_evicted, 4 * 1024);
        // b still accessible, restored on demand.
        assert!(pool.get("b").is_some());
        assert_eq!(pool.stats().restores, 1);
        assert_eq!(pool.stats().bytes_restored, 4 * 1024);
    }

    #[test]
    fn dirty_tracking() {
        let mut pool = BufferPool::new(1024 * 1024);
        pool.put_with_dirty("X", m_kb(1), false); // read from HDFS
        pool.put("g", m_kb(1)); // computed
        pool.put("w", m_kb(2)); // computed
        assert_eq!(pool.is_dirty("X"), Some(false));
        assert_eq!(pool.is_dirty("g"), Some(true));
        assert_eq!(pool.dirty_bytes(), 3 * 1024);
        assert_eq!(pool.clean_resident_bytes(), 1024);
        pool.mark_clean("g");
        assert_eq!(pool.dirty_bytes(), 2 * 1024);
        pool.remove("w");
        assert_eq!(pool.dirty_bytes(), 0);
    }

    #[test]
    fn migrate_exports_dirty_then_resizes() {
        // Byte-size pool, as the simulator runs it.
        let mut pool: BufferPool<u64> = BufferPool::new(1000);
        pool.put_with_dirty("x", 100, false);
        pool.put("g", 50);
        pool.put("w", 25);
        let mut exported = Vec::new();
        let report = pool.migrate(60, |name, &bytes| exported.push((name.to_string(), bytes)));
        assert_eq!(exported, [("g".to_string(), 50), ("w".to_string(), 25)]);
        let expected = MigrationReport {
            dirty_exported: 2,
            dirty_bytes: 75,
            variables: 3,
        };
        assert_eq!(report, expected);
        assert_eq!(pool.dirty_bytes(), 0);
        // The shrink evicted LRU-first (x, then g) at once; w stays.
        assert_eq!(pool.stats().bytes_evicted, 150);
        assert_eq!(pool.resident_bytes(), 25);
        assert_eq!(pool.num_resident(), 1);
        assert!(pool.contains("x") && pool.contains("g"));
    }

    #[test]
    fn remove_and_contains() {
        let mut pool = BufferPool::new(1024);
        pool.put("a", m_kb(1));
        assert!(pool.contains("a"));
        assert!(pool.remove("a").is_some());
        assert!(!pool.contains("a"));
        assert!(pool.get("a").is_none());
        // Touching a name the pool does not hold is a no-op.
        assert_eq!(pool.touch("a"), None);
        assert_eq!(pool.touch("ghost"), None);
        assert_eq!(pool.stats(), BufferPoolStats::default());
    }

    #[test]
    fn resize_evicts_and_growth_stops_thrashing() {
        let mut pool = BufferPool::new(4 * 1024);
        pool.put("a", m_kb(4));
        pool.put("b", m_kb(4));
        let evictions_before = pool.stats().evictions;
        assert!(evictions_before > 0);
        pool.set_capacity_bytes(64 * 1024);
        let _ = pool.get("a");
        let _ = pool.get("b");
        pool.put("c", m_kb(4));
        // No further evictions after the resize.
        assert_eq!(pool.stats().evictions, evictions_before);
        // Shrinking spills at once, without waiting for the next put.
        pool.set_capacity_bytes(5 * 1024);
        assert_eq!(pool.stats().evictions, evictions_before + 2);
        assert_eq!(pool.resident_bytes(), 4 * 1024);
    }

    #[test]
    fn slot_api_roundtrip() {
        let mut pool = BufferPool::new(1024 * 1024);
        let a = pool.resolve_slot("a");
        assert_eq!(pool.resolve_slot("a"), a, "resolution is stable");
        assert!(pool.peek_slot(a).is_none());
        pool.put_slot_with_dirty(a, m_kb(1), true);
        assert_eq!(pool.slot_name(a), "a");
        // Name and slot APIs see the same entry.
        assert!(pool.contains("a"));
        assert_eq!(pool.peek("a").unwrap(), pool.peek_slot(a).unwrap());
        // Removal clears the value but keeps the slot valid.
        assert!(pool.remove_slot(a).is_some());
        assert!(!pool.contains("a"));
        pool.put_slot_with_dirty(a, m_kb(2), true);
        assert_eq!(pool.get("a").unwrap().size_bytes(), 2 * 1024);
    }

    #[test]
    fn touch_restores_without_cloning() {
        let mut pool = BufferPool::new(10 * 1024);
        let a = pool.resolve_slot("a");
        let b = pool.resolve_slot("b");
        pool.put_slot_with_dirty(a, m_kb(6), true);
        pool.put_slot_with_dirty(b, m_kb(6), true); // evicts a
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.touch_slot(a)); // restore
        assert_eq!(pool.stats().restores, 1);
        assert_eq!(pool.stats().bytes_restored, 6 * 1024);
        assert!(pool.peek_slot(a).is_some());
        // The name API reports the bytes a touch restored (b was evicted
        // by a's restore; a is resident).
        assert_eq!(pool.touch("b"), Some(6 * 1024));
        assert_eq!(pool.touch("b"), Some(0));
        let missing = pool.resolve_slot("missing");
        assert!(!pool.touch_slot(missing));
        // Restoring a zero-byte entry adds no occupancy, so it does not
        // evict the oversized entry whose insertion evicted it.
        let mut sizes: BufferPool<u64> = BufferPool::new(100);
        sizes.put("z", 0);
        sizes.put("big", 150); // evicts z; big alone overshoots
        assert_eq!(sizes.touch("z"), Some(0));
        assert_eq!(sizes.resident_bytes(), 150);
    }

    #[test]
    fn resident_bytes_tracks_incrementally() {
        let mut pool = BufferPool::new(100 * 1024);
        pool.put("a", m_kb(4));
        pool.put("b", m_kb(2));
        assert_eq!(pool.resident_bytes(), 6 * 1024);
        pool.put("a", m_kb(1)); // replace shrinks
        assert_eq!(pool.resident_bytes(), 3 * 1024);
        pool.remove("b");
        assert_eq!(pool.resident_bytes(), 1024);
    }

    #[test]
    fn eviction_metric_reaches_registry() {
        let rec = reml_trace::Recorder::new(64);
        reml_trace::install(std::sync::Arc::clone(&rec));
        let before = reml_trace::metrics().counter("pool.evictions").get();
        let mut pool = BufferPool::new(4 * 1024);
        pool.put("a", m_kb(4));
        pool.put("b", m_kb(4)); // evicts a
        let after = reml_trace::metrics().counter("pool.evictions").get();
        reml_trace::uninstall();
        assert!(pool.stats().evictions >= 1);
        assert!(after >= before + pool.stats().evictions);
    }
}
