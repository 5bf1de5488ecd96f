//! SystemML-style buffer pool for matrix variables.
//!
//! The CP runtime "pins inputs and outputs into memory in order to prevent
//! repeated deserialization" (§2.1). The pool holds matrix variables up to
//! a byte capacity (the CP memory budget); when a new entry does not fit,
//! least-recently-used unpinned entries are *evicted* to simulated local
//! disk. Eviction/restore byte counters are the ground truth the
//! discrete-event simulator charges extra IO time for — reproducing the
//! paper's observation that buffer-pool evictions are a source of
//! cost-model suboptimality (§5, "Sources of suboptimality").
//!
//! Entries also track a *dirty* flag (in-memory state differs from HDFS),
//! which drives both `write()` elision and the migration cost model
//! (§4.1: "we write all dirty variables").
//!
//! ## Slots
//!
//! Internally the pool is a *slot arena*: each name resolves once (via
//! [`BufferPool::resolve_slot`]) to a stable [`SlotId`] — an index into a
//! `Vec` — and every subsequent access is an array index instead of a
//! string-keyed map lookup. The bytecode VM resolves all program
//! variables to slots at load time and then runs name-free; the name API
//! (`get`/`put`/...) is a thin wrapper that does the hash lookup per
//! call — what the reference tree walker's name-keyed store is built on.
//! Slots are never reused: removing a variable clears the slot's entry
//! but keeps the `SlotId` valid for later re-`put`s.

use std::collections::HashMap;

use reml_matrix::{Matrix, MatrixCharacteristics};

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
struct Entry {
    data: Matrix,
    /// In memory (true) or evicted to local disk (false).
    in_memory: bool,
    /// Differs from its HDFS representation.
    dirty: bool,
    /// Pinned entries cannot be evicted (inputs/outputs of the currently
    /// executing instruction).
    pinned: bool,
    /// LRU clock.
    last_use: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    name: String,
    entry: Option<Entry>,
}

/// A capacity-bounded pool of named matrix variables.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity_bytes: u64,
    slots: Vec<Slot>,
    index: HashMap<String, u32>,
    /// Bytes of in-memory entries, maintained incrementally so hot paths
    /// (every put) need no full arena scan.
    resident_bytes: u64,
    clock: u64,
    stats: BufferPoolStats,
}

impl BufferPool {
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

    /// Resize the pool (AM migration to a container with more memory).
    pub fn set_capacity_bytes(&mut self, capacity_bytes: u64) {
        self.capacity_bytes = capacity_bytes;
    }

    /// Bytes of in-memory (non-evicted) entries.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    // ------------------------------------------------------------------
    // Slot API — the VM's name-free fast path.
    // ------------------------------------------------------------------

    /// Resolve a name to its stable slot, allocating one on first use.
    /// One hash-map pass (entry API); every later access by [`SlotId`]
    /// is a plain array index.
    pub fn resolve_slot(&mut self, name: impl Into<String>) -> SlotId {
        let name = name.into();
        let next = self.slots.len() as u32;
        let slots = &mut self.slots;
        let id = *self.index.entry(name).or_insert_with_key(|key| {
            slots.push(Slot {
                name: key.clone(),
                entry: None,
            });
            next
        });
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

    /// Insert or replace a variable by slot (dirty: it was just produced
    /// in memory).
    pub fn put_slot(&mut self, slot: SlotId, data: Matrix) {
        self.put_slot_with_dirty(slot, data, true);
    }

    /// Insert by slot with an explicit dirty flag.
    pub fn put_slot_with_dirty(&mut self, slot: SlotId, data: Matrix, dirty: bool) {
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
            pinned: false,
            last_use: self.clock,
        });
        self.make_room(Some(slot));
    }

    /// Touch a slot: bump its LRU clock and restore it from local disk if
    /// evicted (with byte accounting), without cloning the data. Returns
    /// false when the slot holds no value. Pair with [`peek_slot`] to
    /// read the matrix by reference — the VM's clone-free operand fetch.
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
            self.make_room(Some(slot));
        }
        true
    }

    /// Read a slot's value by reference without touching LRU state.
    pub fn peek_slot(&self, slot: SlotId) -> Option<&Matrix> {
        self.slots[slot.index()].entry.as_ref().map(|e| &e.data)
    }

    /// Fetch by slot, restoring if evicted; clones the matrix (value
    /// semantics). Prefer `touch_slot` + `peek_slot` where a
    /// reference suffices.
    pub fn get_slot(&mut self, slot: SlotId) -> Option<Matrix> {
        if !self.touch_slot(slot) {
            return None;
        }
        self.peek_slot(slot).cloned()
    }

    /// Whether a slot currently holds a value.
    pub fn contains_slot(&self, slot: SlotId) -> bool {
        self.slots[slot.index()].entry.is_some()
    }

    /// Whether a slot's value is dirty.
    pub fn is_dirty_slot(&self, slot: SlotId) -> Option<bool> {
        self.slots[slot.index()].entry.as_ref().map(|e| e.dirty)
    }

    /// Mark a slot clean (it was just exported to HDFS).
    pub fn mark_clean_slot(&mut self, slot: SlotId) {
        if let Some(e) = self.slots[slot.index()].entry.as_mut() {
            e.dirty = false;
        }
    }

    /// Remove a slot's value (the slot id stays valid).
    pub fn remove_slot(&mut self, slot: SlotId) -> Option<Matrix> {
        let e = self.slots[slot.index()].entry.take()?;
        if e.in_memory {
            self.resident_bytes -= e.data.size_bytes();
        }
        Some(e.data)
    }

    /// Occupied slots in arena order (resolution order).
    pub fn occupied_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.entry.is_some())
            .map(|(i, _)| SlotId(i as u32))
    }

    // ------------------------------------------------------------------
    // Name API — one hash lookup per call, then the slot path.
    // ------------------------------------------------------------------

    /// Insert or replace a variable. New entries are dirty by default
    /// (they were just produced in memory).
    pub fn put(&mut self, name: impl Into<String>, data: Matrix) {
        self.put_with_dirty(name, data, true);
    }

    /// Insert with an explicit dirty flag (false for data just read from
    /// HDFS — its on-disk representation matches). Single entry-API pass:
    /// one name allocation, one hash lookup, no re-hash in eviction.
    pub fn put_with_dirty(&mut self, name: impl Into<String>, data: Matrix, dirty: bool) {
        let slot = self.resolve_slot(name);
        self.put_slot_with_dirty(slot, data, dirty);
    }

    /// Fetch a variable, restoring it from local disk if evicted. Returns
    /// a clone of the matrix (callers treat matrices as immutable values).
    pub fn get(&mut self, name: &str) -> Option<Matrix> {
        let slot = self.slot_of(name)?;
        self.get_slot(slot)
    }

    /// Variable characteristics without touching LRU state.
    pub fn peek(&self, name: &str) -> Option<&Matrix> {
        let slot = self.slot_of(name)?;
        self.peek_slot(slot)
    }

    /// Whether a variable exists in the pool (memory or evicted).
    pub fn contains(&self, name: &str) -> bool {
        self.slot_of(name).is_some_and(|s| self.contains_slot(s))
    }

    /// Whether a variable is dirty (needs export before migration).
    pub fn is_dirty(&self, name: &str) -> Option<bool> {
        self.is_dirty_slot(self.slot_of(name)?)
    }

    /// Mark a variable clean (it was just exported to HDFS).
    pub fn mark_clean(&mut self, name: &str) {
        if let Some(slot) = self.slot_of(name) {
            self.mark_clean_slot(slot);
        }
    }

    /// Pin variables for the duration of an instruction.
    pub fn pin(&mut self, names: &[&str]) {
        for n in names {
            if let Some(slot) = self.slot_of(n) {
                if let Some(e) = self.slots[slot.index()].entry.as_mut() {
                    e.pinned = true;
                }
            }
        }
    }

    /// Unpin all variables.
    pub fn unpin_all(&mut self) {
        for s in &mut self.slots {
            if let Some(e) = s.entry.as_mut() {
                e.pinned = false;
            }
        }
    }

    /// Remove a variable entirely.
    pub fn remove(&mut self, name: &str) -> Option<Matrix> {
        let slot = self.slot_of(name)?;
        self.remove_slot(slot)
    }

    /// Names of all dirty variables (the migration export set), sorted.
    pub fn dirty_variables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .slots
            .iter()
            .filter(|s| s.entry.as_ref().is_some_and(|e| e.dirty))
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names
    }

    /// All variable names, sorted.
    pub fn variables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .slots
            .iter()
            .filter(|s| s.entry.is_some())
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names
    }

    /// Characteristics of all live matrix variables by name (the input
    /// to dynamic recompilation).
    pub fn live_characteristics(&self) -> HashMap<String, MatrixCharacteristics> {
        self.slots
            .iter()
            .filter_map(|s| Some((s.name.clone(), s.entry.as_ref()?.data.characteristics())))
            .collect()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Evict LRU unpinned entries until resident bytes fit the capacity.
    /// `protect` shields the entry just inserted or restored: it is the
    /// hottest value and evicting it immediately would thrash.
    fn make_room(&mut self, protect: Option<SlotId>) {
        while self.resident_bytes > self.capacity_bytes {
            // Find LRU unpinned in-memory entry.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.entry.as_ref().map(|e| (i, e)))
                .filter(|(i, e)| e.in_memory && !e.pinned && protect.map(SlotId::index) != Some(*i))
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
                // Everything resident is pinned: allow temporary overshoot
                // (SystemML likewise cannot evict pinned operands).
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m_kb(kb: usize) -> Matrix {
        // kb kilobytes dense: kb * 128 cells.
        Matrix::constant(kb * 128, 1, 1.0)
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
    fn pinned_entries_survive() {
        let mut pool = BufferPool::new(10 * 1024);
        pool.put("a", m_kb(4));
        pool.put("b", m_kb(4));
        pool.pin(&["a", "b"]);
        pool.put("c", m_kb(4));
        pool.pin(&["c"]);
        // All pinned: overshoot allowed, no eviction of pinned entries.
        assert!(pool.resident_bytes() > pool.capacity_bytes());
        pool.unpin_all();
        pool.put("d", m_kb(1));
        assert!(pool.resident_bytes() <= pool.capacity_bytes());
        assert!(pool.stats().evictions >= 1);
    }

    #[test]
    fn dirty_tracking() {
        let mut pool = BufferPool::new(1024 * 1024);
        pool.put_with_dirty("X", m_kb(1), false); // read from HDFS
        pool.put("g", m_kb(1)); // computed
        assert_eq!(pool.is_dirty("X"), Some(false));
        assert_eq!(pool.is_dirty("g"), Some(true));
        assert_eq!(pool.dirty_variables(), vec!["g".to_string()]);
        pool.mark_clean("g");
        assert!(pool.dirty_variables().is_empty());
    }

    #[test]
    fn remove_and_contains() {
        let mut pool = BufferPool::new(1024);
        pool.put("a", m_kb(1));
        assert!(pool.contains("a"));
        assert!(pool.remove("a").is_some());
        assert!(!pool.contains("a"));
        assert!(pool.get("a").is_none());
    }

    #[test]
    fn grow_capacity_stops_thrashing() {
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
    }

    #[test]
    fn slot_api_roundtrip() {
        let mut pool = BufferPool::new(1024 * 1024);
        let a = pool.resolve_slot("a");
        assert_eq!(pool.resolve_slot("a"), a, "resolution is stable");
        assert!(!pool.contains_slot(a));
        pool.put_slot(a, m_kb(1));
        assert!(pool.contains_slot(a));
        assert_eq!(pool.slot_name(a), "a");
        // Name and slot APIs see the same entry.
        assert!(pool.contains("a"));
        assert_eq!(pool.peek("a").unwrap(), pool.peek_slot(a).unwrap());
        // Removal clears the value but keeps the slot valid.
        assert!(pool.remove_slot(a).is_some());
        assert!(!pool.contains("a"));
        pool.put_slot(a, m_kb(2));
        assert_eq!(pool.get("a").unwrap().size_bytes(), 2 * 1024);
    }

    #[test]
    fn touch_restores_without_cloning() {
        let mut pool = BufferPool::new(10 * 1024);
        let a = pool.resolve_slot("a");
        let b = pool.resolve_slot("b");
        pool.put_slot(a, m_kb(6));
        pool.put_slot(b, m_kb(6)); // evicts a
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.touch_slot(a)); // restore
        assert_eq!(pool.stats().restores, 1);
        assert_eq!(pool.stats().bytes_restored, 6 * 1024);
        assert!(pool.peek_slot(a).is_some());
        let missing = pool.resolve_slot("missing");
        assert!(!pool.touch_slot(missing));
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
