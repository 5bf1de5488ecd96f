//! Live-variable state tracking for the plan scan.

use std::sync::Arc;

use reml_runtime::hash::FxHashMap;

/// Where a variable's current value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarState {
    /// Pinned in CP memory; matches HDFS (read from there, unmodified).
    InMemoryClean,
    /// Pinned in CP memory; differs from HDFS (computed in CP).
    InMemoryDirty,
    /// On HDFS only (persistent input or MR-job output).
    OnHdfs,
}

impl VarState {
    /// Whether a CP operand in this state needs an HDFS read first.
    pub fn needs_read(self) -> bool {
        matches!(self, VarState::OnHdfs)
    }

    /// Whether an MR job consuming this variable needs it exported first.
    pub fn needs_export(self) -> bool {
        matches!(self, VarState::InMemoryDirty)
    }
}

/// The state map of the scan. Unknown variables are treated as on-HDFS
/// (conservative: the first CP use pays a read).
///
/// The map also tracks an approximate *resident set* — the bytes of
/// in-memory variables in FIFO order — so the cost model can partially
/// account for buffer-pool evictions (§5: "buffer pool evictions (only
/// partially considered by our cost model)"). Variables with unknown
/// sizes are not tracked.
///
/// The map also records its *peak*: the largest resident total any
/// [`VarStates::enforce_budget`] check compared while more than one
/// variable was resident. A scan whose peak fits its budget evicted
/// nothing, and so runs identically under every budget ≥ that peak.
///
/// Names are the instructions' own shared handles: entering a name
/// clones its `Arc`, never its text, so a clone of the map (the scan
/// forks one per arm of an `if`) copies two tables and bumps refcounts.
#[derive(Debug, Clone, Default)]
pub struct VarStates {
    states: FxHashMap<Arc<str>, VarState>,
    resident: Vec<(Arc<str>, u64)>,
    peak: u64,
}

impl VarStates {
    /// Fresh state map.
    pub fn new() -> Self {
        VarStates::default()
    }

    /// Current state of a variable.
    pub fn get(&self, name: &str) -> VarState {
        self.states.get(name).copied().unwrap_or(VarState::OnHdfs)
    }

    /// Set a variable's state, in place when the variable is known.
    pub fn set(&mut self, name: &Arc<str>, state: VarState) {
        match self.states.get_mut(&**name) {
            Some(slot) => *slot = state,
            None => {
                self.states.insert(name.clone(), state);
            }
        }
        if state == VarState::OnHdfs {
            self.drop_resident(name);
        }
    }

    /// Note that a variable now occupies `bytes` of CP memory.
    pub fn note_resident(&mut self, name: &Arc<str>, bytes: u64) {
        self.drop_resident(name);
        self.resident.push((name.clone(), bytes));
    }

    /// Remove a variable from the resident set.
    pub fn drop_resident(&mut self, name: &str) {
        self.resident.retain(|(n, _)| **n != *name);
    }

    /// Total tracked resident bytes, saturating at `u64::MAX` (an operand
    /// with more than 2⁶¹ cells already saturates its own size).
    pub fn resident_bytes(&self) -> u64 {
        self.resident
            .iter()
            .fold(0u64, |acc, (_, b)| acc.saturating_add(*b))
    }

    /// Evict oldest residents until the set fits `budget_bytes`.
    /// Evicted variables transition to on-HDFS (their next use pays a
    /// read); the returned value is the bytes evicted (the write cost the
    /// caller charges). The most recent entry is never evicted (it is the
    /// pinned output of the current instruction).
    pub fn enforce_budget(&mut self, budget_bytes: u64) -> u64 {
        if self.resident.len() < 2 {
            return 0;
        }
        let mut total = self.resident_bytes();
        self.peak = self.peak.max(total);
        let mut evicted = 0u64;
        while total > budget_bytes && self.resident.len() > 1 {
            let (name, bytes) = self.resident.remove(0);
            self.states.insert(name, VarState::OnHdfs);
            total = total.saturating_sub(bytes);
            evicted = evicted.saturating_add(bytes);
        }
        evicted
    }

    /// Largest resident total a budget check has compared with more than
    /// one variable resident, bytes (0 before any such check).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Continue from one arm of a two-armed branch: `self` is the arm
    /// the scan keeps, `other` the arm it drops, whose checks happened
    /// under the same budget — so the peak is the larger of the two.
    pub fn absorb_peak(&mut self, other: &VarStates) {
        self.peak = self.peak.max(other.peak);
    }

    /// Known variables (diagnostics).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no variables are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_vars_default_on_hdfs() {
        let s = VarStates::new();
        assert_eq!(s.get("x"), VarState::OnHdfs);
        assert!(s.get("x").needs_read());
        assert!(!s.get("x").needs_export());
    }

    #[test]
    fn resident_tracking_and_eviction() {
        let mut s = VarStates::new();
        s.set(&"x".into(), VarState::InMemoryClean);
        s.note_resident(&"x".into(), 600);
        s.set(&"y".into(), VarState::InMemoryDirty);
        s.note_resident(&"y".into(), 600);
        assert_eq!(s.resident_bytes(), 1200);
        // Budget 1000: evict the oldest (x), keep the newest (y).
        let evicted = s.enforce_budget(1000);
        assert_eq!(evicted, 600);
        assert_eq!(s.get("x"), VarState::OnHdfs);
        assert_eq!(s.get("y"), VarState::InMemoryDirty);
        // Newest entry is never evicted even when over budget.
        let evicted2 = s.enforce_budget(100);
        assert_eq!(evicted2, 0);
    }

    #[test]
    fn peak_ignores_checks_with_at_most_one_resident() {
        let mut s = VarStates::new();
        s.note_resident(&"x".into(), 900);
        assert_eq!(s.enforce_budget(100), 0);
        assert_eq!(s.peak(), 0, "a lone resident is never compared");
        s.note_resident(&"y".into(), 300);
        assert_eq!(s.enforce_budget(10_000), 0);
        assert_eq!(s.peak(), 1200);
        // Evicting x leaves y alone: later checks do not move the peak.
        assert_eq!(s.enforce_budget(1000), 900);
        s.note_resident(&"y".into(), 5000);
        s.enforce_budget(0);
        assert_eq!(s.peak(), 1200);
    }

    #[test]
    fn branch_merge_keeps_the_larger_arms_peak() {
        let mut entry = VarStates::new();
        entry.note_resident(&"x".into(), 100);
        let mut small = entry.clone();
        small.note_resident(&"s".into(), 50);
        small.enforce_budget(u64::MAX);
        let mut big = entry.clone();
        big.note_resident(&"b".into(), 700);
        big.enforce_budget(u64::MAX);
        assert_eq!((small.peak(), big.peak()), (150, 800));
        // Whichever arm the scan keeps, it keeps the larger peak.
        let mut kept_small = small.clone();
        kept_small.absorb_peak(&big);
        assert_eq!(kept_small.peak(), 800);
        assert_eq!(kept_small.resident_bytes(), 150);
        let mut kept_big = big.clone();
        kept_big.absorb_peak(&small);
        assert_eq!(kept_big.peak(), 800);
    }

    #[test]
    fn clones_share_their_keys() {
        let x: Arc<str> = "x".into();
        let mut s = VarStates::new();
        s.set(&x, VarState::InMemoryDirty);
        s.note_resident(&x, 100);
        // Setting a known name updates its entry in place.
        s.set(&"x".into(), VarState::InMemoryClean);
        let fork = s.clone();
        let (key, _) = fork.states.get_key_value("x").unwrap();
        assert!(Arc::ptr_eq(key, &x));
        assert!(Arc::ptr_eq(&fork.resident[0].0, &x));
        assert_eq!(fork.get("x"), VarState::InMemoryClean);
    }

    #[test]
    fn on_hdfs_set_drops_residency() {
        let mut s = VarStates::new();
        s.set(&"x".into(), VarState::InMemoryDirty);
        s.note_resident(&"x".into(), 100);
        s.set(&"x".into(), VarState::OnHdfs);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn transitions() {
        let mut s = VarStates::new();
        s.set(&"x".into(), VarState::InMemoryDirty);
        assert!(!s.get("x").needs_read());
        assert!(s.get("x").needs_export());
        s.set(&"x".into(), VarState::InMemoryClean);
        assert!(!s.get("x").needs_export());
        assert!(!s.get("x").needs_read());
    }
}
