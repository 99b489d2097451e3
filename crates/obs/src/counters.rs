//! Process-wide event counters.
//!
//! One fixed [`Counter`] per internal event class the experiments reason
//! about — reference generation, cache probes, trace-store traffic,
//! replay volume, stream-buffer lifecycle, filter decisions. The global
//! set is a flat array of `AtomicU64`s: counting is a single relaxed
//! `fetch_add` when enabled and one relaxed load plus a predictable
//! branch when disabled, so the hooks can live on the recording hot
//! path (the CI perf smoke holds the recording floor with these
//! compiled in and disabled).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Level;

/// Every counted event class, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// References emitted by workload chunk generation.
    RefsGenerated,
    /// Primary-cache probes (split L1, both sides).
    L1Probes,
    /// Secondary-cache probes during replay.
    L2Probes,
    /// Trace-store requests served from the store.
    TraceStoreHits,
    /// Trace-store requests that had to simulate an L1.
    TraceStoreMisses,
    /// Bulk `TraceStore::prefill` calls.
    TraceStorePrefills,
    /// Miss events walked by the replay engine (per pass, not per
    /// observer; multiply by the observer count for deliveries).
    ReplayMissEvents,
    /// Stream-buffer (re)allocations.
    StreamAllocations,
    /// Unit-stride filter lookups that allocated (two consecutive-block
    /// misses).
    UnitFilterAccepts,
    /// Unit-stride filter lookups that declined (isolated reference).
    UnitFilterRejects,
    /// Czone stride-FSM state transitions (entry inserted, META1→META2,
    /// stride re-guess, or verified allocation).
    CzoneTransitions,
    /// Replay cells a trace store simulated and inserted into its memo
    /// (one per distinct (trace, cell) pair).
    ReplayCellsSimulated,
    /// Replay cells a trace store answered from a result already in its
    /// memo.
    ReplayCellsServed,
}

/// Number of distinct counters.
pub const NUM_COUNTERS: usize = Counter::ReplayCellsServed as usize + 1;

/// All counters, in declaration order (for snapshots).
const ALL: [Counter; NUM_COUNTERS] = [
    Counter::RefsGenerated,
    Counter::L1Probes,
    Counter::L2Probes,
    Counter::TraceStoreHits,
    Counter::TraceStoreMisses,
    Counter::TraceStorePrefills,
    Counter::ReplayMissEvents,
    Counter::StreamAllocations,
    Counter::UnitFilterAccepts,
    Counter::UnitFilterRejects,
    Counter::CzoneTransitions,
    Counter::ReplayCellsSimulated,
    Counter::ReplayCellsServed,
];

impl Counter {
    /// The stable snake_case name used in snapshots and JSONL events.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RefsGenerated => "refs_generated",
            Counter::L1Probes => "l1_probes",
            Counter::L2Probes => "l2_probes",
            Counter::TraceStoreHits => "trace_store_hits",
            Counter::TraceStoreMisses => "trace_store_misses",
            Counter::TraceStorePrefills => "trace_store_prefills",
            Counter::ReplayMissEvents => "replay_miss_events",
            Counter::StreamAllocations => "stream_allocations",
            Counter::UnitFilterAccepts => "unit_filter_accepts",
            Counter::UnitFilterRejects => "unit_filter_rejects",
            Counter::CzoneTransitions => "czone_transitions",
            Counter::ReplayCellsSimulated => "replay_cells_simulated",
            Counter::ReplayCellsServed => "replay_cells_served",
        }
    }
}

/// A fixed array of atomic counters (the global set is one of these;
/// tests can hold private sets).
#[derive(Debug)]
pub struct CounterSet {
    counts: [AtomicU64; NUM_COUNTERS],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::new()
    }
}

impl CounterSet {
    /// A zeroed set.
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; the inline-const repeat operand
        // makes the repeat expression legal.
        CounterSet {
            counts: [const { AtomicU64::new(0) }; NUM_COUNTERS],
        }
    }

    /// Adds `n` to `counter` (relaxed; totals are exact, ordering
    /// between counters is not promised).
    #[inline(always)]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }

    /// Every `(name, value)` pair, in declaration order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        ALL.iter().map(|&c| (c.name(), self.get(c))).collect()
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

static GLOBAL: CounterSet = CounterSet::new();

/// A cheap, clone-able handle naming the [`CounterSet`] an instrumented
/// component charges.
///
/// The default handle points at the process-global set and is
/// level-gated exactly like [`count`] — instrumentation threaded through
/// a `Counters` costs the same as the free-function hooks it replaces.
/// A [scoped](Counters::scoped) handle owns a private set and counts
/// *unconditionally*: constructing one is the opt-in, so per-observer
/// attribution works regardless of `STREAMSIM_LOG`. Clones of a scoped
/// handle share the same set, which is how one handle fans out across a
/// system and its internal filters.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    scoped: Option<Arc<CounterSet>>,
}

impl Counters {
    /// The handle to the process-global set (same as `Default`).
    pub fn global() -> Self {
        Counters { scoped: None }
    }

    /// A handle owning a fresh private set, for per-component
    /// attribution. Clones share the set.
    pub fn scoped() -> Self {
        Counters {
            scoped: Some(Arc::new(CounterSet::new())),
        }
    }

    /// Whether this handle charges a private set rather than the global
    /// one.
    pub fn is_scoped(&self) -> bool {
        self.scoped.is_some()
    }

    /// Adds `n` to `counter` in this handle's set. Global handles are
    /// gated on [`Level::Info`] like [`count`]; scoped handles always
    /// count.
    #[inline(always)]
    pub fn add(&self, counter: Counter, n: u64) {
        match &self.scoped {
            Some(set) => set.add(counter, n),
            None => count(counter, n),
        }
    }

    /// Current value of `counter` in this handle's set.
    pub fn get(&self, counter: Counter) -> u64 {
        match &self.scoped {
            Some(set) => set.get(counter),
            None => GLOBAL.get(counter),
        }
    }

    /// Every `(name, value)` pair of this handle's set, in declaration
    /// order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        match &self.scoped {
            Some(set) => set.snapshot(),
            None => GLOBAL.snapshot(),
        }
    }
}

/// Adds `n` to the global `counter` when the level is at least
/// [`Level::Info`]; a no-op (one load, one branch) otherwise.
#[inline(always)]
pub fn count(counter: Counter, n: u64) {
    if crate::enabled(Level::Info) {
        GLOBAL.add(counter, n);
    }
}

/// Current global value of `counter`.
pub fn counter(counter: Counter) -> u64 {
    GLOBAL.get(counter)
}

/// Every global `(name, value)` pair, in declaration order.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    GLOBAL.snapshot()
}

pub(crate) fn reset_counters() {
    GLOBAL.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let names: Vec<&str> = ALL.iter().map(|c| c.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for name in names {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn private_set_counts_exactly() {
        let set = CounterSet::new();
        set.add(Counter::L1Probes, 3);
        set.add(Counter::L1Probes, 4);
        assert_eq!(set.get(Counter::L1Probes), 7);
        assert_eq!(set.get(Counter::L2Probes), 0);
        let snap = set.snapshot();
        assert_eq!(snap.len(), NUM_COUNTERS);
        assert!(snap.contains(&("l1_probes", 7)));
        set.reset();
        assert_eq!(set.get(Counter::L1Probes), 0);
    }

    #[test]
    fn scoped_handle_counts_without_any_level() {
        // No test_lock needed: a scoped handle never reads the level.
        let a = Counters::scoped();
        let b = a.clone();
        a.add(Counter::StreamAllocations, 2);
        b.add(Counter::StreamAllocations, 3);
        assert!(a.is_scoped());
        assert_eq!(a.get(Counter::StreamAllocations), 5, "clones share a set");
        assert_eq!(b.get(Counter::StreamAllocations), 5);
        assert_eq!(a.get(Counter::L2Probes), 0);
        assert!(a.snapshot().contains(&("stream_allocations", 5)));
    }

    #[test]
    fn distinct_scoped_handles_do_not_alias() {
        let a = Counters::scoped();
        let b = Counters::scoped();
        a.add(Counter::L2Probes, 7);
        assert_eq!(b.get(Counter::L2Probes), 0);
    }

    #[test]
    fn global_handle_is_gated_like_count() {
        let _guard = crate::test_lock::hold();
        crate::set_level(crate::Level::Off);
        crate::reset();
        let h = Counters::global();
        assert!(!h.is_scoped());
        h.add(Counter::CzoneTransitions, 5);
        assert_eq!(h.get(Counter::CzoneTransitions), 0, "disabled: no-op");
        crate::set_level(crate::Level::Info);
        h.add(Counter::CzoneTransitions, 5);
        assert_eq!(
            counter(Counter::CzoneTransitions),
            5,
            "charges the global set"
        );
        crate::set_level(crate::Level::Off);
        crate::reset();
    }

    #[test]
    fn global_count_respects_the_level() {
        let _guard = crate::test_lock::hold();
        crate::set_level(crate::Level::Off);
        crate::reset();
        count(Counter::RefsGenerated, 10);
        assert_eq!(counter(Counter::RefsGenerated), 0, "disabled: no-op");
        crate::set_level(crate::Level::Info);
        count(Counter::RefsGenerated, 10);
        assert_eq!(counter(Counter::RefsGenerated), 10);
        crate::set_level(crate::Level::Off);
        crate::reset();
    }
}
