//! A shared, memoizing store of recorded miss traces.
//!
//! The paper's methodology (§4) records the primary-cache miss stream
//! once per benchmark and replays it against every configuration of
//! interest. The experiment drivers, however, are independent programs:
//! left to themselves each re-records the same (workload, L1) traces.
//! [`TraceStore`] is the shared cache that restores the paper's
//! record-once discipline across drivers — every [`MissTrace`] is keyed
//! by the workload's [`fingerprint`](streamsim_workloads::Workload::fingerprint)
//! plus the full [`RecordOptions`] (L1 geometry, replacement policy and
//! time sampling), so a full sweep simulates each L1 exactly once no
//! matter how many drivers ask for it.
//!
//! [`TraceStore::replay`] memoizes the replay half per stored trace, so
//! a report simulates each (trace, cell) pair once. The memo lives and
//! dies with the store's entry; there is no process-global cache.
//!
//! The store is a cheap clone-able handle (`Arc` inside); experiment
//! workers on different threads share one underlying map. Recording
//! and replay happen outside the locks, so a miss never serialises the
//! other workers behind a multi-second simulation.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use streamsim_cache::{CacheConfigError, CacheStats};
use streamsim_streams::{StreamConfig, StreamStats};
use streamsim_workloads::Workload;

use crate::{record_miss_trace, replay_cells, L2Cell, MissTrace, RecordOptions};

/// A memoizing cache of [`MissTrace`]s shared across experiment drivers.
///
/// # Example
///
/// ```
/// use streamsim_core::{RecordOptions, TraceStore};
/// use streamsim_workloads::generators::SequentialSweep;
///
/// let store = TraceStore::new();
/// let w = SequentialSweep::default();
/// let first = store.record(&w, &RecordOptions::default())?;
/// let second = store.record(&w, &RecordOptions::default())?;
/// // The second request is served from the store: same allocation.
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(store.misses(), 1);
/// assert_eq!(store.hits(), 1);
/// # Ok::<(), streamsim_cache::CacheConfigError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceStore {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    traces: Mutex<BTreeMap<String, Stored>>,
    /// Locality profiles, keyed like `traces`: one extra recording-time
    /// pass per (workload, L1) cell serves every model query after it.
    profiles: Mutex<BTreeMap<String, Arc<streamsim_model::LocalityProfile>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    cells_simulated: AtomicU64,
    cells_served: AtomicU64,
}

/// One stored trace and the replay results computed against it.
#[derive(Debug)]
struct Stored {
    trace: Arc<MissTrace>,
    results: Arc<Mutex<ReplayMemo>>,
}

/// Replay results of one trace, keyed by the cell's full configuration.
#[derive(Debug, Default)]
struct ReplayMemo {
    streams: BTreeMap<StreamConfig, StreamStats>,
    l2: BTreeMap<L2Cell, CacheStats>,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// The memoisation key for a (workload, record options) cell.
    fn key(workload: &dyn Workload, options: &RecordOptions) -> String {
        format!("{}|{:?}", workload.fingerprint(), options)
    }

    /// Records `workload`'s miss trace under `options`, or returns the
    /// stored trace if an identical recording already exists.
    ///
    /// Recording runs outside the store's lock; if two threads race on
    /// the same cold key both simulate and one result wins, which is
    /// harmless because recording is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if either cache configuration in
    /// `options` is invalid.
    pub fn record(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
    ) -> Result<Arc<MissTrace>, CacheConfigError> {
        let key = Self::key(workload, options);
        if let Some(stored) = self.inner.traces.lock().expect("store lock").get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            streamsim_obs::count(streamsim_obs::Counter::TraceStoreHits, 1);
            return Ok(Arc::clone(&stored.trace));
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        streamsim_obs::count(streamsim_obs::Counter::TraceStoreMisses, 1);
        let trace = Arc::new(record_miss_trace(workload, options)?);
        let mut map = self.inner.traces.lock().expect("store lock");
        let stored = map.entry(key).or_insert_with(|| Stored {
            trace,
            results: Arc::default(),
        });
        Ok(Arc::clone(&stored.trace))
    }

    /// [`replay_cells`] through the memo of the store's own entry for
    /// `trace` (found by [`Arc::ptr_eq`]; the entry keeps the allocation
    /// alive): each (trace, cell) pair is simulated at most once per
    /// store. A trace the store did not hand out is not memoized.
    ///
    /// Cold cells are deduplicated and simulated in one pass outside the
    /// lock; threads racing on one cold cell both simulate and one insert
    /// wins, harmlessly, because replay is deterministic. Each requested
    /// cell is charged once at insertion, to `ReplayCellsSimulated` if
    /// this call's insert won and to `ReplayCellsServed` otherwise, so
    /// the totals do not depend on thread interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if any L2 cell's configuration or
    /// sampling is invalid.
    pub fn replay(
        &self,
        trace: &Arc<MissTrace>,
        streams: &[StreamConfig],
        l2: &[L2Cell],
    ) -> Result<(Vec<StreamStats>, Vec<CacheStats>), CacheConfigError> {
        let Some(results) = self.memo_of(trace) else {
            return replay_cells(trace, streams, l2);
        };
        let (cold_streams, cold_l2) = {
            let memo = results.lock().expect("replay memo lock");
            (cold_cells(streams, &memo.streams), cold_cells(l2, &memo.l2))
        };
        // No cold cell, no pass: `replay_cells` returns at once.
        let (stream_stats, l2_stats) = replay_cells(trace, &cold_streams, &cold_l2)?;
        let mut memo = results.lock().expect("replay memo lock");
        let simulated = insert_cells(&mut memo.streams, cold_streams, stream_stats)
            + insert_cells(&mut memo.l2, cold_l2, l2_stats);
        let served = (streams.len() + l2.len()) as u64 - simulated;
        self.inner
            .cells_simulated
            .fetch_add(simulated, Ordering::Relaxed);
        self.inner.cells_served.fetch_add(served, Ordering::Relaxed);
        streamsim_obs::count(streamsim_obs::Counter::ReplayCellsSimulated, simulated);
        streamsim_obs::count(streamsim_obs::Counter::ReplayCellsServed, served);
        Ok((
            streams.iter().map(|c| memo.streams[c]).collect(),
            l2.iter().map(|c| memo.l2[c]).collect(),
        ))
    }

    /// The replay memo of the store's own entry for `trace`, if the
    /// store handed that allocation out.
    fn memo_of(&self, trace: &Arc<MissTrace>) -> Option<Arc<Mutex<ReplayMemo>>> {
        self.inner
            .traces
            .lock()
            .expect("store lock")
            .values()
            .find(|stored| Arc::ptr_eq(&stored.trace, trace))
            .map(|stored| Arc::clone(&stored.results))
    }

    /// Records every missing `(workload, options)` cell in parallel and
    /// returns the traces in workload order.
    ///
    /// This is the bulk front door drivers use before running: cells
    /// already in the store are returned as-is (and counted as hits),
    /// cold cells are simulated concurrently on the
    /// [`parallel_map`](crate::parallel_map) worker pool instead of one
    /// at a time on first use. Because recording is deterministic, the
    /// result is byte-identical to recording each cell serially.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfigError`] (in workload order) if
    /// `options` holds an invalid cache configuration.
    pub fn prefill(
        &self,
        workloads: &[Box<dyn Workload>],
        options: &RecordOptions,
    ) -> Result<Vec<Arc<MissTrace>>, CacheConfigError> {
        self.prefill_on(workloads, options, &streamsim_dst::ThreadExecutor::auto())
    }

    /// [`TraceStore::prefill`] on an explicit executor.
    ///
    /// This is the DST seam: tests hand in a seeded
    /// [`streamsim_dst::SimExecutor`] so the concurrent recording of
    /// cold cells — including a panic injected mid-`prefill` — replays
    /// under one reproducible interleaving. Production callers go
    /// through [`TraceStore::prefill`], which supplies the real thread
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfigError`] (in workload order) if
    /// `options` holds an invalid cache configuration.
    pub fn prefill_on(
        &self,
        workloads: &[Box<dyn Workload>],
        options: &RecordOptions,
        exec: &dyn streamsim_dst::Executor,
    ) -> Result<Vec<Arc<MissTrace>>, CacheConfigError> {
        streamsim_obs::count(
            streamsim_obs::Counter::TraceStorePrefills,
            workloads.len() as u64,
        );
        let refs: Vec<&dyn Workload> = workloads.iter().map(Box::as_ref).collect();
        let _span = streamsim_obs::span("prefill");
        crate::parallel_map_on(exec, refs, |w: &dyn Workload| self.record(w, options))
            .into_iter()
            .collect()
    }

    /// The locality profile of `workload`'s miss trace under `options`,
    /// computed (and memoized) on first request.
    ///
    /// The trace itself comes from [`TraceStore::record`], so the first
    /// profile request for a cold cell records and then profiles; every
    /// later request — any driver or pre-screened sweep holding this
    /// store — returns the stored `Arc` without touching the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if either cache configuration in
    /// `options` is invalid.
    pub fn profile(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
    ) -> Result<Arc<streamsim_model::LocalityProfile>, CacheConfigError> {
        let key = Self::key(workload, options);
        if let Some(profile) = self.inner.profiles.lock().expect("store lock").get(&key) {
            return Ok(Arc::clone(profile));
        }
        // Profiling runs outside the lock (it walks the whole trace);
        // racing threads both profile and one result wins, harmlessly,
        // because profiling is deterministic.
        let trace = self.record(workload, options)?;
        let profile = Arc::new(crate::locality::profile_trace(&trace));
        let mut map = self.inner.profiles.lock().expect("store lock");
        Ok(Arc::clone(map.entry(key).or_insert(profile)))
    }

    /// Profiles every `(workload, options)` cell in parallel on an
    /// explicit executor, returning profiles in workload order.
    ///
    /// Like [`TraceStore::prefill_on`], this is a DST seam: the
    /// pre-screened sweep goes through it with the run's executor, and
    /// the determinism property tests swap in a seeded
    /// [`streamsim_dst::SimExecutor`] to pin that profiles are
    /// byte-identical under any interleaving.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfigError`] (in workload order) if
    /// `options` holds an invalid cache configuration.
    pub fn profiles_on(
        &self,
        workloads: &[Box<dyn Workload>],
        options: &RecordOptions,
        exec: &dyn streamsim_dst::Executor,
    ) -> Result<Vec<Arc<streamsim_model::LocalityProfile>>, CacheConfigError> {
        let refs: Vec<&dyn Workload> = workloads.iter().map(Box::as_ref).collect();
        let _span = streamsim_obs::span("profile_pass");
        crate::parallel_map_on(exec, refs, |w: &dyn Workload| self.profile(w, options))
            .into_iter()
            .collect()
    }

    /// Number of distinct traces currently stored.
    pub fn len(&self) -> usize {
        self.inner.traces.lock().expect("store lock").len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many [`TraceStore::record`] calls were served from the store.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// How many [`TraceStore::record`] calls had to simulate an L1.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// How many (trace, cell) results [`TraceStore::replay`] simulated
    /// and inserted into a memo: the number of distinct pairs replayed.
    pub fn cells_simulated(&self) -> u64 {
        self.inner.cells_simulated.load(Ordering::Relaxed)
    }

    /// How many cells [`TraceStore::replay`] requests were answered with
    /// a result some insert had already put in the memo.
    pub fn cells_served(&self) -> u64 {
        self.inner.cells_served.load(Ordering::Relaxed)
    }

    /// Drops every stored trace, its replay memo and every profile
    /// (counters are kept).
    pub fn clear(&self) {
        self.inner.traces.lock().expect("store lock").clear();
        self.inner.profiles.lock().expect("store lock").clear();
    }
}

/// The cells of `requested` missing from `memo`, each once, in
/// first-seen order.
fn cold_cells<K: Copy + Ord, V>(requested: &[K], memo: &BTreeMap<K, V>) -> Vec<K> {
    let mut seen = BTreeSet::new();
    requested
        .iter()
        .filter(|&c| !memo.contains_key(c) && seen.insert(*c))
        .copied()
        .collect()
}

/// Inserts freshly simulated results, returning how many of them this
/// call put in the memo (a racing thread may have inserted the rest).
fn insert_cells<K: Ord, V>(memo: &mut BTreeMap<K, V>, cells: Vec<K>, stats: Vec<V>) -> u64 {
    let mut inserted = 0;
    for (cell, stats) in cells.into_iter().zip(stats) {
        if let Entry::Vacant(slot) = memo.entry(cell) {
            slot.insert(stats);
            inserted += 1;
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_workloads::generators::{RandomGather, SequentialSweep};

    #[test]
    fn identical_requests_share_one_recording() {
        let store = TraceStore::new();
        let w = SequentialSweep::default();
        let opts = RecordOptions::default();
        let a = store.record(&w, &opts).unwrap();
        let b = store.record(&w, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        assert_eq!((store.misses(), store.hits()), (1, 1));
    }

    #[test]
    fn cached_trace_equals_a_fresh_recording() {
        let store = TraceStore::new();
        let w = RandomGather {
            footprint: 1 << 16,
            count: 5_000,
            seed: 7,
        };
        let opts = RecordOptions::default();
        let cached = store.record(&w, &opts).unwrap();
        let fresh = record_miss_trace(&w, &opts).unwrap();
        assert_eq!(*cached, fresh);
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let store = TraceStore::new();
        let w = SequentialSweep::default();
        let plain = RecordOptions::default();
        let sampled = RecordOptions::default().with_paper_sampling();
        let a = store.record(&w, &plain).unwrap();
        let b = store.record(&w, &sampled).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fetches(), b.fetches());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn distinct_workload_parameters_are_distinct_entries() {
        // Same name and footprint, different trace: the fingerprint must
        // tell them apart.
        let store = TraceStore::new();
        // The array must exceed the 64 KB L1 so a second pass misses
        // again instead of hitting the lines the first pass loaded.
        let one_pass = SequentialSweep {
            arrays: 1,
            bytes_per_array: 256 * 1024,
            passes: 1,
            elem: 8,
        };
        let two_passes = SequentialSweep {
            passes: 2,
            ..one_pass
        };
        let opts = RecordOptions::default();
        let a = store.record(&one_pass, &opts).unwrap();
        let b = store.record(&two_passes, &opts).unwrap();
        assert_eq!(store.len(), 2);
        assert!(a.fetches() < b.fetches());
    }

    #[test]
    fn prefill_records_each_cell_once_and_in_order() {
        let store = TraceStore::new();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(SequentialSweep::default()),
            Box::new(RandomGather {
                footprint: 1 << 16,
                count: 5_000,
                seed: 7,
            }),
        ];
        let opts = RecordOptions::default();
        let traces = store.prefill(&workloads, &opts).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(store.len(), 2);
        for (w, t) in workloads.iter().zip(&traces) {
            assert_eq!(
                **t,
                record_miss_trace(w.as_ref(), &opts).unwrap(),
                "{}: prefilled trace differs from a serial recording",
                w.name()
            );
        }
        // A second prefill is all hits and returns the same allocations.
        let again = store.prefill(&workloads, &opts).unwrap();
        for (a, b) in traces.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 2);
    }

    #[test]
    fn profiles_are_memoized_alongside_traces() {
        let store = TraceStore::new();
        let w = SequentialSweep::default();
        let opts = RecordOptions::default();
        let a = store.profile(&w, &opts).unwrap();
        let b = store.profile(&w, &opts).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request is served from the store"
        );
        // The underlying trace was recorded exactly once and profiling
        // matches a fresh pass over it.
        assert_eq!(store.misses(), 1);
        let trace = store.record(&w, &opts).unwrap();
        assert_eq!(*a, crate::locality::profile_trace(&trace));
    }

    #[test]
    fn profiles_on_matches_serial_profiling() {
        let store = TraceStore::new();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(SequentialSweep::default()),
            Box::new(RandomGather {
                footprint: 1 << 16,
                count: 5_000,
                seed: 7,
            }),
        ];
        let opts = RecordOptions::default();
        let profiles = store
            .profiles_on(&workloads, &opts, &streamsim_dst::ThreadExecutor::auto())
            .unwrap();
        assert_eq!(profiles.len(), 2);
        for (w, p) in workloads.iter().zip(&profiles) {
            let serial = store.profile(w.as_ref(), &opts).unwrap();
            assert!(Arc::ptr_eq(p, &serial), "{}", w.name());
        }
    }

    #[test]
    fn clear_empties_the_store() {
        let store = TraceStore::new();
        let old = store
            .record(&SequentialSweep::default(), &RecordOptions::default())
            .unwrap();
        let cell = [StreamConfig::paper_basic(4).unwrap()];
        store.replay(&old, &cell, &[]).unwrap();
        store.replay(&old, &cell, &[]).unwrap();
        assert_eq!((store.cells_simulated(), store.cells_served()), (1, 1));
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        store.replay(&old, &cell, &[]).unwrap();
        assert_eq!(
            (store.cells_simulated(), store.cells_served()),
            (1, 1),
            "the memo went with the entry; the old trace is foreign now"
        );
        store
            .record(&SequentialSweep::default(), &RecordOptions::default())
            .unwrap();
        assert_eq!(store.misses(), 2, "cleared entries re-record");
    }
}
