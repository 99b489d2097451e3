//! Single-pass replay of a miss trace into many observers.
//!
//! The paper sweeps configurations, not workloads: ten stream counts,
//! dozens of secondary-cache geometries, all judged against the *same*
//! recorded miss stream. Replaying that stream once per configuration
//! walks the event vector N times; [`replay`] instead walks it once and
//! fans each event out to N [`MissObserver`]s. Observers are independent
//! (a stream system cannot see an L2's state), so the fan-out is
//! behaviour-preserving by construction — the property tests in
//! `tests/replay_properties.rs` pin this down.
//!
//! Delivery is *batched*: the event vector is walked in chunks of
//! [`REPLAY_CHUNK_EVENTS`] events and each observer consumes a whole
//! chunk before the next observer runs, so one observer's tables stay
//! hot in cache across a run of events instead of every observer being
//! dragged through cache per event. Within a chunk the dispatch is a
//! single devirtualized [`MissObserver::on_events`] call; the
//! observers [`replay_cells`] builds override it with monomorphized
//! loops that hoist per-event work (geometry decode, counter charges)
//! out of the loop body.
//!
//! Two observers cover single cells: [`StreamObserver`] wraps a
//! [`StreamSystem`] (tests use it as the unfused reference),
//! [`L2Observer`] wraps a [`SetAssocCache`]. A third,
//! [`FusedStreamObserver`], evaluates a whole *family* of stream
//! configurations sharing one block/word geometry — the shape of every
//! paper sweep (ten stream counts, four filter sizes...) — splitting
//! each address into block and word exactly once per event instead of
//! once per configuration. A fourth, [`L2GridObserver`], does the same
//! for secondary caches: every LRU write-back cell of a sweep in one
//! [`LruStackGrid`], one MRU stack per set count. [`replay_cells`] is
//! the one entry point that builds these observers for a request of
//! stream and L2 cells. Drivers with bespoke plumbing (e.g. the Jouppi
//! topology, where a secondary cache sees only the stream-miss residual)
//! implement [`MissObserver`] themselves and call [`replay`].

// lint:hot-module — the replay loop touches every recorded miss event per observer

use std::fmt;

use streamsim_cache::{
    CacheConfig, CacheConfigError, CacheStats, LruStackGrid, SetAssocCache, SetSampling,
    StackGridError,
};
use streamsim_streams::{StreamConfig, StreamStats, StreamSystem};
use streamsim_trace::{AccessKind, Addr, BlockAddr, BlockSize, WordAddr, WordSize};

use crate::{MissEvent, MissTrace};

/// Events per replay chunk: 16 KiB of [`MissEvent`]s, small enough that
/// a chunk plus one observer's hot tables stay L1/L2-resident (the same
/// cache-residency rationale as the recording loop's chunk size).
///
/// Pinned by measurement, not taste: the replay bench's
/// `STREAMSIM_REPLAY_CHUNK_SWEEP=1` mode times the fused stream path at
/// 256/512/1024/2048 over every (workload, family) pair. 1024 has the
/// best aggregate; the candidates sit within ~2% of each other and no
/// other length is better outside run-to-run noise — smaller chunks pay
/// more per-chunk observer switching, larger ones start evicting the
/// widest families' tables. Chunking is behaviour-preserving for any
/// length ([`replay_chunked`]), so retuning on new hardware is a
/// one-line change.
pub const REPLAY_CHUNK_EVENTS: usize = 1024;

/// Anything that consumes a primary-cache miss stream.
///
/// [`replay`] delivers every event of a [`MissTrace`] to each observer in
/// program order, then calls [`finish`](MissObserver::finish) once.
pub trait MissObserver {
    /// A demand fetch (primary-cache miss) of the block containing
    /// `addr`; `kind` is the missing reference's access kind.
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind);

    /// A dirty block written back from the primary cache; `base` is the
    /// block's base byte address.
    fn on_writeback(&mut self, base: Addr);

    /// Delivers a batch of events in program order. The default simply
    /// forwards to the per-event methods — this is the *only* event
    /// match/dispatch body in the engine, so batched and per-event
    /// delivery cannot drift. Hot observers override it with a loop the
    /// compiler can monomorphize and hoist invariants out of.
    fn on_events(&mut self, events: &[MissEvent]) {
        for event in events {
            match *event {
                MissEvent::Fetch { addr, kind } => self.on_fetch(addr, kind),
                MissEvent::Writeback { base } => self.on_writeback(base),
            }
        }
    }

    /// Called once after the last event (e.g. to flush in-flight state).
    fn finish(&mut self) {}

    /// Number of logical simulation cells this observer evaluates per
    /// event — `1` for plain observers, the family size for fused ones.
    /// Replay spans weight their delivery throughput by this, so fusing
    /// does not deflate the reported deliveries/s.
    fn fan_out(&self) -> u64 {
        1
    }
}

/// Replays `trace` into every observer in a single pass over the events,
/// delivering [`REPLAY_CHUNK_EVENTS`]-sized batches.
pub fn replay(trace: &MissTrace, observers: &mut [&mut dyn MissObserver]) {
    replay_chunked(trace, observers, REPLAY_CHUNK_EVENTS);
}

/// [`replay`] with an explicit chunk length: the event vector is walked
/// in chunks of `chunk_len` events, and within each chunk every observer
/// consumes the whole batch before the next observer runs.
///
/// Because observers are independent, this is behaviour-preserving for
/// any chunk length — `tests/replay_properties.rs` sweeps boundaries to
/// pin exactly that. A `chunk_len` of `0` delivers the whole trace as
/// one chunk.
pub fn replay_chunked(
    trace: &MissTrace,
    observers: &mut [&mut dyn MissObserver],
    chunk_len: usize,
) {
    let mut span = streamsim_obs::span("replay");
    let events = trace.events().len() as u64;
    streamsim_obs::count(streamsim_obs::Counter::ReplayMissEvents, events);
    // Items = event deliveries: each event fans out to every observer
    // (weighted by fused family sizes), so the span's throughput reads
    // as miss-events/s per cell when divided by the cell count.
    span.items(events * observers.iter().map(|o| o.fan_out()).sum::<u64>());
    let chunk_len = if chunk_len == 0 {
        trace.events().len().max(1)
    } else {
        chunk_len
    };
    for chunk in trace.events().chunks(chunk_len) {
        // Two relaxed loads per ~1024-event chunk when disabled: the
        // chunk-size histogram is deterministic (trace-derived), the
        // nanos one is wall clock and never pinned byte-for-byte.
        streamsim_obs::record_hist(streamsim_obs::HistId::ReplayChunkEvents, chunk.len() as u64);
        let _chunk_timer = streamsim_obs::hist_timer(streamsim_obs::HistId::ReplayChunkNanos);
        for o in observers.iter_mut() {
            o.on_events(chunk);
        }
    }
    for o in observers.iter_mut() {
        o.finish();
    }
}

/// A stream-buffer system as a replay observer.
#[derive(Debug)]
pub struct StreamObserver {
    sys: StreamSystem,
}

impl StreamObserver {
    /// Wraps a fresh [`StreamSystem`] of the given configuration,
    /// charging internal-event counts to the global observability set.
    pub fn new(config: StreamConfig) -> Self {
        Self::with_counters(config, streamsim_obs::Counters::global())
    }

    /// Like [`StreamObserver::new`], but charging allocation and filter
    /// counts to `counters`. With a [scoped](streamsim_obs::Counters::scoped)
    /// handle per observer, one replay pass attributes stream-buffer
    /// churn to each configuration cell individually instead of summing
    /// the whole sweep into the process-global set.
    pub fn with_counters(config: StreamConfig, counters: streamsim_obs::Counters) -> Self {
        StreamObserver {
            sys: StreamSystem::with_counters(config, counters),
        }
    }

    /// The counter set this observer charges (scoped or global).
    pub fn counters(&self) -> &streamsim_obs::Counters {
        self.sys.counters()
    }

    /// The finalized statistics (call after [`replay`]).
    pub fn stats(&self) -> StreamStats {
        self.sys.stats()
    }
}

impl MissObserver for StreamObserver {
    fn on_fetch(&mut self, addr: Addr, _kind: AccessKind) {
        self.sys.on_l1_miss(addr);
    }

    fn on_writeback(&mut self, base: Addr) {
        self.sys.on_writeback(base.block(self.sys.config().block()));
    }

    fn finish(&mut self) {
        self.sys.finalize();
    }
}

/// A secondary cache as a replay observer.
///
/// Fetches become demand accesses; a write-back from L1 is a store access
/// at the L2.
#[derive(Debug)]
pub struct L2Observer {
    cache: SetAssocCache,
    counters: streamsim_obs::Counters,
}

impl L2Observer {
    /// Wraps a fresh cache of the given geometry, charging probe counts
    /// to the global observability set.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the configuration or sampling is
    /// invalid.
    pub fn new(
        config: CacheConfig,
        sampling: Option<SetSampling>,
    ) -> Result<Self, CacheConfigError> {
        Self::with_counters(config, sampling, streamsim_obs::Counters::global())
    }

    /// Like [`L2Observer::new`], but charging probe counts to
    /// `counters` for per-cell attribution inside a shared replay pass.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the configuration or sampling is
    /// invalid.
    pub fn with_counters(
        config: CacheConfig,
        sampling: Option<SetSampling>,
        counters: streamsim_obs::Counters,
    ) -> Result<Self, CacheConfigError> {
        let cache = match sampling {
            Some(s) => SetAssocCache::with_sampling(config, s)?,
            None => SetAssocCache::new(config)?,
        };
        Ok(L2Observer { cache, counters })
    }

    /// The counter set this observer charges (scoped or global).
    pub fn counters(&self) -> &streamsim_obs::Counters {
        &self.counters
    }

    /// The cache statistics (call after [`replay`]).
    pub fn stats(&self) -> CacheStats {
        *self.cache.stats()
    }
}

impl MissObserver for L2Observer {
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        self.counters.add(streamsim_obs::Counter::L2Probes, 1);
        self.cache.access(addr, kind);
    }

    fn on_writeback(&mut self, base: Addr) {
        self.counters.add(streamsim_obs::Counter::L2Probes, 1);
        self.cache.access(base, AccessKind::Store);
    }

    fn on_events(&mut self, events: &[MissEvent]) {
        // Monomorphized fast path: every event is exactly one probe, so
        // the counter charge is hoisted to a single batched add (same
        // totals, pinned by the scoped-counter attribution test).
        self.counters
            .add(streamsim_obs::Counter::L2Probes, events.len() as u64);
        for event in events {
            match *event {
                MissEvent::Fetch { addr, kind } => {
                    self.cache.access(addr, kind);
                }
                MissEvent::Writeback { base } => {
                    self.cache.access(base, AccessKind::Store);
                }
            }
        }
    }
}

/// Error fusing stream configurations whose block or word sizes differ:
/// a fused pass decodes each address once, which is only sound when the
/// whole family shares that decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixedGeometry;

impl fmt::Display for MixedGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("stream configurations do not share one block/word geometry")
    }
}

impl std::error::Error for MixedGeometry {}

/// A pre-decoded miss event: the block/word split is computed once per
/// event and shared by every system in the fused family.
#[derive(Clone, Copy, Debug)]
enum DecodedEvent {
    Fetch {
        addr: Addr,
        block: BlockAddr,
        word: WordAddr,
    },
    Writeback {
        block: BlockAddr,
    },
}

/// N stream-buffer systems sharing one block/word geometry, evaluated as
/// a single observer.
///
/// Every paper sweep walks a *family* of stream configurations differing
/// only in count, depth, filter or match policy — never in geometry. A
/// fused observer exploits that: each chunk of events is decoded into
/// `(block, word)` form once, then every system consumes the decoded
/// batch back-to-back while its tables are hot. Compared with N
/// independent [`StreamObserver`]s this removes N−1 address decodes and
/// N−1 virtual dispatches per event.
///
/// Statistics are byte-identical to N independent passes (observers
/// cannot interact); `tests/replay_properties.rs` pins this across
/// seeded random families and chunk boundaries.
#[derive(Debug)]
pub struct FusedStreamObserver {
    systems: Vec<StreamSystem>,
    block: BlockSize,
    word: WordSize,
    /// Per-chunk decode scratch, reused across chunks.
    decoded: Vec<DecodedEvent>,
}

impl FusedStreamObserver {
    /// Fuses `configs` into one observer, charging internal-event counts
    /// to the global observability set.
    ///
    /// # Errors
    ///
    /// Returns [`MixedGeometry`] unless every configuration shares one
    /// block size and one word size. An empty family is allowed.
    pub fn new(configs: &[StreamConfig]) -> Result<Self, MixedGeometry> {
        Self::with_counters(configs, streamsim_obs::Counters::global())
    }

    /// Like [`FusedStreamObserver::new`], but charging every system's
    /// allocation and filter counts to `counters`. (For per-cell
    /// attribution, use independent [`StreamObserver`]s with scoped
    /// handles instead — fusion trades attribution for speed.)
    ///
    /// # Errors
    ///
    /// Returns [`MixedGeometry`] unless every configuration shares one
    /// block size and one word size.
    pub fn with_counters(
        configs: &[StreamConfig],
        counters: streamsim_obs::Counters,
    ) -> Result<Self, MixedGeometry> {
        let (block, word) = match configs.first() {
            Some(first) => (first.block(), first.word()),
            None => (BlockSize::default(), WordSize::default()),
        };
        if configs
            .iter()
            .any(|c| c.block() != block || c.word() != word)
        {
            return Err(MixedGeometry);
        }
        Ok(Self::family(configs, block, word, counters))
    }

    /// The fused family of `configs`, every one of which has `block`
    /// and `word` geometry (checked by the callers).
    fn family(
        configs: &[StreamConfig],
        block: BlockSize,
        word: WordSize,
        counters: streamsim_obs::Counters,
    ) -> Self {
        FusedStreamObserver {
            systems: configs
                .iter()
                .map(|&c| StreamSystem::with_counters(c, counters.clone()))
                .collect(),
            block,
            word,
            decoded: Vec::new(),
        }
    }

    /// Number of systems in the family.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// The finalized statistics of every system, in configuration order
    /// (call after [`replay`]).
    pub fn stats(&self) -> Vec<StreamStats> {
        self.systems.iter().map(StreamSystem::stats).collect()
    }
}

impl MissObserver for FusedStreamObserver {
    fn on_fetch(&mut self, addr: Addr, _kind: AccessKind) {
        let block = addr.block(self.block);
        let word = addr.word(self.word);
        for sys in &mut self.systems {
            sys.on_l1_miss_decoded(addr, block, word);
        }
    }

    fn on_writeback(&mut self, base: Addr) {
        let block = base.block(self.block);
        for sys in &mut self.systems {
            sys.on_writeback(block);
        }
    }

    fn on_events(&mut self, events: &[MissEvent]) {
        // Decode the chunk once for the whole family...
        self.decoded.clear();
        self.decoded.extend(events.iter().map(|event| match *event {
            MissEvent::Fetch { addr, .. } => DecodedEvent::Fetch {
                addr,
                block: addr.block(self.block),
                word: addr.word(self.word),
            },
            MissEvent::Writeback { base } => DecodedEvent::Writeback {
                block: base.block(self.block),
            },
        }));
        // ...then run each system over the decoded batch while its
        // tables are hot.
        for sys in &mut self.systems {
            for event in &self.decoded {
                match *event {
                    DecodedEvent::Fetch { addr, block, word } => {
                        sys.on_l1_miss_decoded(addr, block, word);
                    }
                    DecodedEvent::Writeback { block } => sys.on_writeback(block),
                }
            }
        }
    }

    fn finish(&mut self) {
        for sys in &mut self.systems {
            sys.finalize();
        }
    }

    fn fan_out(&self) -> u64 {
        self.systems.len() as u64
    }
}

/// Replays `trace` against every stream configuration in one pass: the
/// stream-only case of [`replay_cells`].
pub fn replay_streams(trace: &MissTrace, configs: &[StreamConfig]) -> Vec<StreamStats> {
    replay_cells(trace, configs, &[])
        // lint:allow(no-unwrap-hot, only L2 cells can be rejected and this request has none)
        .expect("stream cells are always valid")
        .0
}

/// Every LRU write-back secondary cache of a sweep as one observer: an
/// [`LruStackGrid`] keeps one MRU stack per set count and answers hit or
/// miss for every associativity at once.
///
/// Statistics are byte-identical to one [`L2Observer`] per cell, and so
/// are the observability totals: [`fan_out`](MissObserver::fan_out) is
/// the cell count and every event charges one `L2Probes` per cell.
#[derive(Debug)]
pub struct L2GridObserver {
    grid: LruStackGrid,
    /// Per-chunk reference scratch (a write-back is a store), reused
    /// across chunks.
    refs: Vec<(Addr, AccessKind)>,
    counters: streamsim_obs::Counters,
}

impl L2GridObserver {
    /// Builds the grid for `configs`, charging probe counts to the
    /// global observability set.
    ///
    /// # Errors
    ///
    /// Returns [`StackGridError`] unless every configuration is LRU
    /// with write-back/write-allocate and they share one block size.
    pub fn new(configs: &[CacheConfig]) -> Result<Self, StackGridError> {
        Self::with_counters(configs, streamsim_obs::Counters::global())
    }

    /// Like [`L2GridObserver::new`], but charging probe counts to
    /// `counters`.
    ///
    /// # Errors
    ///
    /// See [`L2GridObserver::new`].
    pub fn with_counters(
        configs: &[CacheConfig],
        counters: streamsim_obs::Counters,
    ) -> Result<Self, StackGridError> {
        Ok(L2GridObserver {
            grid: LruStackGrid::new(configs)?,
            refs: Vec::new(),
            counters,
        })
    }

    /// The counter set this observer charges (scoped or global).
    pub fn counters(&self) -> &streamsim_obs::Counters {
        &self.counters
    }

    /// Every cell's statistics, in configuration order (call after
    /// [`replay`]).
    pub fn stats(&self) -> Vec<CacheStats> {
        self.grid.stats()
    }
}

impl MissObserver for L2GridObserver {
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        self.on_events(&[MissEvent::Fetch { addr, kind }]);
    }

    fn on_writeback(&mut self, base: Addr) {
        self.on_events(&[MissEvent::Writeback { base }]);
    }

    fn on_events(&mut self, events: &[MissEvent]) {
        self.counters.add(
            streamsim_obs::Counter::L2Probes,
            events.len() as u64 * self.fan_out(),
        );
        self.refs.clear();
        self.refs.extend(events.iter().map(|event| match *event {
            MissEvent::Fetch { addr, kind } => (addr, kind),
            MissEvent::Writeback { base } => (base, AccessKind::Store),
        }));
        self.grid.access_all(&self.refs);
    }

    fn fan_out(&self) -> u64 {
        self.grid.cells() as u64
    }
}

/// A secondary-cache replay cell: a geometry plus optional set sampling.
pub type L2Cell = (CacheConfig, Option<SetSampling>);

/// Replays `trace` against every secondary-cache cell in one pass: the
/// L2-only case of [`replay_cells`] ([`crate::run_l2`] is its one-cell
/// case).
///
/// # Errors
///
/// Returns [`CacheConfigError`] if any cell's configuration or sampling
/// is invalid.
pub fn replay_l2(trace: &MissTrace, cells: &[L2Cell]) -> Result<Vec<CacheStats>, CacheConfigError> {
    Ok(replay_cells(trace, &[], cells)?.1)
}

/// Replays `trace` once against every requested stream and
/// secondary-cache cell, returning each side's statistics in input
/// order. This is the one replay entry point: [`replay_streams`],
/// [`replay_l2`] and the memoizing [`TraceStore::replay`] all end here,
/// and only observers with bespoke plumbing call [`replay`] directly.
///
/// * Stream cells split into one [`FusedStreamObserver`] per distinct
///   block/word geometry, so each address is decoded once per event
///   per geometry (every paper sweep has one).
/// * Unsampled LRU write-back/write-allocate L2 cells sharing the first
///   such cell's block size join one [`L2GridObserver`]; every other L2
///   cell (FIFO, random or tree-PLRU replacement, write-through,
///   set-sampled, or another block size) gets its own [`L2Observer`].
///
/// All of them observe a single pass over the events; a request with no
/// cells makes no pass. The function memoizes nothing, so benches and
/// property suites calling it time and check real simulation.
///
/// [`TraceStore::replay`]: crate::TraceStore::replay
///
/// # Errors
///
/// Returns [`CacheConfigError`] if any L2 cell's configuration or
/// sampling is invalid.
pub fn replay_cells(
    trace: &MissTrace,
    streams: &[StreamConfig],
    l2: &[L2Cell],
) -> Result<(Vec<StreamStats>, Vec<CacheStats>), CacheConfigError> {
    if streams.is_empty() && l2.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let geometry = |c: &StreamConfig| (c.block(), c.word());
    let mut geometries: Vec<(BlockSize, WordSize)> = streams.iter().map(geometry).collect();
    geometries.sort_unstable();
    geometries.dedup();
    let mut families: Vec<FusedStreamObserver> = geometries
        .iter()
        .map(|&(block, word)| {
            let members: Vec<StreamConfig> = streams
                .iter()
                .filter(|c| geometry(c) == (block, word))
                .copied()
                .collect();
            FusedStreamObserver::family(&members, block, word, streamsim_obs::Counters::global())
        })
        .collect();

    let joins = |&(config, sampling): &L2Cell| sampling.is_none() && LruStackGrid::admits(&config);
    let grid_block = l2.iter().find(|c| joins(c)).map(|(c, _)| c.block());
    let in_grid: Vec<bool> = l2
        .iter()
        .map(|c| joins(c) && Some(c.0.block()) == grid_block)
        .collect();
    let grid_configs: Vec<CacheConfig> = l2
        .iter()
        .zip(&in_grid)
        .filter(|(_, &g)| g)
        .map(|(c, _)| c.0)
        .collect();
    let mut grid = L2GridObserver::new(&grid_configs)
        // lint:allow(no-unwrap-hot, in_grid admits only unsampled LRU write-back cells of grid_block, exactly what the grid accepts)
        .expect("grid cells are LRU write-back with one block size");
    let mut fallback = l2
        .iter()
        .zip(&in_grid)
        .filter(|(_, &g)| !g)
        .map(|(&(config, sampling), _)| L2Observer::new(config, sampling))
        .collect::<Result<Vec<_>, _>>()?;

    {
        let mut refs: Vec<&mut dyn MissObserver> =
            Vec::with_capacity(families.len() + fallback.len() + 1);
        refs.extend(families.iter_mut().map(|o| o as &mut dyn MissObserver));
        if !grid_configs.is_empty() {
            refs.push(&mut grid);
        }
        refs.extend(fallback.iter_mut().map(|o| o as &mut dyn MissObserver));
        replay(trace, &mut refs);
    }

    let mut family_stats: Vec<_> = families.iter().map(|f| f.stats().into_iter()).collect();
    let stream_stats = streams
        .iter()
        .filter_map(|c| {
            let family = geometries.binary_search(&geometry(c)).ok()?;
            family_stats[family].next()
        })
        .collect();
    let mut grid_stats = grid.stats().into_iter();
    let mut fallback_stats = fallback.iter().map(L2Observer::stats);
    let l2_stats = in_grid
        .iter()
        .filter_map(|&g| {
            if g {
                grid_stats.next()
            } else {
                fallback_stats.next()
            }
        })
        .collect();
    Ok((stream_stats, l2_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_miss_trace, run_l2, run_streams, RecordOptions};
    use streamsim_trace::BlockSize;
    use streamsim_workloads::generators::SequentialSweep;

    fn trace() -> MissTrace {
        let w = SequentialSweep {
            arrays: 2,
            bytes_per_array: 128 * 1024,
            passes: 2,
            elem: 8,
        };
        record_miss_trace(&w, &RecordOptions::default()).unwrap()
    }

    #[test]
    fn fused_observer_reports_family_metadata() {
        let configs = [
            StreamConfig::paper_basic(2).unwrap(),
            StreamConfig::paper_filtered(8).unwrap(),
        ];
        let fused = FusedStreamObserver::new(&configs).unwrap();
        assert_eq!(fused.len(), 2);
        assert!(!fused.is_empty());
        assert_eq!(fused.fan_out(), 2);
        let empty = FusedStreamObserver::new(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.stats(), Vec::new());
    }

    #[test]
    fn fused_per_event_entry_points_match_batched_delivery() {
        // The fused observer's on_fetch/on_writeback (used when someone
        // drives it manually) agree with its batched on_events.
        let trace = trace();
        let configs = [
            StreamConfig::paper_basic(4).unwrap(),
            StreamConfig::paper_strided(6, 16).unwrap(),
        ];
        let mut manual = FusedStreamObserver::new(&configs).unwrap();
        for event in trace.events() {
            match *event {
                MissEvent::Fetch { addr, kind } => manual.on_fetch(addr, kind),
                MissEvent::Writeback { base } => manual.on_writeback(base),
            }
        }
        manual.finish();
        assert_eq!(manual.stats(), replay_streams(&trace, &configs));
    }

    #[test]
    fn mixed_observer_kinds_share_one_pass() {
        let trace = trace();
        let mut streams = StreamObserver::new(StreamConfig::paper_filtered(4).unwrap());
        let mut l2 = L2Observer::new(
            CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
            None,
        )
        .unwrap();
        replay(&trace, &mut [&mut streams, &mut l2]);
        assert_eq!(
            streams.stats(),
            run_streams(&trace, StreamConfig::paper_filtered(4).unwrap())
        );
        assert_eq!(
            l2.stats(),
            run_l2(
                &trace,
                CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
                None
            )
            .unwrap()
        );
    }

    #[test]
    fn empty_observer_list_is_fine() {
        replay(&trace(), &mut []);
        replay_chunked(&trace(), &mut [], 7);
    }

    /// Chunked delivery matches per-event delivery for assorted chunk
    /// lengths (the full boundary sweep is a property test in
    /// `tests/replay_properties.rs`).
    #[test]
    fn chunked_replay_matches_per_event_replay() {
        let trace = trace();
        let config = StreamConfig::paper_filtered(4).unwrap();
        let l2_cfg = CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap();
        let reference = {
            let mut streams = StreamObserver::new(config);
            let mut l2 = L2Observer::new(l2_cfg, None).unwrap();
            // Strict per-event delivery through the default trait body.
            for event in trace.events() {
                for o in [&mut streams as &mut dyn MissObserver, &mut l2] {
                    match *event {
                        MissEvent::Fetch { addr, kind } => o.on_fetch(addr, kind),
                        MissEvent::Writeback { base } => o.on_writeback(base),
                    }
                }
            }
            streams.finish();
            l2.finish();
            (streams.stats(), l2.stats())
        };
        for chunk_len in [0, 1, 7, 1024, usize::MAX] {
            let mut streams = StreamObserver::new(config);
            let mut l2 = L2Observer::new(l2_cfg, None).unwrap();
            let chunk_len = chunk_len.min(trace.events().len() + 3);
            replay_chunked(&trace, &mut [&mut streams, &mut l2], chunk_len);
            assert_eq!(
                (streams.stats(), l2.stats()),
                reference,
                "diverged at chunk_len {chunk_len}"
            );
        }
    }

    #[test]
    fn scoped_counters_attribute_per_observer() {
        use streamsim_obs::{Counter, Counters};

        // Two stream cells and one L2 cell share one pass; each holds a
        // scoped counter set, so the churn of one configuration is
        // attributable without reference to the others (and without any
        // STREAMSIM_LOG level: scoped handles always count).
        let trace = trace();
        let mut narrow = StreamObserver::with_counters(
            StreamConfig::paper_basic(1).unwrap(),
            Counters::scoped(),
        );
        let mut wide = StreamObserver::with_counters(
            StreamConfig::paper_filtered(8).unwrap(),
            Counters::scoped(),
        );
        let mut l2 = L2Observer::with_counters(
            CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
            None,
            Counters::scoped(),
        )
        .unwrap();
        replay(&trace, &mut [&mut narrow, &mut wide, &mut l2]);

        // Each scoped set matches its own observer's statistics exactly.
        assert_eq!(
            narrow.counters().get(Counter::StreamAllocations),
            narrow.stats().allocations
        );
        assert_eq!(
            wide.counters().get(Counter::StreamAllocations),
            wide.stats().allocations
        );
        assert_eq!(
            wide.counters().get(Counter::UnitFilterAccepts)
                + wide.counters().get(Counter::UnitFilterRejects),
            wide.stats().unit_filter.lookups,
            "filter decisions land in the owning observer's set"
        );
        assert_eq!(
            l2.counters().get(Counter::L2Probes),
            trace.events().len() as u64
        );
        // And the cells genuinely differ — the point of attribution.
        assert_ne!(
            narrow.counters().get(Counter::StreamAllocations),
            wide.counters().get(Counter::StreamAllocations)
        );
        assert_eq!(narrow.counters().get(Counter::UnitFilterAccepts), 0);
    }

    #[test]
    fn default_observers_still_replay_identically() {
        // with_counters must not perturb simulation results.
        let trace = trace();
        let config = StreamConfig::paper_strided(6, 16).unwrap();
        let mut scoped = StreamObserver::with_counters(config, streamsim_obs::Counters::scoped());
        replay(&trace, &mut [&mut scoped]);
        assert_eq!(scoped.stats(), run_streams(&trace, config));
    }
}
