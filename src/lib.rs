//! # streamsim — stream buffers as a secondary cache replacement
//!
//! A trace-driven reproduction of **Palacharla & Kessler, _Evaluating
//! Stream Buffers as a Secondary Cache Replacement_, ISCA 1994**, built
//! as a Rust workspace:
//!
//! * [`streamsim_trace`] — addresses, references, time sampling, trace
//!   statistics and a binary trace format;
//! * [`streamsim_cache`] — set-associative cache simulators (split L1,
//!   secondary caches, victim buffer, set sampling);
//! * [`streamsim_streams`] — the paper's contribution: multi-way stream
//!   buffers, the unit-stride allocation filter, and czone non-unit-
//!   stride detection (plus the minimum-delta alternative);
//! * [`streamsim_workloads`] — synthetic kernels reproducing the access
//!   patterns of the paper's fifteen NAS/PERFECT benchmarks;
//! * [`streamsim_core`] — memory-system composition, miss-trace
//!   record/replay, and a driver for every table and figure in the
//!   paper's evaluation.
//!
//! This facade re-exports the commonly used types so most programs need
//! a single dependency.
//!
//! # Example
//!
//! ```
//! use streamsim::{MemorySystemBuilder, StreamConfig};
//! use streamsim_workloads::generators::SequentialSweep;
//!
//! let mut system = MemorySystemBuilder::paper_l1()
//!     .streams(StreamConfig::paper_filtered(8)?)
//!     .build()?;
//! system.run(&SequentialSweep::default());
//! let report = system.finish();
//! assert!(report.stream_hit_rate().unwrap() > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use streamsim_cache::{
    AccessOutcome, CacheConfig, CacheConfigError, CacheStats, LruStackGrid, Replacement,
    SetAssocCache, SetSampling, SplitL1, StackGridError, VictimCache, WritePolicy,
};
pub use streamsim_core::{
    experiments, l2_geometry, paper, parse_flat_json_line, profile_trace, record_miss_trace,
    render_json_lines, render_text, replay, replay_cells, replay_chunked, replay_l2,
    replay_streams, report, run_l2, run_streams, stream_geometry, Artifact, ArtifactSink, Cell,
    ExecutorHandle, GuardedSink, JsonLinesSink, JsonValue, L1Summary, L2Cell, L2GridObserver,
    L2Observer, MemorySystem, MemorySystemBuilder, MissEvent, MissObserver, MissTrace, MultiSink,
    ProfileArtifact, ProfilePhase, RecordOptions, SimReport, StreamObserver, StreamTopology,
    TextSink, TraceStore, Value,
};
pub use streamsim_streams::{
    Allocation, CzoneFilter, LengthBucket, LengthHistogram, MatchPolicy, MinDeltaDetector,
    StreamBuffer, StreamConfig, StreamConfigError, StreamOutcome, StreamStats, StreamSystem,
};
pub use streamsim_trace::{
    Access, AccessKind, Addr, BlockAddr, BlockSize, TimeSampler, TraceStats, WordAddr, WordSize,
};
pub use streamsim_workloads::{
    all_benchmarks, benchmark, benchmark_names, collect_trace, generators, kernels, AddressSpace,
    Suite, Workload,
};
