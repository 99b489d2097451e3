//! Analytical locality models for streamsim.
//!
//! The simulator answers "how does geometry X perform on workload W?"
//! by replaying W's recorded miss trace against X — exact, but linear
//! in trace length per cell, which makes thousand-cell design-space
//! sweeps expensive. This crate answers the same question in closed
//! form from a [`LocalityProfile`] measured in **one** extra pass over
//! the trace:
//!
//! * [`ProfileBuilder`] extracts reuse-distance histograms (Mattson
//!   stack distances over a Fenwick tree) and a unit-run / stride
//!   profile of the fetch stream, including stream-stack-distance
//!   histograms that capture LRU buffer reallocation exactly.
//! * [`predict_streams`] / [`predict_l2`] turn the profile into hit
//!   rate and extra-bandwidth estimates for *any* stream-buffer or
//!   secondary-cache geometry — microseconds per cell instead of a
//!   full replay.
//! * [`pareto`] selects the predicted Pareto frontier plus a tolerance
//!   band, so a sweep needs to simulate only the cells that could
//!   plausibly be optimal.
//!
//! The crate is hermetic by construction: no dependencies, no clocks,
//! no hash-order nondeterminism (the profile pass's per-item maps are a
//! fixed-hash table with no iteration API). Profiles and predictions
//! are pure functions of the event stream, byte-identical across runs,
//! threads and executors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fenwick;
pub mod hist;
pub mod pareto;
pub mod predict;
pub mod profile;
pub mod reference;
pub mod table;

pub use fenwick::Fenwick;
pub use hist::DistHist;
pub use pareto::{frontier, keep_with_band, Band, Objectives};
pub use predict::{
    predict_l2, predict_streams, AllocModel, L2Estimate, L2Geometry, StreamEstimate, StreamGeometry,
};
pub use profile::{
    CzoneSketch, LocalityProfile, ProfileBuilder, StreamProfile, CZONE_GRID, REUSE_GRANULARITIES,
    SD_BUCKETS,
};
pub use table::KeyTable;
