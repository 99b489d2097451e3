//! Property-based tests for the record-once/replay-many engine: the
//! shared [`TraceStore`] and the multi-observer [`replay`] pass, via the
//! public API, on the in-tree `streamsim-quickcheck` harness.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_cache::{CacheConfig, Replacement, SetSampling};
use streamsim_core::{
    record_miss_trace, replay, replay_chunked, replay_l2, replay_streams, run_l2, run_streams,
    FusedStreamObserver, L2GridObserver, L2Observer, MissEvent, MissObserver, RecordOptions,
    StreamObserver, TraceStore,
};
use streamsim_obs::{Counter, Counters};
use streamsim_streams::StreamConfig;
use streamsim_trace::{Access, AccessKind, Addr, BlockSize, WordSize};
use streamsim_workloads::combinators::RecordedTrace;

fn tiny_l1() -> RecordOptions {
    let cfg = CacheConfig::new(4 * 1024, 2, BlockSize::new(32).unwrap())
        .unwrap()
        .with_replacement(Replacement::Lru);
    RecordOptions {
        icache: cfg,
        dcache: cfg,
        sampling: None,
    }
}

fn accesses(g: &mut Gen, max_len: usize) -> Vec<Access> {
    g.vec(1..max_len, |g| {
        let addr = g.gen_range(0u64..1 << 18);
        let kind = g.pick_weighted(&[
            (3, AccessKind::Load),
            (1, AccessKind::Store),
            (1, AccessKind::IFetch),
        ]);
        Access::new(Addr::new(addr), kind)
    })
}

fn stream_configs(g: &mut Gen) -> Vec<StreamConfig> {
    g.vec(1usize..5, |g| {
        let buffers = g.gen_range(1usize..8);
        let depth = g.gen_range(1usize..5);
        match g.gen_range(0u32..3) {
            0 => StreamConfig::paper_basic(buffers).unwrap(),
            1 => StreamConfig::paper_filtered(buffers).unwrap(),
            _ => StreamConfig::new(buffers, depth, streamsim_streams::Allocation::OnMiss).unwrap(),
        }
    })
}

/// A trace served from the store equals a fresh recording of the same
/// workload — caching never changes results.
#[test]
fn cached_traces_equal_fresh_recordings() {
    check_with("cached_traces_equal_fresh_recordings", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let options = tiny_l1();
        let store = TraceStore::default();
        let warm = store.record(&w, &options).unwrap();
        let cached = store.record(&w, &options).unwrap();
        let fresh = record_miss_trace(&w, &options).unwrap();
        assert_eq!(*warm, fresh);
        assert_eq!(*cached, fresh);
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 1);
    });
}

/// One replay pass over N stream configurations produces exactly the
/// statistics of N independent single-config passes.
#[test]
fn multi_config_replay_equals_independent_passes() {
    check_with("multi_config_replay_equals_independent_passes", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        let configs = stream_configs(g);

        let shared = replay_streams(&rec, &configs);
        let independent: Vec<_> = configs.iter().map(|&c| run_streams(&rec, c)).collect();
        assert_eq!(shared, independent);
    });
}

/// A family of stream configurations sharing one randomized geometry —
/// the shape [`FusedStreamObserver`] accepts — covering every allocation
/// policy and both match policies.
fn shared_geometry_family(g: &mut Gen) -> Vec<StreamConfig> {
    use streamsim_streams::{Allocation, MatchPolicy};
    let block = BlockSize::new(g.pick(&[16u64, 32, 64])).unwrap();
    let word = WordSize::new(g.pick(&[4u64, 8])).unwrap();
    g.vec(1usize..6, |g| {
        let allocation = match g.gen_range(0u32..4) {
            0 => Allocation::OnMiss,
            1 => Allocation::UnitFilter {
                entries: g.gen_range(1usize..12),
            },
            2 => Allocation::UnitAndStrideFilters {
                unit_entries: g.gen_range(1usize..12),
                stride_entries: g.gen_range(1usize..12),
                czone_bits: g.gen_range(8u32..24),
            },
            _ => Allocation::MinDelta {
                entries: g.gen_range(1usize..8),
                max_stride_words: g.gen_range(1i64..(1 << 16)),
            },
        };
        let policy = if g.gen_bool(0.5) {
            MatchPolicy::HeadOnly
        } else {
            MatchPolicy::AnyEntry
        };
        StreamConfig::new(g.gen_range(1usize..8), g.gen_range(1usize..5), allocation)
            .expect("parameters drawn from valid ranges")
            .with_block(block)
            .with_word(word)
            .with_match_policy(policy)
    })
}

/// Replays `trace` into one observer per config, delivering events one at
/// a time — the unfused, unbatched reference semantics.
fn per_event_stream_passes(
    trace: &streamsim_core::MissTrace,
    configs: &[StreamConfig],
) -> Vec<streamsim_core::StreamStats> {
    configs
        .iter()
        .map(|&c| {
            let mut o = StreamObserver::new(c);
            for event in trace.events() {
                match *event {
                    MissEvent::Fetch { addr, kind } => o.on_fetch(addr, kind),
                    MissEvent::Writeback { base } => o.on_writeback(base),
                }
            }
            o.finish();
            o.stats()
        })
        .collect()
}

/// A fused family replayed in arbitrary (often misaligned) chunk sizes is
/// byte-identical to independent per-event observers: both the fusion and
/// the batching are pure delivery mechanics.
#[test]
fn fused_replay_matches_independent_observers_at_any_chunk_size() {
    check_with(
        "fused_replay_matches_independent_observers_at_any_chunk_size",
        32,
        |g| {
            let trace = accesses(g, 400);
            let w = RecordedTrace::new("prop", trace);
            let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
            let configs = shared_geometry_family(g);

            let mut fused = FusedStreamObserver::new(&configs).expect("one shared geometry");
            let chunk = g.gen_range(1usize..80);
            replay_chunked(&rec, &mut [&mut fused], chunk);

            assert_eq!(fused.stats(), per_event_stream_passes(&rec, &configs));
        },
    );
}

/// Two fused replays of the same family at different chunk sizes agree
/// exactly: no observable state leaks across chunk boundaries.
#[test]
fn chunk_boundaries_are_invisible_to_fused_families() {
    check_with(
        "chunk_boundaries_are_invisible_to_fused_families",
        32,
        |g| {
            let trace = accesses(g, 400);
            let w = RecordedTrace::new("prop", trace);
            let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
            let configs = shared_geometry_family(g);

            let mut coarse = FusedStreamObserver::new(&configs).unwrap();
            let mut fine = FusedStreamObserver::new(&configs).unwrap();
            replay_chunked(&rec, &mut [&mut coarse], g.gen_range(100usize..500));
            replay_chunked(&rec, &mut [&mut fine], g.gen_range(1usize..10));
            assert_eq!(coarse.stats(), fine.stats());
        },
    );
}

/// A family with mismatched geometries cannot fuse; [`replay_streams`]
/// must fall back to independent observers with identical results.
#[test]
fn mixed_geometry_families_fall_back_without_changing_results() {
    check_with(
        "mixed_geometry_families_fall_back_without_changing_results",
        32,
        |g| {
            let trace = accesses(g, 400);
            let w = RecordedTrace::new("prop", trace);
            let rec = record_miss_trace(&w, &tiny_l1()).unwrap();

            let mut configs = shared_geometry_family(g);
            // Force a geometry mismatch: no family member uses 256-byte
            // blocks.
            let odd = StreamConfig::paper_basic(g.gen_range(1usize..5))
                .unwrap()
                .with_block(BlockSize::new(256).unwrap());
            configs.push(odd);

            assert!(FusedStreamObserver::new(&configs).is_err());
            assert_eq!(
                replay_streams(&rec, &configs),
                per_event_stream_passes(&rec, &configs)
            );
        },
    );
}

/// Mixing stream and L2 observers in one pass changes nothing either:
/// observers are fully independent of each other.
#[test]
fn mixed_observers_do_not_interact() {
    check_with("mixed_observers_do_not_interact", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();

        let scfg = StreamConfig::paper_filtered(4).unwrap();
        let l2cfg = CacheConfig::new(64 * 1024, 2, BlockSize::new(32).unwrap()).unwrap();
        let mut streams = StreamObserver::new(scfg);
        let mut l2 = L2Observer::new(l2cfg, None).unwrap();
        replay(&rec, &mut [&mut streams, &mut l2]);

        assert_eq!(streams.stats(), run_streams(&rec, scfg));
        assert_eq!(l2.stats(), run_l2(&rec, l2cfg, None).unwrap());
    });
}

/// A secondary-cache cell for the L2 entry-point properties: mostly grid
/// eligible (LRU, write-back/write-allocate, unsampled, 32-byte blocks),
/// the rest one of every kind the grid must hand to the fallback.
fn l2_cell(g: &mut Gen) -> (CacheConfig, Option<SetSampling>) {
    use streamsim_cache::WritePolicy;
    let sets = 1u64 << g.gen_range(0u32..7);
    let assoc = g.gen_range(1u32..=16);
    let block = BlockSize::new(32).unwrap();
    let lru = CacheConfig::new(sets * assoc as u64 * 32, assoc, block).unwrap();
    match g.gen_range(0u32..12) {
        0 => (lru.with_replacement(Replacement::Fifo), None),
        1 => (
            lru.with_replacement(Replacement::Random {
                seed: g.gen_range(0u64..1 << 20),
            }),
            None,
        ),
        2 => {
            let pow2 = 1u32 << g.gen_range(0u32..4);
            let cfg = CacheConfig::new(sets * pow2 as u64 * 32, pow2, block).unwrap();
            (cfg.with_replacement(Replacement::TreePlru), None)
        }
        3 => (
            lru.with_write_policy(WritePolicy::WriteThroughNoAllocate),
            None,
        ),
        4 if sets >= 2 => (lru, Some(SetSampling::new(1, g.gen_range(0u64..2)))),
        5 => {
            let wide = BlockSize::new(64).unwrap();
            let cfg = CacheConfig::new(sets * assoc as u64 * 64, assoc, wide).unwrap();
            (cfg, None)
        }
        _ => (lru, None),
    }
}

/// The frozen reference model of one cell over a recorded miss trace:
/// fetches are demand accesses, write-backs are stores.
fn reference_l2(
    rec: &streamsim_core::MissTrace,
    cell: (CacheConfig, Option<SetSampling>),
) -> streamsim_cache::CacheStats {
    use streamsim_cache::reference::ReferenceCache;
    let mut cache = match cell.1 {
        Some(s) => ReferenceCache::with_sampling(cell.0, s).unwrap(),
        None => ReferenceCache::new(cell.0).unwrap(),
    };
    for event in rec.events() {
        match *event {
            MissEvent::Fetch { addr, kind } => cache.access(addr, kind),
            MissEvent::Writeback { base } => cache.access(base, AccessKind::Store),
        };
    }
    *cache.stats()
}

/// One `replay_l2` pass equals independent passes for any mix of cells:
/// grid-eligible cells (with duplicates) and every ineligible kind —
/// FIFO, random, tree-PLRU, write-through, set-sampled, another block
/// size — come back in input order, equal to the frozen reference cache
/// and to a lone `L2Observer` per cell.
#[test]
fn multi_l2_replay_equals_independent_passes() {
    check_with("multi_l2_replay_equals_independent_passes", 48, |g| {
        let trace = accesses(g, 600);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();

        let mut cells: Vec<(CacheConfig, Option<SetSampling>)> = g.vec(1usize..12, l2_cell);
        if g.gen_bool(0.3) {
            let dup = cells[g.gen_range(0..cells.len())];
            cells.insert(g.gen_range(0..=cells.len()), dup);
        }
        let shared = replay_l2(&rec, &cells).unwrap();
        let lone: Vec<_> = cells
            .iter()
            .map(|&(config, sampling)| {
                let mut o = L2Observer::new(config, sampling).unwrap();
                replay(&rec, &mut [&mut o]);
                o.stats()
            })
            .collect();
        let frozen: Vec<_> = cells.iter().map(|&c| reference_l2(&rec, c)).collect();
        assert_eq!(shared, frozen, "cells {cells:?}");
        assert_eq!(lone, frozen);
    });
}

/// The grid observer inside a replay pass is exact at every chunk
/// length, and charges one L2 probe per event per cell.
#[test]
fn grid_observer_is_chunking_invariant() {
    check_with("grid_observer_is_chunking_invariant", 32, |g| {
        let trace = accesses(g, 600);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        let configs: Vec<CacheConfig> = g
            .vec(1usize..10, l2_cell)
            .into_iter()
            .filter(|&(c, s)| {
                s.is_none()
                    && c.block().bytes() == 32
                    && c.replacement() == Replacement::Lru
                    && c.write_policy() == streamsim_cache::WritePolicy::WriteBackAllocate
            })
            .map(|(c, _)| c)
            .collect();
        let frozen: Vec<_> = configs
            .iter()
            .map(|&c| reference_l2(&rec, (c, None)))
            .collect();
        let random_len = g.gen_range(2usize..200);
        for chunk_len in [0, 1, 7, random_len, 1024] {
            let mut grid = L2GridObserver::with_counters(&configs, Counters::scoped()).unwrap();
            replay_chunked(&rec, &mut [&mut grid], chunk_len);
            assert_eq!(grid.stats(), frozen, "chunk length {chunk_len}");
            assert_eq!(
                grid.counters().get(Counter::L2Probes),
                rec.events().len() as u64 * configs.len() as u64
            );
        }
    });
}
