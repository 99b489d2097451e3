//! The LRU stack grid must be statistic-for-statistic identical to one
//! cache per cell. These property tests draw seeded random reference
//! streams (loads, stores, instruction fetches and write-backs, the last
//! presented as stores to a block base, as the replay engine does) and
//! random grids of LRU write-back caches (set counts 1 to 2^12,
//! associativities 1 to 16 including non-powers of two, duplicate
//! cells), then demand that every cell's `CacheStats` (per-kind accesses
//! and misses, plus write-backs) equals both the `SetAssocCache` and the
//! frozen `reference::ReferenceCache` for the same configuration, for
//! any batching of the references. Failures print a seed;
//! `STREAMSIM_QC_SEED=<seed>` replays it.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_cache::reference::ReferenceCache;
use streamsim_cache::{CacheConfig, CacheStats, LruStackGrid, SetAssocCache};
use streamsim_trace::{AccessKind, Addr, BlockSize};

/// A random eligible grid over one block size; some cells repeat.
fn gen_grid(g: &mut Gen) -> Vec<CacheConfig> {
    let block = BlockSize::new(g.pick(&[16u64, 32, 64, 128])).unwrap();
    let mut cells: Vec<CacheConfig> = Vec::new();
    for _ in 0..g.gen_range(1usize..10) {
        if !cells.is_empty() && g.gen_bool(0.15) {
            let dup = cells[g.gen_range(0..cells.len())];
            cells.push(dup);
            continue;
        }
        // Small set counts are where the stacks fill and evict; the
        // large ones keep the index arithmetic honest.
        let sets = 1u64 << g.pick_weighted(&[(4, 0u32), (4, 1), (4, 2), (3, 3), (2, 5), (1, 12)]);
        let assoc = g.gen_range(1u32..=16);
        cells.push(CacheConfig::new(sets * assoc as u64 * block.bytes(), assoc, block).unwrap());
    }
    cells
}

/// A random reference stream whose footprint is a small multiple of the
/// grid's largest set count, so sets overflow every associativity.
fn gen_refs(g: &mut Gen, grid: &[CacheConfig]) -> Vec<(Addr, AccessKind)> {
    let block = grid[0].block().bytes();
    let widest = grid.iter().map(|c| c.num_sets()).max().unwrap();
    let footprint = (widest * g.gen_range(1u64..24)).min(1 << 14);
    g.vec(1usize..1500, |g| {
        let base = g.gen_range(0..footprint) * block;
        match g.gen_range(0u32..8) {
            0..=3 => (Addr::new(base + g.gen_range(0..block)), AccessKind::Load),
            4 | 5 => (Addr::new(base + g.gen_range(0..block)), AccessKind::Store),
            6 => (Addr::new(base + g.gen_range(0..block)), AccessKind::IFetch),
            // A primary-cache write-back: a store of the block base.
            _ => (Addr::new(base), AccessKind::Store),
        }
    })
}

fn per_cache_stats(grid: &[CacheConfig], refs: &[(Addr, AccessKind)]) -> Vec<CacheStats> {
    let soa: Vec<CacheStats> = grid
        .iter()
        .map(|&config| {
            let mut cache = SetAssocCache::new(config).unwrap();
            for &(addr, kind) in refs {
                cache.access(addr, kind);
            }
            *cache.stats()
        })
        .collect();
    let frozen: Vec<CacheStats> = grid
        .iter()
        .map(|&config| {
            let mut cache = ReferenceCache::new(config).unwrap();
            for &(addr, kind) in refs {
                cache.access(addr, kind);
            }
            *cache.stats()
        })
        .collect();
    assert_eq!(soa, frozen, "SetAssocCache drifted from ReferenceCache");
    soa
}

/// Every cell equals its own cache, whatever the batching: one batch,
/// one reference at a time, and random chunk lengths.
#[test]
fn grid_equals_one_cache_per_cell_at_every_chunk_length() {
    check_with("grid_equals_one_cache_per_cell", 96, |g| {
        let grid = gen_grid(g);
        let refs = gen_refs(g, &grid);
        let expected = per_cache_stats(&grid, &refs);
        let random_len = g.gen_range(2usize..64);
        for chunk_len in [refs.len(), 1, 3, random_len] {
            let mut stacked = LruStackGrid::new(&grid).unwrap();
            for chunk in refs.chunks(chunk_len) {
                stacked.access_all(chunk);
            }
            assert_eq!(
                stacked.stats(),
                expected,
                "chunk length {chunk_len}, grid {grid:?}"
            );
        }
    });
}

/// Write-back-heavy streams over one set exercise every dirty-bit
/// transition: hits that keep a dirty bit, refills that clear it, and
/// victims dirty in some associativities but not others.
#[test]
fn single_set_store_storms_match_writebacks_exactly() {
    check_with("single_set_store_storms", 64, |g| {
        let block = BlockSize::new(32).unwrap();
        let grid: Vec<CacheConfig> = (1u32..=g.gen_range(2u32..=12))
            .map(|a| CacheConfig::new(a as u64 * 32, a, block).unwrap())
            .collect();
        let distinct = g.gen_range(2u64..20);
        let refs: Vec<(Addr, AccessKind)> = g.vec(50usize..600, |g| {
            let kind = if g.gen_bool(0.5) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            (Addr::new(g.gen_range(0..distinct) * 32), kind)
        });
        let mut stacked = LruStackGrid::new(&grid).unwrap();
        stacked.access_all(&refs);
        assert_eq!(stacked.stats(), per_cache_stats(&grid, &refs));
    });
}
