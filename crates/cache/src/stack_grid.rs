//! An exact one-pass simulator for a whole grid of LRU caches.
//!
//! Mattson et al.'s inclusion property: under LRU, an `a`-way set holds
//! exactly the `a` most recently used distinct blocks that map to it.
//! With write-back/write-allocate every reference (load, store or
//! instruction fetch) allocates, so a set's contents depend only on the
//! order of references to it. One per-set *stack* of blocks in MRU
//! order, as deep as the largest associativity, therefore answers hit
//! or miss for every associativity at that set count: a reference found
//! at stack position `p` (or absent) hits exactly the caches with
//! `a > p`. Caches sharing a set count share a stack; caches differing
//! in set count cannot (a block's set differs), so a grid is one stack
//! per distinct set count.
//!
//! Hit/miss counts need no per-cache state at all: each stack keeps a
//! histogram of the positions its references were found at, per access
//! kind, and a cache's misses are the references at positions `>= a`.
//! Write-backs need one dirty bit per (stack entry, associativity):
//!
//! * on a miss in the `a`-way cache, the entry at position `a − 1` is
//!   its LRU victim; if that entry's `a`-bit is set, count a write-back
//!   (an empty slot never carries dirty bits);
//! * after the access, the accessed entry's `a`-bit is `store` where it
//!   missed (a fresh fill) and `old | store` where it hit.
//!
//! An entry at position `< a` has been resident in the `a`-way cache
//! since its last reference (positions only grow between references),
//! so its `a`-bit is exactly that cache's dirty bit. Statistics are
//! byte-identical to one [`crate::SetAssocCache`] per cell, pinned by
//! `tests/stack_grid_properties.rs` against both it and
//! [`crate::reference::ReferenceCache`].

// lint:hot-module — every reference of a grid replay walks these stacks

use std::collections::BTreeMap;
use std::fmt;

use streamsim_trace::{AccessKind, Addr, BlockSize};

use crate::{CacheConfig, CacheStats, Replacement, WritePolicy};

/// Marks an empty stack slot. A block number is `addr >> log2(block)`,
/// which can only be `u64::MAX` for 1-byte blocks at the top address.
const EMPTY: u64 = u64::MAX;

/// Most associativities one stack tracks: its dirty bits are one `u8`
/// per entry. A set count swept at more associativities than this gets
/// several stacks (each exact on its own).
const MAX_STACK_ASSOCS: usize = 8;

/// Why a cache cannot join an [`LruStackGrid`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackGridError {
    /// The cell is not LRU with write-back/write-allocate, so its
    /// contents are not the top of an MRU stack.
    Policy {
        /// Index of the cell in the input.
        index: usize,
    },
    /// The cell's block size differs from the first cell's: one grid
    /// decodes each address once, for one block size.
    MixedBlock {
        /// Index of the cell in the input.
        index: usize,
    },
}

impl fmt::Display for StackGridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackGridError::Policy { index } => {
                write!(f, "cell {index} is not LRU with write-back/write-allocate")
            }
            StackGridError::MixedBlock { index } => {
                write!(f, "cell {index} has a different block size than cell 0")
            }
        }
    }
}

impl std::error::Error for StackGridError {}

/// Every LRU write-back cache of a grid, simulated by one MRU stack per
/// distinct set count.
///
/// # Example
///
/// ```
/// use streamsim_cache::{CacheConfig, LruStackGrid, SetAssocCache};
/// use streamsim_trace::{AccessKind, Addr, BlockSize};
///
/// let block = BlockSize::new(32)?;
/// // 2 KB 1-way and 4 KB 2-way share 64 sets, hence one stack.
/// let configs = [
///     CacheConfig::new(2048, 1, block)?,
///     CacheConfig::new(4096, 2, block)?,
/// ];
/// let mut grid = LruStackGrid::new(&configs)?;
/// assert_eq!(grid.stacks(), 1);
///
/// let refs: Vec<(Addr, AccessKind)> = (0..500u64)
///     .map(|i| {
///         let kind = if i % 3 == 0 { AccessKind::Store } else { AccessKind::Load };
///         (Addr::new(i * 7919 % 8192), kind)
///     })
///     .collect();
/// grid.access_all(&refs);
///
/// // The same statistics as one cache per configuration.
/// for (config, stats) in configs.iter().zip(grid.stats()) {
///     let mut cache = SetAssocCache::new(*config)?;
///     for &(addr, kind) in &refs {
///         cache.access(addr, kind);
///     }
///     assert_eq!(*cache.stats(), stats);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct LruStackGrid {
    block_log2: u32,
    stacks: Vec<SetStack>,
    /// Per input cell, in order: its stack and its associativity slot
    /// within that stack.
    cells: Vec<(usize, usize)>,
}

/// The MRU stacks of every set at one set count.
#[derive(Clone, Debug)]
struct SetStack {
    set_mask: u64,
    /// Entries per set: the largest associativity served.
    depth: usize,
    /// The distinct associativities served, ascending; slot `j` owns
    /// dirty bit `j` and `writebacks[j]`.
    assocs: Vec<u32>,
    /// Per stack position `p` in `0..=depth` (`depth` = absent): the
    /// dirty bits of the caches a reference found at `p` hits.
    keep: Vec<u8>,
    /// Block numbers, `depth` per set, MRU first; [`EMPTY`] past the
    /// set's fill.
    blocks: Vec<u64>,
    /// Dirty bits per entry, one per associativity slot.
    dirty: Vec<u8>,
    /// Stack-distance histogram: references of kind `k` found at
    /// position `p` are counted at `k * (depth + 1) + p`.
    hist: Vec<u64>,
    writebacks: Vec<u64>,
}

impl LruStackGrid {
    /// Whether a cache of `config` can join a grid: LRU replacement with
    /// write-back/write-allocate (a grid also needs one shared block
    /// size, and simulates every set, so a set-sampled cell cannot join).
    pub fn admits(config: &CacheConfig) -> bool {
        config.replacement() == Replacement::Lru
            && config.write_policy() == WritePolicy::WriteBackAllocate
    }

    /// Builds the grid for `configs`; duplicates are fine and share a
    /// stack slot.
    ///
    /// # Errors
    ///
    /// Returns [`StackGridError`] for the first cell that
    /// [`LruStackGrid::admits`] rejects or whose block size differs from
    /// the first cell's.
    pub fn new(configs: &[CacheConfig]) -> Result<Self, StackGridError> {
        let block = configs.first().map_or(BlockSize::default(), |c| c.block());
        let mut by_sets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (index, config) in configs.iter().enumerate() {
            if !Self::admits(config) {
                return Err(StackGridError::Policy { index });
            }
            if config.block() != block {
                return Err(StackGridError::MixedBlock { index });
            }
            by_sets
                .entry(config.num_sets())
                .or_default()
                .push(config.assoc());
        }
        let mut stacks = Vec::new();
        let mut slots: BTreeMap<(u64, u32), (usize, usize)> = BTreeMap::new();
        for (sets, mut assocs) in by_sets {
            assocs.sort_unstable();
            assocs.dedup();
            for group in assocs.chunks(MAX_STACK_ASSOCS) {
                for (slot, &assoc) in group.iter().enumerate() {
                    slots.insert((sets, assoc), (stacks.len(), slot));
                }
                stacks.push(SetStack::new(sets, group.to_vec()));
            }
        }
        let cells = configs
            .iter()
            .map(|c| slots[&(c.num_sets(), c.assoc())])
            .collect();
        Ok(LruStackGrid {
            block_log2: block.log2(),
            stacks,
            cells,
        })
    }

    /// Number of cells (input configurations, duplicates included).
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of per-set-count stacks simulating those cells.
    pub fn stacks(&self) -> usize {
        self.stacks.len()
    }

    /// Presents a batch of references, in order, to every cache of the
    /// grid. Each stack consumes the whole batch while its tables are
    /// hot; stacks are independent, so this equals per-reference
    /// delivery for any batching.
    pub fn access_all(&mut self, refs: &[(Addr, AccessKind)]) {
        for stack in &mut self.stacks {
            match stack.depth {
                1 => stack.run::<1>(refs, self.block_log2),
                2 => stack.run::<2>(refs, self.block_log2),
                4 => stack.run::<4>(refs, self.block_log2),
                _ => stack.run::<0>(refs, self.block_log2),
            }
        }
    }

    /// Every cell's statistics, in input order.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.cells
            .iter()
            .map(|&(stack, slot)| self.stacks[stack].stats(slot))
            .collect()
    }
}

impl SetStack {
    fn new(sets: u64, assocs: Vec<u32>) -> Self {
        let depth = assocs.iter().copied().fold(1, u32::max) as usize;
        let keep = (0..=depth)
            .map(|p| {
                assocs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a as usize > p)
                    .fold(0u8, |bits, (j, _)| bits | 1 << j)
            })
            .collect();
        let entries = sets as usize * depth;
        SetStack {
            set_mask: sets - 1,
            depth,
            writebacks: vec![0; assocs.len()],
            assocs,
            keep,
            blocks: vec![EMPTY; entries],
            dirty: vec![0; entries],
            hist: vec![0; AccessKind::ALL.len() * (depth + 1)],
        }
    }

    /// Walks `refs` through this stack. `D` is the depth for the common
    /// associativities (1, 2 and 4), so the scan and the shift unroll
    /// into straight-line compares and moves; `D = 0` reads the depth at
    /// run time.
    #[inline(always)]
    fn run<const D: usize>(&mut self, refs: &[(Addr, AccessKind)], block_log2: u32) {
        let depth = if D == 0 { self.depth } else { D };
        debug_assert_eq!(depth, self.depth);
        let width = depth + 1;
        let all = ((1u16 << self.assocs.len()) - 1) as u8;
        for &(addr, kind) in refs {
            let block = addr.raw() >> block_log2;
            debug_assert!(block != EMPTY, "block collides with the empty sentinel");
            let base = (block & self.set_mask) as usize * depth;
            let row = &mut self.blocks[base..base + depth];
            let dirty = &mut self.dirty[base..base + depth];

            // A block sits at most once in its set's stack; `depth`
            // means absent. Conditional moves, no early exit: which slot
            // matches is unpredictable.
            let mut p = depth;
            for (i, &b) in row.iter().enumerate().rev() {
                p = if b == block { i } else { p };
            }
            self.hist[kind.as_index() * width + p] += 1;

            // Each cache the reference misses evicts the entry at its
            // LRU position, written back if that cache's bit is dirty.
            let keep = self.keep[p];
            for (j, &a) in self.assocs.iter().enumerate() {
                let missed = keep >> j & 1 == 0;
                let victim_dirty = dirty[a as usize - 1] >> j & 1 != 0;
                self.writebacks[j] += u64::from(missed && victim_dirty);
            }
            let old = if p < depth { dirty[p] } else { 0 };
            let fresh = if kind.is_store() { all } else { 0 };

            // Move to front: slots 1..=min(p, depth - 1) take their
            // predecessor (the last slot falls off on an absent block).
            let end = p.min(depth - 1);
            for i in (1..depth).rev() {
                let shift = i <= end;
                row[i] = if shift { row[i - 1] } else { row[i] };
                dirty[i] = if shift { dirty[i - 1] } else { dirty[i] };
            }
            row[0] = block;
            dirty[0] = (old & keep) | fresh;
        }
    }

    fn stats(&self, slot: usize) -> CacheStats {
        let width = self.depth + 1;
        let assoc = self.assocs[slot] as usize;
        let mut accesses = [0u64; 3];
        let mut misses = [0u64; 3];
        for kind in AccessKind::ALL {
            let k = kind.as_index();
            let hist = &self.hist[k * width..(k + 1) * width];
            accesses[k] = hist.iter().sum();
            misses[k] = hist[assoc..].iter().sum();
        }
        CacheStats::from_counts(accesses, misses, self.writebacks[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetAssocCache;

    fn block32() -> BlockSize {
        BlockSize::new(32).unwrap()
    }

    fn check_against_caches(configs: &[CacheConfig], refs: &[(Addr, AccessKind)]) {
        let mut grid = LruStackGrid::new(configs).unwrap();
        grid.access_all(refs);
        let expected: Vec<CacheStats> = configs
            .iter()
            .map(|&c| {
                let mut cache = SetAssocCache::new(c).unwrap();
                for &(addr, kind) in refs {
                    cache.access(addr, kind);
                }
                *cache.stats()
            })
            .collect();
        assert_eq!(grid.stats(), expected);
    }

    #[test]
    fn table4_shape_collapses_to_one_stack_per_set_count() {
        let configs: Vec<CacheConfig> = (16..=22)
            .flat_map(|log2| [1u32, 2, 4].map(|a| CacheConfig::new(1 << log2, a, block32())))
            .collect::<Result<_, _>>()
            .unwrap();
        let grid = LruStackGrid::new(&configs).unwrap();
        assert_eq!(grid.cells(), 21);
        assert_eq!(grid.stacks(), 9);
    }

    #[test]
    fn dirty_victims_are_written_back_per_associativity() {
        // One set: a store to A, then B and C. The 1-way cache writes A
        // back when B arrives; the 2-way cache when C arrives; the 4-way
        // cache never.
        let configs = [1u32, 2, 4].map(|a| CacheConfig::new(32 * a as u64, a, block32()).unwrap());
        let refs = [
            (Addr::new(0), AccessKind::Store),
            (Addr::new(32), AccessKind::Load),
            (Addr::new(64), AccessKind::Load),
        ];
        let mut grid = LruStackGrid::new(&configs).unwrap();
        grid.access_all(&refs);
        let wbs: Vec<u64> = grid.stats().iter().map(|s| s.writebacks).collect();
        assert_eq!(wbs, [1, 1, 0]);
        check_against_caches(&configs, &refs);
    }

    #[test]
    fn a_hit_keeps_the_dirty_bit_and_a_refill_clears_it() {
        // 1-way and 2-way over one set. A is stored, then B evicts A
        // from the 1-way cache only. A reloaded: a clean refill in the
        // 1-way cache, a hit that stays dirty in the 2-way cache.
        let configs = [1u32, 2].map(|a| CacheConfig::new(32 * a as u64, a, block32()).unwrap());
        let refs = [
            (Addr::new(0), AccessKind::Store),
            (Addr::new(32), AccessKind::Load),
            (Addr::new(0), AccessKind::Load),
            (Addr::new(64), AccessKind::Load),
            (Addr::new(96), AccessKind::Load),
        ];
        check_against_caches(&configs, &refs);
    }

    #[test]
    fn ineligible_cells_are_rejected_with_their_index() {
        let lru = CacheConfig::new(1024, 2, block32()).unwrap();
        let fifo = lru.with_replacement(Replacement::Fifo);
        let wt = lru.with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let wide = CacheConfig::new(1024, 2, BlockSize::new(64).unwrap()).unwrap();
        assert_eq!(
            LruStackGrid::new(&[lru, fifo]).unwrap_err(),
            StackGridError::Policy { index: 1 }
        );
        assert_eq!(
            LruStackGrid::new(&[lru, wt]).unwrap_err(),
            StackGridError::Policy { index: 1 }
        );
        assert_eq!(
            LruStackGrid::new(&[lru, lru, wide]).unwrap_err(),
            StackGridError::MixedBlock { index: 2 }
        );
        assert!(StackGridError::MixedBlock { index: 2 }
            .to_string()
            .contains("cell 2"));
    }

    #[test]
    fn many_associativities_at_one_set_count_split_into_stacks() {
        let configs: Vec<CacheConfig> = (1..=12u32)
            .map(|a| CacheConfig::new(2 * 32 * a as u64, a, block32()).unwrap())
            .collect();
        let grid = LruStackGrid::new(&configs).unwrap();
        assert_eq!(grid.stacks(), 2);
        let refs: Vec<_> = (0..3000u64)
            .map(|i| {
                let kind = AccessKind::ALL[(i * 7 % 5 % 3) as usize];
                (Addr::new((i * 2654435761) % 1024 * 32), kind)
            })
            .collect();
        check_against_caches(&configs, &refs);
    }

    #[test]
    fn empty_grid_is_fine() {
        let mut grid = LruStackGrid::new(&[]).unwrap();
        grid.access_all(&[(Addr::new(64), AccessKind::Load)]);
        assert_eq!(grid.cells(), 0);
        assert!(grid.stats().is_empty());
    }
}
