//! One-pass locality profiling of a recorded miss stream.
//!
//! The builder walks the L1 miss/write-back event stream once and
//! extracts everything the closed-form predictors need:
//!
//! * **Reuse profile** — Mattson LRU stack-distance histograms of the
//!   *whole* event stream (fetches and write-backs: a secondary cache
//!   sees both) at 1×, 2× and 4× the L1 block size, computed with a
//!   Fenwick tree over latest-access marks in `O(N log N)`.
//! * **Stream profile** — the fetch stream decomposed into unit-stride
//!   *runs* (maximal chains of misses to consecutive blocks). Each run
//!   continuation is recorded with its position class (second block of
//!   the run vs third-or-later) and two notions of **stream stack
//!   distance** since this run's previous fetch:
//!
//!   - the *touched* distance — distinct other runs fetched in between.
//!     Under allocate-on-miss every miss reallocates a buffer, so a
//!     continuation hits an `n`-buffer LRU system exactly when this is
//!     below `n`.
//!   - the *allocation* distance — run establishments (a run reaching
//!     its second block) in between. Under a unit filter only those
//!     allocate, so buffers survive arbitrarily long interruptions as
//!     long as few new streams establish; this distance, not the
//!     touched one, is the filtered system's eviction pressure.
//!
//!   Either histogram turns into a hit-rate curve for *any* stream
//!   count without simulation.
//! * **Czone sketches** — for a fixed grid of czone sizes, a replica of
//!   the §7 partition FSM counts how many non-unit-stride runs each
//!   czone size would train, and how their continuations distribute
//!   over stream stack distance.
//!
//! The profile is a pure function of the event stream: no clocks, no
//! randomness, and no iteration over the per-item maps (each is a
//! [`KeyTable`], which has no iteration API), so two builds over the
//! same trace are byte-identical. The `BTreeMap`-indexed builder the
//! tables replaced is kept as [`crate::reference`], the oracle this one
//! is checked against.

use crate::fenwick::Fenwick;
use crate::hist::DistHist;
use crate::table::KeyTable;

/// Reuse-distance granularities profiled, as multiples of the L1 block
/// size (so a 32-byte L1 block yields 32/64/128-byte histograms).
pub const REUSE_GRANULARITIES: [u64; 3] = [1, 2, 4];

/// Czone sizes (bits of the word address) sketched during profiling;
/// predictions for other sizes snap to the nearest grid point.
pub const CZONE_GRID: [u32; 9] = [8, 10, 12, 14, 16, 18, 20, 22, 24];

/// Stream stack distances `0..SD_BUCKETS` are recorded exactly; larger
/// distances land in one overflow bucket (index `SD_BUCKETS`). No
/// stream system of interest has more buffers than this.
pub const SD_BUCKETS: usize = 64;

/// A trained strided run whose allocation distance reaches this is
/// dropped: its buffer is long gone in every configuration of interest.
const STALE_SD: u64 = SD_BUCKETS as u64;

/// Per-czone-size sketch of the §7 non-unit-stride filter.
#[derive(Clone, Debug, PartialEq)]
pub struct CzoneSketch {
    /// Czone size in bits of the word address.
    pub czone_bits: u32,
    /// Strided streams the czone FSM trains (three constant-stride
    /// misses in one partition).
    pub trained: u64,
    /// Trained-run continuations by allocation distance — unit and
    /// strided establishments since the run's previous fetch (length
    /// [`SD_BUCKETS`]` + 1`; last bucket = overflow).
    pub cont: Vec<u64>,
}

impl CzoneSketch {
    /// Continuations with allocation distance `< n` — the trained
    /// strided fetches that hit with `n` stream buffers.
    pub fn cont_below(&self, n: usize) -> u64 {
        self.cont[..n.min(SD_BUCKETS)].iter().sum()
    }
}

/// Unit-stride run statistics of the fetch stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamProfile {
    /// Demand fetches profiled.
    pub fetches: u64,
    /// Unit-stride runs started (every fetch either continues a run or
    /// starts one).
    pub runs: u64,
    /// Run continuations at position 2 (second consecutive block), by
    /// all-runs stack distance. Length [`SD_BUCKETS`]` + 1`.
    pub pos2: Vec<u64>,
    /// Continuations at position ≥ 3, by all-runs stack distance.
    pub pos3p: Vec<u64>,
    /// Continuations at position ≥ 3, by *allocation* distance — run
    /// establishments (position-2 continuations) since this run's
    /// previous fetch. Only those allocate past a unit filter.
    pub pos3p_alloc: Vec<u64>,
    /// Czone FSM sketches, in [`CZONE_GRID`] order.
    pub czone: Vec<CzoneSketch>,
}

impl StreamProfile {
    /// Position-2 continuations with all-runs stack distance `< n`.
    pub fn pos2_below(&self, n: usize) -> u64 {
        self.pos2[..n.min(SD_BUCKETS)].iter().sum()
    }

    /// Position-≥3 continuations with all-runs stack distance `< n`.
    pub fn pos3p_below(&self, n: usize) -> u64 {
        self.pos3p[..n.min(SD_BUCKETS)].iter().sum()
    }

    /// Position-≥3 continuations with allocation distance `< n`.
    pub fn pos3p_alloc_below(&self, n: usize) -> u64 {
        self.pos3p_alloc[..n.min(SD_BUCKETS)].iter().sum()
    }

    /// Total position-2 continuations.
    pub fn pos2_total(&self) -> u64 {
        self.pos2.iter().sum()
    }

    /// Total position-≥3 continuations.
    pub fn pos3p_total(&self) -> u64 {
        self.pos3p.iter().sum()
    }

    /// The sketch whose czone size is nearest `czone_bits` (ties go to
    /// the smaller size).
    pub fn nearest_czone(&self, czone_bits: u32) -> &CzoneSketch {
        self.czone
            .iter()
            .min_by_key(|s| (s.czone_bits.abs_diff(czone_bits), s.czone_bits))
            .expect("CZONE_GRID is non-empty")
    }
}

/// A workload's complete locality profile: everything the predictors in
/// [`crate::predict`] consume.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalityProfile {
    /// L1 block size in bytes (granularity of fetch events and of
    /// `reuse[0]`).
    pub l1_block_bytes: u64,
    /// Word size in bytes used for stride detection.
    pub word_bytes: u64,
    /// Total events profiled (fetches + write-backs).
    pub events: u64,
    /// Demand fetches (L1 misses) profiled.
    pub fetches: u64,
    /// Write-backs profiled.
    pub writebacks: u64,
    /// References the recorded L1 served (set by the recorder; zero if
    /// unknown).
    pub l1_refs: u64,
    /// Misses the recorded L1 took (set by the recorder; zero if
    /// unknown).
    pub l1_misses: u64,
    /// Reuse-distance histograms over all events, one per entry of
    /// [`REUSE_GRANULARITIES`].
    pub reuse: Vec<DistHist>,
    /// Unit-stride run and czone statistics of the fetch stream.
    pub streams: StreamProfile,
}

impl LocalityProfile {
    /// The recorded L1 miss rate (exact, not modelled): the profile is
    /// computed while recording, so the L1's own answer is simply
    /// carried along. Zero when the recorder did not supply it.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_refs == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_refs as f64
        }
    }

    /// The reuse histogram whose granularity is nearest
    /// `block_bytes / l1_block_bytes` (ties go to the smaller).
    pub fn reuse_at(&self, block_bytes: u64) -> &DistHist {
        let ratio = (block_bytes.max(1)) as f64 / self.l1_block_bytes.max(1) as f64;
        let mut best = 0;
        let mut best_err = f64::INFINITY;
        for (i, &g) in REUSE_GRANULARITIES.iter().enumerate() {
            let err = (ratio.ln() - (g as f64).ln()).abs();
            if err < best_err {
                best = i;
                best_err = err;
            }
        }
        &self.reuse[best]
    }
}

/// A Mattson LRU stack over one granularity of block indices.
#[derive(Debug)]
struct ReuseStack {
    fen: Fenwick,
    last: KeyTable<usize>,
    hist: DistHist,
}

impl ReuseStack {
    fn new(capacity: usize) -> Self {
        ReuseStack {
            fen: Fenwick::new(capacity),
            last: KeyTable::new(),
            hist: DistHist::new(),
        }
    }

    fn touch(&mut self, item: u64, now: usize) {
        match self.last.insert(item, now) {
            Some(prev) => {
                // Marks strictly between prev and now = distinct items
                // touched since = LRU stack distance.
                self.hist.record(self.fen.between(prev, now) as u64);
                self.fen.clear(prev);
            }
            None => self.hist.record_cold(),
        }
        self.fen.set(now);
    }
}

/// One tracked unit-stride run.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    /// Blocks fetched so far (1 after the run's first fetch).
    pos: u32,
    /// Allocation clock at this run's latest fetch.
    allocs: u64,
    /// Fetch clock at this run's latest fetch: where its mark sits in
    /// the all-runs stack.
    last: usize,
}

/// The §7 czone FSM replica for one grid czone size, plus the expected
/// next words of the strided runs it has trained.
#[derive(Debug)]
struct CzoneState {
    czone_bits: u32,
    /// FIFO partition table: (tag, last word, candidate stride, in
    /// META2). Capacity [`CzoneState::CAPACITY`]; index 0 = oldest.
    table: Vec<(u64, u64, i64, bool)>,
    /// Trained strided runs keyed by their expected next word index:
    /// (stride in words, allocation clock at the run's previous fetch —
    /// unit establishments plus this czone size's own trainings).
    expect: KeyTable<(i64, u64)>,
    trained: u64,
    cont: Vec<u64>,
}

impl CzoneState {
    /// The paper's filter size; the sketch pins it rather than
    /// parameterising (every experiment uses 16 entries).
    const CAPACITY: usize = 16;

    fn new(czone_bits: u32) -> Self {
        CzoneState {
            czone_bits,
            table: Vec::with_capacity(Self::CAPACITY),
            expect: KeyTable::new(),
            trained: 0,
            cont: vec![0; SD_BUCKETS + 1],
        }
    }

    /// Mirrors [`CzoneFilter::lookup`]'s FSM: returns the verified
    /// stride (in words) when a third constant-stride miss lands in one
    /// partition.
    fn fsm(&mut self, word: u64) -> Option<i64> {
        let tag = if self.czone_bits >= 64 {
            0
        } else {
            word >> self.czone_bits
        };
        if let Some(pos) = self.table.iter().position(|e| e.0 == tag) {
            let delta = word as i64 - self.table[pos].1 as i64;
            if delta == 0 {
                return None;
            }
            if self.table[pos].3 && delta == self.table[pos].2 {
                self.table.remove(pos);
                return Some(delta);
            }
            self.table[pos].1 = word;
            self.table[pos].2 = delta;
            self.table[pos].3 = true;
            return None;
        }
        if self.table.len() == Self::CAPACITY {
            self.table.remove(0);
        }
        self.table.push((tag, word, 0, false));
        None
    }
}

/// Streaming builder for a [`LocalityProfile`].
///
/// Feed the recorded events in program order via
/// [`fetch`](ProfileBuilder::fetch) and
/// [`writeback`](ProfileBuilder::writeback) (with addresses already
/// split into block and word indices), then call
/// [`finish`](ProfileBuilder::finish).
#[derive(Debug)]
pub struct ProfileBuilder {
    l1_block_bytes: u64,
    word_bytes: u64,
    reuse: Vec<ReuseStack>,
    event_clock: usize,
    fetch_clock: usize,
    fetches: u64,
    writebacks: u64,
    /// Expected next block index → the unit run that predicts it. A run
    /// is touched only through this entry, so the entry also carries
    /// the run's last-touch mark.
    unit_expect: KeyTable<Run>,
    /// Marks at every run's latest touch (any position): the all-runs
    /// stream stack.
    run_marks: Fenwick,
    runs: u64,
    /// Run establishments so far — the allocation clock. A unit-
    /// filtered system allocates a buffer exactly at these events.
    alloc_clock: u64,
    pos2: Vec<u64>,
    pos3p: Vec<u64>,
    pos3p_alloc: Vec<u64>,
    czone: Vec<CzoneState>,
}

impl ProfileBuilder {
    /// A builder for a trace of (at most) `capacity_events` events whose
    /// L1 fetches blocks of `l1_block_bytes` and whose stride detection
    /// operates on `word_bytes` words.
    pub fn new(l1_block_bytes: u64, word_bytes: u64, capacity_events: usize) -> Self {
        ProfileBuilder {
            l1_block_bytes,
            word_bytes,
            reuse: REUSE_GRANULARITIES
                .iter()
                .map(|_| ReuseStack::new(capacity_events))
                .collect(),
            event_clock: 0,
            fetch_clock: 0,
            fetches: 0,
            writebacks: 0,
            unit_expect: KeyTable::new(),
            run_marks: Fenwick::new(capacity_events),
            runs: 0,
            alloc_clock: 0,
            pos2: vec![0; SD_BUCKETS + 1],
            pos3p: vec![0; SD_BUCKETS + 1],
            pos3p_alloc: vec![0; SD_BUCKETS + 1],
            czone: CZONE_GRID.iter().map(|&b| CzoneState::new(b)).collect(),
        }
    }

    fn touch_reuse(&mut self, block: u64) {
        let now = self.event_clock;
        self.event_clock += 1;
        for (stack, &g) in self.reuse.iter_mut().zip(REUSE_GRANULARITIES.iter()) {
            stack.touch(block / g, now);
        }
    }

    /// A demand fetch of `block` (index at L1 block granularity) whose
    /// missing word has index `word`.
    pub fn fetch(&mut self, block: u64, word: u64) {
        self.touch_reuse(block);
        self.fetches += 1;
        let now = self.fetch_clock;
        self.fetch_clock += 1;

        // Unit-run continuation?
        match self.unit_expect.remove(block) {
            Some(run) => {
                let pos = run.pos + 1;
                let sd = self.run_marks.between(run.last, now) as u64;
                if pos == 2 {
                    self.pos2[(sd as usize).min(SD_BUCKETS)] += 1;
                    // Establishing: a unit-filtered system allocates a
                    // buffer on this fetch. Advance the clock *before*
                    // stamping the run so its own establishment does
                    // not count against its later continuations.
                    self.alloc_clock += 1;
                } else {
                    self.pos3p[(sd as usize).min(SD_BUCKETS)] += 1;
                    let da = self.alloc_clock - run.allocs;
                    self.pos3p_alloc[(da as usize).min(SD_BUCKETS)] += 1;
                }
                // Move the run's mark to this touch.
                self.run_marks.clear(run.last);
                self.run_marks.set(now);
                self.unit_expect.insert(
                    block + 1,
                    Run {
                        pos,
                        allocs: self.alloc_clock,
                        last: now,
                    },
                );
            }
            None => {
                // A fresh unit run; in a filtered system this fetch
                // falls through the unit filter to the czone filters.
                self.runs += 1;
                self.run_marks.set(now);
                self.unit_expect.insert(
                    block + 1,
                    Run {
                        pos: 1,
                        allocs: self.alloc_clock,
                        last: now,
                    },
                );
                self.czone_fetch(word);
            }
        }
    }

    /// Drives the czone sketches with a fetch that fell through the
    /// unit filter.
    fn czone_fetch(&mut self, word: u64) {
        for cz in &mut self.czone {
            // This czone size's allocation clock: unit establishments
            // plus its own trainings, since both allocate a buffer.
            let clock = self.alloc_clock + cz.trained;
            // A trained strided run continuing at its expected word
            // hits the stream — it never reaches the filters.
            if let Some((stride, prev)) = cz.expect.remove(word) {
                let da = clock - prev;
                cz.cont[(da as usize).min(SD_BUCKETS)] += 1;
                if da < STALE_SD {
                    if let Some(next) = word.checked_add_signed(stride) {
                        cz.expect.insert(next, (stride, clock));
                    }
                }
                continue;
            }
            if let Some(stride) = cz.fsm(word) {
                cz.trained += 1;
                if let Some(next) = word.checked_add_signed(stride) {
                    cz.expect
                        .insert(next, (stride, self.alloc_clock + cz.trained));
                }
            }
        }
    }

    /// A dirty block written back (index at L1 block granularity).
    pub fn writeback(&mut self, block: u64) {
        self.touch_reuse(block);
        self.writebacks += 1;
    }

    /// Finalizes the profile.
    pub fn finish(self) -> LocalityProfile {
        LocalityProfile {
            l1_block_bytes: self.l1_block_bytes,
            word_bytes: self.word_bytes,
            events: self.event_clock as u64,
            fetches: self.fetches,
            writebacks: self.writebacks,
            l1_refs: 0,
            l1_misses: 0,
            reuse: self.reuse.into_iter().map(|s| s.hist).collect(),
            streams: StreamProfile {
                fetches: self.fetches,
                runs: self.runs,
                pos2: self.pos2,
                pos3p: self.pos3p,
                pos3p_alloc: self.pos3p_alloc,
                czone: self
                    .czone
                    .into_iter()
                    .map(|cz| CzoneSketch {
                        czone_bits: cz.czone_bits,
                        trained: cz.trained,
                        cont: cz.cont,
                    })
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(events: &[(bool, u64)]) -> LocalityProfile {
        // (is_fetch, block index); word = block * 8 (32-byte blocks,
        // 4-byte words).
        let mut b = ProfileBuilder::new(32, 4, events.len());
        for &(is_fetch, block) in events {
            if is_fetch {
                b.fetch(block, block * 8);
            } else {
                b.writeback(block);
            }
        }
        b.finish()
    }

    #[test]
    fn reuse_distances_are_mattson() {
        // Blocks: A B C A  → A's re-touch sees 2 distinct blocks.
        let p = build(&[(true, 1), (true, 2), (true, 3), (true, 1)]);
        assert_eq!(p.reuse[0].cold(), 3);
        assert_eq!(p.reuse[0].total(), 1);
        assert_eq!(p.reuse[0].count_below(3), 1.0);
        assert_eq!(p.reuse[0].count_below(2), 0.0);
        assert_eq!(p.events, 4);
        assert_eq!(p.fetches, 4);
    }

    #[test]
    fn writebacks_join_the_reuse_stream_but_not_runs() {
        let p = build(&[(true, 1), (false, 1), (true, 2)]);
        assert_eq!(p.events, 3);
        assert_eq!(p.fetches, 2);
        assert_eq!(p.writebacks, 1);
        // The write-back re-touched block 1 at distance 0.
        assert_eq!(p.reuse[0].count_below(1), 1.0);
        // Fetch of block 2 continues the run started by fetch of 1
        // (the write-back does not interrupt the fetch stream).
        assert_eq!(p.streams.pos2_total(), 1);
    }

    #[test]
    fn coarser_granularities_merge_blocks() {
        // Blocks 0 and 1 share a 2x block; distance at 2x is a
        // re-touch, at 1x a cold pair.
        let p = build(&[(true, 0), (true, 1)]);
        assert_eq!(p.reuse[0].cold(), 2);
        assert_eq!(p.reuse[1].cold(), 1);
        assert_eq!(p.reuse[1].count_below(1), 1.0, "distance 0 at 2x");
    }

    #[test]
    fn sequential_fetches_form_one_run() {
        let p = build(&[(true, 10), (true, 11), (true, 12), (true, 13)]);
        assert_eq!(p.streams.runs, 1);
        assert_eq!(p.streams.pos2_total(), 1);
        assert_eq!(p.streams.pos3p_total(), 2);
        // All continuations at stack distance 0: one stream suffices.
        assert_eq!(p.streams.pos2_below(1), 1);
        assert_eq!(p.streams.pos3p_below(1), 2);
        assert_eq!(p.streams.pos3p_alloc_below(1), 2);
    }

    #[test]
    fn interleaved_runs_have_stack_distance_one() {
        // Two interleaved sequential streams: A10 B20 A11 B21 A12 B22.
        let p = build(&[
            (true, 10),
            (true, 20),
            (true, 11),
            (true, 21),
            (true, 12),
            (true, 22),
        ]);
        assert_eq!(p.streams.runs, 2);
        assert_eq!(p.streams.pos2_total() + p.streams.pos3p_total(), 4);
        // Every continuation saw exactly one other run in between.
        assert_eq!(p.streams.pos2_below(2) + p.streams.pos3p_below(2), 4);
        assert_eq!(p.streams.pos2_below(1) + p.streams.pos3p_below(1), 0);
    }

    #[test]
    fn isolated_fetches_do_not_pressure_the_allocation_clock() {
        // Run A advances while isolated blocks intervene: the all-runs
        // distance grows, the allocation distance stays 0 (isolated
        // misses never allocate past a unit filter, so run A's buffer
        // is untouched).
        let p = build(&[
            (true, 10),
            (true, 11), // pos2: establishes run A
            (true, 500),
            (true, 700),
            (true, 12), // pos3: all-sd 2, alloc-d 0
        ]);
        assert_eq!(p.streams.pos3p_below(1), 0);
        assert_eq!(p.streams.pos3p_below(3), 1);
        assert_eq!(p.streams.pos3p_alloc_below(1), 1);
    }

    #[test]
    fn interrupted_runs_survive_when_nothing_allocates() {
        // Run A establishes, then a long burst of isolated fetches
        // intervenes before A continues. Under allocate-on-miss the
        // buffer is long evicted (all-runs distance overflows); under a
        // unit filter nothing allocated, so A still hits.
        let mut events = vec![(true, 10u64), (true, 11)];
        for i in 0..100u64 {
            events.push((true, 1000 + i * 50));
        }
        events.push((true, 12));
        let p = build(&events);
        assert_eq!(p.streams.pos3p_total(), 1);
        assert_eq!(p.streams.pos3p_below(SD_BUCKETS), 0, "touched overflow");
        assert_eq!(p.streams.pos3p_alloc_below(1), 1, "no allocations between");
    }

    #[test]
    fn establishments_advance_the_allocation_clock() {
        // Run A establishes, run B establishes in between, A continues:
        // allocation distance 1 (B's establishment), so A hits with two
        // buffers but not one.
        let p = build(&[
            (true, 10),
            (true, 11), // A pos2
            (true, 20),
            (true, 21), // B pos2
            (true, 12), // A pos3: alloc-d 1
        ]);
        assert_eq!(p.streams.pos3p_alloc_below(1), 0);
        assert_eq!(p.streams.pos3p_alloc_below(2), 1);
    }

    #[test]
    fn czone_sketch_trains_strided_runs() {
        // Stride of 16 blocks = 128 words: a 12-bit czone keeps the run
        // in one partition; an 8-bit czone (256-word partitions) also
        // does (128 < 256)... use a large stride to split them.
        // Stride 512 words: partitions of 2^8=256 words miss it,
        // 2^12=4096 words catch it. Words 0..3584 stay inside one
        // 12-bit partition so training needs exactly three misses.
        let blocks: Vec<(bool, u64)> = (0..8u64).map(|i| (true, i * 64)).collect();
        let p = build(&blocks); // word stride = 64 * 8 = 512
        let s8 = p.streams.nearest_czone(8);
        let s12 = p.streams.nearest_czone(12);
        assert_eq!(s8.trained, 0, "8-bit czone cannot see a 512-word stride");
        assert!(s12.trained >= 1, "12-bit czone trains the run");
        // After training on fetches 1,2,3 the remaining 5 fetches are
        // continuations at distance 0.
        assert_eq!(s12.cont_below(1), 5);
    }

    #[test]
    fn nearest_czone_snaps_to_grid() {
        let p = build(&[(true, 0)]);
        assert_eq!(p.streams.nearest_czone(0).czone_bits, 8);
        assert_eq!(p.streams.nearest_czone(11).czone_bits, 10);
        assert_eq!(p.streams.nearest_czone(13).czone_bits, 12);
        assert_eq!(p.streams.nearest_czone(60).czone_bits, 24);
    }

    #[test]
    fn reuse_at_picks_nearest_granularity() {
        let p = build(&[(true, 0)]);
        assert!(std::ptr::eq(p.reuse_at(32), &p.reuse[0]));
        assert!(std::ptr::eq(p.reuse_at(64), &p.reuse[1]));
        assert!(std::ptr::eq(p.reuse_at(128), &p.reuse[2]));
        assert!(std::ptr::eq(p.reuse_at(4096), &p.reuse[2]));
        assert!(std::ptr::eq(p.reuse_at(8), &p.reuse[0]));
    }

    #[test]
    fn profiles_are_deterministic() {
        let events: Vec<(bool, u64)> = (0..500u64)
            .map(|i| {
                let block = (i * 2654435761) % 97;
                (i % 7 != 0, block)
            })
            .collect();
        let a = build(&events);
        let b = build(&events);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn l1_miss_rate_uses_recorded_counts() {
        let mut p = build(&[(true, 1)]);
        assert_eq!(p.l1_miss_rate(), 0.0);
        p.l1_refs = 200;
        p.l1_misses = 30;
        assert!((p.l1_miss_rate() - 0.15).abs() < 1e-12);
    }
}
