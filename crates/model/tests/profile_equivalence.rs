//! The production [`ProfileBuilder`] against the frozen `BTreeMap`
//! reference ([`streamsim_model::reference`]): equal profiles, field for
//! field, on random event streams. The same check on the fifteen
//! quick-scale paper kernels is in the workspace's
//! `tests/model_validation.rs`.

use streamsim_model::reference::ReferenceProfileBuilder;
use streamsim_model::{LocalityProfile, ProfileBuilder};
use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

/// One event: a fetch of (block, word) or a write-back of a block.
#[derive(Clone, Copy, Debug)]
enum Event {
    Fetch(u64, u64),
    Writeback(u64),
}

/// A stream mixing what the profile tracks: interleaved unit-stride
/// runs, constant-stride word sequences (for the czone sketches),
/// scattered blocks, repeats, and write-backs. Words sit inside their
/// block (32-byte blocks, 4-byte words: 8 words per block).
fn events(g: &mut Gen) -> Vec<Event> {
    let mut cursors: Vec<(u64, i64)> = g.vec(1usize..6, |g| {
        let stride = g.pick(&[8i64, 8, 24, 256, 1024, 5000, -8, -640]);
        (g.gen_range(1u64 << 12..1 << 24), stride)
    });
    g.vec(0usize..4000, |g| match g.gen_range(0u32..10) {
        0 => Event::Writeback(g.gen_range(0u64..1 << 16)),
        1 => {
            let block = g.gen_range(0u64..1 << 16);
            Event::Fetch(block, block * 8 + g.gen_range(0u64..8))
        }
        _ => {
            let i = g.gen_range(0..cursors.len());
            let (word, stride) = cursors[i];
            cursors[i].0 = word.wrapping_add_signed(stride);
            Event::Fetch(word / 8, word)
        }
    })
}

fn both(events: &[Event]) -> (LocalityProfile, LocalityProfile) {
    let mut fast = ProfileBuilder::new(32, 4, events.len());
    let mut reference = ReferenceProfileBuilder::new(32, 4, events.len());
    for &event in events {
        match event {
            Event::Fetch(block, word) => {
                fast.fetch(block, word);
                reference.fetch(block, word);
            }
            Event::Writeback(block) => {
                fast.writeback(block);
                reference.writeback(block);
            }
        }
    }
    (fast.finish(), reference.finish())
}

#[test]
fn profiles_equal_the_btreemap_reference() {
    check_with("profiles_equal_the_btreemap_reference", 48, |g| {
        let events = events(g);
        let (fast, reference) = both(&events);
        assert_eq!(fast, reference);
    });
}

/// The random streams exercise every map: they train strided runs in
/// some czone sketch, continue unit runs and re-touch blocks, so the
/// property above cannot pass on profiles that are empty where it
/// matters.
#[test]
fn random_streams_reach_every_profile_feature() {
    let mut g = Gen::from_seed(0x5eed_0f11e);
    let mut trained = false;
    let mut continued = false;
    let mut reused = false;
    for _ in 0..16 {
        let (profile, _) = both(&events(&mut g));
        trained |= profile.streams.czone.iter().any(|s| s.trained > 0);
        continued |= profile.streams.pos3p_total() > 0;
        reused |= profile.reuse[0].total() > 0;
    }
    assert!(trained && continued && reused);
}
