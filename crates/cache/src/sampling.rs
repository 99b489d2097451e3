//! Set sampling of large caches.
//!
//! The paper cites Kessler, Hill & Wood's trace-sampling work and uses *set
//! sampling* to determine secondary-cache hit rates (Table 4): only the
//! references mapping to a chosen subset of sets are simulated, and the hit
//! rate over that subset estimates the whole-cache hit rate at a fraction of
//! the simulation cost.
//!
//! [`SetSampling`] selects every set whose low `log2_fraction` index bits
//! equal `matcher`; a cache constructed with it simulates `1/2^log2_fraction`
//! of its sets while keeping *tags identical to the full cache* — only the
//! simulated rows shrink.

use std::fmt;

/// A set-sampling selection: simulate the sets whose low `log2_fraction`
/// index bits equal `matcher`.
///
/// # Example
///
/// ```
/// use streamsim_cache::SetSampling;
///
/// // Simulate 1/8 of the sets (those with index ≡ 3 mod 8).
/// let s = SetSampling::new(3, 3);
/// assert!(s.selects(3));
/// assert!(s.selects(11));
/// assert!(!s.selects(4));
/// assert_eq!(s.fraction(), 0.125);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetSampling {
    log2_fraction: u32,
    matcher: u64,
}

impl SetSampling {
    /// Creates a sampling of `1/2^log2_fraction` of the sets, keeping sets
    /// whose low index bits equal `matcher`.
    ///
    /// # Panics
    ///
    /// Panics if `matcher >= 2^log2_fraction` or `log2_fraction > 32`.
    pub fn new(log2_fraction: u32, matcher: u64) -> Self {
        assert!(log2_fraction <= 32, "sampling fraction too fine");
        assert!(
            matcher < (1u64 << log2_fraction),
            "matcher {matcher} out of range for 1/2^{log2_fraction} sampling"
        );
        SetSampling {
            log2_fraction,
            matcher,
        }
    }

    /// `log2` of the inverse sampling fraction.
    pub fn log2_fraction(self) -> u32 {
        self.log2_fraction
    }

    /// Which low-bit pattern of the set index is kept.
    pub fn matcher(self) -> u64 {
        self.matcher
    }

    /// The fraction of sets simulated, in `(0, 1]`.
    pub fn fraction(self) -> f64 {
        1.0 / (1u64 << self.log2_fraction) as f64
    }

    /// Whether a (full-cache) set index is in the sample.
    pub fn selects(self, set_index: u64) -> bool {
        set_index & ((1u64 << self.log2_fraction) - 1) == self.matcher
    }

    /// Maps a selected full-cache set index to its simulated row.
    pub fn row(self, set_index: u64) -> u64 {
        debug_assert!(self.selects(set_index));
        set_index >> self.log2_fraction
    }
}

impl fmt::Display for SetSampling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "1/{} of sets (index ≡ {} mod {})",
            1u64 << self.log2_fraction,
            self.matcher,
            1u64 << self.log2_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_matching_indices() {
        let s = SetSampling::new(2, 1);
        let selected: Vec<u64> = (0..12).filter(|&i| s.selects(i)).collect();
        assert_eq!(selected, [1, 5, 9]);
        assert_eq!(s.row(5), 1);
        assert_eq!(s.row(9), 2);
    }

    #[test]
    fn zero_fraction_selects_everything() {
        let s = SetSampling::new(0, 0);
        assert!((0..100).all(|i| s.selects(i)));
        assert_eq!(s.fraction(), 1.0);
        assert_eq!(s.row(42), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matcher_out_of_range_panics() {
        let _ = SetSampling::new(1, 2);
    }

    #[test]
    fn display() {
        let s = SetSampling::new(3, 5);
        assert_eq!(s.to_string(), "1/8 of sets (index ≡ 5 mod 8)");
    }
}
