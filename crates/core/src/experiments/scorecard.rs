//! Reproduction scorecard — machine-checked paper-vs-measured verdicts.
//!
//! EXPERIMENTS.md narrates how close each result lands; this driver makes
//! the comparison executable. For every benchmark and headline metric it
//! computes the measured value, compares against the paper's reported
//! value, and grades the cell:
//!
//! * **match** — within the tight tolerance (hit rates ±10 points, EB
//!   ±25 points; paper figure values are themselves only accurate to a
//!   few points);
//! * **close** — within twice the tolerance;
//! * **off** — beyond that (listed explicitly so deviations cannot hide).
//!
//! The aggregate counts at the bottom are the reproduction's one-line
//! summary.

use std::fmt;

use streamsim_streams::StreamConfig;

use crate::experiments::{fig9, miss_traces, table4, ExperimentOptions};
use crate::paper;
use crate::sink::{col, Artifact, ArtifactSink, Cell as SinkCell};

/// Tolerance for hit-rate comparisons, in percentage points.
pub const HIT_TOLERANCE: f64 = 10.0;
/// Tolerance for extra-bandwidth comparisons, in percentage points.
pub const EB_TOLERANCE: f64 = 25.0;

/// Verdict for one (benchmark, metric) cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Match,
    /// Within twice the tolerance.
    Close,
    /// Beyond twice the tolerance.
    Off,
}

impl Verdict {
    fn grade(measured: f64, reported: f64, tolerance: f64) -> Verdict {
        let delta = (measured - reported).abs();
        if delta <= tolerance {
            Verdict::Match
        } else if delta <= 2.0 * tolerance {
            Verdict::Close
        } else {
            Verdict::Off
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Match => f.write_str("match"),
            Verdict::Close => f.write_str("close"),
            Verdict::Off => f.write_str("OFF"),
        }
    }
}

/// One graded cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Benchmark name.
    pub bench: String,
    /// Metric name.
    pub metric: &'static str,
    /// Measured value (percent).
    pub measured: f64,
    /// Paper value (percent).
    pub reported: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A structural claim of the paper, checked as a boolean.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What the paper asserts.
    pub claim: &'static str,
    /// Whether the reproduction exhibits it.
    pub holds: bool,
}

/// Results of the scorecard.
#[derive(Clone, Debug)]
pub struct Scorecard {
    /// All graded cells.
    pub cells: Vec<Cell>,
    /// The paper's structural claims, checked.
    pub claims: Vec<Claim>,
}

impl Scorecard {
    /// Counts of (match, close, off).
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for c in &self.cells {
            match c.verdict {
                Verdict::Match => t.0 += 1,
                Verdict::Close => t.1 += 1,
                Verdict::Off => t.2 += 1,
            }
        }
        t
    }

    /// Fraction of cells graded `match` or `close`.
    pub fn agreement(&self) -> f64 {
        let (m, c, _) = self.tally();
        (m + c) as f64 / self.cells.len().max(1) as f64
    }
}

/// Runs the scorecard: four metrics per benchmark against the paper.
///
/// The three stream configurations share one replay pass per benchmark,
/// and the nested Figure 9 / Table 4 runs reuse the same [`TraceStore`]
/// as this driver (via the shared options), so no L1 is simulated twice.
///
/// [`TraceStore`]: crate::TraceStore
pub fn run(options: &ExperimentOptions) -> Scorecard {
    let configs = [
        StreamConfig::paper_basic(10).expect("valid"),
        StreamConfig::paper_filtered(10).expect("valid"),
        StreamConfig::paper_strided(10, 16).expect("valid"),
    ];
    let mut cells = Vec::new();
    for (name, trace) in miss_traces(options) {
        let Some(p) = paper::benchmark(&name) else {
            continue;
        };
        let mut stats = options.replay_streams(&trace, &configs).into_iter();
        let basic = stats.next().expect("three configs");
        let filtered = stats.next().expect("three configs");
        let strided = stats.next().expect("three configs");

        let mut grade = |metric, measured: f64, reported: f64, tol| {
            cells.push(Cell {
                bench: name.clone(),
                metric,
                measured,
                reported,
                verdict: Verdict::grade(measured, reported, tol),
            });
        };
        grade(
            "hit (10 streams)",
            basic.hit_rate() * 100.0,
            p.hit_basic_pct,
            HIT_TOLERANCE,
        );
        grade(
            "hit (filtered)",
            filtered.hit_rate() * 100.0,
            p.hit_filtered_pct,
            HIT_TOLERANCE,
        );
        grade(
            "hit (strided)",
            strided.hit_rate() * 100.0,
            p.hit_strided_pct,
            HIT_TOLERANCE,
        );
        grade(
            "EB (no filter)",
            basic.extra_bandwidth() * 100.0,
            p.eb_basic_pct,
            EB_TOLERANCE,
        );
    }

    // Structural claims: the Figure 9 window and the Table 4 scaling.
    let mut claims = Vec::new();
    let f9 = fig9::run(options);
    if let Some(fftpde) = f9.row("fftpde") {
        let inside = fftpde.hit_at(18).unwrap_or(0.0);
        let below = fftpde.hit_at(10).unwrap_or(1.0);
        let above = fftpde.hit_at(26).unwrap_or(1.0);
        claims.push(Claim {
            claim: "fftpde czone detection works in a bounded window (Fig 9)",
            holds: inside > below + 0.1 && inside > above + 0.1,
        });
    }
    let t4 = table4::run(options);
    let mut grows = 0;
    let mut pairs = 0;
    for (name, _, _) in crate::experiments::table4_pairs(options.scale) {
        if name == "cgm" {
            continue; // the anomaly, checked separately
        }
        if let Some((small, large)) = t4.pair(name) {
            pairs += 1;
            let s = small.min_l2_bytes.unwrap_or(u64::MAX);
            let l = large.min_l2_bytes.unwrap_or(u64::MAX);
            if l >= s {
                grows += 1;
            }
        }
    }
    claims.push(Claim {
        claim: "equivalent L2 grows with the data set for regular codes (Table 4)",
        holds: pairs > 0 && grows == pairs,
    });
    if let Some((cgm_small, cgm_large)) = t4.pair("cgm") {
        claims.push(Claim {
            claim: "the cgm anomaly: larger input, lower stream hit rate (Table 4)",
            holds: cgm_large.stream_hit < cgm_small.stream_hit,
        });
    }

    Scorecard { cells, claims }
}

impl Artifact for Scorecard {
    fn artifact(&self) -> &'static str {
        "scorecard"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "verdicts",
            &format!(
                "Reproduction scorecard (hit ±{HIT_TOLERANCE} pts = match, EB ±{EB_TOLERANCE} pts)"
            ),
            &[
                col("bench", "bench"),
                col("metric", "metric"),
                col("measured", "measured"),
                col("paper", "reported"),
                col("verdict", "verdict"),
            ],
        );
        for c in &self.cells {
            sink.row(&[
                SinkCell::text(c.bench.clone()),
                SinkCell::text(c.metric),
                SinkCell::num(c.measured, format!("{:.0}", c.measured)),
                SinkCell::num(c.reported, format!("{:.0}", c.reported)),
                SinkCell::text(c.verdict.to_string()),
            ]);
        }
        sink.begin_table(
            self.artifact(),
            "claims",
            "structural claims:",
            &[col("verdict", "holds"), col("claim", "claim")],
        );
        for c in &self.claims {
            sink.row(&[
                SinkCell::text(if c.holds { "[HOLDS]" } else { "[FAILS]" }),
                SinkCell::text(c.claim),
            ]);
        }
        let (m, close, off) = self.tally();
        sink.note(&format!(
            "tally: {m} match, {close} close, {off} off ({:.0}% agreement)",
            self.agreement() * 100.0
        ));
    }
}

impl fmt::Display for Scorecard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grading_boundaries() {
        assert_eq!(Verdict::grade(50.0, 55.0, 10.0), Verdict::Match);
        assert_eq!(Verdict::grade(50.0, 65.0, 10.0), Verdict::Close);
        assert_eq!(Verdict::grade(50.0, 75.0, 10.0), Verdict::Off);
    }

    #[test]
    fn quick_scorecard_covers_all_benchmarks() {
        let card = run(&ExperimentOptions::quick());
        assert_eq!(card.cells.len(), 15 * 4);
        let (m, c, o) = card.tally();
        assert_eq!(m + c + o, card.cells.len());
        // The quick-scale runs deviate more than paper scale, but the
        // broad agreement must hold even there.
        assert!(
            card.agreement() > 0.5,
            "agreement {:.2} too low",
            card.agreement()
        );
    }

    #[test]
    fn display_includes_the_tally() {
        let card = run(&ExperimentOptions::quick());
        let text = card.to_string();
        assert!(text.contains("tally:"), "{text}");
        assert!(text.contains("agreement"), "{text}");
        assert!(text.contains("structural claims:"), "{text}");
    }

    #[test]
    fn structural_claims_hold_at_quick_scale() {
        let card = run(&ExperimentOptions::quick());
        assert!(!card.claims.is_empty());
        for c in &card.claims {
            assert!(c.holds, "claim failed: {}", c.claim);
        }
    }
}
