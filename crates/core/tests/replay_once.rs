//! A quick report simulates each (trace, cell) pair once.
//!
//! Drivers share one [`streamsim_core::TraceStore`] through their
//! options, and every replay goes through its memo. This binary owns
//! its process (integration tests build one binary each), so it can
//! enable the global counters without coordinating with other tests.

use streamsim_core::experiments::{default_artifacts, run_artifact, ExperimentOptions};
use streamsim_obs::{self as obs, Counter};

#[test]
fn a_quick_report_simulates_each_trace_cell_pair_once() {
    obs::set_level(obs::Level::Info);
    obs::reset();
    let options = ExperimentOptions::quick();
    let artifacts = default_artifacts();
    let scorecard = artifacts
        .iter()
        .position(|&a| a == "scorecard")
        .expect("scorecard is a default artifact");
    assert_eq!(scorecard, 13, "thirteen default artifacts run before it");

    for &name in &artifacts[..scorecard] {
        run_artifact(name, &options).expect("known artifact");
    }
    let simulated = options.store.cells_simulated();
    let served = options.store.cells_served();
    let passes = obs::counter(Counter::ReplayMissEvents);
    run_artifact("scorecard", &options).expect("known artifact");
    assert_eq!(
        options.store.cells_simulated(),
        simulated,
        "the scorecard re-asks only for cells earlier artifacts replayed"
    );
    assert!(options.store.cells_served() > served);
    assert_eq!(
        obs::counter(Counter::ReplayMissEvents),
        passes,
        "the scorecard makes no replay pass at all"
    );

    for &name in &artifacts[scorecard + 1..] {
        run_artifact(name, &options).expect("known artifact");
    }
    let simulated = options.store.cells_simulated();
    assert!(simulated > 0);
    assert_eq!(obs::counter(Counter::ReplayCellsSimulated), simulated);
    assert_eq!(
        obs::counter(Counter::ReplayCellsServed),
        options.store.cells_served()
    );

    // Every pair the report replayed was kept: asking again for the
    // cells of every artifact whose replay goes wholly through the
    // store simulates nothing and walks no trace.
    let passes = obs::counter(Counter::ReplayMissEvents);
    for name in [
        "table2",
        "table3",
        "table4",
        "fig3",
        "fig5",
        "fig8",
        "fig9",
        "baselines",
        "latency",
        "multiprogramming",
        "scorecard",
    ] {
        run_artifact(name, &options).expect("known artifact");
    }
    assert_eq!(options.store.cells_simulated(), simulated);
    assert_eq!(obs::counter(Counter::ReplayMissEvents), passes);
    obs::set_level(obs::Level::Off);
    obs::reset();
}
