//! Differential acceptance tests for the `wile-sim` campaign port: the
//! actor-kernel runner must reproduce the pre-refactor event loop
//! byte-for-byte — equal [`CampaignReport`] Debug text *and* equal
//! rendered text — across seeds, adapt modes, and worker counts. That
//! loop's output is frozen as the campaign pins in `tests/pins`. The
//! kernel splits the synchronous two-way feedback round into three
//! same-instant events, so this is the proof that the split preserves
//! the exact medium transmit/drain/listen sequence.
//!
//! [`CampaignReport`]: wile_scenarios::campaign::CampaignReport

mod pins;

use pins::*;
use wile_scenarios::campaign::{run_campaign, run_campaigns, AdaptMode, CampaignConfig};

/// The static single-copy and tight-budget feedback modes, with their
/// pins.
fn modes() -> Vec<(&'static str, AdaptMode, [[u64; 2]; 3])> {
    campaign_modes()
        .into_iter()
        .filter(|(name, ..)| *name != "feedback/default")
        .collect()
}

#[test]
fn kernel_campaign_matches_reference_across_seeds_and_modes() {
    for (name, mode, pins) in modes() {
        for (seed, [report, render]) in SEEDS.into_iter().zip(pins) {
            let kernel = run_campaign(&CampaignConfig::demo(seed, mode.clone()));
            let what = format!("campaign {name} seed {seed}");
            assert_debug_pinned(&what, &kernel, report);
            assert_text_pinned(&format!("{what} render"), &kernel.render(), render);
        }
    }
}

#[test]
fn kernel_campaign_matches_reference_under_parallel_engine() {
    for (name, mode, pins) in modes() {
        let cfgs: Vec<CampaignConfig> = SEEDS
            .iter()
            .map(|&seed| CampaignConfig::demo(seed, mode.clone()))
            .collect();
        for workers in [1usize, 2, 8] {
            for (kernel, [report, _]) in run_campaigns(&cfgs, workers).iter().zip(pins) {
                let what = format!("campaign {name} seed {} workers {workers}", kernel.seed);
                assert_debug_pinned(&what, kernel, report);
            }
        }
    }
}

#[test]
fn feedback_exchange_actually_happens_in_both_runners() {
    // Guard against vacuous equality: the feedback arm must really
    // exercise the three-event two-way split, in the serial runner and
    // in the parallel engine alike.
    let (_, mode, _) = modes()
        .into_iter()
        .find(|(name, ..)| *name == "feedback")
        .expect("feedback mode");
    let cfg = CampaignConfig::demo(42, mode);
    let serial = run_campaign(&cfg);
    let parallel = run_campaigns(std::slice::from_ref(&cfg), 2).remove(0);
    assert!(serial.feedback_received > 0, "{serial:?}");
    assert_eq!(serial.feedback_received, parallel.feedback_received);
}
