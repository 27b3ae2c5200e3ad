//! Differential checks for the MAC service layer (`wile-mac`).
//!
//! Every device-facing driver issues its traffic through MCPS/MLME
//! primitives. The fleet, metro, campaign and association runners are
//! held to the output of their pre-SAP direct runners, frozen as the
//! pins in `tests/pins` when those runners were retired: full reports
//! and rendered text through their FNV-1a hashes, across seeds and
//! worker counts. Two independent references remain live. The
//! kernel-driven two-way session must reproduce the synchronous
//! `wile::session::run_session` loop exactly, and the gateway face must
//! lift every drained delivery into one MCPS-DATA.indication. The
//! service layer observes and routes; it must never steer.

mod pins;

use pins::*;
use wile_radio::time::Duration;
use wile_scenarios::assoc::{run_assoc_fleet, AssocConfig};
use wile_scenarios::campaign::{run_campaigns, AdaptMode, CampaignConfig};
use wile_scenarios::metro::{run_metro, MetroConfig};
use wile_scenarios::session::{run_session_kernel, SessionConfig};
use wile_sim::fleet::{run_fleet, FleetConfig};
use wile_sim::ingest::GatewayIngest;

#[test]
fn sap_fleet_matches_direct_across_seeds() {
    for (seed, direct) in SEEDS.into_iter().zip(FLEET) {
        let sap = run_fleet(&FleetConfig::smoke(seed));
        assert!(sap.beacons_sent > 0);
        assert_debug_pinned(&format!("fleet seed {seed}"), &sap, direct);
    }
}

#[test]
fn sap_metro_matches_direct_multi_gateway() {
    // Multi-gateway smoke world: dedup, handoffs, and bounded lanes all
    // active.
    for ((seed, digest), direct) in SEEDS.into_iter().zip(METRO).zip(METRO_REPORT) {
        let sap = run_metro(&MetroConfig::smoke(seed), 8);
        assert!(sap.stats.handoffs > 0 || seed != 42, "{:?}", sap.stats);
        assert_eq!(sap.delivery_digest, digest, "seed {seed}");
        assert_debug_pinned(&format!("metro seed {seed}"), &sap, direct);
    }
}

#[test]
fn sap_campaign_matches_reference_across_seeds_and_workers() {
    // The kernel campaign issues every uplink, repeat copy, and
    // feedback listen through the SAP; the reference drove the raw
    // injector. Feedback mode exercises MCPS-DATA with an rx window
    // plus MLME-WAKE.
    let mode = AdaptMode::Feedback {
        cfg: Default::default(),
        every: 2,
    };
    let cfgs: Vec<CampaignConfig> = SEEDS
        .iter()
        .map(|&seed| CampaignConfig::demo(seed, mode.clone()))
        .collect();
    for workers in [1, 4, 8] {
        let sap = run_campaigns(&cfgs, workers);
        for (got, [report, render]) in sap.iter().zip(CAMPAIGN_FEEDBACK_DEFAULT) {
            let what = format!("campaign seed {} workers {workers}", got.seed);
            assert!(got.feedback_received > 0, "{what}: no feedback round");
            assert_debug_pinned(&what, got, report);
            assert_text_pinned(&format!("{what} render"), &got.render(), render);
        }
    }
}

#[test]
fn sap_session_matches_synchronous_runner_across_seeds() {
    use wile::inject::Injector;
    use wile::registry::DeviceIdentity;
    use wile::session::CommandQueue;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_radio::time::Instant;

    for seed in SEEDS {
        let cfg = SessionConfig {
            device_id: 9,
            seed,
            cycles: 8,
            window_every: 2,
            period: Duration::from_secs(10),
            commands: (0..4).map(|i| format!("cmd{i}").into_bytes()).collect(),
            gw_position_m: (2.0, 0.0),
        };
        // The synchronous pre-kernel session loop, world matched.
        let mut medium = Medium::new(Default::default(), cfg.seed);
        let dev = medium.attach(RadioConfig::default());
        let gw = medium.attach(RadioConfig {
            position_m: cfg.gw_position_m,
            ..Default::default()
        });
        let mut inj = Injector::new(DeviceIdentity::new(cfg.device_id), Instant::ZERO);
        let mut queue = CommandQueue::new();
        for body in &cfg.commands {
            queue.push(cfg.device_id, body);
        }
        let want = wile::session::run_session(
            &mut medium,
            dev,
            gw,
            &mut inj,
            &mut queue,
            cfg.cycles,
            cfg.window_every,
            cfg.period,
        );
        assert_eq!(
            run_session_kernel(&cfg),
            want,
            "session diverged at seed {seed}"
        );
    }
}

#[test]
fn sap_assoc_matches_direct_across_seeds() {
    for (seed, direct) in SEEDS.into_iter().zip(ASSOC) {
        let sap = run_assoc_fleet(&AssocConfig::contended(seed));
        assert_eq!(sap.connected, 6, "{sap:?}");
        assert_debug_pinned(&format!("assoc seed {seed}"), &sap, direct);
    }
}

#[test]
fn gateway_indications_preserve_drain_counts() {
    // The gateway-side face: drain_indications lifts every delivery
    // into an MCPS-DATA.indication without filtering or duplication.
    use wile::inject::Injector;
    use wile::monitor::Gateway;
    use wile::registry::DeviceIdentity;
    use wile_mac::MacProtocol;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_radio::time::Instant;

    let mut medium = Medium::new(Default::default(), 11);
    let gw_radio = medium.attach(RadioConfig::default());
    let dev_radio = medium.attach(RadioConfig {
        position_m: (2.0, 0.0),
        ..Default::default()
    });
    let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
    for _ in 0..3 {
        inj.inject(&mut medium, dev_radio, b"reading");
    }
    let mut ingest = GatewayIngest::new(gw_radio, Gateway::new());
    let got = ingest.drain_indications(&mut medium, None, Instant::from_secs(30));
    assert_eq!(got.len(), 3);
    for ind in &got {
        assert_eq!(ind.protocol, MacProtocol::Wile);
        assert_eq!(ind.device_id, 5);
        assert_eq!(ind.payload, b"reading");
    }
    let seqs: Vec<u16> = got.iter().map(|i| i.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2]);
}
