//! Golden digests: every scenario's smoke-scale output, pinned as
//! constants.
//!
//! These pins are the behaviour spec. Any change to a scenario's
//! schedule, MAC routing, poll body, election, fault filtering or
//! digest fold moves a value here. The cluster scenarios carry their
//! own FNV-1a delivery digest; every other report is pinned through
//! the FNV-1a hash of its `Debug` text ([`assert_debug_pinned`]), so a
//! pin covers every field, not only a headline number. On a mismatch
//! the failing report is printed in full.
//!
//! Seeds are 42/7/9; parallel runners are checked at several worker
//! counts, all against the same pin. Each scenario also asserts a
//! non-vacuity guard, so a pin can never be satisfied by a run that
//! did nothing.

mod pins;

use pins::*;
use wile_radio::time::Duration;
use wile_scenarios::assoc::{run_assoc_fleet, AssocConfig};
use wile_scenarios::campaign::{run_campaigns, AdaptMode, CampaignConfig};
use wile_scenarios::chaos::{run_chaos, ChaosConfig};
use wile_scenarios::metro::{run_metro, MetroConfig};
use wile_scenarios::mixed::{run_mixed, MixedConfig};
use wile_scenarios::session::{run_session_kernel, SessionConfig};
use wile_sim::fleet::{run_fleet, FleetConfig};

#[test]
fn metro_smoke_digests_are_pinned() {
    for ((seed, want), report) in SEEDS.into_iter().zip(METRO).zip(METRO_REPORT) {
        for workers in WORKERS {
            let r = run_metro(&MetroConfig::smoke(seed), workers);
            let got = r.delivery_digest;
            assert_eq!(
                got, want,
                "metro seed {seed} workers {workers}: {got:#018x}"
            );
            assert!(r.stats.handoffs > 0 || seed != 42, "{:?}", r.stats);
            assert_debug_pinned(&format!("metro seed {seed} workers {workers}"), &r, report);
        }
    }
}

#[test]
fn chaos_smoke_digests_are_pinned() {
    for (seed, want) in SEEDS.into_iter().zip(CHAOS) {
        for workers in WORKERS {
            let got = run_chaos(&ChaosConfig::smoke(seed), workers)
                .metro
                .delivery_digest;
            assert_eq!(
                got, want,
                "chaos seed {seed} workers {workers}: {got:#018x}"
            );
        }
    }
}

#[test]
fn mixed_smoke_digests_are_pinned() {
    for ((seed, wile), ble) in SEEDS.into_iter().zip(MIXED_WILE).zip(MIXED_BLE) {
        for workers in WORKERS {
            let r = run_mixed(&MixedConfig::smoke(seed), workers);
            assert_eq!(
                r.delivery_digest, wile,
                "mixed Wi-LE seed {seed} workers {workers}: {:#018x}",
                r.delivery_digest
            );
            assert_eq!(
                r.ble_digest, ble,
                "mixed BLE seed {seed} workers {workers}: {:#018x}",
                r.ble_digest
            );
        }
    }
}

#[test]
#[ignore = "20k-device city grid; run in release with --include-ignored"]
fn e14_20k_digest_is_pinned() {
    let cfg = MetroConfig::metro_scaled(20_000, 42);
    for workers in WORKERS {
        let got = run_metro(&cfg, workers).delivery_digest;
        assert_eq!(got, E14_20K, "E14-20k workers {workers}: {got:#018x}");
    }
}

#[test]
fn fleet_smoke_reports_are_pinned() {
    for (seed, want) in SEEDS.into_iter().zip(FLEET) {
        let r = run_fleet(&FleetConfig::smoke(seed));
        assert!(r.beacons_sent > 0, "fleet seed {seed} sent nothing");
        assert_debug_pinned(&format!("fleet seed {seed}"), &r, want);
    }
}

#[test]
fn metro_oracle_reports_are_pinned() {
    for (seed, want) in SEEDS.into_iter().zip(METRO_ORACLE) {
        for workers in [1, 4, 8] {
            let r = run_metro(&MetroConfig::oracle(seed), workers);
            assert!(
                r.stats.delivered > 0,
                "metro oracle seed {seed} delivered nothing"
            );
            assert_debug_pinned(
                &format!("metro oracle seed {seed} workers {workers}"),
                &r,
                want,
            );
        }
    }
}

/// The two-way session the pins run: eight cycles, a receive window
/// every other beacon, four queued commands.
fn session_config(seed: u64) -> SessionConfig {
    SessionConfig {
        device_id: 9,
        seed,
        cycles: 8,
        window_every: 2,
        period: Duration::from_secs(10),
        commands: (0..4).map(|i| format!("cmd{i}").into_bytes()).collect(),
        gw_position_m: (2.0, 0.0),
    }
}

#[test]
fn session_outcomes_are_pinned() {
    for (seed, want) in SEEDS.into_iter().zip(SESSION) {
        let r = run_session_kernel(&session_config(seed));
        assert!(r.uplinks > 0, "session seed {seed} delivered nothing");
        assert_debug_pinned(&format!("session seed {seed}"), &r, want);
    }
}

#[test]
fn assoc_fleet_reports_are_pinned() {
    for (seed, want) in SEEDS.into_iter().zip(ASSOC) {
        let r = run_assoc_fleet(&AssocConfig::contended(seed));
        assert_eq!(r.connected, 6, "assoc seed {seed}: {r:?}");
        assert_debug_pinned(&format!("assoc seed {seed}"), &r, want);
    }
}

#[test]
fn campaign_reports_and_renderings_are_pinned() {
    for (name, mode, pins) in campaign_modes() {
        let cfgs: Vec<CampaignConfig> = SEEDS
            .iter()
            .map(|&seed| CampaignConfig::demo(seed, mode.clone()))
            .collect();
        for workers in WORKERS {
            for (r, [report, render]) in run_campaigns(&cfgs, workers).iter().zip(pins) {
                let what = format!("campaign {name} seed {} workers {workers}", r.seed);
                if matches!(mode, AdaptMode::Feedback { .. }) {
                    assert!(r.feedback_received > 0, "{what}: no feedback round");
                }
                assert_debug_pinned(&what, r, report);
                assert_text_pinned(&format!("{what} render"), &r.render(), render);
            }
        }
    }
}
