//! The pinned scenario outputs shared by the golden and differential
//! suites (`golden.rs`, `sap_diff.rs`, `sim_diff.rs`).
//!
//! Every value was taken while the pre-SAP direct runners and the
//! campaign's reference loop still existed and matched the kernel
//! runners byte for byte, so a pin is also the frozen output of that
//! retired reference. Each suite uses a subset.

#![allow(dead_code)]

use std::fmt::Debug;
use wile::reliability::{AdaptiveConfig, EnergyBudget, RepeatPolicy};
use wile_radio::time::Duration;
use wile_scenarios::campaign::AdaptMode;

pub const SEEDS: [u64; 3] = [42, 7, 9];
pub const WORKERS: [usize; 2] = [1, 4];

/// `run_metro(&MetroConfig::smoke(seed), _).delivery_digest`.
pub const METRO: [u64; 3] = [0x24503dea160f2b6e, 0x7b7e2c70e2f21089, 0x244b599fa6ca7dc9];
/// `run_chaos(&ChaosConfig::smoke(seed), _).metro.delivery_digest`.
pub const CHAOS: [u64; 3] = [0x496da1623506b5bc, 0x632b85e0f4834ca7, 0x63d13872f13c6218];
/// FNV-1a of the telemetry report text of
/// `run_metro_with(&MetroConfig::smoke(seed), _, Telemetry::new(), None)`.
pub const METRO_TELEMETRY: [u64; 3] = [0x711822a2b4fe7d62, 0xcc48441ac60d14d8, 0x17da37cf876c3f25];
/// FNV-1a of the telemetry report text of
/// `run_chaos_with(&ChaosConfig::smoke(seed), _, Telemetry::new(), None)`.
pub const CHAOS_TELEMETRY: [u64; 3] = [0x68eeee6833850b31, 0x108e388bad5a2b41, 0x6150a4affd054b71];
/// `run_mixed(&MixedConfig::smoke(seed), _).delivery_digest`.
pub const MIXED_WILE: [u64; 3] = [0x562fc44edb460bb4, 0x42df660814710efb, 0x739d4767e3963118];
/// `run_mixed(&MixedConfig::smoke(seed), _).ble_digest`.
pub const MIXED_BLE: [u64; 3] = [0x936c9b676a5d82b4, 0xa5c2151d4cae1cf2, 0x3d407ec42bbe39b0];
/// `run_metro(&MetroConfig::metro_scaled(20_000, 42), _).delivery_digest`
/// (the E14 grid at 20k devices).
pub const E14_20K: u64 = 0xb79f8a4a7af703c1;
/// Debug hash of the whole `run_metro(&MetroConfig::smoke(seed), _)`
/// report: the cluster counters (hears, suppressions, drops, handoffs,
/// evictions) that the delivery digest does not fold.
pub const METRO_REPORT: [u64; 3] = [0x193bb30f6a98dbc2, 0x634763e004eed101, 0x3bc8240c42324a8d];

// The fleet, session and association worlds are close-range and
// loss-free, so their seed never reaches the report: one value pins
// all three seeds.

/// Debug hash of `run_fleet(&FleetConfig::smoke(seed))`.
pub const FLEET: [u64; 3] = [0x5a638e4d5b0c86d1; 3];
/// Debug hash of `run_metro(&MetroConfig::oracle(seed), _)`: one
/// gateway under a fault plan, full delivery stream retained.
pub const METRO_ORACLE: [u64; 3] = [0xae146ad8ff8272e2, 0xabf3c625820fc6b9, 0xcbda4ba95cdc60f1];
/// Debug hash of `run_session_kernel` on `session_config` in `golden.rs`.
pub const SESSION: [u64; 3] = [0x0de52a4d3304ade0; 3];
/// Debug hash of `run_assoc_fleet(&AssocConfig::contended(seed))`.
pub const ASSOC: [u64; 3] = [0x8b5bfd5e46861332; 3];
/// `[Debug hash, render() hash]` of `CampaignConfig::demo(seed, mode)`
/// per seed, one table per mode of [`campaign_modes`].
pub const CAMPAIGN_STATIC: [[u64; 2]; 3] = [
    [0xa76b9e74bda7d6e8, 0xc919f57a20a81c3b],
    [0x69ddfb95cc1a47af, 0x0d95675bdfbea8f4],
    [0x48b32219d1421df8, 0xbd2875c7c4f487ed],
];
pub const CAMPAIGN_FEEDBACK: [[u64; 2]; 3] = [
    [0x516887a03652bc3d, 0xbe7aba4cfa320d78],
    [0xa45ec589bd536eaf, 0x5353d3a4e31de733],
    [0x279f18ee5f51a505, 0x0fec53bdce328490],
];
pub const CAMPAIGN_FEEDBACK_DEFAULT: [[u64; 2]; 3] = [
    [0xa6509fd002df9c19, 0x49bb4f1e81b060d2],
    [0xc76320a7488d2cf4, 0xbff5b802b0831794],
    [0x0c4705d95df1c451, 0x2481ab84a508be26],
];

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Assert that the FNV-1a hash of `text` is `want`, printing the text
/// on a mismatch.
pub fn assert_text_pinned(what: &str, text: &str, want: u64) {
    let got = fnv1a(text.as_bytes());
    assert!(
        got == want,
        "{what}: {got:#018x}, pinned {want:#018x}\n{text}"
    );
}

/// [`assert_text_pinned`] over `format!("{report:?}")`.
pub fn assert_debug_pinned(what: &str, report: &impl Debug, want: u64) {
    assert_text_pinned(what, &format!("{report:?}"), want);
}

/// The campaign modes under pin, each with its per-seed table: the
/// static single-copy baseline, and feedback adaptation under an
/// explicit tight budget and under the default tuning.
pub fn campaign_modes() -> [(&'static str, AdaptMode, [[u64; 2]; 3]); 3] {
    let tight = AdaptiveConfig {
        target_delivery: 0.9,
        base: RepeatPolicy::SINGLE,
        budget: EnergyBudget {
            per_message_uj_ceiling: 800.0,
            per_copy_uj: 100.0,
        },
        backoff_step: Duration::from_secs(1),
        max_backoff: Duration::from_secs(8),
    };
    [
        (
            "static",
            AdaptMode::Static(RepeatPolicy::SINGLE),
            CAMPAIGN_STATIC,
        ),
        (
            "feedback",
            AdaptMode::Feedback {
                cfg: tight,
                every: 2,
            },
            CAMPAIGN_FEEDBACK,
        ),
        (
            "feedback/default",
            AdaptMode::Feedback {
                cfg: AdaptiveConfig::default(),
                every: 2,
            },
            CAMPAIGN_FEEDBACK_DEFAULT,
        ),
    ]
}
