//! Golden digests: the smoke-scale delivery digests of the cluster
//! scenarios, pinned as constants.
//!
//! The differential oracles (`chaos_diff.rs`, `gatewayd_diff.rs`)
//! compare two code paths against each other; once those paths share
//! their poll train they can drift together and still agree. These
//! pins catch that drift: any change to the schedule, the poll body,
//! the election, or the digest fold moves a value here.
//!
//! Every pin is checked at one and at four aggregation workers.

use wile_scenarios::chaos::{run_chaos, ChaosConfig};
use wile_scenarios::metro::{run_metro, MetroConfig};
use wile_scenarios::mixed::{run_mixed, MixedConfig};

const SEEDS: [u64; 3] = [42, 7, 9];
const WORKERS: [usize; 2] = [1, 4];

/// `run_metro(&MetroConfig::smoke(seed), _).delivery_digest`.
const METRO: [u64; 3] = [0x24503dea160f2b6e, 0x7b7e2c70e2f21089, 0x244b599fa6ca7dc9];
/// `run_chaos(&ChaosConfig::smoke(seed), _).metro.delivery_digest`.
const CHAOS: [u64; 3] = [0x496da1623506b5bc, 0x632b85e0f4834ca7, 0x63d13872f13c6218];
/// `run_mixed(&MixedConfig::smoke(seed), _).delivery_digest`.
const MIXED_WILE: [u64; 3] = [0x562fc44edb460bb4, 0x42df660814710efb, 0x739d4767e3963118];
/// `run_mixed(&MixedConfig::smoke(seed), _).ble_digest`.
const MIXED_BLE: [u64; 3] = [0x936c9b676a5d82b4, 0xa5c2151d4cae1cf2, 0x3d407ec42bbe39b0];

#[test]
fn metro_smoke_digests_are_pinned() {
    for (seed, want) in SEEDS.into_iter().zip(METRO) {
        for workers in WORKERS {
            let got = run_metro(&MetroConfig::smoke(seed), workers).delivery_digest;
            assert_eq!(
                got, want,
                "metro seed {seed} workers {workers}: {got:#018x}"
            );
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
