//! The gatewayd differential oracle: a recorded scenario replayed
//! through the ingestion service reproduces the in-process cluster
//! **byte for byte**.
//!
//! The contract under test is the whole point of the subsystem: the
//! service front-end (framed transport, staging, watermark-driven poll
//! train) adds *zero* behavioral surface over the library pipeline.
//! For each seed, the metro scenario runs once with a `.wcap` recorder
//! tapped into its raw per-lane frame stream; the capture then replays
//! through a fresh [`GatewaydCore`] and must reproduce the full
//! delivery stream, every cluster counter, the eviction list, and the
//! FNV-1a delivery digest — exactly, not approximately.

use std::io::Read;
use wile_gatewayd::capture::{capture_metro, replay_capture};
use wile_gatewayd::daemon::{Daemon, DaemonOptions};
use wile_scenarios::metro::MetroConfig;

/// Record a smoke-scale metro run (full delivery retention) and return
/// the report plus the capture bytes.
fn record(seed: u64) -> (wile_scenarios::metro::MetroReport, Vec<u8>) {
    let cfg = MetroConfig::smoke(seed);
    assert!(cfg.keep_deliveries, "diff needs the full delivery stream");
    let (report, bytes, frames) = capture_metro(&cfg, 1, Vec::new()).expect("in-memory capture");
    assert!(frames > 0, "capture must record frames (seed {seed})");
    (report, bytes)
}

/// The smoke metro digest per seed, as pinned in `tests/golden.rs`: a
/// replay must land on it, not only on whatever the in-process run
/// produced today.
fn pinned_digest(seed: u64) -> u64 {
    match seed {
        42 => 0x24503dea160f2b6e,
        7 => 0x7b7e2c70e2f21089,
        9 => 0x244b599fa6ca7dc9,
        _ => unreachable!("no pinned digest for seed {seed}"),
    }
}

fn assert_replay_identical(seed: u64) {
    let (metro, bytes) = record(seed);
    let replay = replay_capture(&bytes, true, 1).expect("replay");
    assert_eq!(
        replay.delivery_digest,
        pinned_digest(seed),
        "replay digest drifted from the pin (seed {seed})"
    );
    assert_eq!(
        replay.delivery_digest, metro.delivery_digest,
        "digest mismatch (seed {seed})"
    );
    assert_eq!(
        replay.deliveries, metro.deliveries,
        "delivery stream mismatch (seed {seed})"
    );
    assert_eq!(replay.stats, metro.stats, "counter mismatch (seed {seed})");
    assert_eq!(
        replay.evicted, metro.evicted,
        "eviction mismatch (seed {seed})"
    );
    assert!(replay.matches_metro(&metro), "full identity (seed {seed})");
    assert_eq!(replay.rejected, 0, "clean capture must not be rejected");
    assert_eq!(replay.late, 0, "clean capture has no post-horizon frames");
    assert!(replay.frames_ledger_closes(), "frame ledger (seed {seed})");
}

#[test]
fn replay_is_byte_identical_seed_42() {
    assert_replay_identical(42);
}

#[test]
fn replay_is_byte_identical_seed_7() {
    assert_replay_identical(7);
}

#[test]
fn replay_is_byte_identical_seed_9() {
    assert_replay_identical(9);
}

/// Worker-count invariance carries through the service: replaying with
/// more aggregation workers changes nothing.
#[test]
fn replay_is_worker_count_invariant() {
    let (_, bytes) = record(42);
    let one = replay_capture(&bytes, true, 1).expect("replay x1");
    let four = replay_capture(&bytes, true, 4).expect("replay x4");
    assert_eq!(one, four);
}

/// A reader that tears the stream into awkward 7-byte reads — every
/// record boundary, length prefix, and frame body gets split.
struct Torn<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Read for Torn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = 7.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon shell (decoder, staging, drain-at-EOF) over a maximally
/// torn transport still lands on the identical report.
#[test]
fn daemon_over_torn_transport_is_byte_identical() {
    let (metro, bytes) = record(42);
    let mut daemon = Daemon::new(
        DaemonOptions {
            workers: 1,
            keep_deliveries: true,
            config: None,
        },
        None,
    )
    .expect("daemon");
    let report = daemon
        .serve_reader(Torn {
            bytes: &bytes,
            pos: 0,
        })
        .expect("serve");
    assert!(report.matches_metro(&metro), "torn-transport identity");
    assert_eq!(report.delivery_digest, metro.delivery_digest);
}
