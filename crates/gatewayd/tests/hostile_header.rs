//! Hostile stream headers at the daemon's front door.
//!
//! A header is the first thing a peer sends, and it sizes the whole
//! session. Four values must be refused at decode time, before any core
//! exists:
//!
//! * `gateways == 0` — a cluster with no lanes cannot be built; taking
//!   it would panic while the daemon holds its state lock;
//! * `gateways > MAX_GATEWAYS` — the core allocates every lane up
//!   front, so `u32::MAX` lanes would exhaust memory under that lock;
//! * `queue_capacity == Some(0)` — a zero-capacity lane queue panics
//!   on construction, again under the lock;
//! * `poll_every == 0` — the poll train would never advance, so the
//!   first frame stamped after zero would spin forever.
//!
//! Each case runs the daemon on its own thread under a timeout, so a
//! regression fails the test instead of hanging it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration as StdDuration;
use wile_gatewayd::codec::FrameDecoder;
use wile_gatewayd::daemon::{Daemon, DaemonOptions};
use wile_gatewayd::wire::{LaneFrame, WcapHeader, WireError, WireRecord, MAX_GATEWAYS};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::{Duration, Instant};

const LIMIT: StdDuration = StdDuration::from_secs(5);

fn header() -> WcapHeader {
    WcapHeader {
        gateways: 2,
        queue_capacity: Some(64),
        poll_every: Duration::from_secs(5),
        stale_after: Duration::from_secs(600),
        horizon: Instant::from_secs(30),
        seed: 1,
        devices: 1,
    }
}

/// Header, one frame stamped after zero, shutdown.
fn stream(h: WcapHeader) -> Vec<u8> {
    let mut wire = Vec::new();
    WireRecord::Header(h).encode(&mut wire);
    WireRecord::Frame(LaneFrame {
        lane: 0,
        frame: RxFrame {
            at: Instant::from_secs(1),
            from: RadioId(9),
            rssi_dbm: -50.0,
            snr_db: 20.0,
            bytes: Arc::from(&b"\x80\x00"[..]),
        },
    })
    .encode(&mut wire);
    WireRecord::Shutdown.encode(&mut wire);
    wire
}

/// What serving a stream left behind.
#[derive(Debug)]
struct Outcome {
    served: bool,
    stream_errors: u64,
    session_open: bool,
}

/// Serve `bytes` on a fresh daemon thread, failing the test if the
/// daemon panics or does not return within [`LIMIT`] (a hung daemon
/// thread is left detached; the test fails either way).
fn serve(bytes: Vec<u8>) -> Outcome {
    let (tx, rx) = mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let mut daemon = Daemon::new(DaemonOptions::default(), None).expect("daemon");
        let served = daemon.serve_reader(&bytes[..]).is_ok();
        let state = daemon.state();
        let st = state.lock().expect("state lock must not be poisoned");
        let _ = tx.send(Outcome {
            served,
            stream_errors: st.stream_errors,
            session_open: st.core.is_some() || st.report.is_some(),
        });
    });
    match rx.recv_timeout(LIMIT) {
        Ok(o) => {
            daemon.join().expect("daemon thread finished cleanly");
            o
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("daemon did not return within {LIMIT:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => match daemon.join() {
            Ok(()) => panic!("daemon thread exited without reporting"),
            Err(_) => panic!("daemon thread panicked"),
        },
    }
}

fn header_body(h: WcapHeader) -> Vec<u8> {
    let mut wire = Vec::new();
    WireRecord::Header(h).encode(&mut wire);
    let mut dec = FrameDecoder::new();
    dec.push(&wire);
    dec.next_record().expect("framing").expect("one record")
}

#[test]
fn zero_gateway_header_is_refused_without_a_panic() {
    let h = WcapHeader {
        gateways: 0,
        ..header()
    };
    let o = serve(stream(h.clone()));
    assert_eq!(o.stream_errors, 1, "{o:?}");
    assert!(!o.session_open, "{o:?}");
    assert!(!o.served, "no session, no report: {o:?}");
    assert!(WireRecord::decode(&header_body(h)).is_err());
}

#[test]
fn zero_poll_every_header_is_refused_without_a_hang() {
    let h = WcapHeader {
        poll_every: Duration::from_nanos(0),
        ..header()
    };
    let o = serve(stream(h.clone()));
    assert_eq!(o.stream_errors, 1, "{o:?}");
    assert!(!o.session_open, "{o:?}");
    assert!(!o.served, "no session, no report: {o:?}");
    assert!(WireRecord::decode(&header_body(h)).is_err());
}

#[test]
fn zero_queue_capacity_header_is_refused_without_a_panic() {
    let h = WcapHeader {
        queue_capacity: Some(0),
        ..header()
    };
    let o = serve(stream(h.clone()));
    assert_eq!(o.stream_errors, 1, "{o:?}");
    assert!(!o.session_open, "{o:?}");
    assert!(!o.served, "no session, no report: {o:?}");
    assert_eq!(
        WireRecord::decode(&header_body(h)),
        Err(WireError::ZeroQueueCapacity)
    );
}

#[test]
fn huge_gateway_count_header_is_refused_before_allocating() {
    let h = WcapHeader {
        gateways: u32::MAX,
        ..header()
    };
    let o = serve(stream(h.clone()));
    assert_eq!(o.stream_errors, 1, "{o:?}");
    assert!(!o.session_open, "{o:?}");
    assert!(!o.served, "no session, no report: {o:?}");
    assert_eq!(
        WireRecord::decode(&header_body(h)),
        Err(WireError::TooManyGateways(u32::MAX))
    );
    let widest = WcapHeader {
        gateways: MAX_GATEWAYS,
        ..header()
    };
    assert!(WireRecord::decode(&header_body(widest)).is_ok());
}

#[test]
fn a_sane_header_still_opens_a_session() {
    let o = serve(stream(header()));
    assert_eq!(o.stream_errors, 0, "{o:?}");
    assert!(o.session_open, "{o:?}");
    assert!(o.served, "{o:?}");
}
