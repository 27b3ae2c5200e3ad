//! The daemon workload (`e16_daemon`).
//!
//! A `.wcap` capture of the E11 geometry is recorded from the seed with
//! `capture_metro` into memory and closed as the program's feeder closes
//! a stream (`Advance` to the horizon, `Shutdown`); neither is timed.
//! The untraced run writes those bytes at max rate over loopback TCP
//! into `Daemon::serve_tcp`: a closed loop, where the feeder blocks on
//! socket backpressure, and pre-rendered bytes keep the feeder thread
//! from competing with the daemon for the second core. The traced run
//! feeds the same wire bytes in-process through
//! `FrameDecoder::push`/`next_record` → `WireRecord::decode` →
//! `GatewaydCore::offer`/`advance_to`/`finish`, timing each call, and
//! through the benchmark's cluster train ([`wire_fed`]), which times the
//! ingest, queue, aggregation and digest layers the core runs inside
//! its poll step.

use crate::alloc::{self, Layer, Tally};
use crate::sim::{ns_since, ClusterTrain};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration as StdDuration, Instant as Wall};
use wile_gatewayd::capture::capture_metro;
use wile_gatewayd::codec::FrameDecoder;
use wile_gatewayd::{
    metro_header, read_capture, signal, Daemon, DaemonOptions, GatewaydConfig, GatewaydCore,
    GatewaydReport, WireRecord,
};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::Instant;
use wile_scenarios::metro::{MetroConfig, MetroReport};

/// Aggregation threads the daemon runs (its feeder is the second
/// thread of the workload).
pub const WORKERS: usize = 1;

/// Bytes per decoder push: the daemon's socket read size.
const READ_CHUNK: usize = 64 * 1024;

/// How long the feeder waits for the daemon to open the session.
const SESSION_TIMEOUT: StdDuration = StdDuration::from_secs(30);

/// A recorded capture and the in-process run that recorded it.
pub struct Capture {
    pub metro: MetroReport,
    pub frames: u64,
    /// What the feeder puts on the wire: the `.wcap` header record, one
    /// record per frame, then the closing `Advance` and `Shutdown`.
    pub wire: Vec<u8>,
    /// Length of the leading header record.
    header_len: usize,
}

/// Record the capture for `cfg` (the recording run uses `workers`
/// aggregation threads; the daemon's result is the same at any count).
pub fn record(cfg: &MetroConfig, workers: usize) -> io::Result<Capture> {
    let (metro, mut wire, frames) = capture_metro(cfg, workers, Vec::new())?;
    let body_len = u32::from_le_bytes(wire[..4].try_into().expect("4-byte length prefix"));
    // The program's feeder closes a capture exactly so; appending in
    // place keeps a second copy of the capture out of peak RSS.
    WireRecord::Advance {
        to: metro_header(cfg).horizon,
    }
    .encode(&mut wire);
    WireRecord::Shutdown.encode(&mut wire);
    Ok(Capture {
        metro,
        frames,
        wire,
        header_len: 4 + body_len as usize,
    })
}

/// One loopback session, timed from outside.
pub struct Session {
    /// `Daemon::new` until the daemon holds a session built from the
    /// stream header.
    pub setup_s: f64,
    /// First frame written until `serve_tcp` returned its report.
    pub stream_s: f64,
    /// Frame records the feeder sent.
    pub frames: u64,
    pub report: GatewaydReport,
}

/// Stream the capture feeder → TCP → daemon once. The header goes
/// ahead alone, and the feeder waits until the daemon has opened the
/// session from it (that is set-up); then it writes the rest of the
/// wire bytes.
pub fn loopback(cap: &Capture) -> io::Result<Session> {
    signal::reset_stop();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Connected, and the header sent, before the daemon starts: its
    // first accept finds the connection waiting instead of sleeping, and
    // its first read finds the header.
    let mut conn = TcpStream::connect(listener.local_addr()?)?;
    conn.write_all(&cap.wire[..cap.header_len])?;
    let t0 = Wall::now();
    let mut daemon = Daemon::new(
        DaemonOptions {
            workers: WORKERS,
            keep_deliveries: false,
            config: None,
        },
        None,
    )?;
    let state = daemon.state();
    std::thread::scope(|s| {
        let feeder = s.spawn(move || -> io::Result<(Wall, u64)> {
            let fed = (|| {
                let mut conn = conn;
                let waited = Wall::now();
                // `try_lock` spins rather than sleeping on the lock the
                // daemon holds while it opens the session, so the
                // hand-over is seen without a futex wake-up.
                while !state.try_lock().is_ok_and(|st| st.core.is_some()) {
                    if waited.elapsed() > SESSION_TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "daemon never opened the session",
                        ));
                    }
                    std::thread::yield_now();
                }
                let ready = Wall::now();
                conn.write_all(&cap.wire[cap.header_len..])?;
                Ok((ready, cap.frames))
            })();
            if fed.is_err() {
                // Without a Shutdown record the daemon would wait for
                // another connection forever.
                signal::request_stop();
            }
            fed
        });
        let served = daemon.serve_tcp(listener);
        let end = Wall::now();
        let (ready, frames) = feeder.join().expect("feeder thread panicked")?;
        Ok(Session {
            setup_s: ready.duration_since(t0).as_secs_f64(),
            stream_s: end.duration_since(ready).as_secs_f64(),
            frames,
            report: served?,
        })
    })
}

/// Busy time (ns) and work counts of one in-process run.
#[derive(Debug, Default)]
pub struct Spans {
    pub setup_ns: u64,
    pub codec_ns: u64,
    pub wire_ns: u64,
    pub stamp_ns: u64,
    pub poll_ns: u64,
    pub records: u64,
    pub stamps: u64,
    /// Per-poll step times, ms (a step that ran n polls contributes n
    /// samples of its mean).
    pub poll_ms: Vec<f64>,
}

impl Spans {
    fn poll_step(&mut self, ns: u64, polls: u64) {
        self.poll_ns += ns;
        for _ in 0..polls {
            self.poll_ms.push(ns as f64 / polls as f64 / 1e6);
        }
    }

    /// Time covered by a layer span (set-up counts as a layer).
    pub fn attributed_ns(&self) -> u64 {
        self.setup_ns + self.codec_ns + self.wire_ns + self.stamp_ns + self.poll_ns
    }
}

/// Everything one in-process run measured (spans stay zero untimed).
pub struct Traced {
    pub wall_ns: u64,
    pub spans: Spans,
    pub report: GatewaydReport,
    pub alloc: Tally,
}

/// The span clock: reads the wall clock only when the run is traced.
#[derive(Clone, Copy)]
struct Clock(bool);

impl Clock {
    fn now(self) -> Option<Wall> {
        self.0.then(Wall::now)
    }

    /// Add the time since `t` to `acc` and start the next span.
    fn lap(self, acc: &mut u64, t: Option<Wall>) -> Option<Wall> {
        let now = self.now();
        if let (Some(t), Some(now)) = (t, now) {
            *acc += now.duration_since(t).as_nanos() as u64;
        }
        now
    }
}

/// Feed the wire bytes in-process through decoder, record decode and
/// core in daemon-read-sized chunks: what the daemon does, without the
/// socket, its lock and its scratch. With `timed`, every call is a span;
/// without, only the wall time is taken. `None` when the stream does
/// not parse, never opens a session, or a frame is refused.
pub fn in_process(cap: &Capture, timed: bool) -> Option<Traced> {
    let clock = Clock(timed);
    let before = Tally::now();
    let t0 = Wall::now();
    let mut t = Spans::default();
    let mut dec = FrameDecoder::new();
    let mut core: Option<GatewaydCore> = None;
    let mut out = Vec::new();
    'stream: for chunk in cap.wire.chunks(READ_CHUNK) {
        let s = clock.now();
        alloc::enter(Layer::Codec);
        dec.push(chunk);
        clock.lap(&mut t.codec_ns, s);
        loop {
            let s = clock.now();
            alloc::enter(Layer::Codec);
            let body = match dec.next_record() {
                Ok(Some(b)) => b,
                Ok(None) => {
                    clock.lap(&mut t.codec_ns, s);
                    break;
                }
                Err(_) => return None,
            };
            let s = clock.lap(&mut t.codec_ns, s);
            alloc::enter(Layer::Wire);
            let record = WireRecord::decode(&body).ok()?;
            let s = clock.lap(&mut t.wire_ns, s);
            t.records += 1;
            match record {
                WireRecord::Header(h) => {
                    if core.is_none() {
                        alloc::enter(Layer::Setup);
                        core = Some(GatewaydCore::new(GatewaydConfig::from_header(&h)));
                        clock.lap(&mut t.setup_ns, s);
                    }
                }
                WireRecord::Frame(f) => {
                    let c = core.as_mut()?;
                    let polls = c.polls();
                    alloc::enter(Layer::Core);
                    c.offer(f.lane, f.frame, &mut out).ok()?;
                    let mut ns = 0;
                    clock.lap(&mut ns, s);
                    let ran = c.polls() - polls;
                    if ran == 0 {
                        t.stamp_ns += ns;
                        t.stamps += 1;
                    } else {
                        t.poll_step(ns, ran);
                    }
                }
                WireRecord::Advance { to } => {
                    let c = core.as_mut()?;
                    let polls = c.polls();
                    alloc::enter(Layer::Core);
                    c.advance_to(to, &mut out);
                    let mut ns = 0;
                    clock.lap(&mut ns, s);
                    t.poll_step(ns, c.polls() - polls);
                }
                WireRecord::Shutdown => break 'stream,
            }
            alloc::enter(Layer::Glue);
            out.clear();
        }
    }
    let core = core?;
    let polls = core.polls();
    let s = clock.now();
    alloc::enter(Layer::Core);
    let report = core.finish(&mut out);
    alloc::enter(Layer::Glue);
    let mut ns = 0;
    clock.lap(&mut ns, s);
    t.poll_step(ns, report.polls - polls);
    Some(Traced {
        wall_ns: ns_since(t0),
        spans: t,
        report,
        alloc: Tally::now().since(&before),
    })
}

/// The cluster layers fed from the wire in poll-sized bursts: the
/// capture's frames staged per lane and drained on the daemon's poll
/// schedule (first poll at `poll_every`, then `min(t + poll_every,
/// horizon)`) through the benchmark's cluster train, so ingest, queue,
/// aggregation and digest are timed on this workload too. `None` when
/// the capture does not parse.
pub fn wire_fed(cap: &Capture) -> Option<ClusterTrain> {
    let (h, frames) = read_capture(&cap.wire).ok()?;
    let lanes = h.gateways as usize;
    let mut staged: Vec<VecDeque<RxFrame>> = (0..lanes).map(|_| VecDeque::new()).collect();
    for f in frames {
        staged.get_mut(f.lane as usize)?.push_back(f.frame);
    }
    let radios = (0..h.gateways).map(RadioId);
    let mut train = ClusterTrain::new(radios, h.queue_capacity, WORKERS, h.stale_after);
    let mut t = Instant::ZERO + h.poll_every;
    loop {
        train.poll(t, |lane, _| {
            let q = &mut staged[lane];
            let due = q.partition_point(|f| f.at <= t);
            q.drain(..due).collect()
        });
        if t >= h.horizon {
            return Some(train);
        }
        t = (t + h.poll_every).min(h.horizon);
    }
}
