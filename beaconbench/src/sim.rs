//! The simulated workloads (`e11_metro`, `e14_city`).
//!
//! The untraced run is the program's own `run_metro_with`. The traced
//! run drives the same world from public calls, with a span around each
//! call into a layer: the fleet actor calls `WileMac::mcps_data`; the
//! sink, at every poll, calls `Medium::take_inbox` →
//! `GatewayIngest::ingest_when` → `GatewayReport::from_received` +
//! `ReportQueue::push`/`drain_into` for each lane, then
//! `ClusterAggregator::round` → `fold_delivery` →
//! `ClusterAggregator::evict_stale` → `Medium::release_all`. It is a
//! copy of the metro poll train, so it must reproduce `run_metro`'s
//! delivery digest and counters exactly or it reports nothing. Its
//! cluster half, [`ClusterTrain`], also times the daemon workload's
//! cluster layers fed from the wire.

use crate::alloc::{self, Layer, Tally};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant as Wall;
use wile::beacon::BeaconTemplate;
use wile::monitor::Gateway;
use wile::registry::{DeviceIdentity, Registry};
use wile_cluster::{ClusterAggregator, ClusterStats, GatewayReport, ReportQueue, RoamingConfig};
use wile_mac::{AirCtx, MacSap, McpsDataRequest, WileMac};
use wile_radio::channel::ChannelModel;
use wile_radio::medium::{RadioConfig, RadioId, RxFrame};
use wile_radio::stats::MediumStats;
use wile_radio::time::{Duration, Instant};
use wile_scenarios::metro::{fold_delivery, run_metro_with, MetroConfig, FNV_OFFSET};
use wile_sim::ingest::GatewayIngest;
use wile_sim::kernel::{Actor, ActorId, Ctx, Kernel};
use wile_telemetry::Telemetry;

/// Shards per aggregation round, as every metro runner configures.
const SHARDS: usize = 8;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Wall) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What one untraced `run_metro_with` call produced.
pub struct Untraced {
    pub wall_s: f64,
    pub beacons: u64,
    /// Raw per-lane frames pulled off the medium (counted by a frame
    /// tap, which observes only).
    pub frames: u64,
    pub digest: u64,
    pub conserves: bool,
}

/// Run the program's metro entry point once, timed from outside. A
/// panic inside the run (the runner asserts conservation) is caught and
/// reported as `None`.
pub fn untraced(cfg: &MetroConfig, workers: usize) -> Option<Untraced> {
    let frames = Rc::new(Cell::new(0u64));
    let tap_frames = Rc::clone(&frames);
    let t = Wall::now();
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_metro_with(
            cfg,
            workers,
            &mut Telemetry::off(),
            Some(Box::new(move |_, _| tap_frames.set(tap_frames.get() + 1))),
        )
    }))
    .ok()?;
    let wall_s = t.elapsed().as_secs_f64();
    Some(Untraced {
        wall_s,
        beacons: report.beacons_sent,
        frames: frames.get(),
        digest: report.delivery_digest,
        conserves: report.stats.conserves_offered_load(),
    })
}

enum Ev {
    Wake(u32),
    Poll,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gw_position(cfg: &MetroConfig, i: usize) -> (f64, f64) {
    let col = i % cfg.gw_cols;
    let row = i / cfg.gw_cols;
    (col as f64 * cfg.gw_spacing_m, row as f64 * cfg.gw_spacing_m)
}

/// The metro device placement: splitmix64 draws inside the gateway
/// hull's bounding box extended by the margin.
fn device_position(cfg: &MetroConfig, i: usize) -> (f64, f64) {
    let rows = cfg.gateways.div_ceil(cfg.gw_cols);
    let width = (cfg.gw_cols.saturating_sub(1)) as f64 * cfg.gw_spacing_m;
    let height = (rows.saturating_sub(1)) as f64 * cfg.gw_spacing_m;
    let r1 = splitmix64(cfg.seed ^ (i as u64).wrapping_mul(2).wrapping_add(1));
    let r2 = splitmix64(r1);
    let unit = |r: u64| r as f64 / u64::MAX as f64;
    (
        -cfg.margin_m + unit(r1) * (width + 2.0 * cfg.margin_m),
        -cfg.margin_m + unit(r2) * (height + 2.0 * cfg.margin_m),
    )
}

/// The whole transmit-only fleet as one actor, timing each
/// MCPS-DATA.request.
struct Fleet {
    mac: WileMac,
    period: Duration,
    end: Instant,
    mac_ns: u64,
}

impl Actor<Ev> for Fleet {
    fn on_event(&mut self, now: Instant, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let Ev::Wake(i) = ev else { return };
        let t = Wall::now();
        alloc::enter(Layer::Mac);
        let mut air = AirCtx {
            medium: &mut *ctx.medium,
            now,
            actor: i,
            telemetry: &mut *ctx.telemetry,
        };
        self.mac.mcps_data(&mut air, McpsDataRequest::plain(i, &[]));
        alloc::enter(Layer::Kernel);
        self.mac_ns += ns_since(t);
        let next = now + self.period;
        if next <= self.end {
            ctx.schedule(next, ctx.self_id(), Ev::Wake(i));
        }
    }
}

struct Lane {
    ingest: GatewayIngest,
    queue: ReportQueue,
    hears: u64,
}

/// Per-layer busy time (ns) and work counts of one traced poll train.
#[derive(Debug, Default)]
pub struct TrainCounts {
    pub callback_ns: u64,
    pub inbox_ns: u64,
    pub ingest_ns: u64,
    pub queue_ns: u64,
    pub agg_ns: u64,
    pub digest_ns: u64,
    pub evict_ns: u64,
    pub release_ns: u64,
    pub polls: u64,
    pub frames: u64,
    pub accepted: u64,
    pub reports: u64,
    pub deliveries: u64,
}

/// The cluster half of the poll train, timed call by call: per lane,
/// its frames → `GatewayIngest::ingest_when` →
/// `GatewayReport::from_received` + `ReportQueue::push`/`drain_into`;
/// then `ClusterAggregator::round` → `fold_delivery` →
/// `ClusterAggregator::evict_stale`. The sim sink feeds it from the
/// medium, the daemon workload from frames staged off the wire.
pub struct ClusterTrain {
    lanes: Vec<Lane>,
    agg: ClusterAggregator,
    workers: usize,
    stale_after: Duration,
    next_ordinal: u64,
    batch: Vec<GatewayReport>,
    pub digest: u64,
    pub evicted: Vec<u32>,
    pub c: TrainCounts,
}

impl ClusterTrain {
    /// One lane per radio, configured as every metro runner and the
    /// daemon configure their cluster.
    pub fn new(
        radios: impl IntoIterator<Item = RadioId>,
        queue_capacity: Option<usize>,
        workers: usize,
        stale_after: Duration,
    ) -> Self {
        let lanes: Vec<Lane> = radios
            .into_iter()
            .map(|radio| Lane {
                ingest: GatewayIngest::new(radio, Gateway::new()),
                queue: match queue_capacity {
                    Some(cap) => ReportQueue::bounded(cap),
                    None => ReportQueue::unbounded(),
                },
                hears: 0,
            })
            .collect();
        ClusterTrain {
            agg: ClusterAggregator::new(lanes.len(), SHARDS, RoamingConfig::default()),
            lanes,
            workers,
            stale_after,
            next_ordinal: 0,
            batch: Vec::new(),
            digest: FNV_OFFSET,
            evicted: Vec::new(),
            c: TrainCounts::default(),
        }
    }

    /// One poll at `now`; `take(lane, radio)` yields the lane's frames
    /// that arrived by `now` (timed as the inbox span).
    pub fn poll(&mut self, now: Instant, mut take: impl FnMut(usize, RadioId) -> Vec<RxFrame>) {
        let c = &mut self.c;
        c.polls += 1;
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            let t = Wall::now();
            alloc::enter(Layer::Radio);
            let frames = take(idx, lane.ingest.radio());
            let t = lap(&mut c.inbox_ns, t);
            c.frames += frames.len() as u64;
            alloc::enter(Layer::Ingest);
            let got = lane.ingest.ingest_when(frames, None, |_| true);
            let t = lap(&mut c.ingest_ns, t);
            c.accepted += got.len() as u64;
            alloc::enter(Layer::Queue);
            for r in got {
                lane.hears += 1;
                lane.queue
                    .push(GatewayReport::from_received(idx, self.next_ordinal, r));
                self.next_ordinal += 1;
            }
            lane.queue.drain_into(&mut self.batch);
            lap(&mut c.queue_ns, t);
        }
        c.reports += self.batch.len() as u64;
        let t = Wall::now();
        alloc::enter(Layer::Agg);
        let got = self.agg.round(&mut self.batch, self.workers);
        let t = lap(&mut c.agg_ns, t);
        alloc::enter(Layer::Digest);
        for d in &got {
            fold_delivery(&mut self.digest, d);
        }
        let t = lap(&mut c.digest_ns, t);
        c.deliveries += got.len() as u64;
        alloc::enter(Layer::Agg);
        let gone = self.agg.evict_stale(now, self.stale_after);
        lap(&mut c.evict_ns, t);
        alloc::enter(Layer::Glue);
        self.evicted.extend(gone);
    }

    /// Every cluster counter, as `GatewayCluster::stats` reports them.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = self.agg.stats_snapshot();
        for (s, lane) in stats.lanes.iter_mut().zip(&self.lanes) {
            s.hears = lane.hears;
            s.queue_drops = lane.queue.drops();
            s.queue_high_water = lane.queue.high_water();
        }
        stats
    }
}

/// The sim's sink: the cluster train fed from the medium, then
/// `Medium::release_all`, every poll.
struct Sink {
    train: ClusterTrain,
    poll_every: Duration,
    horizon: Instant,
}

impl Actor<Ev> for Sink {
    fn on_event(&mut self, now: Instant, _ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let cb = Wall::now();
        self.train
            .poll(now, |_, radio| ctx.medium.take_inbox(radio, now));
        let t = Wall::now();
        alloc::enter(Layer::Radio);
        ctx.medium.release_all(now);
        lap(&mut self.train.c.release_ns, t);
        alloc::enter(Layer::Glue);
        if now < self.horizon {
            let next = (now + self.poll_every).min(self.horizon);
            ctx.schedule(next, ctx.self_id(), Ev::Poll);
        }
        self.train.c.callback_ns += ns_since(cb);
        alloc::enter(Layer::Kernel);
    }
}

/// Add the time since `t` to `acc` and start the next span.
fn lap(acc: &mut u64, t: Wall) -> Wall {
    let now = Wall::now();
    *acc += now.duration_since(t).as_nanos() as u64;
    now
}

/// A built world, ready for its first event.
struct World {
    kernel: Kernel<Ev>,
    gw_radios: Vec<RadioId>,
    fleet: ActorId,
    /// Kept alive like the program's runner keeps its provisioning
    /// registry; building it is part of set-up.
    _registry: Registry,
}

/// Build the metro world exactly as the program's runner does: kernel
/// with the shadowed channel model, gateway radios attached first, one
/// template per device, and the wake train staggered across one period.
fn build_world(cfg: &MetroConfig) -> World {
    assert!(cfg.gateways >= 1 && cfg.devices >= 1 && cfg.gw_cols >= 1);
    assert!(cfg.faults.is_none(), "the benchmark worlds are fault-free");
    let model = ChannelModel {
        shadowing_sigma_db: cfg.shadowing_sigma_db,
        ..Default::default()
    };
    let mut kernel: Kernel<Ev> = Kernel::new(model, cfg.seed);
    kernel.log_mut().set_enabled(false);
    let gw_radios: Vec<RadioId> = (0..cfg.gateways)
        .map(|i| {
            kernel.medium_mut().attach(RadioConfig {
                position_m: gw_position(cfg, i),
                ..Default::default()
            })
        })
        .collect();
    let mut registry = Registry::new();
    let mut mac = WileMac::with_templates(vec![0u8; cfg.payload_len], cfg.device_power_dbm);
    for i in 0..cfg.devices {
        let radio = kernel.medium_mut().attach(RadioConfig {
            position_m: device_position(cfg, i),
            ..Default::default()
        });
        let device_id = i as u32 + 1;
        let identity = DeviceIdentity::new(device_id);
        mac.push_template(
            BeaconTemplate::new(identity.mac, device_id, cfg.payload_len).expect("payload bounded"),
            radio,
        );
        registry.add(identity);
    }
    let fleet = kernel.add_actor(Fleet {
        mac,
        period: cfg.period,
        end: Instant::ZERO + cfg.duration,
        mac_ns: 0,
    });
    let stagger_ns = cfg.period.as_nanos() / cfg.devices as u64;
    kernel.schedule_batch(
        Instant::from_ms(500),
        Duration::from_nanos(stagger_ns),
        fleet,
        (0..cfg.devices as u32).map(Ev::Wake),
    );
    World {
        kernel,
        gw_radios,
        fleet,
        _registry: registry,
    }
}

/// Time one world build (configuration to the first event), seconds.
pub fn setup_s(cfg: &MetroConfig) -> f64 {
    let t = Wall::now();
    let world = build_world(cfg);
    let s = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(world));
    s
}

/// Everything one traced run measured.
pub struct Traced {
    pub wall_ns: u64,
    pub setup_ns: u64,
    pub run_ns: u64,
    pub events: u64,
    pub mac_ns: u64,
    pub train: TrainCounts,
    pub beacons: u64,
    pub digest: u64,
    pub stats: ClusterStats,
    pub evicted: Vec<u32>,
    pub medium: MediumStats,
    pub alloc: Tally,
}

/// Build and run the world with a span around every layer call.
pub fn traced(cfg: &MetroConfig, workers: usize) -> Traced {
    let before = Tally::now();
    let t0 = Wall::now();
    alloc::enter(Layer::Setup);
    let World {
        mut kernel,
        gw_radios,
        fleet,
        _registry,
    } = build_world(cfg);
    let sink = kernel.add_actor(Sink {
        train: ClusterTrain::new(gw_radios, cfg.queue_capacity, workers, cfg.stale_after),
        poll_every: cfg.poll_every,
        horizon: Instant::ZERO + cfg.duration + cfg.period,
    });
    kernel.schedule(Instant::ZERO + cfg.poll_every, sink, Ev::Poll);
    let setup_ns = ns_since(t0);

    let t1 = Wall::now();
    alloc::enter(Layer::Kernel);
    let events = kernel.run();
    alloc::enter(Layer::Glue);
    let run_ns = ns_since(t1);

    let fleet = kernel.remove_actor::<Fleet>(fleet);
    let train = kernel.remove_actor::<Sink>(sink).train;
    let wall_ns = ns_since(t0);
    Traced {
        wall_ns,
        setup_ns,
        run_ns,
        events,
        mac_ns: fleet.mac_ns,
        beacons: fleet.mac.total_sent(),
        digest: train.digest,
        stats: train.stats(),
        evicted: train.evicted,
        medium: kernel.medium().stats(),
        train: train.c,
        alloc: Tally::now().since(&before),
    }
}

impl Traced {
    /// `Kernel::run` minus the time its callbacks spent inside traced
    /// layers: the timer wheel, dispatch, and the fleet's own
    /// rescheduling.
    pub fn kernel_self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.mac_ns)
            .saturating_sub(self.train.callback_ns)
    }

    /// Time covered by a layer span (set-up counts as a layer).
    pub fn attributed_ns(&self) -> u64 {
        let s = &self.train;
        self.setup_ns
            + self.kernel_self_ns()
            + self.mac_ns
            + s.inbox_ns
            + s.ingest_ns
            + s.queue_ns
            + s.agg_ns
            + s.digest_ns
            + s.evict_ns
            + s.release_ns
    }
}
