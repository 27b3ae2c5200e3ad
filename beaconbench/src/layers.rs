//! The per-layer metrics of one traced run. Every workload reports every
//! metric; a layer that never runs on a workload reads 0 there.

use crate::alloc::{Layer, Tally};
use crate::daemon;
use crate::metrics::{frac, quantile, Metrics};
use crate::sim::{self, TrainCounts};
use wile_cluster::ClusterStats;

/// Layers only the sims run: kernel, MAC and medium.
const SIM_ONLY: [(&str, &str); 10] = [
    ("sim.kernel.events", "count"),
    ("sim.kernel.self_ns_per_event", "ns"),
    ("mac.ns_per_beacon", "ns"),
    ("radio.inbox_ns_per_tx", "ns"),
    ("radio.deliver_frac", "frac"),
    ("radio.cull_frac", "frac"),
    ("radio.release_ns_per_poll", "ns"),
    ("radio.peak_live_tx", "count"),
    ("alloc.mac.per_beacon", "count"),
    ("alloc.radio.per_beacon", "count"),
];

/// Layers only the daemon runs: codec, wire decode and the core.
const DAEMON_ONLY: [(&str, &str); 8] = [
    ("gatewayd.codec.ns_per_record", "ns"),
    ("gatewayd.wire.ns_per_record", "ns"),
    ("gatewayd.core.stamp_ns_per_frame", "ns"),
    ("gatewayd.core.polls", "count"),
    ("gatewayd.core.poll_ms_p50", "ms"),
    ("gatewayd.core.poll_ms_p95", "ms"),
    ("gatewayd.shell_frac", "frac"),
    ("alloc.gatewayd.per_frame", "count"),
];

fn not_run(m: &mut Metrics, layers: &[(&'static str, &'static str)]) {
    for &(name, unit) in layers {
        m.push(name, unit, 0.0);
    }
}

/// Ingest, queue, aggregation and digest, from one traced cluster train.
fn cluster(m: &mut Metrics, c: &TrainCounts, stats: &ClusterStats, a: &Tally) {
    m.push("ingest.frames", "count", c.frames as f64);
    m.push("ingest.ns_per_frame", "ns", frac(c.ingest_ns, c.frames));
    m.push("ingest.accept_frac", "frac", frac(c.accepted, c.frames));
    m.push(
        "cluster.queue.ns_per_report",
        "ns",
        frac(c.queue_ns, c.accepted),
    );
    m.push("cluster.queue.drops", "count", stats.total_drops() as f64);
    let high_water = stats.max_queue_high_water() as f64;
    m.push("cluster.queue.high_water", "count", high_water);
    m.push("cluster.agg.reports", "count", c.reports as f64);
    m.push("cluster.agg.ns_per_report", "ns", frac(c.agg_ns, c.reports));
    m.push(
        "cluster.agg.win_frac",
        "frac",
        frac(c.deliveries, c.reports),
    );
    m.push("cluster.agg.handoffs", "count", stats.handoffs as f64);
    m.push(
        "cluster.agg.evict_ns_per_poll",
        "ns",
        frac(c.evict_ns, c.polls),
    );
    let digest = frac(c.digest_ns, c.deliveries);
    m.push("scenarios.digest.ns_per_delivery", "ns", digest);
    let ingest_allocs = a.count(Layer::Ingest);
    m.push(
        "alloc.ingest.per_frame",
        "count",
        frac(ingest_allocs, c.frames),
    );
    let agg_allocs = a.count(Layer::Agg) + a.count(Layer::Worker);
    m.push("alloc.agg.per_report", "count", frac(agg_allocs, c.reports));
}

/// Set-up bytes per device, trace coverage and trace overhead.
fn trace(m: &mut Metrics, setup_bytes: u64, devices: usize, covered: f64, overhead: f64) {
    let bytes = frac(setup_bytes, devices as u64);
    m.push("alloc.bytes_per_device", "B", bytes);
    m.push("trace.unattributed_frac", "frac", 1.0 - covered);
    m.push("trace.overhead_frac", "frac", overhead);
}

/// One traced sim run, next to the untraced run's wall time.
pub fn sim(t: &sim::Traced, devices: usize, untraced_s: f64) -> Metrics {
    let c = &t.train;
    let md = &t.medium;
    let a = &t.alloc;
    let examined = md.delivered + md.per_losses + md.collision_losses + md.culled_sensitivity;
    let mut m = Metrics::default();
    m.push("sim.kernel.events", "count", t.events as f64);
    let kernel = frac(t.kernel_self_ns(), t.events);
    m.push("sim.kernel.self_ns_per_event", "ns", kernel);
    m.push("mac.ns_per_beacon", "ns", frac(t.mac_ns, t.beacons));
    let inbox = frac(c.inbox_ns, md.tx_attempts);
    m.push("radio.inbox_ns_per_tx", "ns", inbox);
    m.push("radio.deliver_frac", "frac", frac(md.delivered, examined));
    m.push(
        "radio.cull_frac",
        "frac",
        frac(md.culled_sensitivity, examined),
    );
    m.push(
        "radio.release_ns_per_poll",
        "ns",
        frac(c.release_ns, c.polls),
    );
    m.push("radio.peak_live_tx", "count", md.retained_high_water as f64);
    let mac_allocs = frac(a.count(Layer::Mac), t.beacons);
    m.push("alloc.mac.per_beacon", "count", mac_allocs);
    let radio_allocs = frac(a.count(Layer::Radio), t.beacons);
    m.push("alloc.radio.per_beacon", "count", radio_allocs);
    cluster(&mut m, c, &t.stats, a);
    not_run(&mut m, &DAEMON_ONLY);
    let covered = frac(t.attributed_ns(), t.wall_ns);
    let overhead = t.wall_ns as f64 / 1e9 / untraced_s - 1.0;
    trace(&mut m, a.bytes(Layer::Setup), devices, covered, overhead);
    m
}

/// One traced daemon run: the timed in-process pass `t`, the wire-fed
/// cluster train `fed` with its allocations, and next to them the
/// untraced loopback stream time and untimed in-process time.
pub fn daemon(
    t: &daemon::Traced,
    fed: &sim::ClusterTrain,
    fed_alloc: &Tally,
    devices: usize,
    stream_s: f64,
    untimed_s: f64,
) -> Metrics {
    let sp = &t.spans;
    let a = &t.alloc;
    let mut m = Metrics::default();
    not_run(&mut m, &SIM_ONLY);
    cluster(&mut m, &fed.c, &fed.stats(), fed_alloc);
    m.push(
        "gatewayd.codec.ns_per_record",
        "ns",
        frac(sp.codec_ns, sp.records),
    );
    m.push(
        "gatewayd.wire.ns_per_record",
        "ns",
        frac(sp.wire_ns, sp.records),
    );
    let stamp = frac(sp.stamp_ns, sp.stamps);
    m.push("gatewayd.core.stamp_ns_per_frame", "ns", stamp);
    m.push("gatewayd.core.polls", "count", sp.poll_ms.len() as f64);
    m.push(
        "gatewayd.core.poll_ms_p50",
        "ms",
        quantile(&sp.poll_ms, 0.50),
    );
    m.push(
        "gatewayd.core.poll_ms_p95",
        "ms",
        quantile(&sp.poll_ms, 0.95),
    );
    // What the socket, the per-record lock and the daemon's scratch
    // cost: the untimed in-process run does the same decode and core
    // work without them. (The traced time would also count the timers,
    // whose cost is as large as the shell's.)
    m.push("gatewayd.shell_frac", "frac", 1.0 - untimed_s / stream_s);
    let gatewayd_allocs = a.count(Layer::Codec) + a.count(Layer::Wire) + a.count(Layer::Core);
    let per_frame = frac(gatewayd_allocs, t.report.frames_in);
    m.push("alloc.gatewayd.per_frame", "count", per_frame);
    let covered = frac(sp.attributed_ns(), t.wall_ns);
    let overhead = t.wall_ns as f64 / 1e9 / untimed_s - 1.0;
    trace(&mut m, a.bytes(Layer::Setup), devices, covered, overhead);
    m
}
