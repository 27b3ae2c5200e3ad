//! Cross-gateway aggregation: sharded dedup, best-RSSI election, and
//! roaming with hysteresis.
//!
//! N gateways with overlapping coverage all hear the same beacon; the
//! aggregator is the stage that turns those N observations into exactly
//! one cluster-wide delivery. It works in **rounds**: each round takes
//! the batch of [`GatewayReport`]s drained from every lane queue,
//! shards it by device across the deterministic parallel engine
//! ([`wile_sim::engine::run_cells`]), elects a winner per message, and
//! folds per-shard outcomes back in shard order — so the result is
//! byte-identical at any worker count.
//!
//! ## Election
//!
//! Reports for one device are processed in `(arrival, ordinal)` order.
//! Copies of the *same transmission* share an arrival instant (the
//! medium stamps every receiver with the end-of-PPDU time), so they
//! form one election group: the strongest RSSI wins (ties: lowest lane,
//! then lowest enqueue ordinal), the rest are dedup suppressions
//! charged to their own lanes. A later group with an already-seen
//! sequence number — an application-level repeat copy, or a straggler
//! arriving a round late — is suppressed outright, which is exactly the
//! single-gateway `Gateway` dedup semantic lifted cluster-wide.
//!
//! ## Roaming
//!
//! Each device has an owning gateway (the lane expected to serve its
//! downlink). Ownership follows delivery elections but with
//! **hysteresis**: a challenger must beat the incumbent's RSSI for the
//! same message by [`RoamingConfig::hysteresis_db`] *and* the incumbent
//! must have held the device for [`RoamingConfig::min_dwell`] — unless
//! the incumbent did not hear the message at all, in which case the
//! handoff is immediate. Flapping RSSI near the cell boundary therefore
//! cannot thrash ownership, but a device walking out of a dead
//! gateway's cell is re-homed on the next delivery.
//!
//! ## Sharding invariant
//!
//! All aggregation state is keyed by device, and a device maps to
//! exactly one shard (a pure hash of its id — **not** of the worker
//! count). Each shard *owns* its slice of the device table and folds
//! its reports into it in place: one stable sort by `(device, arrival,
//! ordinal)` per round, no per-device copy of the state and no merge
//! pass back into a shared table. Workers only decide which thread
//! executes which shard; the merge of counters and deliveries is
//! index-ordered and the deliveries are sorted by `(arrival, device,
//! seq)`, so `WILE_WORKERS=1/2/8` produce byte-identical results
//! (`tests/cluster_diff.rs` asserts it end to end).

use crate::report::{ClusterDelivery, GatewayReport};
use std::collections::hash_map::Entry;
use std::sync::Mutex;
use wile_radio::hash::{KeyedMap, KeyedSet};
use wile_radio::time::{Duration, Instant};
use wile_sim::engine::run_cells;
use wile_telemetry::Registry;

/// Roaming/handoff tuning.
#[derive(Debug, Clone, Copy)]
pub struct RoamingConfig {
    /// How many dB stronger a challenger must hear a message than the
    /// incumbent owner before ownership moves (when both heard it).
    pub hysteresis_db: f64,
    /// Minimum time a gateway holds a device before a
    /// stronger-challenger handoff may occur (waived when the incumbent
    /// goes deaf to the device).
    pub min_dwell: Duration,
}

impl Default for RoamingConfig {
    fn default() -> Self {
        RoamingConfig {
            hysteresis_db: 6.0,
            min_dwell: Duration::from_secs(30),
        }
    }
}

/// Per-lane (per-gateway) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Reports the gateway pipeline offered to the cluster (post
    /// per-gateway dedup, pre queue).
    pub hears: u64,
    /// Reports dropped at this lane's bounded queue (backpressure).
    pub queue_drops: u64,
    /// Deepest this lane's queue has ever been.
    pub queue_high_water: usize,
    /// Deliveries this lane's report won.
    pub wins: u64,
    /// Reports dequeued but suppressed as cross-gateway duplicates.
    pub suppressions: u64,
    /// Reports shed by fault machinery with accounting: backhaul
    /// buffer overflow, retry exhaustion during a partition, or
    /// aggregator admission control under overload.
    pub shed: u64,
    /// Reports destroyed in this lane's queue or backhaul buffer when
    /// its process crashed.
    pub lost_in_crash: u64,
    /// Crash windows this lane has entered.
    pub crashes: u64,
    /// Restarts (crash windows exited; ≤ `crashes` mid-window).
    pub restarts: u64,
    /// Reports currently parked in the lane's partition backhaul
    /// buffer — in flight, neither delivered nor lost yet. Zero
    /// whenever no partition is active.
    pub backhaul_buffered: usize,
}

/// A structured snapshot of everything the cluster counted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Per-gateway counters, by lane index.
    pub lanes: Vec<LaneStats>,
    /// Messages delivered cluster-wide (exactly once each).
    pub delivered: u64,
    /// Ownership handoffs between gateways.
    pub handoffs: u64,
    /// Devices evicted as stale.
    pub evicted: u64,
    /// Devices currently tracked (heard at least once, not evicted).
    pub devices_tracked: usize,
    /// Orphaned devices re-adopted by a delivery election after their
    /// owning lane crashed.
    pub recovered: u64,
    /// Checkpoints the cluster has taken across all lanes.
    pub checkpoints: u64,
}

impl ClusterStats {
    /// Total reports offered by all gateway pipelines.
    pub fn total_hears(&self) -> u64 {
        self.lanes.iter().map(|l| l.hears).sum()
    }

    /// Total reports dropped by lane queues.
    pub fn total_drops(&self) -> u64 {
        self.lanes.iter().map(|l| l.queue_drops).sum()
    }

    /// Total cross-gateway dedup suppressions.
    pub fn total_suppressions(&self) -> u64 {
        self.lanes.iter().map(|l| l.suppressions).sum()
    }

    /// Total reports shed by fault machinery (partitions + overload).
    pub fn total_shed(&self) -> u64 {
        self.lanes.iter().map(|l| l.shed).sum()
    }

    /// Total reports destroyed in lane crashes.
    pub fn total_lost_in_crash(&self) -> u64 {
        self.lanes.iter().map(|l| l.lost_in_crash).sum()
    }

    /// Total reports currently parked in partition backhaul buffers.
    pub fn total_buffered(&self) -> u64 {
        self.lanes.iter().map(|l| l.backhaul_buffered as u64).sum()
    }

    /// Deepest any lane queue has ever been.
    pub fn max_queue_high_water(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// The extended conservation law the whole subsystem is audited
    /// against: every offered report is delivered, suppressed, dropped
    /// at a queue, shed by fault machinery, destroyed in a crash, or
    /// still parked in a partition backhaul buffer — nothing vanishes,
    /// nothing is double-counted. With no fault layer (or an empty
    /// plan) every fault term is zero and this degenerates to PR 5's
    /// `delivered + suppressions + queue_drops == hears`.
    pub fn conserves_offered_load(&self) -> bool {
        self.delivered
            + self.total_suppressions()
            + self.total_drops()
            + self.total_shed()
            + self.total_lost_in_crash()
            + self.total_buffered()
            == self.total_hears()
    }
}

/// Everything the aggregator remembers about one device.
#[derive(Debug)]
struct DeviceState {
    /// Sequence numbers delivered cluster-wide (cleared per epoch via
    /// [`ClusterAggregator::clear_dedup`]; seqs wrap at 65536). Keyed
    /// hashing: the daemon decodes these off the wire.
    seen: KeyedSet<u16>,
    /// Owning lane.
    owner: usize,
    /// When the current owner acquired the device.
    owner_since: Instant,
    /// Last time any gateway heard the device (delivered or not).
    last_heard: Instant,
    /// The owning lane crashed since the last delivery: ownership is
    /// provisional and the next delivery election re-elects it
    /// unconditionally (dwell and hysteresis waived).
    orphaned: bool,
}

/// One shard of the aggregator: the devices that hash to it, which it
/// alone reads and writes, and the reports a round routes to it.
#[derive(Debug, Default)]
struct Shard {
    devices: KeyedMap<u32, DeviceState>,
    /// This round's reports; empty between rounds (the allocation is
    /// kept for the next one).
    reports: Vec<GatewayReport>,
}

/// What one shard computed from its slice of a round, merged back in
/// shard order.
struct ShardOutcome {
    deliveries: Vec<ClusterDelivery>,
    wins: Vec<u64>,
    suppressions: Vec<u64>,
    handoffs: u64,
    recoveries: u64,
    /// Per-shard telemetry (election group sizes, win RSSI), built only
    /// when the aggregator has telemetry enabled. Shards never share a
    /// registry; the owner merges these back **in shard order**, so the
    /// merged snapshot is identical at any worker count.
    metrics: Option<Registry>,
}

/// A device's shard: a fixed multiplicative hash of its id. Depends on
/// the shard count only — never on workers — so the partition (and
/// therefore every result) is stable across worker settings.
fn shard_of(device_id: u32, shards: usize) -> usize {
    (device_id.wrapping_mul(0x9E37_79B1) >> 16) as usize % shards
}

/// The cross-gateway aggregation stage. See the module docs for the
/// election, roaming, and sharding semantics.
#[derive(Debug)]
pub struct ClusterAggregator {
    roaming: RoamingConfig,
    /// The device table, partitioned by [`shard_of`]. A round hands each
    /// worker whole shards, so the locks are never contended; they only
    /// let a worker fold its shard in place.
    shards: Vec<Mutex<Shard>>,
    wins: Vec<u64>,
    suppressions: Vec<u64>,
    delivered: u64,
    handoffs: u64,
    evicted: u64,
    recovered: u64,
    /// When present, rounds record election-shape metrics here (merged
    /// from per-shard registries in shard order).
    telemetry: Option<Registry>,
}

impl ClusterAggregator {
    /// An aggregator for `lanes` gateways, sharding rounds `shards`
    /// ways (≥ 1).
    pub fn new(lanes: usize, shards: usize, roaming: RoamingConfig) -> Self {
        assert!(shards >= 1, "at least one shard");
        ClusterAggregator {
            roaming,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            wins: vec![0; lanes],
            suppressions: vec![0; lanes],
            delivered: 0,
            handoffs: 0,
            evicted: 0,
            recovered: 0,
            telemetry: None,
        }
    }

    /// Start recording election-shape metrics (group sizes, win RSSI)
    /// into an internal registry; read it back with
    /// [`telemetry`](ClusterAggregator::telemetry).
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Registry::new());
        }
    }

    /// The accumulated election metrics, if
    /// [`enable_telemetry`](ClusterAggregator::enable_telemetry) was
    /// called.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// Grow the lane count by one (gateway registration order).
    pub fn add_lane(&mut self) -> usize {
        self.wins.push(0);
        self.suppressions.push(0);
        self.wins.len() - 1
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.wins.len()
    }

    /// Exclusive access to every shard (no locking: `&mut self`).
    fn shards_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        self.shards
            .iter_mut()
            .map(|m| m.get_mut().expect("aggregator shard poisoned"))
    }

    /// The lane currently owning `device_id`, if it is tracked.
    pub fn owner_of(&self, device_id: u32) -> Option<usize> {
        let shard = self.shards[shard_of(device_id, self.shards.len())]
            .lock()
            .expect("aggregator shard poisoned");
        shard.devices.get(&device_id).map(|d| d.owner)
    }

    /// Messages delivered cluster-wide so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Ownership handoffs so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Devices evicted as stale so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Orphaned devices re-adopted by a delivery election so far.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Mark every device owned by `lane` as orphaned: its owner's
    /// process died, so the next delivery election re-elects ownership
    /// with dwell and hysteresis waived (the recovery path). Dedup
    /// state is untouched — the aggregator never crashes in this model,
    /// which is what keeps cluster-wide at-most-once intact across lane
    /// crashes. Returns the orphaned ids, **sorted** (feeds digests and
    /// reports; same determinism contract as
    /// [`evict_stale`](ClusterAggregator::evict_stale)).
    pub fn orphan_lane(&mut self, lane: usize) -> Vec<u32> {
        let mut ids = Vec::new();
        for shard in self.shards_mut() {
            for (&id, d) in shard.devices.iter_mut() {
                if d.owner == lane {
                    d.orphaned = true;
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Devices currently tracked.
    pub fn devices_tracked(&self) -> usize {
        self.shards
            .iter()
            .map(|m| m.lock().expect("aggregator shard poisoned").devices.len())
            .sum()
    }

    /// Per-lane election wins.
    pub fn lane_wins(&self) -> &[u64] {
        &self.wins
    }

    /// Per-lane dedup suppressions.
    pub fn lane_suppressions(&self) -> &[u64] {
        &self.suppressions
    }

    /// Run one aggregation round over `batch` with up to `workers`
    /// threads, draining `batch` (the caller keeps the allocation for
    /// the next poll). Returns the elected deliveries sorted by
    /// `(arrival, device, seq)` — byte-identical for any `workers`.
    pub fn round(
        &mut self,
        batch: &mut Vec<GatewayReport>,
        workers: usize,
    ) -> Vec<ClusterDelivery> {
        if batch.is_empty() {
            return Vec::new();
        }
        let lanes = self.lanes();
        let n = self.shards.len();
        for r in batch.drain(..) {
            self.shards[shard_of(r.device_id, n)]
                .get_mut()
                .expect("aggregator shard poisoned")
                .reports
                .push(r);
        }
        let shards = &self.shards;
        let roaming = &self.roaming;
        let instrumented = self.telemetry.is_some();
        let outcomes = run_cells(n, workers.max(1), |s| {
            let mut shard = shards[s].lock().expect("aggregator shard poisoned");
            shard.fold_round(roaming, lanes, instrumented)
        });

        let mut deliveries = Vec::new();
        for out in outcomes {
            if let (Some(total), Some(shard)) = (self.telemetry.as_mut(), out.metrics.as_ref()) {
                total.merge_from(shard);
            }
            for lane in 0..lanes {
                self.wins[lane] += out.wins[lane];
                self.suppressions[lane] += out.suppressions[lane];
            }
            self.handoffs += out.handoffs;
            self.recovered += out.recoveries;
            self.delivered += out.deliveries.len() as u64;
            deliveries.extend(out.deliveries);
        }
        deliveries.sort_by_key(|d| (d.at, d.device_id, d.seq));
        deliveries
    }

    /// Evict every device no gateway has heard for `idle`; returns the
    /// evicted ids, sorted. Ownership and dedup state are forgotten —
    /// a device that comes back is re-adopted from scratch (sequence
    /// numbers will have moved on by then; mid-epoch returns that reuse
    /// a seq are indistinguishable from replays and stay suppressed at
    /// the per-gateway layer anyway).
    pub fn evict_stale(&mut self, now: Instant, idle: Duration) -> Vec<u32> {
        let mut gone = Vec::new();
        for shard in self.shards_mut() {
            shard.devices.retain(|&id, d| {
                let stale = now.since(d.last_heard) >= idle;
                if stale {
                    gone.push(id);
                }
                !stale
            });
        }
        gone.sort_unstable();
        self.evicted += gone.len() as u64;
        gone
    }

    /// Forget cluster-wide dedup state (call per sequence epoch, like
    /// [`wile::monitor::Gateway::clear_dedup`]); ownership and
    /// last-heard clocks survive.
    pub fn clear_dedup(&mut self) {
        for shard in self.shards_mut() {
            for d in shard.devices.values_mut() {
                d.seen.clear();
            }
        }
    }

    /// Snapshot the aggregator-side counters into a [`ClusterStats`]
    /// (queue fields are zero here; [`crate::GatewayCluster::stats`]
    /// overlays them from the lane queues).
    pub fn stats_snapshot(&self) -> ClusterStats {
        ClusterStats {
            lanes: (0..self.lanes())
                .map(|i| LaneStats {
                    wins: self.wins[i],
                    suppressions: self.suppressions[i],
                    ..Default::default()
                })
                .collect(),
            delivered: self.delivered,
            handoffs: self.handoffs,
            evicted: self.evicted,
            devices_tracked: self.devices_tracked(),
            recovered: self.recovered,
            checkpoints: 0,
        }
    }
}

impl Shard {
    /// Fold this round's reports into the shard's devices, in place.
    /// One stable sort by `(device, arrival, ordinal)` lays each
    /// device's reports out in election order, devices ascending, which
    /// is the order deliveries are produced in.
    fn fold_round(
        &mut self,
        roaming: &RoamingConfig,
        lanes: usize,
        instrumented: bool,
    ) -> ShardOutcome {
        let mut out = ShardOutcome {
            deliveries: Vec::new(),
            wins: vec![0; lanes],
            suppressions: vec![0; lanes],
            handoffs: 0,
            recoveries: 0,
            metrics: instrumented.then(Registry::new),
        };
        let mut reports = std::mem::take(&mut self.reports);
        reports.sort_by_key(|r| (r.device_id, r.at, r.ordinal));
        let mut rest = &mut reports[..];
        while !rest.is_empty() {
            let id = rest[0].device_id;
            let n = rest.iter().take_while(|r| r.device_id == id).count();
            let (reps, tail) = rest.split_at_mut(n);
            self.fold_device(id, reps, roaming, &mut out);
            rest = tail;
        }
        reports.clear();
        self.reports = reports;
        out
    }

    /// Fold one device's reports, sorted by `(arrival, ordinal)`. A
    /// device heard for the first time is adopted by its first
    /// election; later groups go through dedup and roaming.
    fn fold_device(
        &mut self,
        id: u32,
        mut reps: &mut [GatewayReport],
        roaming: &RoamingConfig,
        out: &mut ShardOutcome,
    ) {
        let state = match self.devices.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let (group, tail) = reps.split_at_mut(group_len(reps));
                reps = tail;
                let win = &mut group[elect(group, out)];
                let mut seen = KeyedSet::default();
                seen.insert(win.seq);
                let state = e.insert(DeviceState {
                    seen,
                    owner: win.gateway,
                    owner_since: win.at,
                    last_heard: win.at,
                    orphaned: false,
                });
                out.deliveries.push(deliver(win, false));
                state
            }
        };
        while !reps.is_empty() {
            let (group, tail) = reps.split_at_mut(group_len(reps));
            reps = tail;
            let (seq, at) = (group[0].seq, group[0].at);
            if at > state.last_heard {
                state.last_heard = at;
            }
            if state.seen.contains(&seq) {
                for r in group.iter() {
                    out.suppressions[r.gateway] += 1;
                }
                if let Some(m) = out.metrics.as_mut() {
                    m.inc("cluster.election.stale_groups", &[], 1);
                }
                continue;
            }
            let w = elect(group, out);
            state.seen.insert(seq);
            let handoff = roam(state, group, w, roaming, out);
            out.deliveries.push(deliver(&mut group[w], handoff));
        }
    }
}

/// Length of the election group at the head of `reps`: copies of one
/// transmission share `(seq, arrival)`.
fn group_len(reps: &[GatewayReport]) -> usize {
    let (seq, at) = (reps[0].seq, reps[0].at);
    1 + reps[1..]
        .iter()
        .take_while(|r| r.seq == seq && r.at == at)
        .count()
}

/// Elect a group's winner — max RSSI, ties to the lowest lane then
/// ordinal — charging the win and the losers' suppressions to their
/// lanes. Returns the winner's index in `group`.
fn elect(group: &[GatewayReport], out: &mut ShardOutcome) -> usize {
    let mut w = 0;
    for (k, r) in group.iter().enumerate().skip(1) {
        let win = &group[w];
        if r.rssi_dbm > win.rssi_dbm
            || (r.rssi_dbm == win.rssi_dbm && (r.gateway, r.ordinal) < (win.gateway, win.ordinal))
        {
            w = k;
        }
    }
    for (k, r) in group.iter().enumerate() {
        if k != w {
            out.suppressions[r.gateway] += 1;
        }
    }
    let win = &group[w];
    out.wins[win.gateway] += 1;
    if let Some(m) = out.metrics.as_mut() {
        m.observe("cluster.election.group_size", &[], group.len() as u64);
        // RSSI is negative dBm; record path attenuation
        // (-dBm, rounded) so the histogram stays in u64 space.
        m.observe(
            "cluster.election.win_atten_db",
            &[],
            (-win.rssi_dbm).max(0.0).round() as u64,
        );
    }
    w
}

/// Apply roaming to a tracked device after `group[w]` won a delivery
/// election; returns whether ownership moved.
fn roam(
    s: &mut DeviceState,
    group: &[GatewayReport],
    w: usize,
    roaming: &RoamingConfig,
    out: &mut ShardOutcome,
) -> bool {
    let win = &group[w];
    if s.orphaned {
        // Recovery: the owner's process died since the last delivery.
        // Re-elect unconditionally — dwell and hysteresis protect a
        // live incumbent, and this one is (or was) dead.
        s.orphaned = false;
        out.recoveries += 1;
        let moved = win.gateway != s.owner;
        s.owner = win.gateway;
        s.owner_since = win.at;
        if moved {
            out.handoffs += 1;
        }
        return moved;
    }
    if win.gateway == s.owner {
        return false;
    }
    let incumbent_rssi = group
        .iter()
        .filter(|r| r.gateway == s.owner)
        .map(|r| r.rssi_dbm)
        .fold(None, |best: Option<f64>, r| {
            Some(best.map_or(r, |b| if r > b { r } else { b }))
        });
    let moves = match incumbent_rssi {
        // Incumbent deaf to this message: re-home now.
        None => true,
        Some(inc) => {
            win.rssi_dbm > inc + roaming.hysteresis_db
                && win.at.since(s.owner_since) >= roaming.min_dwell
        }
    };
    if moves {
        s.owner = win.gateway;
        s.owner_since = win.at;
        out.handoffs += 1;
    }
    moves
}

/// The delivery a winning report makes. The report is spent once the
/// round ends, so its payload moves instead of being copied.
fn deliver(win: &mut GatewayReport, handoff: bool) -> ClusterDelivery {
    ClusterDelivery {
        device_id: win.device_id,
        seq: win.seq,
        at: win.at,
        rssi_dbm: win.rssi_dbm,
        gateway: win.gateway,
        payload: std::mem::take(&mut win.payload),
        encrypted: win.encrypted,
        handoff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(
        gateway: usize,
        device: u32,
        seq: u16,
        at_ms: u64,
        rssi: f64,
        ord: u64,
    ) -> GatewayReport {
        GatewayReport {
            gateway,
            device_id: device,
            seq,
            at: Instant::from_ms(at_ms),
            rssi_dbm: rssi,
            payload: vec![7],
            encrypted: false,
            ordinal: ord,
        }
    }

    fn agg(lanes: usize) -> ClusterAggregator {
        ClusterAggregator::new(
            lanes,
            4,
            RoamingConfig {
                hysteresis_db: 6.0,
                min_dwell: Duration::from_secs(10),
            },
        )
    }

    #[test]
    fn same_transmission_elects_best_rssi_once() {
        let mut a = agg(3);
        let got = a.round(
            &mut vec![
                rep(0, 1, 0, 100, -70.0, 0),
                rep(1, 1, 0, 100, -55.0, 1),
                rep(2, 1, 0, 100, -62.0, 2),
            ],
            1,
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].gateway, 1);
        assert_eq!(got[0].rssi_dbm, -55.0);
        assert_eq!(a.lane_wins(), &[0, 1, 0]);
        assert_eq!(a.lane_suppressions(), &[1, 0, 1]);
        assert_eq!(a.owner_of(1), Some(1));
    }

    #[test]
    fn repeat_copies_and_stragglers_are_suppressed() {
        let mut a = agg(2);
        // First copy delivered...
        let got = a.round(&mut vec![rep(0, 1, 5, 100, -60.0, 0)], 1);
        assert_eq!(got.len(), 1);
        // ...repeat copy in a later round: suppressed on both lanes.
        let got = a.round(
            &mut vec![rep(0, 1, 5, 650, -58.0, 1), rep(1, 1, 5, 650, -50.0, 2)],
            1,
        );
        assert!(got.is_empty());
        assert_eq!(a.delivered(), 1);
        assert_eq!(a.lane_suppressions(), &[1, 1]);
        // Same-round repeat (two transmissions in one batch): the
        // earlier one wins regardless of RSSI, the later suppresses.
        let got = a.round(
            &mut vec![rep(1, 1, 6, 900, -80.0, 3), rep(0, 1, 6, 1450, -40.0, 4)],
            1,
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].gateway, 1, "first transmission wins");
        assert_eq!(got[0].at, Instant::from_ms(900));
    }

    #[test]
    fn hysteresis_blocks_flapping_but_not_clear_wins() {
        let mut a = agg(2);
        // Adopt on lane 0.
        a.round(&mut vec![rep(0, 7, 0, 0, -60.0, 0)], 1);
        assert_eq!(a.owner_of(7), Some(0));
        // Lane 1 is 3 dB better — inside the 6 dB hysteresis: no move.
        let got = a.round(
            &mut vec![
                rep(0, 7, 1, 20_000, -60.0, 1),
                rep(1, 7, 1, 20_000, -57.0, 2),
            ],
            1,
        );
        assert_eq!(a.owner_of(7), Some(0));
        assert_eq!(a.handoffs(), 0);
        assert!(!got[0].handoff);
        // Lane 1 is 10 dB better and the dwell has elapsed: handoff.
        let got = a.round(
            &mut vec![
                rep(0, 7, 2, 40_000, -60.0, 3),
                rep(1, 7, 2, 40_000, -50.0, 4),
            ],
            1,
        );
        assert_eq!(a.owner_of(7), Some(1));
        assert_eq!(a.handoffs(), 1);
        assert!(got[0].handoff);
    }

    #[test]
    fn min_dwell_delays_strong_challengers() {
        let mut a = agg(2);
        a.round(&mut vec![rep(0, 7, 0, 0, -60.0, 0)], 1);
        // 10 dB better but only 5 s after adoption (< 10 s dwell).
        a.round(
            &mut vec![rep(0, 7, 1, 5_000, -60.0, 1), rep(1, 7, 1, 5_000, -50.0, 2)],
            1,
        );
        assert_eq!(a.owner_of(7), Some(0), "dwell not yet served");
        assert_eq!(a.handoffs(), 0);
    }

    #[test]
    fn deaf_incumbent_loses_immediately() {
        let mut a = agg(2);
        a.round(&mut vec![rep(0, 7, 0, 0, -60.0, 0)], 1);
        // Owner heard nothing, challenger barely hears it, 1 s in:
        // dwell and hysteresis are waived.
        a.round(&mut vec![rep(1, 7, 1, 1_000, -89.0, 1)], 1);
        assert_eq!(a.owner_of(7), Some(1));
        assert_eq!(a.handoffs(), 1);
    }

    #[test]
    fn orphaned_devices_reelect_immediately_and_sorted() {
        let mut a = agg(2);
        a.round(&mut vec![rep(0, 9, 0, 0, -60.0, 0)], 1);
        a.round(&mut vec![rep(0, 4, 0, 10, -60.0, 1)], 1);
        a.round(&mut vec![rep(1, 7, 0, 20, -60.0, 2)], 1);
        // Lane 0 crashes: its devices orphan, returned sorted.
        assert_eq!(a.orphan_lane(0), vec![4, 9]);
        // 1 s later — far inside dwell, 1 dB inside hysteresis — a
        // challenger still takes the orphan instantly.
        let got = a.round(&mut vec![rep(1, 9, 1, 1_000, -61.0, 3)], 1);
        assert_eq!(got.len(), 1);
        assert_eq!(a.owner_of(9), Some(1));
        assert_eq!(a.recovered(), 1);
        assert_eq!(a.handoffs(), 1);
        // The restarted owner itself can also re-adopt: no handoff,
        // still a recovery.
        let got = a.round(&mut vec![rep(0, 4, 1, 2_000, -61.0, 4)], 1);
        assert_eq!(got.len(), 1);
        assert_eq!(a.owner_of(4), Some(0));
        assert_eq!(a.recovered(), 2);
        assert_eq!(a.handoffs(), 1);
        // Dedup survived the crash: the pre-crash seq stays suppressed.
        let got = a.round(&mut vec![rep(1, 9, 1, 3_000, -50.0, 5)], 1);
        assert!(got.is_empty(), "aggregator dedup is crash-proof");
    }

    #[test]
    fn eviction_forgets_devices_and_counts() {
        let mut a = agg(1);
        a.round(&mut vec![rep(0, 1, 0, 0, -60.0, 0)], 1);
        a.round(&mut vec![rep(0, 2, 0, 50_000, -60.0, 1)], 1);
        assert_eq!(a.devices_tracked(), 2);
        let gone = a.evict_stale(Instant::from_secs(70), Duration::from_secs(30));
        assert_eq!(gone, vec![1]);
        assert_eq!(a.devices_tracked(), 1);
        assert_eq!(a.evicted(), 1);
        // The evicted device re-delivers (fresh dedup state).
        let got = a.round(&mut vec![rep(0, 1, 0, 80_000, -60.0, 2)], 1);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn clear_dedup_keeps_ownership() {
        let mut a = agg(2);
        a.round(&mut vec![rep(1, 3, 9, 0, -60.0, 0)], 1);
        a.clear_dedup();
        assert_eq!(a.owner_of(3), Some(1));
        let got = a.round(&mut vec![rep(1, 3, 9, 60_000, -60.0, 1)], 1);
        assert_eq!(got.len(), 1, "epoch cleared: same seq delivers again");
    }

    #[test]
    fn rounds_are_worker_count_independent() {
        let batch = |ord0: u64| -> Vec<GatewayReport> {
            (0..200u32)
                .flat_map(|d| {
                    (0..3usize).map(move |g| {
                        rep(
                            g,
                            d % 37 + 1,
                            (d / 37) as u16,
                            1_000 + (d % 37) as u64 * 10,
                            -60.0 - (g as f64) * (d % 5) as f64,
                            ord0 + (d * 3 + g as u32) as u64,
                        )
                    })
                })
                .collect()
        };
        let run = |workers: usize| {
            let mut a = agg(3);
            let d1 = a.round(&mut batch(0), workers);
            let d2 = a.round(&mut batch(1000), workers);
            (d1, d2, a.stats_snapshot())
        };
        let base = run(1);
        for w in [2, 8] {
            assert_eq!(run(w), base, "workers {w}");
        }
    }
}
