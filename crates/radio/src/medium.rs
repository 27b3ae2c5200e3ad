//! The broadcast medium: radios at positions, transmissions with
//! airtime, per-receiver SNR/PER, collisions with physical capture.
//!
//! The medium is PHY-agnostic: callers pass each transmission's airtime
//! and decode threshold (computed from `wile_dot11::phy` one layer up),
//! so this crate does not depend on the 802.11 crate and can carry BLE
//! advertising PDUs with identical semantics.
//!
//! # Determinism
//!
//! Loss decisions are derived from a per-(transmission, receiver) hash of
//! the medium's seed, so results do not depend on the order receivers
//! poll their inboxes.
//!
//! # Performance
//!
//! The medium is a hot path for fleet-scale campaigns, so it indexes
//! its state instead of rescanning it:
//!
//! * live transmissions are indexed **per channel**, and carrier sense
//!   ([`Medium::is_busy`]) binary-searches a start-time window bounded
//!   by the longest airtime seen, instead of walking the whole log;
//! * the **collision scan** inside [`Medium::take_inbox`] searches
//!   nothing: each transmission records its position in its channel's
//!   list, and every same-channel transmission that can overlap it sits
//!   in one contiguous run of that list around it. The scan gallops
//!   back from the frame to the first entry starting later than
//!   `start − max_airtime`, then walks forward in index order until
//!   starts pass the frame's end. Finding the run costs O(log run)
//!   probes, one when it starts at the frame, instead of two binary
//!   searches over the whole channel list, and other channels' traffic
//!   (BLE advertising beside Wi-LE) is never visited. It visits
//!   interferers in ascending issue order and stops at the first
//!   collision, so which links it looks up (and so the link-cache
//!   hit/miss counters) is fixed by the log alone;
//! * transmissions are additionally indexed **per spatial cell** of the
//!   sender, and inbox drains only visit cells within the listener's
//!   sensitivity horizon — in a metro-scale hall a gateway examines the
//!   few thousand beacons transmitted near it, not the whole city's
//!   (see "Spatial sharding" below);
//! * pairwise received power (path loss + static shadowing) is
//!   **memoized per (tx, rx) link** — for static topologies every
//!   `log10`/`sqrt`/Box–Muller evaluation happens once — and
//!   out-of-horizon pairs are distance-culled *before* touching the
//!   cache, so the cache holds O(audible links), not O(radios²);
//! * the **horizon fast path**: sensitivity horizons are memoized per
//!   (power, sensitivity), and the last one looked up is kept beside
//!   its key, so a fleet that transmits at one power to listeners of
//!   one sensitivity answers every distance cull from a single
//!   comparison instead of a map probe;
//! * the link cache, the spatial index and the horizon memo hash their
//!   integer keys with the **keyed hasher** of [`crate::hash`]: one
//!   multiply-rotate per word and a final avalanche, keyed once per
//!   process, instead of SipHash;
//! * frame bytes are stored once and shared (`Arc<[u8]>`): delivering a
//!   beacon to N gateways bumps a refcount N times instead of copying
//!   the payload N times;
//! * with [`Medium::retire_consumed`] enabled, transmissions every
//!   attached cursor has passed are **retired**, so long campaigns run
//!   in memory bounded by the in-flight window rather than the full
//!   history.
//!
//! # Spatial sharding
//!
//! Shadowing deviates are clamped to ±[`SHADOW_CLAMP_SIGMA`] standard
//! deviations (the implicit bound of the old hash-fed Box–Muller was
//! ±7.4σ — beyond physical plausibility and uselessly loose). That makes
//! the strongest possible arrival at distance `d` a closed form, and
//! inverting it gives the **sensitivity horizon**: the distance beyond
//! which a transmission at power `p` cannot reach a listener with
//! sensitivity `s` even with maximum shadowing gain. Radios live in a
//! grid of [`CELL_M`]-metre cells keyed by position; a drain visits only
//! cells within the horizon of the strongest power ever transmitted.
//! Every skipped transmission is *provably* below the listener's
//! sensitivity, so the cull is behaviour-preserving, not approximate.
//!
//! All of this is behaviour-preserving: the [`RxFrame`] sequence each
//! listener observes is byte-identical to the retained naive reference
//! implementation ([`crate::naive::NaiveMedium`]), which the property
//! tests in `tests/props.rs` enforce over random topologies.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::channel::ChannelModel;
use crate::hash::KeyedMap;
use crate::per::packet_error_rate;
use crate::stats::{MediumCounters, MediumStats};
use crate::time::{Duration, Instant};

/// Identifies one attached radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RadioId(pub u32);

/// Static configuration of an attached radio.
#[derive(Debug, Clone, Copy)]
pub struct RadioConfig {
    /// Position in metres (planar).
    pub position_m: (f64, f64),
    /// Channel number the radio is tuned to (2.4 GHz numbering, or the
    /// BLE advertising channel index — only equality matters).
    pub channel: u8,
    /// Below this received power (dBm) the radio does not even detect
    /// the frame (no interference contribution is modelled below it
    /// either — a simplification).
    pub sensitivity_dbm: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            position_m: (0.0, 0.0),
            channel: 6,
            sensitivity_dbm: -92.0,
        }
    }
}

/// Parameters of one transmission.
#[derive(Debug, Clone, Copy)]
pub struct TxParams {
    /// On-air duration of the PPDU.
    pub airtime: Duration,
    /// Transmit power, dBm.
    pub power_dbm: f64,
    /// SNR (dB) at which this frame's modulation decodes with 50 % PER
    /// for a 1000-byte frame (see `wile_dot11::phy::PhyRate::min_snr_db`).
    pub min_snr_db: f64,
}

/// A frame as it arrived at one receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct RxFrame {
    /// Delivery time (end of the PPDU).
    pub at: Instant,
    /// The transmitting radio.
    pub from: RadioId,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio at this receiver, dB.
    pub snr_db: f64,
    /// The frame bytes, shared with the medium's transmission log —
    /// delivery to N receivers is N refcount bumps, not N copies. Fault
    /// injection that corrupts a frame copy-on-writes its own copy
    /// ([`crate::plan::FaultTimeline::apply_shared`]).
    pub bytes: Arc<[u8]>,
}

#[derive(Debug, Clone)]
struct Transmission {
    from: RadioId,
    start: Instant,
    end: Instant,
    /// Ordinal in its channel's log, retired entries included: the
    /// transmission sits at `chan_ord − retired` in [`ChannelLog::idxs`].
    chan_ord: u64,
    params: TxParams,
    bytes: Arc<[u8]>,
}

/// One channel's transmissions, start-ordered.
#[derive(Debug, Clone, Default)]
struct ChannelLog {
    /// Entries dropped from the front by retirement.
    retired: u64,
    /// Absolute indices of the retained transmissions.
    idxs: Vec<u64>,
}

/// How much stronger (dB) the wanted signal must be than an overlapping
/// interferer for the receiver to capture it anyway.
pub const CAPTURE_MARGIN_DB: f64 = 10.0;

/// Log-normal shadowing deviates are clamped to this many standard
/// deviations on either side. Bounding the tail is what makes the
/// sensitivity horizon (and therefore the spatial cull) a closed form;
/// ±4σ keeps 99.994 % of the distribution and caps the gain a link can
/// shadow *up* by (e.g. +24 dB at σ = 6).
pub const SHADOW_CLAMP_SIGMA: f64 = 4.0;

/// Edge length (metres) of the spatial grid cells senders are indexed
/// by. Small enough that a metro hall spans many cells, large enough
/// that short-horizon fleets only ever merge a handful of neighbour
/// lists per drain.
pub const CELL_M: f64 = 32.0;

/// The grid cell containing a position.
fn cell_of(pos: (f64, f64)) -> (i32, i32) {
    (
        (pos.0 / CELL_M).floor() as i32,
        (pos.1 / CELL_M).floor() as i32,
    )
}

/// Memoized per-link received power, stored sparsely: fleets exercise
/// O(active links) pairs — a 10k-device star topology touches 10k
/// links, not the 10⁸ a dense matrix would allocate (and re-zero on
/// every attach, making setup O(radios³) overall). Positions are fixed
/// at attach, so entries never go stale. Each entry is keyed by the
/// transmit power it was computed for (radios almost always transmit
/// at one power, so a single slot per link suffices).
#[derive(Debug, Clone, Default)]
struct LinkCache {
    /// `(from, to)` → (tx power bits, rx power dBm).
    slots: KeyedMap<(u32, u32), (u64, f64)>,
}

/// The shared broadcast medium.
///
/// ```
/// use wile_radio::{Medium, RadioConfig};
/// use wile_radio::medium::TxParams;
/// use wile_radio::{Duration, Instant};
///
/// let mut m = Medium::new(Default::default(), 42);
/// let sensor = m.attach(RadioConfig { position_m: (0.0, 0.0), ..Default::default() });
/// let phone = m.attach(RadioConfig { position_m: (3.0, 0.0), ..Default::default() });
///
/// m.transmit(sensor, Instant::from_ms(10), TxParams {
///     airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 25.0,
/// }, b"beacon".to_vec());
///
/// let rx = m.take_inbox(phone, Instant::from_secs(1));
/// assert_eq!(rx.len(), 1);
/// assert_eq!(&rx[0].bytes[..], b"beacon");
/// ```
#[derive(Debug, Clone)]
pub struct Medium {
    model: ChannelModel,
    seed: u64,
    radios: Vec<RadioConfig>,
    /// Retained transmissions; absolute index = `base` + vec position.
    txs: Vec<Transmission>,
    /// Absolute index of `txs[0]` (count of retired transmissions).
    base: u64,
    /// Per-receiver cursor (absolute): everything before it has been
    /// offered to that receiver already.
    cursors: Vec<u64>,
    /// Per-receiver high-water mark of `up_to` deadlines the receiver
    /// has drained (or released) its inbox to.
    drained_to: Vec<Instant>,
    /// Transmissions per channel, start-ordered: carrier sense
    /// searches it, the collision scan walks it.
    by_channel: BTreeMap<u8, ChannelLog>,
    /// Absolute indices per (channel, sender cell), start-ordered — the
    /// spatial shard index inbox drains merge from.
    cell_txs: KeyedMap<(u8, i32, i32), Vec<u64>>,
    /// Longest airtime ever transmitted — bounds the start-time window
    /// a transmission can overlap.
    max_airtime: Duration,
    /// Strongest power ever transmitted — bounds the horizon any
    /// retained transmission can reach.
    max_power_dbm: f64,
    cache: RefCell<LinkCache>,
    /// Memoized sensitivity horizons keyed by (power bits, sensitivity
    /// bits); fleets use a handful of distinct combinations.
    horizons: RefCell<KeyedMap<(u64, u64), f64>>,
    /// The last horizon looked up, with its key: a fleet transmitting
    /// at one power to listeners of one sensitivity never reaches the
    /// map.
    last_horizon: Cell<Option<((u64, u64), f64)>>,
    /// Retire fully-consumed history (see [`Medium::retire_consumed`]).
    bounded: bool,
    last_start: Instant,
    /// Total frames ever transmitted (for stats).
    tx_count: u64,
    /// Cursor advances since the last retirement scan — amortizes the
    /// O(radios) min-cursor pass to O(1) per drain on large fleets.
    retire_skip: u32,
    /// Scratch for merging neighbour-cell index lists without a per-poll
    /// allocation.
    inbox_scratch: Vec<u64>,
    /// Observational tallies (see [`Medium::stats`]).
    counters: MediumCounters,
}

impl Medium {
    /// A medium with the given propagation model and loss seed.
    pub fn new(model: ChannelModel, seed: u64) -> Self {
        Medium {
            model,
            seed,
            radios: Vec::new(),
            txs: Vec::new(),
            base: 0,
            cursors: Vec::new(),
            drained_to: Vec::new(),
            by_channel: BTreeMap::new(),
            cell_txs: KeyedMap::default(),
            max_airtime: Duration::ZERO,
            max_power_dbm: f64::NEG_INFINITY,
            cache: RefCell::new(LinkCache::default()),
            horizons: RefCell::new(KeyedMap::default()),
            last_horizon: Cell::new(None),
            bounded: false,
            last_start: Instant::ZERO,
            tx_count: 0,
            retire_skip: 0,
            inbox_scratch: Vec::new(),
            counters: MediumCounters::default(),
        }
    }

    /// Attach a radio; returns its id.
    pub fn attach(&mut self, cfg: RadioConfig) -> RadioId {
        self.radios.push(cfg);
        self.cursors.push(self.base);
        self.drained_to.push(Instant::ZERO);
        RadioId(self.radios.len() as u32 - 1)
    }

    /// The propagation model in use.
    pub fn model(&self) -> &ChannelModel {
        &self.model
    }

    /// Number of attached radios.
    pub fn radio_count(&self) -> usize {
        self.radios.len()
    }

    /// Total transmissions offered to the medium so far.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// Snapshot of the medium's observational counters: delivery and
    /// loss breakdown, link-cache effectiveness, retained-log depth.
    pub fn stats(&self) -> MediumStats {
        self.counters.snapshot(self.tx_count)
    }

    /// Bound the medium's memory: retire transmissions once every
    /// attached cursor has passed them and no live query can still see
    /// them. Off by default (the full history is retained for
    /// [`Medium::transmissions`] consumers such as pcap export).
    ///
    /// In bounded mode two contracts apply, both natural for
    /// time-ordered event loops:
    ///
    /// * [`Medium::transmissions`] yields only the retained suffix;
    /// * a receiver must not query [`Medium::is_busy`] or
    ///   [`Medium::take_inbox`] for instants earlier than deadlines it
    ///   has already drained or released to.
    ///
    /// Listeners that never read their inbox (transmit-only devices)
    /// should periodically call [`Medium::release`] so history behind
    /// them can be reclaimed.
    pub fn retire_consumed(&mut self, on: bool) {
        self.bounded = on;
    }

    /// Transmissions currently retained in memory (≤ [`Medium::tx_count`]
    /// once retirement is enabled).
    pub fn live_tx_count(&self) -> usize {
        self.txs.len()
    }

    /// Transmissions retired so far (always 0 unless
    /// [`Medium::retire_consumed`] is enabled).
    pub fn retired_tx_count(&self) -> u64 {
        self.base
    }

    fn tx(&self, abs: u64) -> &Transmission {
        &self.txs[(abs - self.base) as usize]
    }

    /// Transmit `bytes` from `from` starting at `at`.
    ///
    /// Transmissions must be issued in non-decreasing start-time order
    /// (the event queue guarantees this in multi-device scenarios);
    /// issuing one earlier than the previous start panics, because
    /// collision resolution would silently miss it.
    ///
    /// `bytes` is anything that converts into the shared buffer. An
    /// `Arc<[u8]>` is taken as is; every other form (`Vec<u8>`,
    /// `&[u8]`) is copied once into a new shared allocation. Passing a
    /// borrowed slice therefore saves building an owned `Vec` first
    /// (the MAC template path hands over its patched frame by
    /// reference instead of `render()`ing a copy).
    ///
    /// Returns the end-of-frame instant.
    pub fn transmit(
        &mut self,
        from: RadioId,
        at: Instant,
        params: TxParams,
        bytes: impl Into<Arc<[u8]>>,
    ) -> Instant {
        assert!(
            at >= self.last_start,
            "transmissions must be issued in time order ({at} < {})",
            self.last_start
        );
        self.last_start = at;
        let end = at + params.airtime;
        if params.airtime > self.max_airtime {
            self.max_airtime = params.airtime;
        }
        if params.power_dbm > self.max_power_dbm {
            self.max_power_dbm = params.power_dbm;
        }
        let cfg = self.radios[from.0 as usize];
        let channel = cfg.channel;
        let abs = self.base + self.txs.len() as u64;
        let log = self.by_channel.entry(channel).or_default();
        let chan_ord = log.retired + log.idxs.len() as u64;
        log.idxs.push(abs);
        let (ci, cj) = cell_of(cfg.position_m);
        self.cell_txs
            .entry((channel, ci, cj))
            .or_default()
            .push(abs);
        self.txs.push(Transmission {
            from,
            start: at,
            end,
            chan_ord,
            params,
            bytes: bytes.into(),
        });
        self.tx_count += 1;
        self.counters.high_water(self.txs.len() as u64);
        end
    }

    /// Absolute-index window `[lo, hi)` of channel-list entries whose
    /// start lies in `(before - max_airtime, deadline]` — the only
    /// entries that can overlap an instant ≥ `before`. `idxs` is
    /// start-ordered because transmissions are issued in time order.
    fn channel_window(&self, idxs: &[u64], before: Instant, deadline: Instant) -> (usize, usize) {
        // A transmission with start ≤ before − max_airtime has
        // end ≤ before, so it cannot reach `before` or beyond. When the
        // subtraction would go below zero no lower cull is possible.
        let lo = match before.as_nanos().checked_sub(self.max_airtime.as_nanos()) {
            Some(floor_ns) => idxs.partition_point(|&i| self.tx(i).start.as_nanos() <= floor_ns),
            None => 0,
        };
        let hi = idxs.partition_point(|&i| self.tx(i).start <= deadline);
        (lo, hi)
    }

    /// The distance (metres) beyond which a transmission at `power_dbm`
    /// cannot arrive at or above `sensitivity_dbm` even with maximum
    /// (+[`SHADOW_CLAMP_SIGMA`]·σ) shadowing gain. Infinite when the
    /// model cannot bound it (non-positive path-loss exponent).
    fn horizon_m(&self, power_dbm: f64, sensitivity_dbm: f64) -> f64 {
        let key = (power_dbm.to_bits(), sensitivity_dbm.to_bits());
        if let Some((last, h)) = self.last_horizon.get() {
            if last == key {
                return h;
            }
        }
        let memo = self.horizons.borrow().get(&key).copied();
        let h = memo.unwrap_or_else(|| self.compute_horizon_m(key, power_dbm, sensitivity_dbm));
        self.last_horizon.set(Some((key, h)));
        h
    }

    /// [`Medium::horizon_m`] on a miss: the closed form, memoized.
    fn compute_horizon_m(&self, key: (u64, u64), power_dbm: f64, sensitivity_dbm: f64) -> f64 {
        let budget = power_dbm + SHADOW_CLAMP_SIGMA * self.model.shadowing_sigma_db
            - sensitivity_dbm
            - self.model.pl0_db;
        let h = if self.model.exponent > 0.0 && budget.is_finite() {
            // A hair of slack absorbs the powf↔log10 round-trip error so
            // the cull stays strictly conservative, plus the 0.1 m
            // path-loss floor.
            (10f64.powf(budget / (10.0 * self.model.exponent)) * 1.000_001).max(0.2)
        } else {
            f64::INFINITY
        };
        self.horizons.borrow_mut().insert(key, h);
        h
    }

    /// True when the `from` → `to` link is provably below
    /// `sensitivity_dbm` for a transmission at `power_dbm`: the pair is
    /// farther apart than the sensitivity horizon. Used to skip the
    /// received-power path (and its cache insert) for pairs that could
    /// never be heard; `false` on any non-finite geometry, which safely
    /// falls through to the exact computation.
    fn beyond_horizon(&self, from: RadioId, to: RadioId, power_dbm: f64, sens_dbm: f64) -> bool {
        let h = self.horizon_m(power_dbm, sens_dbm);
        if !h.is_finite() {
            return false;
        }
        let a = self.radios[from.0 as usize].position_m;
        let b = self.radios[to.0 as usize].position_m;
        let d2 = (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2);
        d2 > h * h
    }

    /// Whether `listener` would sense the medium busy at `at` (any
    /// in-flight transmission on its channel above its sensitivity).
    ///
    /// Cost is O(log n + k) in the number of retained transmissions on
    /// the listener's channel, where k is the overlap window — the
    /// device-side carrier-sense ramp calls this on every copy.
    pub fn is_busy(&self, listener: RadioId, at: Instant) -> bool {
        let cfg = self.radios[listener.0 as usize];
        let Some(ChannelLog { idxs, .. }) = self.by_channel.get(&cfg.channel) else {
            return false;
        };
        // Active at `at` ⇔ start ≤ at < end; start-sorted, so the
        // candidates sit in the (at − max_airtime, at] start window.
        let (lo, hi) = self.channel_window(idxs, at, at);
        idxs[lo..hi].iter().any(|&i| {
            let tx = self.tx(i);
            at < tx.end
                && tx.from != listener
                && !self.beyond_horizon(tx.from, listener, tx.params.power_dbm, cfg.sensitivity_dbm)
                && self.rx_power(tx, listener) >= cfg.sensitivity_dbm
        })
    }

    /// The absolute index where a cursor walk to `up_to` stops: the
    /// first transmission at or after `cursor` whose end is after
    /// `up_to` (everything before it has been consumed). Binary search
    /// on starts plus a scan bounded by `max_airtime`: a transmission
    /// starting at or before `up_to − max_airtime` has necessarily
    /// ended, and one starting after `up_to` necessarily has not.
    fn inbox_stop(&self, cursor: u64, up_to: Instant) -> u64 {
        let hi = self.base + self.txs.partition_point(|t| t.start <= up_to) as u64;
        let lo = match up_to.as_nanos().checked_sub(self.max_airtime.as_nanos()) {
            Some(floor_ns) => {
                self.base + self.txs.partition_point(|t| t.start.as_nanos() <= floor_ns) as u64
            }
            None => self.base,
        };
        let mut i = lo.max(cursor);
        while i < hi {
            if self.tx(i).end > up_to {
                return i;
            }
            i += 1;
        }
        hi
    }

    /// Collect every frame that finished arriving at `listener` by
    /// `up_to`, applying SNR-based loss and collision capture. Frames are
    /// returned once; later calls continue where this one left off.
    ///
    /// Call this only after all transmissions starting before `up_to`
    /// have been issued, or late transmissions may miss collisions.
    pub fn take_inbox(&mut self, listener: RadioId, up_to: Instant) -> Vec<RxFrame> {
        let mut out = Vec::new();
        self.take_inbox_into(listener, up_to, &mut out);
        out
    }

    /// [`Medium::take_inbox`], appending into a caller-owned buffer —
    /// the allocation-free form for pollers that drain every few
    /// seconds for hours.
    ///
    /// The walk is spatially sharded: only transmissions from cells
    /// within the sensitivity horizon are merged (in issue order, so
    /// the frame sequence is identical to the naive full walk — every
    /// skipped transmission is provably below sensitivity), and the
    /// cursor advances to exactly where the full walk would stop.
    pub fn take_inbox_into(&mut self, listener: RadioId, up_to: Instant, out: &mut Vec<RxFrame>) {
        let cfg = self.radios[listener.0 as usize];
        let cursor = self.cursors[listener.0 as usize];
        let end = self.base + self.txs.len() as u64;
        if cursor < end {
            let stop = self.inbox_stop(cursor, up_to);
            if stop > cursor {
                let mut cand = std::mem::take(&mut self.inbox_scratch);
                cand.clear();
                self.collect_audible(cfg, cursor, stop, &mut cand);
                // Each transmission lives in exactly one cell list, so
                // the sorted union is duplicate-free and issue-ordered.
                cand.sort_unstable();
                // Every candidate is on the listener's channel.
                if let Some(log) = self.by_channel.get(&cfg.channel) {
                    for &i in &cand {
                        if self.tx(i).from != listener {
                            if let Some(frame) = self.receive_one(i, log, listener, cfg) {
                                out.push(frame);
                            }
                        }
                    }
                }
                self.inbox_scratch = cand;
            }
            self.cursors[listener.0 as usize] = stop;
        }
        if up_to > self.drained_to[listener.0 as usize] {
            self.drained_to[listener.0 as usize] = up_to;
        }
        self.maybe_retire(false);
    }

    /// Gather the `[cursor, stop)` segments of every cell list on the
    /// listener's channel within its sensitivity horizon. Cells outside
    /// the square of radius `⌊h/CELL⌋ + 1` are at least `h` metres away
    /// at their nearest corner, so nothing in them can be heard.
    fn collect_audible(&self, cfg: RadioConfig, cursor: u64, stop: u64, cand: &mut Vec<u64>) {
        let mut push_list = |idxs: &[u64]| {
            let lo = idxs.partition_point(|&i| i < cursor);
            let hi = idxs.partition_point(|&i| i < stop);
            cand.extend_from_slice(&idxs[lo..hi]);
        };
        let h = self.horizon_m(self.max_power_dbm, cfg.sensitivity_dbm);
        let r = if h.is_finite() {
            (h / CELL_M).floor() as i64 + 1
        } else {
            i64::MAX
        };
        let (ci, cj) = cell_of(cfg.position_m);
        let span = r.checked_mul(2).and_then(|d| d.checked_add(1));
        let enumerable = span
            .and_then(|s| s.checked_mul(s))
            .is_some_and(|n| n <= self.cell_txs.len() as i64);
        if enumerable {
            let r = r as i32;
            for di in -r..=r {
                for dj in -r..=r {
                    let key = (cfg.channel, ci.wrapping_add(di), cj.wrapping_add(dj));
                    if let Some(idxs) = self.cell_txs.get(&key) {
                        push_list(idxs);
                    }
                }
            }
        } else {
            // Fewer occupied cells than the neighbourhood has slots:
            // filter the occupied set instead of enumerating the square.
            for (&(ch, i, j), idxs) in &self.cell_txs {
                if ch == cfg.channel
                    && (i as i64 - ci as i64).abs() <= r
                    && (j as i64 - cj as i64).abs() <= r
                {
                    push_list(idxs);
                }
            }
        }
    }

    /// Declare that `listener` will never ask for frames that finished
    /// by `up_to`: advances its cursor without modelling reception, so
    /// consumed history behind it can be retired in bounded mode.
    ///
    /// Loss decisions are stateless per (transmission, receiver), so
    /// skipping them here cannot disturb any other receiver's stream.
    pub fn release(&mut self, listener: RadioId, up_to: Instant) {
        let cursor = self.cursors[listener.0 as usize];
        if cursor < self.base + self.txs.len() as u64 {
            self.cursors[listener.0 as usize] = self.inbox_stop(cursor, up_to);
        }
        if up_to > self.drained_to[listener.0 as usize] {
            self.drained_to[listener.0 as usize] = up_to;
        }
        self.maybe_retire(false);
    }

    /// [`Medium::release`] for every attached radio at once, in one
    /// pass: O(retained + radios) instead of radios × (scan +
    /// retirement check). This is what makes 10k-radio fleets viable —
    /// a gateway that polls every few seconds would otherwise spend
    /// O(radios²) per poll advancing transmit-only cursors one radio at
    /// a time.
    ///
    /// Receivers that still want frames ending by `up_to` must drain
    /// ([`Medium::take_inbox`]) *before* this is called; afterwards that
    /// history is considered consumed for everyone.
    pub fn release_all(&mut self, up_to: Instant) {
        // The stop index is the same for every radio: the first retained
        // transmission still in flight at `up_to`. Computing it once
        // replaces the per-radio scan.
        let boundary = self.inbox_stop(self.base, up_to);
        for r in 0..self.radios.len() {
            if self.cursors[r] < boundary {
                self.cursors[r] = boundary;
            }
            if up_to > self.drained_to[r] {
                self.drained_to[r] = up_to;
            }
        }
        self.maybe_retire(true);
    }

    /// Drop the longest prefix of transmissions that (a) every cursor
    /// has passed, (b) every receiver has drained past in time, and
    /// (c) cannot overlap any unconsumed or future transmission — so
    /// neither delivery, collision modelling, nor in-contract carrier
    /// sense can ever observe the difference.
    ///
    /// The O(radios) min-cursor/min-drained pass is amortized: single
    /// cursor advances ([`Medium::take_inbox`], [`Medium::release`])
    /// only trigger it once per `radios` calls, while
    /// [`Medium::release_all`] — the only operation that moves *every*
    /// cursor — forces it. A million-device fleet therefore pays the
    /// scan once per poll round, not once per drain.
    fn maybe_retire(&mut self, forced: bool) {
        if !self.bounded || self.txs.is_empty() {
            return;
        }
        self.retire_skip += 1;
        if !forced && (self.retire_skip as usize) < self.radios.len() {
            return;
        }
        self.retire_skip = 0;
        let Some(&min_cursor) = self.cursors.iter().min() else {
            return;
        };
        let Some(&min_drained) = self.drained_to.iter().min() else {
            return;
        };
        // Anything ending after `horizon` may still interact with a
        // pending frame, a future transmission (start ≥ last_start), or
        // an allowed is_busy query (at ≥ own drained_to ≥ min_drained).
        let mut horizon = min_drained.min(self.last_start);
        if min_cursor < self.base + self.txs.len() as u64 {
            horizon = horizon.min(self.tx(min_cursor).start);
        }
        let max_pos = (min_cursor - self.base) as usize;
        let mut k = 0usize;
        while k < max_pos && self.txs[k].end <= horizon {
            k += 1;
        }
        // Amortize the prefix drain: compact only once a meaningful
        // chunk is reclaimable.
        if k < 64 && k * 2 < self.txs.len() {
            return;
        }
        let new_base = self.base + k as u64;
        self.txs.drain(..k);
        self.base = new_base;
        for log in self.by_channel.values_mut() {
            let p = log.idxs.partition_point(|&i| i < new_base);
            log.idxs.drain(..p);
            log.retired += p as u64;
        }
        self.cell_txs.retain(|_, idxs| {
            let p = idxs.partition_point(|&i| i < new_base);
            idxs.drain(..p);
            !idxs.is_empty()
        });
    }

    /// Iterate over every *retained* transmission (for pcap export and
    /// statistics) — the full history unless
    /// [`Medium::retire_consumed`] is enabled. Yields
    /// `(from, start, end, bytes)`.
    pub fn transmissions(&self) -> impl Iterator<Item = (RadioId, Instant, Instant, &[u8])> + '_ {
        self.txs
            .iter()
            .map(|t| (t.from, t.start, t.end, &t.bytes[..]))
    }

    /// Received power for `tx` at `listener`, memoized per link.
    ///
    /// The cache stores the *result of the exact original computation*
    /// keyed by the transmit power's bit pattern, so memoized and fresh
    /// values are bit-identical.
    fn rx_power(&self, tx: &Transmission, listener: RadioId) -> f64 {
        let key = (tx.from.0, listener.0);
        let bits = tx.params.power_dbm.to_bits();
        if let Some(&(power, value)) = self.cache.borrow().slots.get(&key) {
            if power == bits {
                MediumCounters::bump(&self.counters.cache_hits);
                return value;
            }
        }
        MediumCounters::bump(&self.counters.cache_misses);
        let a = self.radios[tx.from.0 as usize].position_m;
        let b = self.radios[listener.0 as usize].position_m;
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        let value =
            self.model.rx_power_dbm(tx.params.power_dbm, d) + self.shadow_db(tx.from, listener);
        self.cache.borrow_mut().slots.insert(key, (bits, value));
        value
    }

    /// Static log-normal shadowing for a link: symmetric, deterministic
    /// in (seed, node pair), zero when the model's sigma is zero. This
    /// is classic block shadowing — obstacles do not move during a run.
    /// Deviates are clamped to ±[`SHADOW_CLAMP_SIGMA`]σ (see the module
    /// docs on spatial sharding).
    fn shadow_db(&self, a: RadioId, b: RadioId) -> f64 {
        let sigma = self.model.shadowing_sigma_db;
        if sigma == 0.0 {
            return 0.0;
        }
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let u1 = Self::unit_hash(self.seed ^ 0x5AAD_0001, lo, hi);
        let u2 = Self::unit_hash(self.seed ^ 0x5AAD_0002, lo, hi);
        // Box–Muller for a standard normal from two uniforms.
        let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        sigma * z.clamp(-SHADOW_CLAMP_SIGMA, SHADOW_CLAMP_SIGMA)
    }

    fn unit_hash(seed: u64, a: u32, b: u32) -> f64 {
        let mut x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(a as u64 + 1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(b as u64 + 1);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Model `tx_abs` arriving at `listener`; `log` is the channel both
    /// are on.
    fn receive_one(
        &self,
        tx_abs: u64,
        log: &ChannelLog,
        listener: RadioId,
        cfg: RadioConfig,
    ) -> Option<RxFrame> {
        let tx = self.tx(tx_abs);
        // The horizon precheck culls on distance alone — no cache
        // insert — and only where reception is provably impossible.
        if self.beyond_horizon(tx.from, listener, tx.params.power_dbm, cfg.sensitivity_dbm) {
            MediumCounters::bump(&self.counters.culled_sensitivity);
            return None;
        }
        let rssi = self.rx_power(tx, listener);
        if rssi < cfg.sensitivity_dbm {
            MediumCounters::bump(&self.counters.culled_sensitivity);
            return None;
        }
        // Collision check: any other transmission overlapping in time on
        // the same channel, heard above sensitivity, within the capture
        // margin, destroys this frame at this receiver. Overlap needs
        // other.end > tx.start, so only starts after tx.start −
        // max_airtime qualify (an earlier one has end ≤ tx.start), and
        // other.start < tx.end. The channel log is start-ordered, so
        // those candidates form one run around this transmission: find
        // its first entry by galloping back (O(log run), one probe when
        // the run starts at the frame), then visit the run in ascending
        // index order (the order fixes which link-cache entries the
        // first collision leaves untouched).
        let idxs = &log.idxs;
        let pos = (tx.chan_ord - log.retired) as usize;
        debug_assert_eq!(idxs[pos], tx_abs, "channel log out of step");
        let lo = match tx.start.as_nanos().checked_sub(self.max_airtime.as_nanos()) {
            Some(floor_ns) => {
                let ended = |i: &u64| self.tx(*i).start.as_nanos() <= floor_ns;
                // Invariant: every entry in [lo, pos) starts after floor.
                let mut lo = pos;
                let mut step = 1;
                while lo > 0 {
                    let probe = lo.saturating_sub(step);
                    if !ended(&idxs[probe]) {
                        lo = probe;
                        step *= 2;
                    } else {
                        lo = probe + 1 + idxs[probe + 1..lo].partition_point(ended);
                        break;
                    }
                }
                lo
            }
            None => 0,
        };
        for (k, &j) in idxs[lo..].iter().enumerate() {
            let other = self.tx(j);
            if other.start > tx.end {
                break;
            }
            if lo + k == pos || other.from == listener {
                continue;
            }
            let overlaps = other.start < tx.end && tx.start < other.end;
            if !overlaps {
                continue;
            }
            // An interferer below the listener's sensitivity is ignored
            // by the capture rule anyway, so the horizon precheck here
            // is also behaviour-preserving (and keeps metro-scale
            // interferer scans out of the link cache).
            if self.beyond_horizon(
                other.from,
                listener,
                other.params.power_dbm,
                cfg.sensitivity_dbm,
            ) {
                continue;
            }
            let interferer = self.rx_power(other, listener);
            if interferer >= cfg.sensitivity_dbm && rssi < interferer + CAPTURE_MARGIN_DB {
                MediumCounters::bump(&self.counters.collision_losses);
                return None;
            }
        }
        let snr = rssi - self.model.effective_noise_dbm();
        let per = packet_error_rate(snr, tx.params.min_snr_db, tx.bytes.len());
        if self.loss_roll(tx_abs, listener) < per {
            MediumCounters::bump(&self.counters.per_losses);
            return None;
        }
        MediumCounters::bump(&self.counters.delivered);
        Some(RxFrame {
            at: tx.end,
            from: tx.from,
            rssi_dbm: rssi,
            snr_db: snr,
            bytes: tx.bytes.clone(),
        })
    }

    /// Uniform [0,1) roll, deterministic in (seed, tx ordinal, receiver).
    /// The ordinal is the transmission's absolute issue index, so
    /// retirement never shifts the roll a frame receives.
    fn loss_roll(&self, tx_abs: u64, listener: RadioId) -> f64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tx_abs)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(listener.0 as u64 + 1);
        // SplitMix64 finalizer.
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_params() -> TxParams {
        TxParams {
            airtime: Duration::from_us(100),
            power_dbm: 0.0,
            min_snr_db: 15.0,
        }
    }

    fn two_node_medium(distance: f64) -> (Medium, RadioId, RadioId) {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        let b = m.attach(RadioConfig {
            position_m: (distance, 0.0),
            ..Default::default()
        });
        (m, a, b)
    }

    #[test]
    fn close_range_delivery() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"hello".to_vec());
        let rx = m.take_inbox(b, Instant::from_secs(1));
        assert_eq!(rx.len(), 1);
        assert_eq!(&rx[0].bytes[..], b"hello");
        assert_eq!(rx[0].from, a);
        assert_eq!(rx[0].at, Instant::from_ms(1) + Duration::from_us(100));
        assert!(rx[0].snr_db > 40.0);
    }

    #[test]
    fn sender_does_not_hear_itself() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x".to_vec());
        assert!(m.take_inbox(a, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn out_of_range_not_delivered() {
        // Default model: sensitivity -92 dBm at 0 dBm tx → ~50+ m range;
        // use 10 km to be decisively out of range.
        let (mut m, a, b) = two_node_medium(10_000.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x".to_vec());
        assert!(m.take_inbox(b, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn different_channels_do_not_mix() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig {
            channel: 1,
            ..Default::default()
        });
        let b = m.attach(RadioConfig {
            channel: 6,
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x".to_vec());
        assert!(m.take_inbox(b, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn release_all_matches_per_radio_release() {
        // Same traffic through two bounded media; one releases radio by
        // radio, the other in one batch. Cursor/retirement state and the
        // frames a later drain returns must agree.
        let build = || {
            let mut m = Medium::new(ChannelModel::default(), 3);
            let radios: Vec<RadioId> = (0..4)
                .map(|i| {
                    m.attach(RadioConfig {
                        position_m: (i as f64, 0.0),
                        ..Default::default()
                    })
                })
                .collect();
            m.retire_consumed(true);
            for k in 0..200u64 {
                let from = radios[(k % 4) as usize];
                m.transmit(from, Instant::from_ms(k), quiet_params(), vec![k as u8]);
            }
            (m, radios)
        };
        let cut = Instant::from_ms(150);
        let (mut a, radios_a) = build();
        for &r in &radios_a {
            a.release(r, cut);
        }
        let (mut b, radios_b) = build();
        b.release_all(cut);
        assert_eq!(a.live_tx_count(), b.live_tx_count());
        assert_eq!(a.retired_tx_count(), b.retired_tx_count());
        assert!(b.retired_tx_count() > 0, "batch release enables retirement");
        for (&ra, &rb) in radios_a.iter().zip(&radios_b) {
            let fa = a.take_inbox(ra, Instant::from_secs(1));
            let fb = b.take_inbox(rb, Instant::from_secs(1));
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn inbox_consumes_once() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x".to_vec());
        assert_eq!(m.take_inbox(b, Instant::from_secs(1)).len(), 1);
        assert!(m.take_inbox(b, Instant::from_secs(2)).is_empty());
    }

    #[test]
    fn inbox_respects_deadline() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(10), quiet_params(), b"x".to_vec());
        assert!(m.take_inbox(b, Instant::from_ms(5)).is_empty());
        assert_eq!(m.take_inbox(b, Instant::from_ms(11)).len(), 1);
    }

    #[test]
    fn take_inbox_into_reuses_the_buffer() {
        let (mut m, a, b) = two_node_medium(2.0);
        let mut buf = Vec::with_capacity(16);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x".to_vec());
        m.take_inbox_into(b, Instant::from_ms(5), &mut buf);
        let cap = buf.capacity();
        m.transmit(a, Instant::from_ms(10), quiet_params(), b"y".to_vec());
        m.take_inbox_into(b, Instant::from_secs(1), &mut buf);
        assert_eq!(buf.len(), 2, "appends, does not replace");
        assert_eq!(buf.capacity(), cap, "no reallocation");
        assert_eq!(&buf[0].bytes[..], b"x");
        assert_eq!(&buf[1].bytes[..], b"y");
    }

    #[test]
    fn overlapping_equal_power_transmissions_collide() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        let b = m.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        let rx = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        m.transmit(a, Instant::from_us(0), quiet_params(), b"A".to_vec());
        m.transmit(b, Instant::from_us(50), quiet_params(), b"B".to_vec());
        // Receiver equidistant: neither captures.
        assert!(m.take_inbox(rx, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn capture_lets_much_stronger_frame_survive() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let near = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let far = m.attach(RadioConfig {
            position_m: (40.0, 0.0),
            ..Default::default()
        });
        let rx = m.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        m.transmit(near, Instant::from_us(0), quiet_params(), b"N".to_vec());
        m.transmit(far, Instant::from_us(50), quiet_params(), b"F".to_vec());
        let frames = m.take_inbox(rx, Instant::from_secs(1));
        assert_eq!(frames.len(), 1);
        assert_eq!(&frames[0].bytes[..], b"N");
    }

    #[test]
    fn non_overlapping_sequential_frames_both_arrive() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_us(0), quiet_params(), b"1".to_vec());
        m.transmit(a, Instant::from_us(200), quiet_params(), b"2".to_vec());
        assert_eq!(m.take_inbox(b, Instant::from_secs(1)).len(), 2);
    }

    #[test]
    fn busy_sensing() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_us(100), quiet_params(), b"x".to_vec());
        assert!(!m.is_busy(b, Instant::from_us(50)));
        assert!(m.is_busy(b, Instant::from_us(150)));
        assert!(!m.is_busy(b, Instant::from_us(250)));
        // The sender itself is not "busy" from its own frame.
        assert!(!m.is_busy(a, Instant::from_us(150)));
    }

    #[test]
    fn busy_sensing_with_mixed_airtimes() {
        // A long frame issued before several short ones must still be
        // seen by carrier sense deep into its airtime (the windowed scan
        // must use the *maximum* airtime, not the latest).
        let (mut m, a, b) = two_node_medium(2.0);
        let long = TxParams {
            airtime: Duration::from_ms(10),
            ..quiet_params()
        };
        m.transmit(a, Instant::from_us(0), long, b"long".to_vec());
        for i in 0..20u64 {
            m.transmit(
                a,
                Instant::from_ms(1) + Duration::from_us(i * 110),
                quiet_params(),
                b"s".to_vec(),
            );
        }
        // 8 ms in: only the long frame is still on air.
        assert!(m.is_busy(b, Instant::from_ms(8)));
        assert!(!m.is_busy(b, Instant::from_ms(11)));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_transmit_panics() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(10), quiet_params(), vec![]);
        m.transmit(a, Instant::from_ms(5), quiet_params(), vec![]);
    }

    #[test]
    fn marginal_snr_loses_some_frames() {
        // Place the receiver where SNR ≈ the decode threshold: expect
        // partial loss, not all-or-nothing.
        let model = ChannelModel::default();
        let d = model.range_for_snr_m(0.0, 15.0);
        let mut m = Medium::new(model, 7);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig {
            position_m: (d, 0.0),
            sensitivity_dbm: -110.0,
            ..Default::default()
        });
        let mut t = Instant::ZERO;
        for _ in 0..200 {
            t = m.transmit(a, t + Duration::from_ms(1), quiet_params(), vec![0u8; 1000]);
        }
        let got = m.take_inbox(b, t + Duration::from_secs(1)).len();
        assert!(got > 20 && got < 180, "got {got}/200");
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed| {
            let model = ChannelModel::default();
            let d = model.range_for_snr_m(0.0, 15.0);
            let mut m = Medium::new(model, seed);
            let a = m.attach(RadioConfig::default());
            let b = m.attach(RadioConfig {
                position_m: (d, 0.0),
                sensitivity_dbm: -110.0,
                ..Default::default()
            });
            let mut t = Instant::ZERO;
            for _ in 0..50 {
                t = m.transmit(a, t + Duration::from_ms(1), quiet_params(), vec![0u8; 1000]);
            }
            m.take_inbox(b, t + Duration::from_secs(1))
                .iter()
                .map(|f| f.at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn shadowing_is_deterministic_symmetric_and_off_by_default() {
        let shadowed = ChannelModel {
            shadowing_sigma_db: 8.0,
            ..Default::default()
        };
        let mut m = Medium::new(shadowed, 5);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig {
            position_m: (10.0, 0.0),
            ..Default::default()
        });
        let c = m.attach(RadioConfig {
            position_m: (0.0, 10.0),
            ..Default::default()
        });
        let p = quiet_params();
        m.transmit(a, Instant::from_us(0), p, b"1".to_vec());
        m.transmit(b, Instant::from_ms(1), p, b"2".to_vec());
        m.transmit(a, Instant::from_ms(2), p, b"3".to_vec());

        let at_b: Vec<f64> = m
            .take_inbox(b, Instant::from_secs(1))
            .iter()
            .map(|f| f.rssi_dbm)
            .collect();
        let at_c: Vec<f64> = m
            .take_inbox(c, Instant::from_secs(1))
            .iter()
            .map(|f| f.rssi_dbm)
            .collect();
        // Same link, same static shadow: frames 1 and 3 at B identical.
        assert_eq!(at_b.len(), 2);
        assert!((at_b[0] - at_b[1]).abs() < 1e-9);
        // B→A shadow equals A→B shadow (symmetry): the rssi C measured
        // from A differs from B's (different links, different shadows)…
        assert!(!at_c.is_empty());
        assert_ne!(at_b[0], at_c[0]);
        // …despite equal geometric distance (10 m both ways).
        let plain = Medium::new(ChannelModel::default(), 5);
        let _ = plain; // zero-sigma medium applies no shadow at all:
        let mut m0 = Medium::new(ChannelModel::default(), 5);
        let a0 = m0.attach(RadioConfig::default());
        let b0 = m0.attach(RadioConfig {
            position_m: (10.0, 0.0),
            ..Default::default()
        });
        m0.transmit(a0, Instant::from_us(0), p, b"1".to_vec());
        let rssi = m0.take_inbox(b0, Instant::from_secs(1))[0].rssi_dbm;
        let want = ChannelModel::default().rx_power_dbm(0.0, 10.0);
        assert!((rssi - want).abs() < 1e-9);
    }

    #[test]
    fn shadow_deviates_are_clamped() {
        // Sweep many links: no shadow may exceed the clamp.
        let sigma = 6.0;
        let m = Medium::new(
            ChannelModel {
                shadowing_sigma_db: sigma,
                ..Default::default()
            },
            11,
        );
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let s = m.shadow_db(RadioId(a), RadioId(b));
                assert!(
                    s.abs() <= SHADOW_CLAMP_SIGMA * sigma + 1e-9,
                    "shadow {s} exceeds clamp for link ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn horizon_cull_never_drops_an_audible_frame() {
        // A multi-cell spiral of senders from well inside to well
        // outside the sensitivity horizon of a −20 dBm transmission
        // (~74 m under the default model): the sharded drain must
        // deliver exactly what the naive full walk delivers, while the
        // distance cull demonstrably fires for the far senders.
        let model = ChannelModel {
            shadowing_sigma_db: 6.0,
            ..Default::default()
        };
        let mut m = Medium::new(model, 21);
        let mut naive = crate::naive::NaiveMedium::new(model, 21);
        let gw_cfg = RadioConfig {
            position_m: (500.0, 500.0),
            sensitivity_dbm: -92.0,
            ..Default::default()
        };
        let gw = m.attach(gw_cfg);
        let gw_n = naive.attach(gw_cfg);
        let p = TxParams {
            airtime: Duration::from_us(100),
            power_dbm: -20.0,
            min_snr_db: 4.0,
        };
        for i in 0..64u64 {
            let ang = i as f64 * std::f64::consts::TAU / 64.0;
            let r = 5.0 + i as f64 * 12.0;
            let cfg = RadioConfig {
                position_m: (500.0 + r * ang.cos(), 500.0 + r * ang.sin()),
                ..Default::default()
            };
            let s = m.attach(cfg);
            let s_n = naive.attach(cfg);
            m.transmit(s, Instant::from_ms(i), p, vec![i as u8]);
            naive.transmit(s_n, Instant::from_ms(i), p, vec![i as u8]);
        }
        let got = m.take_inbox(gw, Instant::from_secs(10));
        let want = naive.take_inbox(gw_n, Instant::from_secs(10));
        assert_eq!(got, want);
        assert!(!got.is_empty(), "some close senders must be audible");
        // The cull actually fired: distant spiral members were skipped
        // without ever touching the link cache.
        assert!(m.stats().culled_sensitivity > 0);
        assert!(got.len() < 64, "far senders must be below sensitivity");
    }

    #[test]
    fn tx_count_and_transmissions_iterator() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::ZERO, quiet_params(), b"x".to_vec());
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"y".to_vec());
        assert_eq!(m.tx_count(), 2);
        let all: Vec<_> = m.transmissions().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].3, b"y");
    }

    #[test]
    fn bounded_mode_retires_consumed_history() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.retire_consumed(true);
        let mut t = Instant::ZERO;
        for i in 0..5_000u64 {
            t = m.transmit(a, Instant::from_ms(i), quiet_params(), vec![0u8; 64]);
            if i % 100 == 99 {
                m.take_inbox(b, t);
                m.release(a, t);
            }
        }
        m.take_inbox(b, t + Duration::from_secs(1));
        m.release(a, t + Duration::from_secs(1));
        assert_eq!(m.tx_count(), 5_000);
        assert!(
            m.live_tx_count() < 300,
            "history not reclaimed: {} live",
            m.live_tx_count()
        );
        assert!(m.retired_tx_count() > 4_000);
    }

    #[test]
    fn bounded_mode_is_behaviour_identical() {
        // Same workload, bounded vs unbounded: identical delivery, and
        // identical loss pattern (ordinal-keyed rolls survive
        // retirement).
        let run = |bounded: bool| {
            let model = ChannelModel::default();
            let d = model.range_for_snr_m(0.0, 15.0);
            let mut m = Medium::new(model, 9);
            m.retire_consumed(bounded);
            let a = m.attach(RadioConfig::default());
            let b = m.attach(RadioConfig {
                position_m: (d, 0.0),
                sensitivity_dbm: -110.0,
                ..Default::default()
            });
            let mut got = Vec::new();
            let mut t = Instant::ZERO;
            for i in 0..500u64 {
                t = m.transmit(a, Instant::from_ms(i), quiet_params(), vec![0u8; 1000]);
                if i % 10 == 9 {
                    got.extend(m.take_inbox(b, t));
                    m.release(a, t);
                }
            }
            got.extend(m.take_inbox(b, t + Duration::from_secs(1)));
            got
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn release_skips_without_delivering() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x".to_vec());
        m.release(b, Instant::from_secs(1));
        // The frame was passed over, not queued.
        assert!(m.take_inbox(b, Instant::from_secs(2)).is_empty());
    }
}
