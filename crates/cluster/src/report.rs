//! What flows through the cluster: per-gateway observations in, elected
//! cluster-wide deliveries out.

use wile::monitor::Received;
use wile_radio::time::Instant;

/// One gateway's observation of one Wi-LE message: a
/// [`wile::monitor::Received`] stamped with the hearing gateway and a
/// cluster-wide enqueue ordinal.
///
/// The ordinal is assigned serially at enqueue time (gateways are
/// drained in lane order inside one poll), so it is deterministic for a
/// fixed world and provides the final tie-break wherever two reports
/// compare equal on `(at, rssi, gateway)` — which keeps every
/// aggregation result independent of worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayReport {
    /// Lane index of the gateway that heard the message.
    pub gateway: usize,
    /// Sending device.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Arrival time (end of the beacon on air — identical at every
    /// gateway that heard the same transmission, which is what makes
    /// same-instant election groups well defined).
    pub at: Instant,
    /// Received signal strength at this gateway, dBm.
    pub rssi_dbm: f64,
    /// Payload (plaintext, or ciphertext when `encrypted`).
    pub payload: Vec<u8>,
    /// Whether the payload is still sealed.
    pub encrypted: bool,
    /// Cluster-wide enqueue ordinal (see type docs).
    pub ordinal: u64,
}

impl GatewayReport {
    /// Wrap a gateway-pipeline delivery as a cluster report.
    pub fn from_received(gateway: usize, ordinal: u64, r: Received) -> Self {
        GatewayReport {
            gateway,
            device_id: r.device_id,
            seq: r.seq,
            at: r.at,
            rssi_dbm: r.rssi_dbm,
            payload: r.payload,
            encrypted: r.encrypted,
            ordinal,
        }
    }
}

/// One message delivered cluster-wide — the single elected winner among
/// every gateway's copy of the same `(device, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDelivery {
    /// Sending device.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Arrival time of the winning copy.
    pub at: Instant,
    /// RSSI of the winning copy, dBm.
    pub rssi_dbm: f64,
    /// Lane index of the gateway whose report won the election.
    pub gateway: usize,
    /// Payload of the winning copy.
    pub payload: Vec<u8>,
    /// Whether the payload is still sealed.
    pub encrypted: bool,
    /// True when this delivery moved the device's ownership to a new
    /// gateway (a roaming handoff; the first gateway to adopt a device
    /// does not count).
    pub handoff: bool,
}

/// FNV-1a offset basis — the seed value every delivery digest starts
/// from (see [`fold_delivery`]).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold one delivery into the FNV-1a digest. Every runner of the
/// cluster — the metro, chaos and mixed scenarios and the
/// `wile-gatewayd` core, all through [`crate::PollTrain`] — uses this
/// single definition; digest equality is the compact byte-identity
/// witness across all of them.
pub fn fold_delivery(h: &mut u64, d: &ClusterDelivery) {
    let mut fold = |v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    fold(d.device_id as u64);
    fold(d.seq as u64);
    fold(d.at.as_nanos());
    fold(d.gateway as u64);
    fold(d.rssi_dbm.to_bits());
    fold(u64::from(d.encrypted) << 1 | u64::from(d.handoff));
    fold(d.payload.len() as u64);
    for &b in &d.payload {
        fold(b as u64);
    }
}
