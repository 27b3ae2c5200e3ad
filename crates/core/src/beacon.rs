//! Building the fake beacons Wi-LE injects.
//!
//! Two paths:
//!
//! * [`build_wile_beacon`] — the straightforward builder;
//! * [`BeaconTemplate`] — the §5.4 optimization: "The content of the
//!   packet including all of headers can be pre-computed and then only
//!   the IoT device's data needs to be inserted into the packet." The
//!   template is built once; per transmission only the payload bytes,
//!   sequence number and FCS are patched. The codec benchmark measures
//!   the speedup.

use crate::encode::{encode_fragments, EncodeError};
use crate::message::Message;
use crate::{VTYPE_DATA, WILE_OUI};
use wile_dot11::fcs;
use wile_dot11::ie;
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::{Beacon, BeaconBuilder};
use wile_dot11::MacAddr;

/// Build a complete Wi-LE beacon MPDU for `msg`: hidden SSID, one
/// vendor IE per fragment, broadcast receiver.
pub fn build_wile_beacon(
    source: MacAddr,
    msg: &Message,
    seq: SeqControl,
    timestamp_us: u64,
) -> Result<Vec<u8>, EncodeError> {
    let frags = encode_fragments(msg)?;
    let mut b = BeaconBuilder::new(source)
        .timestamp(timestamp_us)
        .seq(seq)
        .hidden_ssid()
        .supported_rates(&[0x82, 0x84, 0x8B, 0x96]);
    for f in &frags {
        b = b.vendor_specific(WILE_OUI, VTYPE_DATA, f);
    }
    Ok(b.build())
}

/// A precomputed beacon whose payload region is patched in place.
///
/// Fixed-capacity: the template reserves space for a single fragment of
/// exactly `capacity` payload bytes; every [`BeaconTemplate::render`]
/// must supply that many. Devices with variable readings pad to a fixed
/// size — which is also the privacy-preserving choice.
#[derive(Debug, Clone)]
pub struct BeaconTemplate {
    buf: Vec<u8>,
    /// Offset of the 8-byte fragment header inside `buf`.
    header_off: usize,
    capacity: usize,
    device_id: u32,
}

impl BeaconTemplate {
    /// Precompute a template for `capacity`-byte payloads from
    /// `source` / `device_id`.
    pub fn new(source: MacAddr, device_id: u32, capacity: usize) -> Result<Self, EncodeError> {
        let msg = Message::new(device_id, 0, &vec![0u8; capacity]);
        let frame = build_wile_beacon(source, &msg, SeqControl::new(0, 0), 0)?;
        // Locate the vendor IE: scan the body for our OUI/vtype.
        let body = &frame[24 + 12..frame.len() - 4];
        let mut header_off = None;
        for el in ie::Elements::new(body) {
            let el = el.expect("frame we just built");
            if el.id == ie::ElementId::VendorSpecific {
                // el.data starts at some offset inside body; compute it.
                let data_start = el.data.as_ptr() as usize - body.as_ptr() as usize;
                header_off = Some(24 + 12 + data_start + 4); // skip OUI + vtype
                break;
            }
        }
        Ok(BeaconTemplate {
            buf: frame,
            header_off: header_off.expect("vendor IE present"),
            capacity,
            device_id,
        })
    }

    /// The payload capacity the template was built for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Patch in a new reading and emit the finished MPDU.
    ///
    /// Panics if `payload.len() != capacity` — the template's length
    /// fields are fixed.
    pub fn render(&mut self, seq: u16, mac_seq: SeqControl, payload: &[u8]) -> Vec<u8> {
        self.patch(seq, mac_seq, payload).to_vec()
    }

    /// [`BeaconTemplate::render`] without the copy: patch in place and
    /// borrow the finished MPDU, valid until the next patch. A sender
    /// that hands the frame to a shared buffer (the medium's
    /// `Arc<[u8]>`) copies it exactly once.
    pub fn patch(&mut self, seq: u16, mac_seq: SeqControl, payload: &[u8]) -> &[u8] {
        assert_eq!(payload.len(), self.capacity, "template capacity is fixed");
        // MAC sequence control at offset 22.
        self.buf[22..24].copy_from_slice(&mac_seq.to_le_bytes());
        // Fragment header: seq lives at header_off+5..7.
        self.buf[self.header_off + 5..self.header_off + 7].copy_from_slice(&seq.to_be_bytes());
        // Payload right after the 8-byte header.
        let p = self.header_off + crate::message::HEADER_LEN;
        self.buf[p..p + self.capacity].copy_from_slice(payload);
        // Refresh the FCS.
        let len = self.buf.len();
        let crc = fcs::crc32(&self.buf[..len - 4]);
        self.buf[len - 4..].copy_from_slice(&crc.to_le_bytes());
        &self.buf
    }

    /// The device id baked into the template.
    pub fn device_id(&self) -> u32 {
        self.device_id
    }
}

/// Iterate the Wi-LE data-IE payloads of a (possibly foreign) beacon,
/// in element order, without collecting them.
pub fn wile_fragments<'a>(beacon: &'a Beacon<&'a [u8]>) -> impl Iterator<Item = &'a [u8]> + 'a {
    ie::vendor_elements(beacon.elements(), WILE_OUI, VTYPE_DATA).map(|v| v.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode_fragments;

    fn dev_mac() -> MacAddr {
        MacAddr::from_device_id(7)
    }

    #[test]
    fn built_beacon_is_valid_and_hidden() {
        let msg = Message::new(7, 3, b"t=20.1C");
        let frame = build_wile_beacon(dev_mac(), &msg, SeqControl::new(3, 0), 999).unwrap();
        assert!(fcs::check_fcs(&frame));
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert!(b.is_hidden_ssid());
        assert!(b.header().addr1().is_broadcast());
        assert_eq!(b.timestamp(), 999);
    }

    #[test]
    fn fragments_decode_back_to_message() {
        let payload: Vec<u8> = (0..600).map(|i| i as u8).collect();
        let msg = Message::new(7, 3, &payload);
        let frame = build_wile_beacon(dev_mac(), &msg, SeqControl::new(0, 0), 0).unwrap();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(wile_fragments(&b).count(), 3);
        let back = decode_fragments(wile_fragments(&b)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn template_render_matches_fresh_build() {
        let mut tpl = BeaconTemplate::new(dev_mac(), 7, 8).unwrap();
        let rendered = tpl.render(42, SeqControl::new(5, 0), b"ABCDEFGH");
        let fresh = build_wile_beacon(
            dev_mac(),
            &Message::new(7, 42, b"ABCDEFGH"),
            SeqControl::new(5, 0),
            0,
        )
        .unwrap();
        assert_eq!(rendered, fresh);
    }

    #[test]
    fn template_renders_are_independent() {
        let mut tpl = BeaconTemplate::new(dev_mac(), 7, 4).unwrap();
        let a = tpl.render(1, SeqControl::new(1, 0), b"aaaa");
        let b = tpl.render(2, SeqControl::new(2, 0), b"bbbb");
        assert_ne!(a, b);
        assert!(fcs::check_fcs(&a));
        assert!(fcs::check_fcs(&b));
        // Both parse with the right payloads.
        let bb = Beacon::new_checked(&b[..]).unwrap();
        let back = decode_fragments(wile_fragments(&bb)).unwrap();
        assert_eq!(back.payload, b"bbbb");
        assert_eq!(back.seq, 2);
    }

    #[test]
    #[should_panic(expected = "capacity is fixed")]
    fn template_wrong_size_panics() {
        let mut tpl = BeaconTemplate::new(dev_mac(), 7, 4).unwrap();
        tpl.render(1, SeqControl::new(1, 0), b"toolong");
    }

    #[test]
    fn foreign_beacons_have_no_fragments() {
        let frame = BeaconBuilder::new(MacAddr::new([9; 6]))
            .ssid(b"HomeNet")
            .build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert!(wile_fragments(&b).next().is_none());
    }

    #[test]
    fn beacon_size_scales_with_payload() {
        let small = build_wile_beacon(
            dev_mac(),
            &Message::new(1, 1, b"x"),
            SeqControl::new(0, 0),
            0,
        )
        .unwrap();
        let big = build_wile_beacon(
            dev_mac(),
            &Message::new(1, 1, &[0; 200]),
            SeqControl::new(0, 0),
            0,
        )
        .unwrap();
        assert!(big.len() > small.len());
        // A one-byte-payload Wi-LE beacon is ~60-70 bytes on air.
        assert!(small.len() < 80, "{}", small.len());
    }
}
