//! Property-based tests for the 802.11 codec: round-trips hold for all
//! valid inputs, and no parser panics on arbitrary bytes.

use proptest::prelude::*;
use wile_dot11::ctrl::CtrlFrame;
use wile_dot11::data::DataFrame;
use wile_dot11::eapol::KeyFrame;
use wile_dot11::fcs;
use wile_dot11::ie;
use wile_dot11::mac::{MacAddr, SeqControl};
use wile_dot11::mgmt::{
    AssocReq, AssocReqBuilder, Beacon, BeaconBuilder, ProbeReq, ProbeReqBuilder,
};
use wile_dot11::phy::{frame_airtime_us, PhyRate};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_rate() -> impl Strategy<Value = PhyRate> {
    prop::sample::select(PhyRate::all())
}

/// The CRC-32 the FCS must equal, one bit at a time: no table, nothing
/// shared with the implementation under test.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    #[test]
    fn fcs_round_trip(body in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut frame = body.clone();
        fcs::append_fcs(&mut frame);
        prop_assert!(fcs::check_fcs(&frame));
        prop_assert_eq!(fcs::strip_fcs(&frame), Some(&body[..]));
    }

    #[test]
    fn fcs_detects_any_single_bit_flip(
        body in prop::collection::vec(any::<u8>(), 1..128),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut frame = body;
        fcs::append_fcs(&mut frame);
        let i = byte_idx.index(frame.len());
        frame[i] ^= 1 << bit;
        prop_assert!(!fcs::check_fcs(&frame));
    }

    #[test]
    fn seq_control_round_trip(seq in 0u16..4096, frag in 0u8..16) {
        let sc = SeqControl::new(seq, frag);
        prop_assert_eq!(sc.seq(), seq);
        prop_assert_eq!(sc.frag(), frag);
        let sc2 = SeqControl::from_le_bytes(sc.to_le_bytes());
        prop_assert_eq!(sc, sc2);
    }

    #[test]
    fn beacon_round_trip(
        bssid in arb_mac(),
        ts in any::<u64>(),
        interval in 1u16..1000,
        ssid in prop::collection::vec(any::<u8>(), 0..32),
        payload in prop::collection::vec(any::<u8>(), 0..200),
        vtype in any::<u8>(),
        oui in any::<[u8; 3]>(),
    ) {
        let frame = BeaconBuilder::new(bssid)
            .timestamp(ts)
            .interval_tu(interval)
            .ssid(&ssid)
            .vendor_specific(oui, vtype, &payload)
            .build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        prop_assert_eq!(b.bssid(), bssid);
        prop_assert_eq!(b.timestamp(), ts);
        prop_assert_eq!(b.beacon_interval_tu(), interval);
        if ssid.is_empty() {
            prop_assert!(b.is_hidden_ssid());
        } else {
            prop_assert_eq!(b.ssid().unwrap(), Some(&ssid[..]));
        }
        prop_assert_eq!(b.vendor_payload(oui, vtype), Some(&payload[..]));
    }

    #[test]
    fn beacon_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Beacon::new_checked(&bytes[..]);
    }

    #[test]
    fn ie_iterator_never_panics_and_terminates(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Bounded iteration: at most len/2 + 1 elements possible.
        let n = ie::Elements::new(&bytes).count();
        prop_assert!(n <= bytes.len() / 2 + 1);
    }

    #[test]
    fn ie_push_then_iterate_recovers_all(
        elements in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..255)),
            0..8
        )
    ) {
        let mut body = Vec::new();
        for (id, data) in &elements {
            ie::push(&mut body, ie::ElementId::from_u8(*id), data).unwrap();
        }
        let parsed: Vec<_> = ie::Elements::new(&body).map(|e| e.unwrap()).collect();
        prop_assert_eq!(parsed.len(), elements.len());
        for (p, (id, data)) in parsed.iter().zip(&elements) {
            prop_assert_eq!(p.id.to_u8(), *id);
            prop_assert_eq!(p.data, &data[..]);
        }
    }

    #[test]
    fn probe_and_assoc_round_trip(
        sta in arb_mac(),
        ap in arb_mac(),
        ssid in prop::collection::vec(any::<u8>(), 0..32),
        li in any::<u16>(),
    ) {
        let p = ProbeReqBuilder::new(sta, &ssid).build();
        let parsed = ProbeReq::new_checked(&p[..]).unwrap();
        prop_assert_eq!(parsed.sta(), sta);
        prop_assert_eq!(parsed.ssid().unwrap(), &ssid[..]);

        let a = AssocReqBuilder::new(sta, ap, &ssid).listen_interval(li).build();
        let parsed = AssocReq::new_checked(&a[..]).unwrap();
        prop_assert_eq!(parsed.listen_interval(), li);
        prop_assert_eq!(parsed.ssid().unwrap(), &ssid[..]);
    }

    #[test]
    fn ctrl_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = CtrlFrame::parse(&bytes);
    }

    #[test]
    fn data_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = DataFrame::new_checked(&bytes[..]);
    }

    #[test]
    fn eapol_round_trip(
        info_bits in any::<u16>(),
        replay in any::<u64>(),
        nonce in any::<[u8; 32]>(),
        key_data in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut f = KeyFrame::pairwise(info_bits & 0x1FF0);
        f.replay_counter = replay;
        f.nonce = nonce;
        f.key_data = key_data;
        let parsed = KeyFrame::parse(&f.to_bytes()).unwrap();
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn eapol_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = KeyFrame::parse(&bytes);
    }

    #[test]
    fn airtime_positive_and_monotone(rate in arb_rate(), len in 1usize..2304) {
        let t = frame_airtime_us(rate, len);
        prop_assert!(t > 0);
        prop_assert!(frame_airtime_us(rate, len + 100) >= t);
    }

    #[test]
    fn airtime_roughly_matches_rate(rate in arb_rate(), len in 200usize..2304) {
        // Payload time (airtime minus preamble bound of 192 µs) must be
        // within 2x of bits/rate (symbol padding, service bits).
        let t_us = frame_airtime_us(rate, len) as f64;
        let ideal_us = (len as f64 * 8.0) / (rate.kbps() as f64 / 1000.0);
        prop_assert!(t_us + 1.0 >= ideal_us, "{t_us} < {ideal_us}");
        prop_assert!(t_us <= ideal_us * 2.0 + 230.0, "{t_us} vs {ideal_us}");
    }

    #[test]
    fn channel_overlap_is_symmetric_and_reflexive(a in 0u8..=200, b in 0u8..=200) {
        use wile_dot11::phy::channels::{centre_freq_mhz, channels_overlap};
        prop_assert_eq!(channels_overlap(a, b), channels_overlap(b, a));
        if centre_freq_mhz(a).is_some() {
            prop_assert!(channels_overlap(a, a));
        } else {
            prop_assert!(!channels_overlap(a, a));
        }
    }

    #[test]
    fn channel_frequencies_monotone_within_band(a in 1u8..=13, b in 1u8..=13) {
        use wile_dot11::phy::channels::centre_freq_mhz;
        prop_assume!(a < b);
        prop_assert!(centre_freq_mhz(a).unwrap() < centre_freq_mhz(b).unwrap());
    }

    #[test]
    fn mac_addr_string_round_trip(octets in any::<[u8; 6]>()) {
        let a = MacAddr::new(octets);
        let s = a.to_string();
        prop_assert_eq!(s.parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length(
        data in prop::collection::vec(any::<u8>(), 300),
    ) {
        // Every prefix 0..=300: each residue mod 8 many times over, so
        // the word loop and the bytewise tail both meet every shape.
        for len in 0..=data.len() {
            let (got, want) = (fcs::crc32(&data[..len]), bitwise_crc32(&data[..len]));
            prop_assert!(got == want, "len {len}: {got:#010x} != {want:#010x}");
        }
    }

    #[test]
    fn incremental_crc32_is_split_invariant(
        data in prop::collection::vec(any::<u8>(), 0..=300),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        let (x, y) = {
            let (x, y) = (a.index(data.len() + 1), b.index(data.len() + 1));
            (x.min(y), x.max(y))
        };
        let mut inc = fcs::Crc32::new();
        inc.update(&data[..x]);
        inc.update(&data[x..y]);
        inc.update(&data[y..]);
        let (got, want) = (inc.finish(), bitwise_crc32(&data));
        prop_assert!(got == want, "splits {x}/{y} of {}: {got:#010x} != {want:#010x}", data.len());
    }
}
