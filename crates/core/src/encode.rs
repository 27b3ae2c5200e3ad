//! Packing Wi-LE messages into vendor-specific IEs and back.
//!
//! One vendor IE holds at most [`wile_dot11::ie::VENDOR_MAX_PAYLOAD`]
//! bytes ("This field can be up to 253 bytes", §4.1); after the 8-byte
//! fragment header that leaves [`FRAGMENT_CAPACITY`] bytes of payload.
//! Larger messages fragment across several IEs of the *same* beacon —
//! receivers see them all atomically, so no cross-beacon reassembly
//! timers are needed.

use crate::message::{FragmentHeader, Message, HEADER_LEN, MAX_FRAGMENTS, VERSION};
use wile_dot11::ie::VENDOR_MAX_PAYLOAD;

/// Payload bytes one fragment can carry.
pub const FRAGMENT_CAPACITY: usize = VENDOR_MAX_PAYLOAD - HEADER_LEN;

/// Largest message payload a single beacon can carry.
pub const MAX_MESSAGE_PAYLOAD: usize = FRAGMENT_CAPACITY * MAX_FRAGMENTS;

/// Errors from encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// Payload exceeds [`MAX_MESSAGE_PAYLOAD`].
    TooLarge,
}

impl core::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("message exceeds single-beacon capacity")
    }
}

impl std::error::Error for EncodeError {}

/// Frame one fragment: header ‖ chunk, exactly as it rides inside a
/// vendor IE (Wi-LE) or a manufacturer AD structure (BLE). This is the
/// single shared framing path for every MAC backend.
pub fn frame_fragment(h: &FragmentHeader, chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + chunk.len());
    out.extend_from_slice(&h.to_bytes());
    out.extend_from_slice(chunk);
    out
}

/// Split a framed fragment back into its header and payload chunk —
/// the inverse of [`frame_fragment`].
pub fn parse_fragment(bytes: &[u8]) -> Option<(FragmentHeader, &[u8])> {
    let h = FragmentHeader::parse(bytes)?;
    Some((h, &bytes[HEADER_LEN..]))
}

/// Split a message into vendor-IE payloads (header ‖ chunk each).
pub fn encode_fragments(msg: &Message) -> Result<Vec<Vec<u8>>, EncodeError> {
    if msg.payload.len() > MAX_MESSAGE_PAYLOAD {
        return Err(EncodeError::TooLarge);
    }
    // An empty payload still needs one fragment.
    let chunks: Vec<&[u8]> = if msg.payload.is_empty() {
        vec![&[]]
    } else {
        msg.payload.chunks(FRAGMENT_CAPACITY).collect()
    };
    let count = chunks.len() as u8;
    Ok(chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let h = FragmentHeader {
                version: VERSION,
                flags: msg.flags,
                device_id: msg.device_id,
                seq: msg.seq,
                frag_index: i as u8,
                frag_count: count,
            };
            frame_fragment(&h, chunk)
        })
        .collect())
}

/// Reassemble the vendor-IE payloads of one beacon into a message.
///
/// Fragments may arrive in any IE order; duplicates are tolerated (the
/// last copy of an index wins); missing fragments or inconsistent
/// headers yield `None`. The only allocation is the payload, made once
/// at its exact size: fragments are gathered into a fixed table (the
/// header's 4-bit `frag_count` bounds it at 16 slots).
pub fn decode_fragments<'a>(ie_payloads: impl IntoIterator<Item = &'a [u8]>) -> Option<Message> {
    let mut slots: [Option<&[u8]>; 16] = [None; 16];
    let mut meta: Option<FragmentHeader> = None;
    for p in ie_payloads {
        let (h, chunk) = parse_fragment(p)?;
        match &meta {
            None => meta = Some(h),
            Some(m) => {
                if (m.device_id, m.seq, m.frag_count, m.flags)
                    != (h.device_id, h.seq, h.frag_count, h.flags)
                {
                    return None;
                }
            }
        }
        // `parse` guarantees frag_index < frag_count ≤ 15.
        slots[h.frag_index as usize] = Some(chunk);
    }
    let meta = meta?;
    let slots = &slots[..meta.frag_count as usize];
    let mut len = 0;
    for s in slots {
        len += (*s)?.len();
    }
    let mut payload = Vec::with_capacity(len);
    for s in slots.iter().flatten() {
        payload.extend_from_slice(s);
    }
    Some(Message {
        device_id: meta.device_id,
        seq: meta.seq,
        flags: meta.flags,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_fragment_matches_hand_assembly_byte_for_byte() {
        // The shared framing helper must produce exactly the bytes the
        // pre-refactor inline assembly did: header ‖ chunk, nothing else.
        let h = FragmentHeader {
            version: VERSION,
            flags: 0x03,
            device_id: 0xDEAD_BEEF,
            seq: 0x1234,
            frag_index: 1,
            frag_count: 2,
        };
        let chunk = b"reading-bytes";
        let mut hand = Vec::with_capacity(HEADER_LEN + chunk.len());
        hand.extend_from_slice(&h.to_bytes());
        hand.extend_from_slice(chunk);
        let framed = frame_fragment(&h, chunk);
        assert_eq!(framed, hand);
        // And the inverse recovers both halves.
        let (back, tail) = parse_fragment(&framed).unwrap();
        assert_eq!(back, h);
        assert_eq!(tail, chunk);
    }

    #[test]
    fn small_message_single_fragment() {
        let m = Message::new(7, 1, b"t=21.5");
        let frags = encode_fragments(&m).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].len(), HEADER_LEN + 6);
        let back = decode_fragments(frags.iter().map(|f| f.as_slice())).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_payload_round_trips() {
        let m = Message::new(7, 1, b"");
        let frags = encode_fragments(&m).unwrap();
        assert_eq!(frags.len(), 1);
        let back = decode_fragments(frags.iter().map(|f| f.as_slice())).unwrap();
        assert_eq!(back.payload, b"");
    }

    #[test]
    fn exact_capacity_is_one_fragment() {
        let m = Message::new(7, 1, &vec![9u8; FRAGMENT_CAPACITY]);
        assert_eq!(encode_fragments(&m).unwrap().len(), 1);
        let m = Message::new(7, 1, &vec![9u8; FRAGMENT_CAPACITY + 1]);
        assert_eq!(encode_fragments(&m).unwrap().len(), 2);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let m = Message::new(99, 500, &payload);
        let frags = encode_fragments(&m).unwrap();
        assert_eq!(frags.len(), 5); // ceil(1000/243)
        let back = decode_fragments(frags.iter().map(|f| f.as_slice())).unwrap();
        assert_eq!(back.payload, payload);
    }

    #[test]
    fn out_of_order_fragments_ok() {
        let payload = vec![1u8; FRAGMENT_CAPACITY * 2 + 10];
        let m = Message::new(1, 2, &payload);
        let mut frags = encode_fragments(&m).unwrap();
        frags.reverse();
        let back = decode_fragments(frags.iter().map(|f| f.as_slice())).unwrap();
        assert_eq!(back.payload, payload);
    }

    #[test]
    fn missing_fragment_fails() {
        let payload = vec![1u8; FRAGMENT_CAPACITY * 2];
        let m = Message::new(1, 2, &payload);
        let frags = encode_fragments(&m).unwrap();
        assert!(decode_fragments(frags.iter().take(1).map(|f| f.as_slice())).is_none());
    }

    #[test]
    fn mixed_messages_rejected() {
        let a = encode_fragments(&Message::new(1, 2, &vec![1u8; FRAGMENT_CAPACITY + 1])).unwrap();
        let b = encode_fragments(&Message::new(2, 2, &vec![1u8; FRAGMENT_CAPACITY + 1])).unwrap();
        let mixed = [a[0].as_slice(), b[1].as_slice()];
        assert!(decode_fragments(mixed.into_iter()).is_none());
    }

    #[test]
    fn oversized_rejected() {
        let m = Message::new(1, 1, &vec![0u8; MAX_MESSAGE_PAYLOAD + 1]);
        assert_eq!(encode_fragments(&m), Err(EncodeError::TooLarge));
        // And the boundary itself fits.
        let m = Message::new(1, 1, &vec![0u8; MAX_MESSAGE_PAYLOAD]);
        assert_eq!(encode_fragments(&m).unwrap().len(), MAX_FRAGMENTS);
    }

    #[test]
    fn flags_preserved_across_fragments() {
        let mut m = Message::new(1, 1, &vec![0u8; FRAGMENT_CAPACITY * 3]);
        m.flags = crate::message::FLAG_ENCRYPTED;
        let frags = encode_fragments(&m).unwrap();
        let back = decode_fragments(frags.iter().map(|f| f.as_slice())).unwrap();
        assert!(back.is_encrypted());
    }
}
