//! Frame check sequence: the CRC-32 appended to every 802.11 MPDU.
//!
//! 802.11 uses the same CRC-32 as IEEE 802.3 (polynomial `0x04C11DB7`,
//! reflected form `0xEDB88320`, initial value and final XOR `0xFFFF_FFFF`),
//! transmitted least-significant byte first.
//!
//! The CRC runs **slicing-by-8**: eight derived tables let one step
//! fold eight input bytes with eight independent lookups instead of a
//! chain of eight dependent ones. Every frame a gateway hears is checked
//! and every beacon a device sends is stamped with it, so it is on both
//! ends of the hot path. Inputs shorter than a word (and the tail of
//! longer ones) fall back to the bytewise table.

/// Reflected generator polynomial of the IEEE CRC-32.
pub const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// Table-driven CRC-32 over `data`, as used for the 802.11 FCS.
///
/// ```
/// // The classic check vector for CRC-32/ISO-HDLC.
/// assert_eq!(wile_dot11::fcs::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !fold(0xFFFF_FFFF, data)
}

/// Fold `data` into the running (pre-inversion) CRC `crc`.
fn fold(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Incremental CRC-32, for computing an FCS over scattered buffers.
///
/// ```
/// use wile_dot11::fcs::{crc32, Crc32};
/// let mut inc = Crc32::new();
/// inc.update(b"1234");
/// inc.update(b"56789");
/// assert_eq!(inc.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running CRC.
    pub fn update(&mut self, data: &[u8]) {
        self.state = fold(self.state, data);
    }

    /// Finish and return the CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Append the 4-byte FCS (little-endian, i.e. LSB first as transmitted)
/// to a frame body.
pub fn append_fcs(frame: &mut Vec<u8>) {
    let fcs = crc32(frame);
    frame.extend_from_slice(&fcs.to_le_bytes());
}

/// Check the trailing FCS of `frame` (which must include the 4 FCS bytes).
///
/// Returns `true` when the FCS matches the preceding bytes.
pub fn check_fcs(frame: &[u8]) -> bool {
    if frame.len() < 4 {
        return false;
    }
    let (body, tail) = frame.split_at(frame.len() - 4);
    let want = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    crc32(body) == want
}

/// Strip a verified FCS, returning the frame body, or `None` if the FCS
/// does not match.
pub fn strip_fcs(frame: &[u8]) -> Option<&[u8]> {
    if check_fcs(frame) {
        Some(&frame[..frame.len() - 4])
    } else {
        None
    }
}

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes, which is what lets one step
/// fold the byte `k` positions before the end of an 8-byte word.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        // CRC-32 of the empty string is 0.
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_zero_byte() {
        assert_eq!(crc32(&[0u8]), 0xD202_EF8D);
    }

    #[test]
    fn fcs_of_frame_plus_fcs_is_residue() {
        // Appending a correct CRC and re-running the CRC over the whole
        // buffer yields the fixed residue 0x2144DF1C -- a classic CRC-32
        // identity hardware checkers rely on.
        let mut frame = b"any frame at all".to_vec();
        append_fcs(&mut frame);
        assert_eq!(crc32(&frame), 0x2144_DF1C);
    }

    #[test]
    fn append_then_check_round_trips() {
        let mut frame = b"beacon frame body".to_vec();
        append_fcs(&mut frame);
        assert!(check_fcs(&frame));
        assert_eq!(strip_fcs(&frame), Some(&b"beacon frame body"[..]));
    }

    #[test]
    fn corruption_is_detected() {
        let mut frame = b"beacon frame body".to_vec();
        append_fcs(&mut frame);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(!check_fcs(&bad), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn short_frames_fail_check() {
        assert!(!check_fcs(&[]));
        assert!(!check_fcs(&[1, 2, 3]));
        assert_eq!(strip_fcs(&[1, 2, 3]), None);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        for split in [0usize, 1, 7, 128, 255, 256] {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), crc32(&data), "split at {split}");
        }
    }
}
