//! IEEE CRC-32 (the polynomial used by gzip/zip/PNG), table-driven.
//!
//! Used for the journal's per-record framing, checkpoint file checksums
//! and, through [`Crc32`], the gzip trailer of exports and uploads. CRC-32
//! detects every single-bit error and every burst up to 32 bits — exactly
//! the corruption classes a torn write or a flaky disk produces — at a few
//! cycles per byte.

/// Lazily built 256-entry lookup table for polynomial `0xEDB88320`
/// (reflected `0x04C11DB7`).
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// Incremental IEEE CRC-32, for checksums over a stream (the gzip
/// trailer). Feeding the bytes in any split gives [`crc32`] of the whole.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let table = table();
        let mut crc = self.state;
        for &byte in data {
            crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// IEEE CRC-32 of `data` (initial value `0xFFFFFFFF`, final XOR, reflected
/// — byte-compatible with `zlib`'s `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for the IEEE polynomial.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn split_updates_match_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"{\"event\":\"completed\",\"job\":7}".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }
}
