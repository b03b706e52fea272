//! Checksum generators and validators used by the gateway hardware.
//!
//! The critical path of the gateway computes three different CRCs:
//!
//! * **HEC** — the ATM header error check, an 8-bit CRC over the first
//!   four header octets with generator `x^8 + x^2 + x + 1` (0x07) and the
//!   ITU-T I.432 coset `0x55` added to the remainder. The AIC discards
//!   cells whose header fails this check and generates it for outbound
//!   cells (§4.3 "ATM Interface Chip").
//! * **CRC-10** — the SAR information-field check with generator
//!   `x^10 + x^9 + x^5 + x^4 + x + 1` (0x233 in 10-bit notation), the
//!   same polynomial later standardized for AAL-3/4 and OAM cells. The
//!   SPP's CRC Logic checks it over the entire 48-octet payload (§5.2).
//! * **FCS** — the FDDI frame check sequence, the IEEE 802 32-bit CRC
//!   (identical to Ethernet's, reflected, `0x04C11DB7`), appended by the
//!   MAC layer.
//!
//! In the paper neither CRC-10 nor the FCS is a pause: each is a stage
//! of dedicated logic beside the data path, "generated on the fly"
//! (§5.4). Here every checksum has a table-driven form whose tables are
//! computed at compile time — the HEC's only one (four octets), and the
//! portable path of the other two. Where the CPU has a carry-less
//! multiplier, [`crc32`] over 64 octets or more and [`crc10`] over one
//! 48-octet information field run on it instead ([`kernel`] says which;
//! DESIGN.md §15). Which path runs is decided by the CPU at the call,
//! never by the caller: there is one function per checksum.

#[cfg(target_arch = "x86_64")]
mod clmul;

use crate::atm::PAYLOAD_SIZE;

/// Generator polynomial for the ATM HEC, `x^8 + x^2 + x + 1`.
const HEC_POLY: u8 = 0x07;
/// Coset added to the HEC remainder, per ITU-T I.432.
const HEC_COSET: u8 = 0x55;
/// Generator polynomial for the SAR CRC-10, `x^10 + x^9 + x^5 + x^4 + x + 1`.
pub(crate) const CRC10_POLY: u16 = 0x233;
/// Generator polynomial for the FDDI FCS (IEEE 802), non-reflected form.
pub(crate) const CRC32_POLY: u32 = 0x04C1_1DB7;

const fn build_hec_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 { (crc << 1) ^ HEC_POLY } else { crc << 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_crc10_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        // Process one input byte through the 10-bit register.
        let mut crc = (i as u16) << 2; // align byte to the top of 10 bits
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x200 != 0 {
                ((crc << 1) ^ CRC10_POLY) & 0x3FF
            } else {
                (crc << 1) & 0x3FF
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_crc32_table() -> [u32; 256] {
    // Reflected table for the IEEE 802 CRC-32 as used on the wire.
    let poly_reflected: u32 = 0xEDB8_8320; // bit-reversed CRC32_POLY
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly_reflected } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_crc32_slices() -> [[u32; 256]; 8] {
    // Slice-by-8: tables[k][b] is the CRC contribution of byte `b`
    // entering the register k bytes before the end of an 8-byte block.
    let base = build_crc32_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte-step of the CRC-10 register with a zero input byte:
/// `A(s) = ((s << 8) & 0x3FF) ^ T[(s >> 2) & 0xFF]`. Linear in `s`
/// (shift and table lookup both are), which is what makes the
/// sliced form below possible.
const fn crc10_step(table: &[u16; 256], s: u16) -> u16 {
    ((s << 8) & 0x3FF) ^ table[((s >> 2) & 0xFF) as usize]
}

/// `CRC10_ADV4[s]` advances a 10-bit register by four zero bytes.
const fn build_crc10_adv4() -> [u16; 1024] {
    let table = build_crc10_table();
    let mut adv = [0u16; 1024];
    let mut s = 0;
    while s < 1024 {
        let mut v = s as u16;
        let mut i = 0;
        while i < 4 {
            v = crc10_step(&table, v);
            i += 1;
        }
        adv[s] = v;
        s += 1;
    }
    adv
}

/// `CRC10_BYTE[k][b]`: contribution of data byte `b` entering the
/// register `k + 1` bytes before the end of a 4-byte block (k = 0 is
/// the last byte, i.e. the plain byte table).
const fn build_crc10_byte_slices() -> [[u16; 256]; 4] {
    let base = build_crc10_table();
    let mut tables = [[0u16; 256]; 4];
    tables[0] = base;
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            tables[k][i] = crc10_step(&base, tables[k - 1][i]);
            i += 1;
        }
        k += 1;
    }
    tables
}

static HEC_TABLE: [u8; 256] = build_hec_table();
static CRC10_TABLE: [u16; 256] = build_crc10_table();
static CRC10_ADV4: [u16; 1024] = build_crc10_adv4();
static CRC10_BYTE: [[u16; 256]; 4] = build_crc10_byte_slices();
static CRC32_TABLE: [u32; 256] = build_crc32_table();
static CRC32_SLICES: [[u32; 256]; 8] = build_crc32_slices();

/// Compute the ATM header error check over the first four header octets.
///
/// Returns the value carried in the fifth header octet: the CRC-8
/// remainder with the I.432 coset `0x55` added (XORed) in.
///
/// ```
/// # use gw_wire::crc::hec;
/// let header4 = [0x00, 0x00, 0x00, 0x00];
/// // CRC-8 of all-zero input is zero; the coset alone remains.
/// assert_eq!(hec(&header4), 0x55);
/// ```
#[inline]
pub fn hec(header4: &[u8]) -> u8 {
    debug_assert_eq!(header4.len(), 4, "HEC covers exactly four octets");
    let mut crc = 0u8;
    for &b in header4 {
        crc = HEC_TABLE[(crc ^ b) as usize];
    }
    crc ^ HEC_COSET
}

/// Verify that a 5-octet ATM header's HEC octet matches its first four.
#[inline]
pub fn hec_valid(header5: &[u8]) -> bool {
    header5.len() == 5 && hec(&header5[..4]) == header5[4]
}

/// Which kernel [`crc32`] and [`crc10`] run on this CPU: `"pclmulqdq"`
/// or `"table"`. A host-speed figure means nothing without it; nothing
/// simulated depends on it.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        return "pclmulqdq";
    }
    "table"
}

/// Compute the 10-bit SAR CRC over `data`.
///
/// The SPP computes this over the entire 48-octet ATM information field
/// with the 10-bit CRC field itself zeroed (§5.2, Figure 5). The caller
/// is responsible for zeroing that field before calling.
pub fn crc10(data: &[u8]) -> u16 {
    match <&[u8; PAYLOAD_SIZE]>::try_from(data) {
        Ok(field) => crc10_field(field_words(field)),
        Err(_) => crc10_table(data),
    }
}

/// An information field as six big-endian words, the form the SAR layer
/// checks and builds cells in.
#[inline]
pub(crate) fn field_words(field: &[u8; PAYLOAD_SIZE]) -> [u64; 6] {
    let (words, _) = field.as_chunks::<8>();
    core::array::from_fn(|i| u64::from_be_bytes(words[i]))
}

/// The octets of six big-endian words.
#[inline]
pub(crate) fn field_octets(words: [u64; 6]) -> [u8; PAYLOAD_SIZE] {
    let mut field = [0u8; PAYLOAD_SIZE];
    let (chunks, _) = field.as_chunks_mut::<8>();
    for (chunk, w) in chunks.iter_mut().zip(words) {
        *chunk = w.to_be_bytes();
    }
    field
}

/// [`crc10`] of an information field held as six big-endian words (CRC
/// field zeroed by the caller, as for [`crc10`]).
#[inline]
pub(crate) fn crc10_field(words: [u64; 6]) -> u16 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc10_field(words) {
        return crc;
    }
    crc10_table(&field_octets(words))
}

/// The portable CRC-10: any length, any CPU.
fn crc10_table(data: &[u8]) -> u16 {
    // Slice-by-4 over the 10-bit register. CRC update is linear over
    // GF(2), so a 4-byte block splits into the register advanced by
    // four zero bytes (`CRC10_ADV4`) XOR one independent lookup per
    // data byte (`CRC10_BYTE`) — only the 1024-entry advance is on the
    // serial dependency chain, the byte lookups run in parallel. The
    // SPP pays this on all 48 payload octets of every cell (§5.2).
    let mut crc: u16 = 0;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        crc = CRC10_ADV4[crc as usize]
            ^ CRC10_BYTE[3][c[0] as usize]
            ^ CRC10_BYTE[2][c[1] as usize]
            ^ CRC10_BYTE[1][c[2] as usize]
            ^ CRC10_BYTE[0][c[3] as usize];
    }
    for &b in chunks.remainder() {
        let idx = (((crc >> 2) ^ b as u16) & 0xFF) as usize;
        crc = ((crc << 8) & 0x3FF) ^ CRC10_TABLE[idx];
    }
    crc & 0x3FF
}

/// Compute the FDDI frame check sequence (IEEE 802 CRC-32) over `data`.
///
/// The result is the value transmitted in the 4-octet FCS field
/// (complemented, reflected convention — identical to Ethernet).
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(fcs) = clmul::crc32(data) {
        return fcs;
    }
    crc32_table(data)
}

/// The portable FCS: any length, any CPU.
fn crc32_table(data: &[u8]) -> u32 {
    // Slice-by-8: fold the register into the first word of each 8-byte
    // block, then combine eight independent table lookups. This runs
    // once over every rebuilt FDDI frame (the MPP's FCS "generated on
    // the fly", §5.4), so it is on the frame-completion fast path.
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let one = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let two = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC32_SLICES[7][(one & 0xFF) as usize]
            ^ CRC32_SLICES[6][((one >> 8) & 0xFF) as usize]
            ^ CRC32_SLICES[5][((one >> 16) & 0xFF) as usize]
            ^ CRC32_SLICES[4][(one >> 24) as usize]
            ^ CRC32_SLICES[3][(two & 0xFF) as usize]
            ^ CRC32_SLICES[2][((two >> 8) & 0xFF) as usize]
            ^ CRC32_SLICES[1][((two >> 16) & 0xFF) as usize]
            ^ CRC32_SLICES[0][(two >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hec_of_zero_header_is_coset() {
        assert_eq!(hec(&[0, 0, 0, 0]), 0x55);
    }

    #[test]
    fn hec_known_vector() {
        // Idle/unassigned cell header per I.361: 00 00 00 01 -> HEC 0x52.
        assert_eq!(hec(&[0x00, 0x00, 0x00, 0x01]), 0x52);
    }

    #[test]
    fn hec_detects_single_bit_errors() {
        let hdr = [0x12, 0x34, 0x56, 0x78];
        let h = hec(&hdr);
        for byte in 0..4 {
            for bit in 0..8 {
                let mut corrupted = hdr;
                corrupted[byte] ^= 1 << bit;
                assert_ne!(hec(&corrupted), h, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn hec_valid_roundtrip() {
        let mut hdr = [0xAB, 0xCD, 0xEF, 0x01, 0x00];
        hdr[4] = hec(&hdr[..4]);
        assert!(hec_valid(&hdr));
        hdr[0] ^= 0x80;
        assert!(!hec_valid(&hdr));
        assert!(!hec_valid(&hdr[..4]));
    }

    #[test]
    fn crc10_zero_input_is_zero() {
        assert_eq!(crc10(&[0u8; 48]), 0);
    }

    #[test]
    fn crc10_is_ten_bits() {
        for i in 0..=255u8 {
            let data = [i; 48];
            assert!(crc10(&data) <= 0x3FF);
        }
    }

    #[test]
    fn crc10_detects_single_bit_errors_in_48_bytes() {
        let mut data = [0u8; 48];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let c = crc10(&data);
        for byte in 0..48 {
            for bit in 0..8 {
                let mut d = data;
                d[byte] ^= 1 << bit;
                assert_ne!(crc10(&d), c, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn crc10_detects_burst_errors_up_to_10_bits() {
        // A CRC of degree 10 detects all burst errors of length <= 10.
        let data: Vec<u8> = (0..48u8).collect();
        let c = crc10(&data);
        for start in 0..(48 * 8 - 10) {
            // Burst of exactly 10 bits, all flipped.
            let mut d = data.clone();
            for off in 0..10 {
                let bitpos = start + off;
                d[bitpos / 8] ^= 1 << (bitpos % 8);
            }
            assert_ne!(crc10(&d), c, "10-bit burst at {start} undetected");
        }
    }

    #[test]
    fn crc10_order_sensitivity() {
        assert_ne!(crc10(&[1, 2, 3]), crc10(&[3, 2, 1]));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn crc32_detects_single_bit_errors() {
        let data: Vec<u8> = (0..100u8).collect();
        let c = crc32(&data);
        for byte in [0usize, 1, 50, 99] {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc32(&d), c);
            }
        }
    }

    #[test]
    fn tables_consistent_with_bitwise_hec() {
        // Cross-check the table against a direct bit-serial division.
        fn hec_bitwise(data: &[u8]) -> u8 {
            let mut crc = 0u8;
            for &b in data {
                crc ^= b;
                for _ in 0..8 {
                    crc = if crc & 0x80 != 0 { (crc << 1) ^ HEC_POLY } else { crc << 1 };
                }
            }
            crc ^ HEC_COSET
        }
        for seed in 0..64u32 {
            let d = [
                (seed * 7) as u8,
                (seed * 13 + 1) as u8,
                (seed * 29 + 2) as u8,
                (seed * 31 + 3) as u8,
            ];
            assert_eq!(hec(&d), hec_bitwise(&d));
        }
    }

    /// CRC-10 by bit-serial division: the reference both kernels answer to.
    fn crc10_bitwise(data: &[u8]) -> u16 {
        let mut crc = 0u16;
        for &b in data {
            for bit in (0..8).rev() {
                let inbit = ((b >> bit) & 1) as u16;
                let top = (crc >> 9) & 1;
                crc = (crc << 1) & 0x3FF;
                if top ^ inbit != 0 {
                    crc ^= CRC10_POLY & 0x3FF;
                }
            }
        }
        crc & 0x3FF
    }

    /// The (uncomplemented, reflected) FCS register shifted one bit on.
    fn crc32_bitwise_shift(crc: u32) -> u32 {
        if crc & 1 != 0 {
            (crc >> 1) ^ CRC32_POLY.reverse_bits()
        } else {
            crc >> 1
        }
    }

    /// One octet into the FCS register, bit-serially.
    fn crc32_bitwise_step(crc: u32, b: u8) -> u32 {
        (0..8).fold(crc ^ b as u32, |crc, _| crc32_bitwise_shift(crc))
    }

    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| crc32_bitwise_step(crc, b))
    }

    /// splitmix64: enough of a generator for test buffers.
    fn random_octets(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 56) as u8
            })
            .collect()
    }

    /// Every way to a CRC-10 of one information field: the dispatching
    /// entry points (the multiplier kernel where the CPU has one), the
    /// table and the bit-serial reference.
    fn assert_crc10_paths_agree(field: &[u8; 48]) {
        let want = crc10_bitwise(field);
        assert_eq!(crc10_table(field), want, "table, field {field:02x?}");
        assert_eq!(crc10(field), want, "crc10, field {field:02x?}");
        assert_eq!(crc10_field(field_words(field)), want, "crc10_field, field {field:02x?}");
    }

    #[test]
    fn tables_consistent_with_bitwise_crc10() {
        for seed in 0..32u32 {
            let d: Vec<u8> = (0..48).map(|i| (i as u32 * seed % 251) as u8).collect();
            assert_eq!(crc10_table(&d), crc10_bitwise(&d), "seed {seed}");
        }
        // Lengths the fixed-size kernel never sees.
        let d = random_octets(10, 100);
        for len in 0..=d.len() {
            assert_eq!(crc10(&d[..len]), crc10_bitwise(&d[..len]), "len {len}");
        }
    }

    #[test]
    fn crc10_paths_agree_on_every_field() {
        // Zero preset, no final XOR: CRC-10 is linear over GF(2), so
        // agreement on the zero field and on a basis — the 384
        // single-bit fields — is agreement on every field.
        assert_crc10_paths_agree(&[0; 48]);
        for bit in 0..384 {
            let mut field = [0u8; 48];
            field[bit / 8] = 0x80 >> (bit % 8);
            assert_crc10_paths_agree(&field);
        }
        // And sampled anyway, against a slip in that argument.
        let octets = random_octets(1991, 48 * 10_000);
        let (fields, _) = octets.as_chunks::<48>();
        fields.iter().for_each(assert_crc10_paths_agree);
    }

    #[test]
    fn field_words_and_octets_are_inverse() {
        let octets = random_octets(6, 48);
        let field: &[u8; 48] = octets[..].try_into().unwrap();
        let words = field_words(field);
        assert_eq!(words[0] >> 56, field[0] as u64, "big-endian: octet 0 on top");
        assert_eq!(&field_octets(words), field);
    }

    #[test]
    fn tables_consistent_with_bitwise_crc32() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(&[]), 0);
    }

    #[test]
    fn crc32_paths_agree_at_every_length_and_alignment() {
        // The FCS is affine per length, so each length is its own
        // function: every one a maximum FDDI frame can have, at every
        // alignment of its first octet against the 16-octet lanes.
        const MAX_LEN: usize = 4600;
        let buf = random_octets(32, MAX_LEN + 16);
        for start in 0..16 {
            let mut state = !0u32;
            for len in 0..=MAX_LEN {
                let data = &buf[start..start + len];
                let want = !state;
                assert_eq!(crc32_table(data), want, "table, start {start} len {len}");
                assert_eq!(crc32(data), want, "crc32, start {start} len {len}");
                state = crc32_bitwise_step(state, buf[start + len]);
            }
        }
    }

    #[test]
    fn crc32_paths_agree_on_every_single_bit_message() {
        // Around each seam of the fold: one short of a block, exactly
        // one, one over; a lane and a bit; two blocks; a full-size frame
        // with a ragged tail.
        for len in [63usize, 64, 65, 79, 80, 127, 128, 4491] {
            let mut msg = vec![0u8; len];
            let zero = crc32_bitwise(&msg);
            // The FCS is affine: a one-bit message's is the zero
            // message's plus x^(bits after it + 32) mod P — one more
            // bit-serial shift for each step back from the last bit
            // sent (octets go out low bit first). The direct reference
            // confirms that on the lengths where it is cheap.
            let mut rem = CRC32_POLY.reverse_bits();
            for sent in (0..len * 8).rev() {
                msg[sent / 8] = 1 << (sent % 8);
                let want = zero ^ rem;
                assert_eq!(crc32_table(&msg), want, "table, len {len} bit {sent}");
                assert_eq!(crc32(&msg), want, "crc32, len {len} bit {sent}");
                if len <= 128 {
                    assert_eq!(crc32_bitwise(&msg), want, "bitwise, len {len} bit {sent}");
                }
                msg[sent / 8] = 0;
                rem = crc32_bitwise_shift(rem);
            }
        }
    }
}
