//! The checksum stages on the CPU's own polynomial multiplier.
//!
//! `PCLMULQDQ` multiplies two 64-bit polynomials over GF(2) in one
//! instruction — the software counterpart of the CRC logic the paper
//! puts beside the data path (§4.3, §5.2). Two kernels use it, both
//! reached only through [`crc32`](super::crc32) and
//! [`crc10`](super::crc10) (and the SAR layer's in-crate word entry):
//!
//! * **FCS** — the message is folded 64 octets at a time: four 128-bit
//!   lanes, each multiplied forward by `x^512 mod P` and XORed onto the
//!   next 64 octets; the four lanes fold into one (`x^128 mod P`), any
//!   whole 16-octet blocks left fold onto that, and the lane is reduced
//!   128 → 96 → 64 bits and then to the 32-bit register by a Barrett
//!   division. The last 0–15 octets go through the byte table.
//! * **CRC-10** — not a loop. The gateway only ever checks one 48-octet
//!   information field: six big-endian words `w0..w5`, each multiplied
//!   by its own `x^(64·(5−i)+10) mod P`, XORed into one 73-bit sum and
//!   reduced once.
//!
//! Every constant is derived below by `const fn` from the generator
//! polynomials in the parent module; `constants_match_the_literature`
//! pins the CRC-32 ones against the published values.
//!
//! # The `unsafe` budget
//!
//! The kernels are safe `#[target_feature]` functions: intrinsics are
//! safe inside them, loads go through `from_le_bytes`/`_mm_set_epi64x`,
//! every slice access is bounds-checked. *Calling* one from code built
//! without the feature is the only unsafe operation, so this file —
//! the one file in `gw-wire` allowed it, which CI enforces — holds
//! exactly two `unsafe` blocks, each a bare call directly under the
//! runtime test that makes it sound and each opting in to
//! `unsafe_code` on its own statement.

use super::{CRC10_POLY, CRC32_POLY, CRC32_TABLE};
use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128,
    _mm_cvtsi64_si128, _mm_set_epi32, _mm_set_epi64x, _mm_slli_epi64, _mm_srli_epi64,
    _mm_srli_si128, _mm_xor_si128,
};
use std::arch::is_x86_feature_detected;

/// The FCS generator with its `x^32` term.
const P32: u64 = (1 << 32) | CRC32_POLY as u64;
/// The CRC-10 generator with its `x^10` term.
const P10: u64 = (1 << 10) | CRC10_POLY as u64;

/// `x^n mod p`, bit-serially, for a generator `p` of degree `deg`.
const fn x_pow_mod(n: u32, p: u64, deg: u32) -> u64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        r <<= 1;
        if r >> deg != 0 {
            r ^= p;
        }
        i += 1;
    }
    r
}

/// `⌊x^n / p⌋` by long division, for a generator `p` of degree `deg`.
const fn x_pow_div(n: u32, p: u64, deg: u32) -> u64 {
    let mut rem = 1u128 << n;
    let mut q = 0u64;
    let mut k = n - deg + 1;
    while k > 0 {
        k -= 1;
        if rem >> (k + deg) & 1 != 0 {
            q |= 1 << k;
            rem ^= (p as u128) << k;
        }
    }
    q
}

/// A 33-bit polynomial in the FCS's reflected bit order (bit `k` is the
/// coefficient of `x^(32−k)`).
const fn reflect33(v: u64) -> i64 {
    (v.reverse_bits() >> 31) as i64
}

/// The qword that carries a 64-bit half-lane `e` bit positions up the
/// message. The FCS is reflected, so a lane's bit `i` is the
/// coefficient of `x^(127−i)` and a carry-less product lands one
/// position low: the key is `x^(e−32) mod P` reflected over 32 bits and
/// shifted left once, which multiplies by `x^e` exactly.
const fn fold_key(e: u32) -> i64 {
    ((x_pow_mod(e - 32, P32, 32) as u32).reverse_bits() as i64) << 1
}

/// Fold a lane 512 bits on: (key of the low qword — the earlier octets,
/// 64 positions further from the end — key of the high qword).
const FOLD_512: (i64, i64) = (fold_key(512 + 64), fold_key(512));
/// Fold a lane 128 bits on.
const FOLD_128: (i64, i64) = (fold_key(128 + 64), fold_key(128));
/// Carry the top 32 bits of a 96-bit remainder down: `x^64 mod P`.
const FOLD_64: i64 = fold_key(64 + 32);
/// `P(x)` and `μ = ⌊x^64 / P(x)⌋` for the Barrett step.
const P32_REFLECTED: i64 = reflect33(P32);
const MU32_REFLECTED: i64 = reflect33(x_pow_div(64, P32, 32));

/// Key `i` takes word `i` of an information field to its place in the
/// CRC: `x^(64·(5−i)+10) mod P`, pre-shifted 54 places so the summed
/// products come out as `S·x^54` — the high qword is then `⌊S / x^10⌋`,
/// ready for Barrett, and the top ten bits of the low qword are
/// `S mod x^10`.
const FIELD_KEYS: [i64; 6] = {
    let mut keys = [0; 6];
    let mut i = 0;
    while i < 6 {
        keys[i] = (x_pow_mod(64 * (5 - i as u32) + 10, P10, 10) << 54) as i64;
        i += 1;
    }
    keys
};
/// `μ = ⌊x^73 / P(x)⌋`: the sum of six 64 × 10-bit products has degree
/// at most 72, so its quotient by `x^10` has degree at most 62.
const MU10: i64 = x_pow_div(73, P10, 10) as i64;

/// True when this CPU runs the kernels.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq")
}

/// The FCS of `data`, or `None` when this path does not apply (under
/// 64 octets, or no `PCLMULQDQ`) and the caller runs the table.
#[inline]
pub(super) fn crc32(data: &[u8]) -> Option<u32> {
    let (blocks, tail) = data.as_chunks::<16>();
    let (first, blocks) = blocks.split_first_chunk::<4>()?;
    if !is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    #[expect(unsafe_code, reason = "calls a `#[target_feature]` kernel")]
    // SAFETY: `crc32_fold` is a safe function whose only requirement is
    // the `pclmulqdq` target feature, which the line above just found
    // on the running CPU.
    let mut crc = unsafe { crc32_fold(first, blocks) };
    for &b in tail {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    Some(!crc)
}

/// The CRC-10 of one information field given as six big-endian words,
/// or `None` without `PCLMULQDQ`.
#[inline]
pub(super) fn crc10_field(w: [u64; 6]) -> Option<u16> {
    if !is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    #[expect(unsafe_code, reason = "calls a `#[target_feature]` kernel")]
    // SAFETY: `crc10_words` is a safe function whose only requirement
    // is the `pclmulqdq` target feature, which the line above just
    // found on the running CPU.
    let crc = unsafe { crc10_words(w[0], w[1], w[2], w[3], w[4], w[5]) };
    Some(crc)
}

#[inline]
#[target_feature(enable = "pclmulqdq")]
fn load(block: &[u8; 16]) -> __m128i {
    let v = u128::from_le_bytes(*block);
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// Multiply both halves of `x` by their keys: `x` carried forward by
/// the distance `keys` encodes, still 128 bits wide.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold(x: __m128i, keys: __m128i) -> __m128i {
    _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x, keys), _mm_clmulepi64_si128::<0x11>(x, keys))
}

/// The FCS register (before the final complement) after `first` and
/// `rest`, starting from the all-ones preset.
#[target_feature(enable = "pclmulqdq")]
fn crc32_fold(first: &[[u8; 16]; 4], rest: &[[u8; 16]]) -> u32 {
    let k512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
    let k128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
    let [b0, b1, b2, b3] = first;
    // The all-ones preset is the complement of the first four octets.
    let mut x0 = _mm_xor_si128(load(b0), _mm_cvtsi32_si128(-1));
    let (mut x1, mut x2, mut x3) = (load(b1), load(b2), load(b3));
    let (quads, singles) = rest.as_chunks::<4>();
    for [b0, b1, b2, b3] in quads {
        x0 = _mm_xor_si128(fold(x0, k512), load(b0));
        x1 = _mm_xor_si128(fold(x1, k512), load(b1));
        x2 = _mm_xor_si128(fold(x2, k512), load(b2));
        x3 = _mm_xor_si128(fold(x3, k512), load(b3));
    }
    let mut m = _mm_xor_si128(fold(x0, k128), x1);
    m = _mm_xor_si128(fold(m, k128), x2);
    m = _mm_xor_si128(fold(m, k128), x3);
    for b in singles {
        m = _mm_xor_si128(fold(m, k128), load(b));
    }

    // The register is `m · x^32 mod P`. 128 → 96 bits: the low qword
    // (the higher powers) times `x^128`, onto the high qword moved up
    // 64 — the sum is `m · x^64` with its low 32 bits clear, that is
    // `m · x^32` held 32 places up.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let r = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(m, k128), _mm_srli_si128::<8>(m));
    // 96 → 64 bits: the top 32 bits times `x^64 mod P`, onto the rest.
    let r = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, FOLD_64)),
        _mm_srli_si128::<4>(r),
    );
    // Barrett, 64 → 32 bits: q = ⌊⌊r / x^32⌋ · μ / x^32⌋, and the
    // remainder is the low half of `r + q · P` (exact over GF(2)).
    let p_mu = _mm_set_epi64x(MU32_REFLECTED, P32_REFLECTED);
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), p_mu);
    let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
    (_mm_cvtsi128_si64(_mm_xor_si128(r, qp)) as u64 >> 32) as u32
}

/// CRC-10 of the 384-bit message `w0 · x^320 + … + w5`. The words
/// arrive by value: six integer registers, nothing for the caller to
/// store and this function to wait on.
#[target_feature(enable = "pclmulqdq")]
fn crc10_words(w0: u64, w1: u64, w2: u64, w3: u64, w4: u64, w5: u64) -> u16 {
    let [k0, k1, k2, k3, k4, k5] = FIELD_KEYS;
    let (k01, k23, k45) = (_mm_set_epi64x(k1, k0), _mm_set_epi64x(k3, k2), _mm_set_epi64x(k5, k4));
    let word = |w: u64| _mm_cvtsi64_si128(w as i64);
    // S · x^54, where S = Σ wᵢ · (x^(64·(5−i)+10) mod P) ≡ message · x^10.
    let s = _mm_xor_si128(
        _mm_xor_si128(
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(word(w0), k01),
                _mm_clmulepi64_si128::<0x10>(word(w1), k01),
            ),
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(word(w2), k23),
                _mm_clmulepi64_si128::<0x10>(word(w3), k23),
            ),
        ),
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(word(w4), k45),
            _mm_clmulepi64_si128::<0x10>(word(w5), k45),
        ),
    );
    // Barrett: with t = ⌊S / x^10⌋ (the high qword of `s`), q =
    // ⌊t · μ / x^63⌋. Doubling `s` first puts q in the product's high
    // qword whole, where the next multiply can pick it up in place.
    let q = _mm_clmulepi64_si128::<0x01>(_mm_slli_epi64::<1>(s), _mm_set_epi64x(0, MU10));
    // S mod P = (S + q · P) mod x^10; only q's low ten bits reach that
    // far down, so the whole qword may go in.
    let qp = _mm_clmulepi64_si128::<0x01>(q, _mm_set_epi64x(0, P10 as i64));
    (_mm_cvtsi128_si64(_mm_xor_si128(_mm_srli_epi64::<54>(s), qp)) & 0x3FF) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_literature() {
        // Intel, "Fast CRC Computation for Generic Polynomials Using
        // PCLMULQDQ" (reflected IEEE 802.3): k1..k5, P(x)', μ'.
        assert_eq!(FOLD_512, (0x1_5444_2bd4, 0x1_c6e4_1596));
        assert_eq!(FOLD_128, (0x1_7519_97d0, 0x0_ccaa_009e));
        assert_eq!(FOLD_64, 0x1_63cd_6124);
        assert_eq!(P32_REFLECTED, 0x1_db71_0641);
        assert_eq!(MU32_REFLECTED, 0x1_f701_1641);
    }

    #[test]
    fn derivations_are_division_with_remainder() {
        // x^n = ⌊x^n / P⌋ · P + (x^n mod P), multiplied out bit by bit.
        fn mul(a: u64, b: u64) -> u128 {
            (0..64).filter(|i| b >> i & 1 != 0).fold(0, |acc, i| acc ^ (a as u128) << i)
        }
        for (n, p, deg) in [(64, P32, 32), (73, P10, 10), (40, P10, 10), (33, P32, 32)] {
            let back = mul(x_pow_div(n, p, deg), p) ^ x_pow_mod(n, p, deg) as u128;
            assert_eq!(back, 1u128 << n, "x^{n} over {p:#x}");
            assert!(x_pow_mod(n, p, deg) >> deg == 0);
        }
    }
}
