//! Data types and software IEEE-754 binary16 conversion.
//!
//! Consumer GPUs compute LLM fine-tuning in half precision; the paper's
//! Table II stores P16/G16/A16 at 2 bytes per element. We emulate that
//! storage format in software: values are converted to binary16 on the way
//! into a storage tier and back to `f32` on the way out, so offloaded
//! tensors really occupy 2 bytes per element and really lose the same
//! precision a GPU transfer would.

/// Element type of a stored tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float (master weights, optimizer moments).
    F32,
    /// 16-bit IEEE float (parameter copies, gradients, activations).
    F16,
}

impl DType {
    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
        }
    }
}

/// Converts an `f32` to IEEE-754 binary16 bits with round-to-nearest-even,
/// handling subnormals, overflow to infinity, and NaN.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep a quiet NaN payload bit if any mantissa bit set.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }

    // Re-bias the exponent from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> infinity
    }
    if unbiased >= -14 {
        // Normal half. Round the 23-bit mantissa to 10 bits (RNE).
        let mant16 = mant >> 13;
        let rest = mant & 0x1fff;
        let half = 0x1000;
        let mut out = ((unbiased + 15) as u32) << 10 | mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1; // may carry into the exponent, which is still correct
        }
        return sign | out as u16;
    }
    if unbiased >= -25 {
        // Subnormal half: shift in the implicit leading 1, then round.
        // The bottom binade, (2^-25, 2^-24), rounds up to the smallest
        // subnormal; 2^-25 itself ties to even, zero.
        let full = mant | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let mant16 = full >> shift;
        let rest = full & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut out = mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    sign // underflow to signed zero
}

/// Converts IEEE-754 binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign // signed zero
        } else {
            // Subnormal: value = mant * 2^-24. Normalize into f32.
            let mut m = mant;
            let mut e = -14i32;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13) // Inf / NaN
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Rounds an `f32` through binary16 and back — the precision a value has
/// after being stored in a half-precision tier.
pub fn round_to_f16(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Converts a slice of binary16 bit patterns to `f32`, bitwise identical to
/// mapping [`f16_bits_to_f32`] element by element.
///
/// This is the decode half shared by the blob path ([`decode_f16`]) and the
/// fused dequant GEMM packing in `gemm.rs`: on x86-64 with AVX2 it runs a
/// branchless 8-lane integer decode (F16C's `vcvtph2ps` is deliberately not
/// used — it quietizes signalling NaN payloads, which would break bitwise
/// equality with the software decoder).
///
/// # Panics
/// If `out.len() != bits.len()`.
pub fn f16_bits_to_f32_slice(bits: &[u16], out: &mut [f32]) {
    assert_eq!(bits.len(), out.len(), "f16 decode length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_available() {
        // SAFETY: AVX2 support was just checked at runtime.
        unsafe { decode_f16_avx2(bits, out) };
        return;
    }
    decode_f16_scalar(bits, out);
}

/// Converts a slice of `f32` to binary16 bit patterns, bitwise identical to
/// mapping [`f32_to_f16_bits`] element by element.
///
/// Every encode of the engine comes through here (saved sets, G16s, P16
/// publishes, checkpoints, [`round_to_f16_in_place`]). On x86-64 with AVX2
/// it runs a branchless 8-lane integer encode; [`f32_to_f16_bits`] is the
/// path elsewhere and the oracle the lane is tested against on all 2^32
/// inputs.
///
/// # Panics
/// If `out.len() != values.len()`.
pub fn f32_to_f16_bits_slice(values: &[f32], out: &mut [u16]) {
    assert_eq!(values.len(), out.len(), "f16 encode length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_available() {
        // SAFETY: AVX2 support was just checked at runtime, and the
        // lengths are equal (asserted above).
        unsafe { encode_f16_avx2(values, out) };
        return;
    }
    encode_f16_scalar(values, out);
}

/// The scalar encode: [`f32_to_f16_bits`] per element, chunked so the
/// compiler can keep the rounding data flow in registers across
/// iterations.
fn encode_f16_scalar(values: &[f32], out: &mut [u16]) {
    const CHUNK: usize = 16;
    let mut vi = values.chunks_exact(CHUNK);
    let mut oi = out.chunks_exact_mut(CHUNK);
    for (v, o) in (&mut vi).zip(&mut oi) {
        for i in 0..CHUNK {
            o[i] = f32_to_f16_bits(v[i]);
        }
    }
    for (v, o) in vi.remainder().iter().zip(oi.into_remainder()) {
        *o = f32_to_f16_bits(*v);
    }
}

fn decode_f16_scalar(bits: &[u16], out: &mut [f32]) {
    const CHUNK: usize = 16;
    let mut bi = bits.chunks_exact(CHUNK);
    let mut oi = out.chunks_exact_mut(CHUNK);
    for (b, o) in (&mut bi).zip(&mut oi) {
        for i in 0..CHUNK {
            o[i] = f16_bits_to_f32(b[i]);
        }
    }
    for (b, o) in bi.remainder().iter().zip(oi.into_remainder()) {
        *o = f16_bits_to_f32(*b);
    }
}

/// Branchless 8-lane binary16 → f32 decode.
///
/// Per lane, with `h` the half bits and `em = (h & 0x7fff) << 13`:
/// - normals add the exponent re-bias `(127-15) << 23` to `em`;
/// - Inf/NaN add `(255-31) << 23`, passing the mantissa payload through
///   untouched (so sNaN stays sNaN, unlike F16C);
/// - subnormals use the magic-number trick: `f32(em + (113<<23)) - 2^-14`
///   is exact by Sterbenz's lemma and yields `mant * 2^-24`.
///
/// All three results are computed for every lane and blended by exponent
/// class, then the sign is OR'd back in.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decode_f16_avx2(bits: &[u16], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = bits.len();
    let mut i = 0;
    unsafe {
        let exp_mask = _mm256_set1_epi32(0x7c00 << 13);
        let em_mask = _mm256_set1_epi32(0x7fff);
        let normal_bias = _mm256_set1_epi32(112 << 23);
        let naninf_bias = _mm256_set1_epi32(224 << 23);
        let sub_magic = _mm256_set1_epi32(113 << 23);
        while i + 8 <= n {
            let h = _mm256_cvtepu16_epi32(_mm_loadu_si128(bits.as_ptr().add(i) as *const _));
            let sign = _mm256_slli_epi32::<16>(_mm256_srli_epi32::<15>(h));
            let sign = _mm256_slli_epi32::<15>(sign);
            let em = _mm256_slli_epi32::<13>(_mm256_and_si256(h, em_mask));
            let exp = _mm256_and_si256(em, exp_mask);
            let normal = _mm256_add_epi32(em, normal_bias);
            let naninf = _mm256_add_epi32(em, naninf_bias);
            let sub = _mm256_castps_si256(_mm256_sub_ps(
                _mm256_castsi256_ps(_mm256_add_epi32(em, sub_magic)),
                _mm256_castsi256_ps(sub_magic),
            ));
            let is_naninf = _mm256_cmpeq_epi32(exp, exp_mask);
            let is_sub = _mm256_cmpeq_epi32(exp, _mm256_setzero_si256());
            let body = _mm256_blendv_epi8(normal, naninf, is_naninf);
            let body = _mm256_blendv_epi8(body, sub, is_sub);
            let res = _mm256_or_si256(body, sign);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut _, res);
            i += 8;
        }
    }
    decode_f16_scalar(&bits[i..], &mut out[i..]);
}

/// Branchless 8-lane f32 → binary16 encode, bitwise [`f32_to_f16_bits`].
///
/// Per lane, with `abs` the f32 bits without the sign and `lsb` the bit
/// that becomes the half's last mantissa bit:
/// - normals round in the integer domain, `(abs - (112 << 23) + 0xfff +
///   lsb) >> 13`: the subtraction re-biases the exponent and the carry out
///   of the dropped 13 bits is round-to-nearest-even (a carry into the
///   exponent is the next binade, up to `0x7c00`, which is how 65520
///   overflows); an unsigned min with `0x7c00` sends overflow and Inf to
///   Inf, and NaN (`abs > 0x7f80_0000`) is blended to `0x7e00`;
/// - below `113 << 23` the implicit 1 is shifted in and each lane rounds
///   by its own `srlv` of `126 - exp`, `(full + half - 1 + lsb) >> shift`;
///   exponents under 102 shift every bit out, to zero.
///
/// The sign is OR'd back in and the 32-bit lanes are packed to 16.
///
/// # Safety
/// The CPU must support AVX2, and `out.len()` must equal `values.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_f16_avx2(values: &[f32], out: &mut [u16]) {
    use std::arch::x86_64::*;
    let n = values.len();
    let mut i = 0;
    // SAFETY: the caller guarantees AVX2 and equal lengths; each load
    // reads `values[i..i + 8]` and each store writes `out[i..i + 8]` with
    // `i + 8 <= n`, unaligned accesses inside both slices.
    unsafe {
        let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
        let sign_bit = _mm256_set1_epi32(0x8000);
        let f32_inf = _mm256_set1_epi32(0x7f80_0000);
        let normal_min = _mm256_set1_epi32(113 << 23);
        let rebias = _mm256_set1_epi32(112 << 23);
        let below_half = _mm256_set1_epi32(0xfff);
        let one = _mm256_set1_epi32(1);
        let f16_inf = _mm256_set1_epi32(0x7c00);
        let f16_nan = _mm256_set1_epi32(0x7e00);
        let mant_mask = _mm256_set1_epi32(0x007f_ffff);
        let implicit = _mm256_set1_epi32(0x0080_0000);
        let sub_base = _mm256_set1_epi32(126);
        while i + 8 <= n {
            let bits = _mm256_loadu_si256(values.as_ptr().add(i) as *const _);
            let abs = _mm256_and_si256(bits, abs_mask);
            let sign = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), sign_bit);

            let lsb = _mm256_and_si256(_mm256_srli_epi32::<13>(abs), one);
            let normal = _mm256_add_epi32(
                _mm256_sub_epi32(abs, rebias),
                _mm256_add_epi32(below_half, lsb),
            );
            let normal = _mm256_min_epu32(_mm256_srli_epi32::<13>(normal), f16_inf);

            let shift = _mm256_sub_epi32(sub_base, _mm256_srli_epi32::<23>(abs));
            let full = _mm256_or_si256(_mm256_and_si256(abs, mant_mask), implicit);
            let sub_lsb = _mm256_and_si256(_mm256_srlv_epi32(full, shift), one);
            let half = _mm256_sllv_epi32(one, _mm256_sub_epi32(shift, one));
            let sub = _mm256_add_epi32(full, _mm256_sub_epi32(half, one));
            let sub = _mm256_srlv_epi32(_mm256_add_epi32(sub, sub_lsb), shift);

            let body = _mm256_blendv_epi8(normal, sub, _mm256_cmpgt_epi32(normal_min, abs));
            let body = _mm256_blendv_epi8(body, f16_nan, _mm256_cmpgt_epi32(abs, f32_inf));
            let res = _mm256_or_si256(body, sign);
            let packed = _mm_packus_epi32(
                _mm256_castsi256_si128(res),
                _mm256_extracti128_si256::<1>(res),
            );
            _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut _, packed);
            i += 8;
        }
    }
    encode_f16_scalar(&values[i..], &mut out[i..]);
}

/// Elements the byte codecs move through a stack scratch at a time: the
/// blob is converted in place or into its destination chunk by chunk, so
/// no codec holds a second heap copy of what it converts.
pub(crate) const CODEC_CHUNK: usize = 256;

/// Rounds every value through binary16 in place: bitwise the
/// [`round_to_f16`] map, through the slice codecs a [`CODEC_CHUNK`] at a
/// time, with no allocation.
pub fn round_to_f16_in_place(values: &mut [f32]) {
    let mut bits = [0u16; CODEC_CHUNK];
    for chunk in values.chunks_mut(CODEC_CHUNK) {
        let bits = &mut bits[..chunk.len()];
        f32_to_f16_bits_slice(chunk, bits);
        f16_bits_to_f32_slice(bits, chunk);
    }
}

/// Encodes a slice of `f32` into little-endian binary16 bytes.
pub fn encode_f16(values: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * 2];
    encode_f16_into(values, &mut out);
    out
}

/// Encodes `values` as little-endian binary16 bytes into `out`.
///
/// # Panics
/// If `out.len() != values.len() * 2`.
pub(crate) fn encode_f16_into(values: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 2, "f16 byte/slot length mismatch");
    let mut bits = [0u16; CODEC_CHUNK];
    for (v, o) in values
        .chunks(CODEC_CHUNK)
        .zip(out.chunks_mut(2 * CODEC_CHUNK))
    {
        let bits = &mut bits[..v.len()];
        f32_to_f16_bits_slice(v, bits);
        for (c, b) in o.chunks_exact_mut(2).zip(bits.iter()) {
            c.copy_from_slice(&b.to_le_bytes());
        }
    }
}

/// Decodes little-endian binary16 bytes into `f32`, writing into `out`.
///
/// # Panics
/// If `bytes.len() != out.len() * 2`.
pub fn decode_f16_into(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 2, "f16 byte/slot length mismatch");
    let mut bits = [0u16; CODEC_CHUNK];
    for (b, o) in bytes
        .chunks(2 * CODEC_CHUNK)
        .zip(out.chunks_mut(CODEC_CHUNK))
    {
        let bits = &mut bits[..o.len()];
        for (h, c) in bits.iter_mut().zip(b.chunks_exact(2)) {
            *h = u16::from_le_bytes([c[0], c[1]]);
        }
        f16_bits_to_f32_slice(bits, o);
    }
}

/// Decodes little-endian binary16 bytes into `f32`.
///
/// # Panics
/// If `bytes.len()` is odd.
pub fn decode_f16(bytes: &[u8]) -> Vec<f32> {
    assert!(
        bytes.len().is_multiple_of(2),
        "odd f16 byte length {}",
        bytes.len()
    );
    let mut out = vec![0.0f32; bytes.len() / 2];
    decode_f16_into(bytes, &mut out);
    out
}

/// Encodes a slice of `f32` into little-endian f32 bytes (for master
/// states stored at full precision).
pub fn encode_f32(values: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * 4];
    encode_f32_into(values, &mut out);
    out
}

/// Encodes `values` as little-endian f32 bytes into `out`.
///
/// # Panics
/// If `out.len() != values.len() * 4`.
pub(crate) fn encode_f32_into(values: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 4, "f32 byte/slot length mismatch");
    for (c, v) in out.chunks_exact_mut(4).zip(values) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes little-endian f32 bytes.
///
/// # Panics
/// If `bytes.len()` is not a multiple of 4.
pub fn decode_f32(bytes: &[u8]) -> Vec<f32> {
    assert!(
        bytes.len().is_multiple_of(4),
        "bad f32 byte length {}",
        bytes.len()
    );
    let mut out = vec![0.0f32; bytes.len() / 4];
    decode_f32_into(bytes, &mut out);
    out
}

/// Decodes little-endian f32 bytes, writing into `out`.
///
/// # Panics
/// If `bytes.len() != out.len() * 4`.
pub(crate) fn decode_f32_into(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 4, "f32 byte/slot length mismatch");
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Rounds a little-endian f32 blob (a P32 master) to little-endian
/// binary16 bytes (its P16): bitwise `encode_f16(&decode_f32(bytes))`
/// without the f32 vector in between.
///
/// # Panics
/// If `bytes.len()` is not a multiple of 4.
pub fn f32_le_to_f16_le(bytes: &[u8]) -> Vec<u8> {
    assert!(
        bytes.len().is_multiple_of(4),
        "bad f32 byte length {}",
        bytes.len()
    );
    let mut out = vec![0u8; bytes.len() / 2];
    let mut values = [0.0f32; CODEC_CHUNK];
    for (b, o) in bytes
        .chunks(4 * CODEC_CHUNK)
        .zip(out.chunks_mut(2 * CODEC_CHUNK))
    {
        let values = &mut values[..b.len() / 4];
        decode_f32_into(b, values);
        encode_f16_into(values, o);
    }
    out
}

/// `acc[i] += f16[i]` over blobs at rest: `acc` little-endian f32 bytes,
/// `f16` little-endian binary16 bytes — a G16 summed into its f32
/// accumulator where the accumulator lies.
///
/// # Panics
/// If `acc.len() != f16.len() * 2`.
pub fn add_f16_le_to_f32_le(acc: &mut [u8], f16: &[u8]) {
    assert_eq!(acc.len(), f16.len() * 2, "f32/f16 blob length mismatch");
    let mut sums = [0.0f32; CODEC_CHUNK];
    let mut addends = [0.0f32; CODEC_CHUNK];
    for (a, h) in acc
        .chunks_mut(4 * CODEC_CHUNK)
        .zip(f16.chunks(2 * CODEC_CHUNK))
    {
        let n = a.len() / 4;
        decode_f32_into(a, &mut sums[..n]);
        decode_f16_into(h, &mut addends[..n]);
        for (s, g) in sums[..n].iter_mut().zip(&addends[..n]) {
            *s += g;
        }
        encode_f32_into(&sums[..n], a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_values_round_trip() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 0.25, -3.5] {
            assert_eq!(round_to_f16(v), v, "{v}");
        }
        assert!(f32_to_f16_bits(-0.0) & 0x8000 != 0);
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // max finite half
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00); // overflow -> inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
    }

    #[test]
    fn nan_survives() {
        let bits = f32_to_f16_bits(f32::NAN);
        assert_eq!(bits & 0x7c00, 0x7c00);
        assert_ne!(bits & 0x03ff, 0);
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal half = 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(round_to_f16(tiny), tiny);
        // Largest subnormal = (1023/1024) * 2^-14.
        let big_sub = 1023.0 / 1024.0 * 2.0f32.powi(-14);
        assert_eq!(round_to_f16(big_sub), big_sub);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(round_to_f16(2.0f32.powi(-26)), 0.0);
        // Above half of it, nearest is the smallest subnormal itself.
        assert_eq!(round_to_f16(1.5 * 2.0f32.powi(-25)), tiny);
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3300_0001)), 0x0001);
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half
        // (1 + 2^-10); RNE picks the even mantissa, i.e. 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(round_to_f16(halfway), 1.0);
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(round_to_f16(above), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn encode_decode_round_trip() {
        let vals = vec![0.0f32, 1.5, -2.25, 100.0];
        assert_eq!(decode_f16(&encode_f16(&vals)), vals);
        assert_eq!(decode_f32(&encode_f32(&vals)), vals);
        assert_eq!(encode_f16(&vals).len(), 8);
        assert_eq!(encode_f32(&vals).len(), 16);
    }

    #[test]
    fn relative_error_is_bounded_for_normals() {
        let mut x = 1e-3f32;
        while x < 6e4 {
            let r = round_to_f16(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 1024.0, "x={x} r={r} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    #[should_panic(expected = "odd f16 byte length")]
    fn odd_byte_length_panics() {
        decode_f16(&[1, 2, 3]);
    }

    #[test]
    fn slice_decode_matches_scalar_for_every_bit_pattern() {
        // All 65536 half bit patterns, at a length that exercises both the
        // 8-lane AVX2 body and the scalar tail.
        let bits: Vec<u16> = (0..=u16::MAX).collect();
        let mut out = vec![0.0f32; bits.len()];
        f16_bits_to_f32_slice(&bits, &mut out);
        for (&b, &o) in bits.iter().zip(&out) {
            assert_eq!(
                o.to_bits(),
                f16_bits_to_f32(b).to_bits(),
                "half bits {b:#06x}"
            );
        }
        // Unaligned length: tail-only path.
        let mut tail = vec![0.0f32; 5];
        f16_bits_to_f32_slice(&bits[1000..1005], &mut tail);
        for (i, &o) in tail.iter().enumerate() {
            assert_eq!(o.to_bits(), f16_bits_to_f32(bits[1000 + i]).to_bits());
        }
    }

    /// The f16 boundary cases: NaN, infinities, signed zero, the
    /// subnormal range's ends, overflow, and round-to-nearest-even ties.
    fn boundary_values() -> [f32; 12] {
        [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            2.0f32.powi(-24),
            2.0f32.powi(-26),
            1023.0 / 1024.0 * 2.0f32.powi(-14),
            65504.0,
            65536.0,
            1.0 + 2.0f32.powi(-11),
            1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20),
            -3.5,
        ]
    }

    /// Every class the encoder treats apart, both signs: at each exponent
    /// the dropped 13 bits at `0, 0xfff, 0x1000, 0x1001, 0x1fff` under a
    /// kept mantissa that is even, odd, or all ones (which carries into
    /// the exponent); the band (2^-25, 2^-24) that rounds up to the
    /// smallest subnormal; 65504/65520; zeros, infinities, NaN payloads.
    fn encode_classes() -> Vec<f32> {
        let mut bits = Vec::new();
        for sign in [0, 0x8000_0000u32] {
            for exp in 0..=255u32 {
                for kept in [0, 0x2000, 0x7f_e000] {
                    for dropped in [0, 0xfff, 0x1000, 0x1001, 0x1fff] {
                        bits.push(sign | exp << 23 | kept | dropped);
                    }
                }
            }
            for b in [
                0x3300_0001,
                0x337f_ffff,
                0x7fc0_0000,
                0x7f80_0001,
                0x7fbf_ffff,
            ] {
                bits.push(sign | b);
            }
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// The encode lane against the scalar at every length through one
    /// lane and its tail (0..=17), cut into slices that start at every
    /// alignment, so each class meets both the lane body and the tail.
    #[test]
    fn slice_encode_matches_scalar() {
        let mut vals: Vec<f32> = (0..2000).map(|i| (i as f32 - 1000.0) * 1.37e-2).collect();
        vals.extend(boundary_values());
        vals.extend(encode_classes());
        let want: Vec<u16> = vals.iter().map(|&v| f32_to_f16_bits(v)).collect();
        f32_to_f16_bits_slice(&[], &mut []);
        let mut got = [0u16; 17];
        for start in [0, 3] {
            for len in 1..=17 {
                for (v, w) in vals[start..].chunks(len).zip(want[start..].chunks(len)) {
                    f32_to_f16_bits_slice(v, &mut got[..v.len()]);
                    assert_eq!(
                        &got[..v.len()],
                        w,
                        "start {start}, len {len}, f32 bits {:08x?}",
                        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn blob_round_trip_through_slice_helpers() {
        let vals: Vec<f32> = (0..517).map(|i| (i as f32).sin() * 31.0).collect();
        let enc = encode_f16(&vals);
        assert_eq!(enc.len(), vals.len() * 2);
        let dec = decode_f16(&enc);
        for (&v, &d) in vals.iter().zip(&dec) {
            assert_eq!(d, round_to_f16(v));
        }
        let mut into = vec![0.0f32; vals.len()];
        decode_f16_into(&enc, &mut into);
        assert_eq!(dec, into);
    }

    /// Deterministic values spread over the f16 range and beyond it.
    fn spread(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                let unit = (state >> 8) as f32 / (1 << 24) as f32 - 0.5;
                unit * 10f32.powi((state % 13) as i32 - 8)
            })
            .collect()
    }

    #[test]
    fn f32_le_to_f16_le_matches_decode_then_encode() {
        // Lengths on both sides of the stack scratch, and the empty blob.
        for n in [
            0,
            1,
            CODEC_CHUNK - 1,
            CODEC_CHUNK,
            CODEC_CHUNK + 1,
            3 * CODEC_CHUNK + 7,
        ] {
            let mut vals = spread(n, 17 + n as u32);
            vals.extend(boundary_values());
            let master = encode_f32(&vals);
            assert_eq!(
                f32_le_to_f16_le(&master),
                encode_f16(&decode_f32(&master)),
                "{n} values"
            );
        }
    }

    #[test]
    fn f32_byte_codecs_round_trip_bit_for_bit() {
        let mut vals = spread(2 * CODEC_CHUNK + 3, 5);
        vals.extend(boundary_values());
        let bytes = encode_f32(&vals);
        assert_eq!(bytes.len(), vals.len() * 4);
        let back = decode_f32(&bytes);
        assert!(vals
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let mut into = vec![0u8; bytes.len()];
        encode_f32_into(&back, &mut into);
        assert_eq!(into, bytes);
    }

    /// The invariant the forward's single encode relies on: the bytes of
    /// a value are the bytes of its rounding, so rounding before an
    /// encode is dead work.
    #[test]
    fn encoding_a_rounded_value_is_encoding_the_value() {
        let nans = [
            0x7fc0_0000u32,
            0x7f80_0001,
            0x7fbf_ffff,
            0xffc0_1234,
            0xff80_0042,
        ]
        .map(f32::from_bits);
        let mut vals = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE / 2.0, // an f32 subnormal: flushes to ±0
            -f32::MIN_POSITIVE / 3.0,
            2.0f32.powi(-24),                   // smallest f16 subnormal
            3.0 * 2.0f32.powi(-25),             // tie between two f16 subnormals
            2.0f32.powi(-25),                   // tie with zero: rounds to even (0)
            1023.0 / 1024.0 * 2.0f32.powi(-14), // largest f16 subnormal
            1.0 + 2.0f32.powi(-11),             // tie, rounds down to even
            1.0 + 3.0 * 2.0f32.powi(-11),       // tie, rounds up to even
            65504.0,
            65519.99, // just under the overflow tie
            65520.0,  // overflow tie: to +inf
            -65520.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        vals.extend(nans);
        vals.extend(spread(300, 9));
        for v in vals {
            assert_eq!(
                encode_f16(&[v]),
                encode_f16(&[round_to_f16(v)]),
                "{v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn rounding_in_place_is_the_scalar_map() {
        for n in [0, 1, CODEC_CHUNK - 1, CODEC_CHUNK, CODEC_CHUNK + 1, 1000] {
            let mut vals = spread(n, 31 + n as u32);
            if n >= boundary_values().len() {
                vals[..boundary_values().len()].copy_from_slice(&boundary_values());
            }
            let expected: Vec<u32> = vals.iter().map(|&v| round_to_f16(v).to_bits()).collect();
            round_to_f16_in_place(&mut vals);
            let got: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected, "{n} values");
        }
    }

    /// A block's saved set decoded field by field — whole, and from
    /// chunks that cut fields anywhere — is the whole-blob decode cut
    /// into fields, bit for bit (arbitrary bytes: NaN payloads too).
    #[test]
    fn a_saved_set_decodes_field_by_field_as_one_blob_does() {
        use crate::layers::BlockSaved;
        let (batch, seq, h, heads) = (1, 3, 4, 2);
        let n = BlockSaved::element_count_for(batch, seq, h, heads);
        let mut state = 0x2545_f491u32;
        let bytes: Vec<u8> = (0..2 * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state >> 24) as u8
            })
            .collect();
        let whole: Vec<u32> = decode_f16(&bytes).iter().map(|v| v.to_bits()).collect();
        let fields = |saved: &BlockSaved| -> Vec<u32> {
            let tensors = saved.tensors();
            tensors
                .iter()
                .flat_map(|t| t.iter().map(|v| v.to_bits()))
                .collect()
        };
        let one = BlockSaved::from_f16_bytes([&bytes[..]], batch, seq, h, heads);
        assert_eq!(fields(&one), whole);
        let chunks: Vec<Vec<u8>> = bytes.chunks(2 * 7).map(<[u8]>::to_vec).collect();
        let chunked = BlockSaved::from_f16_bytes(chunks, batch, seq, h, heads);
        assert_eq!(fields(&chunked), whole);
    }

    #[test]
    fn add_f16_le_to_f32_le_matches_the_decoded_sum() {
        for n in [0, 5, CODEC_CHUNK, 2 * CODEC_CHUNK + 9] {
            let acc = spread(n, 3);
            let g16 = encode_f16(&spread(n, 4));
            let expected: Vec<f32> = acc
                .iter()
                .zip(decode_f16(&g16))
                .map(|(a, g)| a + g)
                .collect();
            let mut blob = encode_f32(&acc);
            add_f16_le_to_f32_le(&mut blob, &g16);
            assert_eq!(blob, encode_f32(&expected), "{n} values");
        }
    }
}
