//! Wire format of a remote feature row: how wide one element is while
//! it crosses the simulated network.
//!
//! Rows travel as **bf16** — the top 16 bits of the f32, rounded to
//! nearest, ties to even — and are widened back to f32 on arrival. This
//! module is the only place that knows that: the server's gather encodes
//! through [`encode_row`], the client's assemble loop decodes through
//! [`decode_row`], and the cost model and the byte counters price a
//! remote element at [`BYTES_PER_ELEM`]. Local rows never pass through
//! here and stay exact f32.
//!
//! bf16 keeps f32's exponent, so every finite f32 has a finite-or-∞
//! image with relative error ≤ 2⁻⁸ and no subnormal or overflow special
//! cases below the bf16 maximum; encode is an add and a shift, decode a
//! shift, and both auto-vectorise inside the copies the pull path already
//! makes (DESIGN §11).

/// One feature element as it crosses the network.
pub type WireElem = u16;

/// Bytes one remote feature element occupies on the wire.
pub const BYTES_PER_ELEM: usize = std::mem::size_of::<WireElem>();

/// Round-to-nearest-even of a non-NaN bit pattern: add half an ulp of
/// the kept half (one less when the kept half is even), drop the rest.
/// The carry out of the mantissa is what rounds the top binade to ∞.
#[inline]
fn round_bits(bits: u32) -> WireElem {
    let lsb = (bits >> 16) & 1;
    (bits.wrapping_add(0x7fff + lsb) >> 16) as WireElem
}

/// Round one f32 to bf16, nearest-even.
///
/// ±0 and ±∞ are preserved; a finite value whose magnitude rounds past
/// the bf16 maximum (≈ 3.39e38) becomes ±∞, as round-to-nearest-even
/// prescribes; NaN stays a (quiet) NaN of the same sign.
#[inline]
pub fn encode(x: f32) -> WireElem {
    if x.is_nan() {
        // The rounding add would carry a NaN's all-ones exponent and
        // mantissa into the sign bit (0x7fff_ffff → 0x8000, i.e. −0) or
        // round a small payload away (→ ∞): truncate and set the quiet
        // bit instead.
        ((x.to_bits() >> 16) | 0x0040) as WireElem
    } else {
        round_bits(x.to_bits())
    }
}

/// Widen one bf16 back to f32 (exact).
#[inline]
pub fn decode(h: WireElem) -> f32 {
    f32::from_bits(u32::from(h) << 16)
}

/// The f32 a value becomes after one trip over the wire.
#[inline]
pub fn round_trip(x: f32) -> f32 {
    decode(encode(x))
}

/// Append the encoding of `row` to `out` — the server's gather copy.
///
/// The loop rounds every element as if none were NaN and only notes
/// whether one was: that keeps it a handful of vector integer ops per
/// lane (a per-element NaN select costs as much again, measured), and
/// feature rows do not hold NaNs. A row that does is patched afterwards.
#[inline]
pub fn encode_row(row: &[f32], out: &mut Vec<WireElem>) {
    let start = out.len();
    let mut saw_nan = false;
    out.extend(row.iter().map(|&x| {
        saw_nan |= x.is_nan();
        round_bits(x.to_bits())
    }));
    if saw_nan {
        for (h, &x) in out[start..].iter_mut().zip(row) {
            *h = encode(x);
        }
    }
}

/// Decode `wire` into `out` (same length) — the client's scatter copy.
#[inline]
pub fn decode_row(wire: &[WireElem], out: &mut [f32]) {
    assert_eq!(wire.len(), out.len(), "wire row and output row differ");
    for (o, &h) in out.iter_mut().zip(wire) {
        *o = decode(h);
    }
}

// The element-level properties (every code, RNE at every boundary, NaN,
// overflow, error bound) are in `tests/prop_net.rs`; here, the row forms.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_encode_and_decode_elementwise() {
        let row = [0.1f32, -0.7, 1.25, 1.0e-3];
        let mut wire = vec![7];
        encode_row(&row, &mut wire);
        assert_eq!(wire.len(), 1 + row.len(), "encode_row appends");
        let mut back = [0.0f32; 4];
        decode_row(&wire[1..], &mut back);
        for (b, x) in back.iter().zip(row) {
            assert_eq!(*b, round_trip(x));
        }
    }

    #[test]
    fn a_row_holding_nans_encodes_like_its_elements() {
        // Long enough for the vector loop, with NaNs in the body and the
        // tail, including the two payloads the bare rounding add breaks.
        let mut row: Vec<f32> = (0..67).map(|i| i as f32 * 0.013 - 0.4).collect();
        row[5] = f32::from_bits(0x7fff_ffff);
        row[40] = f32::from_bits(0xff80_0001);
        row[66] = f32::NAN;
        let mut wire = Vec::new();
        encode_row(&row, &mut wire);
        let each: Vec<WireElem> = row.iter().map(|&x| encode(x)).collect();
        assert_eq!(wire, each);
        for i in [5, 40, 66] {
            assert!(decode(wire[i]).is_nan(), "element {i}");
        }
    }
}
