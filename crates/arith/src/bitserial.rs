//! LSB-first bit-serialization of signed activations.
//!
//! The HN array accepts 1-bit serialized inputs, least-significant bit first
//! (Figure 4 ❷). Two's-complement signed values work unchanged: every bit
//! plane carries weight `2^b` except the final (sign) plane, which carries
//! `-2^(B-1)`.

/// Serialize `values` (each representable in `bits` two's-complement bits)
/// into `bits` bit-planes, LSB first. Plane `b` holds bit `b` of every value.
///
/// # Panics
///
/// Panics if any value does not fit in `bits` signed bits, or if
/// `bits` is 0 or exceeds 32.
///
/// # Example
///
/// ```
/// use hnlpu_arith::bitserial::{serialize, plane_weight};
/// let planes = serialize(&[5, -3], 4);
/// assert_eq!(planes.len(), 4);
/// // Reconstruct: sum over planes of weight * bit.
/// let x0: i32 = (0..4).map(|b| plane_weight(b, 4) * planes[b as usize][0] as i32).sum();
/// assert_eq!(x0, 5);
/// ```
pub fn serialize(values: &[i32], bits: u32) -> Vec<Vec<bool>> {
    assert!((1..=32).contains(&bits), "bit width {bits} out of range");
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    for &v in values {
        assert!(
            (lo..=hi).contains(&(v as i64)),
            "value {v} does not fit in {bits} signed bits"
        );
    }
    (0..bits)
        .map(|b| values.iter().map(|&v| (v >> b) & 1 == 1).collect())
        .collect()
}

/// Arithmetic weight of bit-plane `b` of a `bits`-wide two's-complement
/// number: `2^b`, negated for the sign plane.
pub fn plane_weight(b: u32, bits: u32) -> i32 {
    debug_assert!(b < bits);
    if b == bits - 1 {
        -(1 << b)
    } else {
        1 << b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reassemble serialized planes back into values (inverse of [`serialize`]).
    fn deserialize(planes: &[Vec<bool>], bits: u32) -> Vec<i32> {
        assert_eq!(planes.len(), bits as usize, "plane count mismatch");
        let n = planes.first().map_or(0, |p| p.len());
        (0..n)
            .map(|i| {
                (0..bits)
                    .map(|b| plane_weight(b, bits) * planes[b as usize][i] as i32)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn roundtrip_small() {
        let vals = [0, 1, -1, 7, -8];
        let planes = serialize(&vals, 4);
        assert_eq!(deserialize(&planes, 4), vals.to_vec());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        serialize(&[8], 4);
    }

    #[test]
    fn sign_plane_is_negative() {
        assert_eq!(plane_weight(7, 8), -128);
        assert_eq!(plane_weight(6, 8), 64);
        assert_eq!(plane_weight(0, 8), 1);
    }

    #[test]
    fn empty_values() {
        let planes = serialize(&[], 8);
        assert_eq!(planes.len(), 8);
        assert!(deserialize(&planes, 8).is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_random(vals in prop::collection::vec(-(1i32<<11)..(1i32<<11)-1, 0..100)) {
            let planes = serialize(&vals, 12);
            prop_assert_eq!(deserialize(&planes, 12), vals);
        }
    }
}
