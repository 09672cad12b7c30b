//! `[optimistic, pessimistic]` cost-range arithmetic.
//!
//! Every dollar figure in the paper's Appendix B is quoted as a range to
//! account for assumption sensitivity; this newtype keeps that range intact
//! through sums, scalings, and comparisons.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A `[low, high]` cost interval in US dollars.
///
/// # Example
///
/// ```
/// use hnlpu_litho::CostRange;
/// let masks = CostRange::new(13.85e6, 27.69e6);
/// let per_chip = CostRange::new(1.154e6, 2.308e6) * 16.0;
/// let total = masks + per_chip;
/// assert!(total.low > 32.0e6 && total.high < 65.0e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostRange {
    /// Optimistic estimate, USD.
    pub low: f64,
    /// Pessimistic estimate, USD.
    pub high: f64,
}

impl CostRange {
    /// Build a range.
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is negative/non-finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low >= 0.0 && low <= high,
            "invalid cost range [{low}, {high}]"
        );
        CostRange { low, high }
    }

    /// A degenerate exact cost.
    pub fn exact(v: f64) -> Self {
        Self::new(v, v)
    }

    /// Zero cost.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Midpoint of the interval.
    pub fn mid(&self) -> f64 {
        (self.low + self.high) / 2.0
    }
}

impl Add for CostRange {
    type Output = CostRange;
    fn add(self, rhs: CostRange) -> CostRange {
        CostRange::new(self.low + rhs.low, self.high + rhs.high)
    }
}

impl AddAssign for CostRange {
    fn add_assign(&mut self, rhs: CostRange) {
        *self = *self + rhs;
    }
}

impl Sub for CostRange {
    type Output = CostRange;
    fn sub(self, rhs: CostRange) -> CostRange {
        CostRange::new(
            (self.low - rhs.low).max(0.0),
            (self.high - rhs.high).max(0.0),
        )
    }
}

impl Mul<f64> for CostRange {
    type Output = CostRange;
    fn mul(self, k: f64) -> CostRange {
        assert!(k >= 0.0, "cost scaling must be non-negative");
        CostRange::new(self.low * k, self.high * k)
    }
}

impl Div<f64> for CostRange {
    type Output = CostRange;
    fn div(self, k: f64) -> CostRange {
        assert!(k > 0.0, "cost divisor must be positive");
        CostRange::new(self.low / k, self.high / k)
    }
}

impl Sum for CostRange {
    fn sum<I: Iterator<Item = CostRange>>(iter: I) -> CostRange {
        iter.fold(CostRange::zero(), |a, b| a + b)
    }
}

impl fmt::Display for CostRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn fmt_usd(v: f64) -> String {
            if v >= 1e9 {
                format!("${:.3}B", v / 1e9)
            } else if v >= 1e6 {
                format!("${:.2}M", v / 1e6)
            } else if v >= 1e3 {
                format!("${:.1}K", v / 1e3)
            } else {
                format!("${v:.0}")
            }
        }
        if (self.high - self.low).abs() < 1e-9 {
            write!(f, "{}", fmt_usd(self.low))
        } else {
            write!(f, "{} – {}", fmt_usd(self.low), fmt_usd(self.high))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = CostRange::new(1.0, 2.0);
        let b = CostRange::new(3.0, 5.0);
        assert_eq!(a + b, CostRange::new(4.0, 7.0));
        assert_eq!(b - a, CostRange::new(2.0, 3.0));
        assert_eq!(a * 2.0, CostRange::new(2.0, 4.0));
        assert_eq!(b / 2.0, CostRange::new(1.5, 2.5));
        assert_eq!(a.mid(), 1.5);
    }

    #[test]
    fn sum_iterator() {
        let total: CostRange = (0..3).map(|_| CostRange::new(1.0, 2.0)).sum();
        assert_eq!(total, CostRange::new(3.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "invalid cost range")]
    fn inverted_range_rejected() {
        CostRange::new(2.0, 1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CostRange::new(1.5e6, 3.0e6).to_string(), "$1.50M – $3.00M");
        assert_eq!(CostRange::exact(6.0e9).to_string(), "$6.000B");
        assert_eq!(CostRange::exact(629.0).to_string(), "$629");
        assert_eq!(CostRange::exact(16_988.0).to_string(), "$17.0K");
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = CostRange::new(1.0, 2.0);
        let b = CostRange::new(3.0, 5.0);
        assert_eq!(a - b, CostRange::zero());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn range() -> impl Strategy<Value = CostRange> {
            (0.0f64..1e9, 0.0f64..1e9).prop_map(|(a, b)| CostRange::new(a.min(b), a.max(b)))
        }

        proptest! {
            #[test]
            fn addition_is_commutative_and_preserves_order(a in range(), b in range()) {
                prop_assert_eq!(a + b, b + a);
                let s = a + b;
                prop_assert!(s.low <= s.high);
                prop_assert!(s.low >= a.low && s.low >= b.low);
            }

            #[test]
            fn scaling_distributes_over_addition(a in range(), b in range(), k in 0.0f64..100.0) {
                let lhs = (a + b) * k;
                let rhs = a * k + b * k;
                prop_assert!((lhs.low - rhs.low).abs() <= 1e-6 * (1.0 + lhs.low.abs()));
                prop_assert!((lhs.high - rhs.high).abs() <= 1e-6 * (1.0 + lhs.high.abs()));
            }

            #[test]
            fn mid_is_between_bounds(a in range()) {
                prop_assert!(a.low <= a.mid() && a.mid() <= a.high);
            }

            #[test]
            fn sum_equals_fold(items in prop::collection::vec(range(), 0..20)) {
                let total: CostRange = items.iter().copied().sum();
                let folded = items.iter().copied().fold(CostRange::zero(), |x, y| x + y);
                prop_assert_eq!(total, folded);
            }
        }
    }
}
