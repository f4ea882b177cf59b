//! Exact rational arithmetic for scheduling weights.
//!
//! Balanced scheduling accumulates weight contributions of the form
//! `IssueSlots(i) / Chances` (paper Fig. 6 line 7), producing exact
//! fractions — Table 1 reports weights like `2 5/12`. Accumulating in
//! floating point would make tie-breaking order-dependent; [`Ratio`] keeps
//! every weight exact, and schedules convert to integer latencies only at
//! the last moment (see [`crate::weights::Rounding`]).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An exact rational number with `i64` numerator and denominator.
///
/// Always stored in lowest terms with a positive denominator. Arithmetic
/// uses `i128` intermediates, so overflow is unreachable for scheduling
/// weights (which are sums of at most `n` unit fractions with `n`-bounded
/// denominators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn new(num: i64, den: i64) -> Self {
        assert_ne!(den, 0, "denominator must be nonzero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        let g = if g == 0 { 1 } else { g } as i64;
        Self {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `n`.
    #[must_use]
    pub fn from_int(n: i64) -> Self {
        Self { num: n, den: 1 }
    }

    /// Numerator (lowest terms, sign-carrying).
    #[must_use]
    pub fn numer(self) -> i64 {
        self.num
    }

    /// Denominator (lowest terms, always positive).
    #[must_use]
    pub fn denom(self) -> i64 {
        self.den
    }

    /// Converts to `f64` (used only for reporting, never for weights).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Largest integer ≤ self.
    #[must_use]
    pub fn floor(self) -> i64 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer ≥ self.
    #[must_use]
    pub fn ceil(self) -> i64 {
        -(-self.num).div_euclid(self.den)
    }

    /// Nearest integer; halves round up (so a weight of `2 1/2` schedules
    /// as 3 — optimism costs less than starvation under uncertainty).
    #[must_use]
    pub fn round(self) -> i64 {
        (2 * self.num + self.den).div_euclid(2 * self.den)
    }

    fn from_i128(num: i128, den: i128) -> Self {
        assert_ne!(den, 0, "denominator must be nonzero");
        let sign: i128 = if den < 0 { -1 } else { 1 };
        let g = gcd128(num.unsigned_abs(), den.unsigned_abs());
        let g = if g == 0 { 1 } else { g } as i128;
        let num = sign * num / g;
        let den = sign * den / g;
        Self {
            num: i64::try_from(num).expect("ratio numerator overflow"),
            den: i64::try_from(den).expect("ratio denominator overflow"),
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn gcd128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Self {
        Ratio::from_int(n)
    }
}

impl Add for Ratio {
    type Output = Ratio;

    fn add(self, rhs: Ratio) -> Ratio {
        Ratio::from_i128(
            i128::from(self.num) * i128::from(rhs.den) + i128::from(rhs.num) * i128::from(self.den),
            i128::from(self.den) * i128::from(rhs.den),
        )
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl Sub for Ratio {
    type Output = Ratio;

    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio::from_i128(
            i128::from(self.num) * i128::from(rhs.den) - i128::from(rhs.num) * i128::from(self.den),
            i128::from(self.den) * i128::from(rhs.den),
        )
    }
}

impl Mul for Ratio {
    type Output = Ratio;

    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::from_i128(
            i128::from(self.num) * i128::from(rhs.num),
            i128::from(self.den) * i128::from(rhs.den),
        )
    }
}

impl Div for Ratio {
    type Output = Ratio;

    /// # Panics
    ///
    /// Panics when dividing by zero.
    fn div(self, rhs: Ratio) -> Ratio {
        Ratio::from_i128(
            i128::from(self.num) * i128::from(rhs.den),
            i128::from(self.den) * i128::from(rhs.num),
        )
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        (i128::from(self.num) * i128::from(other.den))
            .cmp(&(i128::from(other.num) * i128::from(self.den)))
    }
}

impl fmt::Display for Ratio {
    /// Formats as the paper's tables do: `10`, `1 1/4`, `2 5/12`, `-1/3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            return write!(f, "{}", self.num);
        }
        let whole = self.num / self.den;
        let frac = (self.num % self.den).abs();
        if whole != 0 {
            write!(f, "{whole} {frac}/{}", self.den)
        } else if self.num < 0 {
            write!(f, "-{frac}/{}", self.den)
        } else {
            write!(f, "{frac}/{}", self.den)
        }
    }
}

impl std::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |a, b| a + b)
    }
}

/// Error parsing a [`Ratio`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError {
    input: String,
}

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational number: {:?}", self.input)
    }
}

impl std::error::Error for ParseRatioError {}

impl std::str::FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses the formats experiments use: integers (`30`), decimals
    /// (`2.6`, `2.15`), fractions (`13/5`), and the mixed form
    /// [`Display`](Ratio#impl-Display-for-Ratio) emits (`2 3/5`).
    fn from_str(s: &str) -> Result<Ratio, ParseRatioError> {
        let err = || ParseRatioError {
            input: s.to_owned(),
        };
        let s = s.trim();
        // Mixed form: "W N/D" (the fractional part must be a fraction).
        if let Some((whole, frac)) = s.split_once(' ') {
            if !frac.contains('/') {
                return Err(err());
            }
            let whole: i64 = whole.trim().parse().map_err(|_| err())?;
            let frac: Ratio = frac.trim().parse().map_err(|_| err())?;
            let sign = if whole < 0 { -1 } else { 1 };
            return Ok(Ratio::from_int(whole) + Ratio::from_int(sign) * frac);
        }
        // Fraction: "N/D".
        if let Some((num, den)) = s.split_once('/') {
            let num: i64 = num.trim().parse().map_err(|_| err())?;
            let den: i64 = den.trim().parse().map_err(|_| err())?;
            if den == 0 {
                return Err(err());
            }
            return Ok(Ratio::new(num, den));
        }
        // Decimal: "W.F".
        if let Some((whole, frac)) = s.split_once('.') {
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let negative = whole.trim_start().starts_with('-');
            let whole: i64 = if whole.is_empty() || whole == "-" {
                0
            } else {
                whole.parse().map_err(|_| err())?
            };
            let digits = frac.len() as u32;
            let den = 10i64.checked_pow(digits).ok_or_else(err)?;
            let num: i64 = frac.parse().map_err(|_| err())?;
            let frac_part = Ratio::new(num, den);
            let sign = if negative { -1 } else { 1 };
            return Ok(Ratio::from_int(whole) + Ratio::from_int(sign) * frac_part);
        }
        // Integer.
        s.parse::<i64>().map(Ratio::from_int).map_err(|_| err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        let r = Ratio::new(6, 8);
        assert_eq!((r.numer(), r.denom()), (3, 4));
        let n = Ratio::new(3, -6);
        assert_eq!((n.numer(), n.denom()), (-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn table1_weight_arithmetic() {
        // L4's weight from Table 1 cells: 1 + 1/4 + 1 + 1 + 4·(1/3).
        let w = Ratio::ONE
            + Ratio::new(1, 4)
            + Ratio::ONE
            + Ratio::ONE
            + Ratio::new(1, 3) * Ratio::from_int(4);
        assert_eq!(w, Ratio::new(55, 12));
        assert_eq!(w.to_string(), "4 7/12");
    }

    #[test]
    fn sum_of_unit_fractions() {
        let s: Ratio = (1..=4).map(|d| Ratio::new(1, d)).sum();
        assert_eq!(s, Ratio::new(25, 12));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert!(Ratio::from_int(3) > Ratio::new(35, 12));
    }

    #[test]
    fn floor_ceil_round() {
        let r = Ratio::new(7, 2); // 3.5
        assert_eq!(r.floor(), 3);
        assert_eq!(r.ceil(), 4);
        assert_eq!(r.round(), 4, "halves round up");
        let r = Ratio::new(10, 3); // 3.33
        assert_eq!(r.round(), 3);
        let r = Ratio::new(11, 3); // 3.67
        assert_eq!(r.round(), 4);
        let neg = Ratio::new(-7, 2); // -3.5
        assert_eq!(neg.floor(), -4);
        assert_eq!(neg.ceil(), -3);
        assert_eq!(neg.round(), -3, "-3.5 rounds up to -3");
        assert_eq!(Ratio::from_int(5).round(), 5);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Ratio::new(2, 3);
        let b = Ratio::new(5, 7);
        assert_eq!(a + b - b, a);
        assert_eq!(a * b / b, a);
        assert_eq!(a - a, Ratio::ZERO);
        assert_eq!(a * Ratio::ONE, a);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn division_by_zero_panics() {
        let _ = Ratio::ONE / Ratio::ZERO;
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ratio::from_int(10).to_string(), "10");
        assert_eq!(Ratio::new(5, 4).to_string(), "1 1/4");
        assert_eq!(Ratio::new(1, 3).to_string(), "1/3");
        assert_eq!(Ratio::new(-1, 3).to_string(), "-1/3");
        assert_eq!(Ratio::new(-5, 4).to_string(), "-1 1/4");
    }

    #[test]
    fn paper_optimistic_latencies_are_exact() {
        // The traditional scheduler's effective latencies (Table 2 col 2).
        assert_eq!(Ratio::new(26, 10), Ratio::new(13, 5)); // 2.6
        assert_eq!(Ratio::new(215, 100).to_f64(), 2.15);
        assert_eq!(Ratio::new(76, 10).to_f64(), 7.6);
    }

    #[test]
    fn to_f64_matches() {
        assert_eq!(Ratio::new(1, 4).to_f64(), 0.25);
        assert!(Ratio::new(1, 3).to_f64() > 0.333);
    }

    #[test]
    fn parse_integer_and_fraction() {
        assert_eq!("30".parse::<Ratio>().unwrap(), Ratio::from_int(30));
        assert_eq!("-3".parse::<Ratio>().unwrap(), Ratio::from_int(-3));
        assert_eq!("13/5".parse::<Ratio>().unwrap(), Ratio::new(13, 5));
        assert_eq!("  7/2 ".parse::<Ratio>().unwrap(), Ratio::new(7, 2));
    }

    #[test]
    fn parse_decimals() {
        assert_eq!("2.6".parse::<Ratio>().unwrap(), Ratio::new(13, 5));
        assert_eq!("2.15".parse::<Ratio>().unwrap(), Ratio::new(43, 20));
        assert_eq!("7.6".parse::<Ratio>().unwrap(), Ratio::new(38, 5));
        assert_eq!("0.25".parse::<Ratio>().unwrap(), Ratio::new(1, 4));
        assert_eq!("-1.5".parse::<Ratio>().unwrap(), Ratio::new(-3, 2));
        assert_eq!(".5".parse::<Ratio>().unwrap(), Ratio::new(1, 2));
    }

    #[test]
    fn parse_mixed_roundtrips_display() {
        for r in [
            Ratio::new(5, 4),
            Ratio::new(37, 12),
            Ratio::from_int(10),
            Ratio::new(-5, 4),
        ] {
            let text = r.to_string();
            assert_eq!(text.parse::<Ratio>().unwrap(), r, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "abc", "1/0", "2.", "2.x", "1 2", "--3"] {
            assert!(bad.parse::<Ratio>().is_err(), "{bad:?} should fail");
        }
    }
}
