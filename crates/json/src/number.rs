//! JSON numbers.
//!
//! JSON does not distinguish integers from floating-point values, but
//! retaining the distinction matters for faithful round-tripping of the
//! datasets (a GitHub `id` must not come back as `1.2345678e7`). The paper's
//! type language has a single `Num` basic type, so the distinction is
//! invisible to inference — it lives entirely in this substrate.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A JSON number: either a 64-bit signed integer or an IEEE 754 double.
///
/// Integers outside the `i64` range are stored as doubles, mirroring what
/// most JSON implementations (including Json4s used by the paper) do.
///
/// Unlike `f64`, `Number` implements [`Eq`], [`Ord`] and [`Hash`]: NaN is
/// canonicalised and compares equal to itself and greater than every other
/// value, so numbers can be used in hash-based distinct-type counting.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// An integer that fits in `i64`.
    Int(i64),
    /// Any other finite double (and, defensively, NaN/inf from in-memory
    /// construction; the parser never produces non-finite values).
    Float(f64),
}

impl Number {
    /// The numeric value as `f64`, lossy for very large integers.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` if it is an integer (including floats with zero
    /// fractional part that fit).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(i) => Some(i),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }

    /// Canonical form used by `Eq`/`Ord`/`Hash`: integral floats are folded
    /// into integers so that `1.0 == 1`.
    fn canonical(&self) -> CanonicalNumber {
        match *self {
            Number::Int(i) => CanonicalNumber::Int(i),
            Number::Float(f) => {
                if f.is_nan() {
                    CanonicalNumber::Nan
                } else if f == 0.0 {
                    // fold -0.0 into +0.0
                    CanonicalNumber::Int(0)
                } else if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    CanonicalNumber::Int(f as i64)
                } else {
                    CanonicalNumber::Float(f.to_bits())
                }
            }
        }
    }
}

#[derive(PartialEq, Eq, Hash)]
enum CanonicalNumber {
    Int(i64),
    Float(u64),
    Nan,
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for Number {}

impl Hash for Number {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical().hash(state);
    }
}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Number {
    fn cmp(&self, other: &Self) -> Ordering {
        use Number::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            _ => {
                let (a, b) = (self.as_f64(), other.as_f64());
                // Total order: NaN sorts last and equals itself.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
                }
            }
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Float(x) => {
                if x.is_nan() || x.is_infinite() {
                    // JSON has no representation for these; emit null like
                    // most serializers do.
                    write!(f, "null")
                } else if x == x.trunc() && x.abs() < 1e15 {
                    // Keep a trailing `.0` so the value re-parses as it was
                    // constructed (a float).
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        Number::Int(i)
    }
}

impl From<i32> for Number {
    fn from(i: i32) -> Self {
        Number::Int(i64::from(i))
    }
}

impl From<u32> for Number {
    fn from(i: u32) -> Self {
        Number::Int(i64::from(i))
    }
}

impl From<f64> for Number {
    fn from(f: f64) -> Self {
        Number::Float(f)
    }
}

/// Parse the decimal text of a JSON number (already validated against the
/// RFC 8259 grammar by the lexer) into a [`Number`].
///
/// Integers that fit in `i64` stay exact; everything else goes through
/// `f64` parsing.
pub fn parse_decimal(text: &str) -> Option<Number> {
    let looks_integral = !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E'));
    if looks_integral {
        if let Ok(i) = text.parse::<i64>() {
            return Some(Number::Int(i));
        }
        // Falls through for integers wider than i64.
    }
    match text.parse::<f64>() {
        Ok(f) if f.is_finite() => Some(Number::Float(f)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(n: &Number) -> u64 {
        let mut h = DefaultHasher::new();
        n.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_folds() {
        assert_eq!(Number::Int(1), Number::Float(1.0));
        assert_eq!(hash_of(&Number::Int(1)), hash_of(&Number::Float(1.0)));
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Number::Float(-0.0), Number::Int(0));
    }

    #[test]
    fn nan_is_self_equal_and_sorts_last() {
        let nan = Number::Float(f64::NAN);
        assert_eq!(nan, nan);
        assert_eq!(nan.cmp(&Number::Int(i64::MAX)), Ordering::Greater);
    }

    #[test]
    fn ordering_across_representations() {
        assert!(Number::Int(2) < Number::Float(2.5));
        assert!(Number::Float(-1.5) < Number::Int(0));
        assert_eq!(Number::Int(7).cmp(&Number::Float(7.0)), Ordering::Equal);
    }

    #[test]
    fn display_round_trip_friendly() {
        assert_eq!(Number::Int(42).to_string(), "42");
        assert_eq!(Number::Float(1.5).to_string(), "1.5");
        assert_eq!(Number::Float(3.0).to_string(), "3.0");
        assert_eq!(Number::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn as_i64_accepts_integral_floats() {
        assert_eq!(Number::Float(5.0).as_i64(), Some(5));
        assert_eq!(Number::Float(5.5).as_i64(), None);
        assert_eq!(Number::Int(-3).as_i64(), Some(-3));
    }

    #[test]
    fn parse_decimal_prefers_int() {
        assert_eq!(parse_decimal("123"), Some(Number::Int(123)));
        assert_eq!(parse_decimal("-7"), Some(Number::Int(-7)));
        assert!(matches!(parse_decimal("1.25"), Some(Number::Float(_))));
        assert!(matches!(parse_decimal("1e3"), Some(Number::Float(_))));
    }

    #[test]
    fn parse_decimal_wide_integer_falls_to_float() {
        let n = parse_decimal("99999999999999999999999").unwrap();
        assert!(matches!(n, Number::Float(_)));
    }

    #[test]
    fn parse_decimal_rejects_overflowing_exponent() {
        assert_eq!(parse_decimal("1e999"), None);
    }
}
