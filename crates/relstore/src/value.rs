//! Dynamically typed attribute values.
//!
//! All values that can appear in a relation cell. `Value` implements a
//! *total* equality, ordering and hash — floats compare by their IEEE bit
//! pattern when incomparable and `Null` sorts below everything — so values
//! can key hash tables (group-by, cube cells, hash joins) and sort
//! deterministically (top-K output, tie-breaking).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single attribute value.
///
/// Strings are reference-counted so cloning a value (which happens when rows
/// are projected into cube cells) never copies string data.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Also used by the data-cube operator for "don't care"
    /// coordinates before they are mapped to [`Value::dummy`].
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
}

impl Value {
    /// Short type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct an integer value.
    pub const fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// The reserved dummy value used by the cube full-outer-join
    /// optimization of Section 4.2: every `null` ("don't care") cube
    /// coordinate is replaced by this value so the join can be a plain
    /// equi-join. The paper chooses a value greater than all valid values;
    /// here a dedicated sentinel string fills the same role because `Value`
    /// has a total order and no user data may use it.
    pub fn dummy() -> Value {
        Value::Str(Arc::from("\u{10FFFF}__exq_dummy__"))
    }

    /// Whether this is the reserved dummy sentinel.
    pub fn is_dummy(&self) -> bool {
        matches!(self, Value::Str(s) if &**s == "\u{10FFFF}__exq_dummy__")
    }

    /// Whether this is SQL NULL.
    pub const fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one. Integers widen to `f64`,
    /// which is **lossy** above 2⁵³ — do not fold `Int`s through this in
    /// accumulation loops (`AggState` keeps an exact `i128` lane instead);
    /// it is fine for one-shot conversions at an f64 output boundary.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order values of different types (Null < Bool < numeric
    /// < Str). Int and Float share a rank and compare numerically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

/// Exact comparison of an `i64` against an `f64` under the total order.
///
/// Casting the integer to `f64` first (the obvious implementation) rounds
/// integers above 2^53 to the nearest representable float, which makes
/// equality non-transitive: `i64::MAX as f64 == 2^63`, so `Int(i64::MAX)`
/// would compare equal to `Float(9.2233720368547758e18)` *and* to every
/// other integer that rounds there. Instead the float is truncated into
/// the integer domain, which is always exact.
fn cmp_int_float(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        // `total_cmp` semantics: finite values sort above -NaN, below +NaN.
        return (a as f64).total_cmp(&b);
    }
    // Every i64 satisfies -2^63 <= a < 2^63; floats outside that window
    // compare without looking at `a`. (2^63 is exactly representable.)
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let t = b.trunc(); // in [-2^63, 2^63), so the cast below is exact
    match a.cmp(&(t as i64)) {
        Ordering::Equal if b > t => Ordering::Less,
        Ordering::Equal if b < t => Ordering::Greater,
        // Numerically equal. Fall back to the float total order so
        // `Int(0)` vs `Float(-0.0)` agrees with `Float(0.0)` vs
        // `Float(-0.0)` (keeping the order transitive around ±0).
        Ordering::Equal => (a as f64).total_cmp(&b),
        other => other,
    }
}

/// The integer a float is *exactly* equal to under [`cmp_int_float`], if
/// any. This is the hash-canonicalization hook: `Float(f)` must hash like
/// `Int(i)` precisely when they compare equal, which requires `f` to be
/// integral, in `i64` range, and bit-identical to `i as f64` (ruling out
/// `-0.0`, whose total order sits strictly below `Int(0)`).
fn float_as_exact_int(f: f64) -> Option<i64> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if !(-TWO_63..TWO_63).contains(&f) {
        return None; // NaN, infinities, and out-of-range magnitudes
    }
    let i = f as i64;
    ((i as f64).to_bits() == f.to_bits()).then_some(i)
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int and Float must hash identically when they compare equal
            // (`Int(2) == Float(2.0)`). Equality is exact, so a float is
            // equal to an int only when it *is* that int; such floats hash
            // through the integer domain and every other float hashes its
            // own bit pattern. Ints never go through f64 — the old
            // `(i as f64).to_bits()` scheme collapsed all integers above
            // 2^53 that round to the same float onto one bucket.
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Value::Float(f) => match float_as_exact_int(*f) {
                Some(i) => {
                    state.write_u8(2);
                    i.hash(state);
                }
                None => {
                    state.write_u8(4);
                    f.to_bits().hash(state);
                }
            },
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

/// Multiply to 128 bits and xor the halves: every input bit reaches both
/// ends of the result, which a plain wrapping multiply (whose low bits
/// see only the operands' low bits) does not give.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
const FINISH: u64 = 0xD6E8_FEB8_6659_FD93;

/// Seed-free hash of a string for the dictionary's code table
/// ([`crate::dict`]). Eight bytes per step; the last step re-reads the
/// final eight bytes, overlapping the step before it when the length is
/// no multiple of eight, so there is no tail to pad. Strings shorter than
/// a word are read as two overlapping halves or three single bytes. The
/// length goes into the finishing multiply: strings of one length differ
/// in some byte, and every byte is read, so two strings collide only if
/// the mixing does.
pub(crate) fn code_hash_str(s: &str) -> u64 {
    let b = s.as_bytes();
    let n = b.len();
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));
    let half = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes"));
    let mut h = MIX;
    if n >= 8 {
        let mut at = 0;
        while at + 8 < n {
            h = fold_mul(h ^ word(at), MIX);
            at += 8;
        }
        h = fold_mul(h ^ word(n - 8), MIX);
    } else if n >= 4 {
        h ^= u64::from(half(0)) | u64::from(half(n - 4)) << 32;
    } else if n > 0 {
        h ^= u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16;
    }
    fold_mul(fold_mul(h, MIX) ^ n as u64, FINISH)
}

impl Value {
    /// Seed-free hash for the dictionary's code table. Equal values hash
    /// equal under the same canonicalization as the [`Hash`] impl above
    /// (an integral in-range `Float` hashes as the `Int` it equals); unlike
    /// it, the result is a pure function of the value, so table layout —
    /// and with it every probe count — repeats from run to run.
    pub(crate) fn code_hash(&self) -> u64 {
        let word = |class: u64, w: u64| fold_mul(fold_mul(w ^ MIX, MIX) ^ class, FINISH);
        match self {
            Value::Null => word(0, 0),
            Value::Bool(b) => word(1, u64::from(*b)),
            Value::Int(i) => word(2, *i as u64),
            Value::Float(f) => match float_as_exact_int(*f) {
                Some(i) => word(2, i as u64),
                None => word(4, f.to_bits()),
            },
            Value::Str(s) => code_hash_str(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl<'a> From<Cow<'a, str>> for Value {
    fn from(v: Cow<'a, str>) -> Value {
        Value::str(v.as_ref())
    }
}

/// Declared type of an attribute. `Any` admits every value; typed columns
/// reject mismatched inserts at load time so queries never see mixed types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Any value permitted.
    Any,
    /// Booleans.
    Bool,
    /// 64-bit integers.
    Int,
    /// 64-bit floats (integers accepted and widened on comparison).
    Float,
    /// Strings.
    Str,
}

impl ValueType {
    /// Whether `v` conforms to this declared type. `Null` conforms to every
    /// type (SQL semantics).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ValueType::Any, _)
                | (ValueType::Bool, Value::Bool(_))
                | (ValueType::Int, Value::Int(_))
                | (ValueType::Float, Value::Float(_) | Value::Int(_))
                | (ValueType::Str, Value::Str(_))
        )
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Any => "any",
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_below_everything() {
        for v in [
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
        ] {
            assert!(Value::Null < v, "null should be < {v:?}");
        }
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_int_float_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert!(Value::str("ab") < Value::str("abc"));
    }

    #[test]
    fn dummy_is_recognized_and_not_null() {
        let d = Value::dummy();
        assert!(d.is_dummy());
        assert!(!d.is_null());
        assert!(!Value::str("dummy").is_dummy());
        assert_eq!(d, Value::dummy());
    }

    #[test]
    fn type_admission() {
        assert!(ValueType::Int.admits(&Value::Int(1)));
        assert!(!ValueType::Int.admits(&Value::str("x")));
        assert!(
            ValueType::Float.admits(&Value::Int(1)),
            "ints widen to float"
        );
        assert!(
            ValueType::Str.admits(&Value::Null),
            "null admitted everywhere"
        );
        assert!(ValueType::Any.admits(&Value::Bool(true)));
    }

    #[test]
    fn display_round_trips_reasonably() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("ibm.com").to_string(), "ibm.com");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn large_ints_do_not_collapse_into_floats() {
        // i64::MAX rounds to 2^63 as a float; exact comparison must still
        // tell them apart (the lossy cast made them "equal").
        let two_63 = Value::Float(9_223_372_036_854_775_808.0);
        assert!(Value::Int(i64::MAX) < two_63);
        assert!(two_63 > Value::Int(i64::MAX));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0)
        );

        // Transitivity around the 2^53 precision cliff: 2^53 and 2^53 + 1
        // round to the same float but are different values.
        let a = Value::Int(1 << 53);
        let b = Value::Int((1 << 53) + 1);
        let f = Value::Float(9_007_199_254_740_992.0); // 2^53 exactly
        assert_eq!(a, f);
        assert!(b > f, "2^53 + 1 exceeds the float it rounds to");
        assert!(a < b);
    }

    #[test]
    fn large_ints_hash_by_their_own_bits() {
        // Pre-fix, both hashed (i as f64).to_bits() and collided exactly.
        let a = hash_of(&Value::Int(1 << 53));
        let b = hash_of(&Value::Int((1 << 53) + 1));
        assert_ne!(a, b, "distinct ints above 2^53 must not share a bucket");
        assert_ne!(
            hash_of(&Value::Int(i64::MAX)),
            hash_of(&Value::Int(i64::MAX - 1))
        );
    }

    #[test]
    fn int_equal_floats_hash_like_the_int() {
        for i in [0i64, 2, -7, 1 << 52, i64::MIN] {
            assert_eq!(Value::Int(i), Value::Float(i as f64));
            assert_eq!(hash_of(&Value::Int(i)), hash_of(&Value::Float(i as f64)));
        }
    }

    #[test]
    fn code_hash_follows_equality_and_reads_every_byte() {
        for i in [0i64, 2, -7, 1 << 52, i64::MIN] {
            assert_eq!(
                Value::Int(i).code_hash(),
                Value::Float(i as f64).code_hash()
            );
        }
        assert_ne!(Value::Float(-0.0).code_hash(), Value::Int(0).code_hash());
        assert_ne!(
            Value::Int(1 << 53).code_hash(),
            Value::Int((1 << 53) + 1).code_hash()
        );
        // Every way a length can sit against the word loop (three bytes,
        // two halves, whole words with and without an overlapping last
        // one): each end counts, and so does a trailing NUL.
        for len in 0..=17 {
            let s = "x".repeat(len);
            assert_eq!(Value::str(&s).code_hash(), code_hash_str(&s));
            assert_ne!(code_hash_str(&s), code_hash_str(&format!("{s}\0")));
            assert_ne!(code_hash_str(&s), code_hash_str(&format!("{s}x")));
            if len > 0 {
                let other_end = format!("{}y", &s[1..]);
                assert_ne!(code_hash_str(&s), code_hash_str(&other_end));
            }
        }
    }

    #[test]
    fn negative_zero_stays_below_int_zero() {
        // -0.0 < 0.0 under total_cmp; Int(0) ties with Float(0.0), so it
        // must also sit above Float(-0.0) — and hash independently.
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn fractional_and_non_finite_floats_order_against_ints() {
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(-1.5) < Value::Int(-1));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Int(i64::MIN));
        assert!(Value::Int(0) < Value::Float(f64::NAN), "+NaN sorts last");
        assert!(Value::Float(-f64::NAN) < Value::Int(i64::MIN));
    }

    #[test]
    fn cross_type_order_is_total_and_consistent() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Float(0.5),
            Value::Int(3),
            Value::str("a"),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                let ord = a.cmp(b);
                assert_eq!(ord.reverse(), b.cmp(a));
                if i == j {
                    assert_eq!(ord, Ordering::Equal);
                }
            }
        }
    }
}
