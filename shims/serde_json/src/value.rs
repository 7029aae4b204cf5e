//! The owned JSON value the writer renders and the reader builds.

use std::fmt;

/// A JSON number: unsigned, signed, or floating point.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A float.
    F(f64),
}

impl Number {
    /// The number as f64 (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    /// The number as u64 when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) if i >= 0 => Some(i as u64),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The number as i64 when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) if u <= i64::MAX as u64 => Some(u as i64),
            Number::I(i) => Some(i),
            Number::F(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            _ => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(u) => write!(f, "{u}"),
            Number::I(i) => write!(f, "{i}"),
            Number::F(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    // JSON has no inf/NaN; emit null-adjacent sentinel.
                    write!(f, "null")
                }
            }
        }
    }
}

/// An owned, order-preserving JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key of an object (None for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as u64 when it is a representable number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as i64 when it is a representable number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as f64 when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as bool when it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice when it is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}
