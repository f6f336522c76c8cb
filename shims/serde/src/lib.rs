//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-copy visitor framework; this shim keeps only
//! what the workspace needs: a [`Serialize`] trait that lowers a value to
//! an owned JSON-like [`Value`] tree, which `serde_json` (the sibling
//! shim) renders to text and parses back. Implementations are written by
//! hand (no derive macro in the offline toolchain), which the reports in
//! `massivegnn`/`mgnn-net`/`mgnn-obs` do explicitly.
//!
//! Object fields preserve insertion order, so serialized output is
//! deterministic — a property the benchmark-trajectory tooling relies on.

#![forbid(unsafe_code)]

/// A JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (kept exact; never round-tripped through f64).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number. Non-finite values serialize as `null`.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object with insertion-ordered fields.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Arr(items.into_iter().collect())
    }

    /// Field lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload widened to f64 (from any number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            Value::F64(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned payload, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object payload, if this is an `Obj`.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Lower a value to a [`Value`] tree (the shim's stand-in for serde's
/// `Serialize`).
pub trait Serialize {
    /// Convert `self` into an owned value tree.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_lower() {
        assert_eq!(3u32.to_value(), Value::U64(3));
        assert_eq!((-2i64).to_value(), Value::I64(-2));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".into()));
        assert_eq!(None::<u32>.to_value(), Value::Null);
    }

    #[test]
    fn object_order_and_lookup() {
        let v = Value::obj([("b", Value::U64(1)), ("a", Value::U64(2))]);
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::I64(-7).as_u64(), None);
    }
}
