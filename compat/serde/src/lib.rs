//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no network access, so the
//! real serde cannot be vendored. This crate implements the small slice of
//! serde's API the workspace actually uses, over a simple [`Value`] tree
//! data model: a [`Serializer`] receives a fully built [`Value`] and a
//! [`Deserializer`] surrenders one. Derive macros (`serde_derive` stub)
//! generate impls against this model; the `serde_json` stub renders and
//! parses the same tree as JSON text.
//!
//! The supported surface:
//! - `#[derive(Serialize, Deserialize)]` on named-field structs and on
//!   enums with unit or tuple variants (externally tagged, like serde).
//! - Field attributes `#[serde(skip)]`, `#[serde(default)]`,
//!   `#[serde(with = "module")]`.
//! - Impls for the primitive types, `String`, `Vec`, `Option`, tuples,
//!   `BTreeMap`/`HashMap` with string keys, `HashSet`/`BTreeSet`,
//!   `Duration`, `Box`, and references.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::time::Duration;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every serialized value passes through.
///
/// JSON-shaped: maps are ordered key/value pair lists so that struct field
/// order survives a round-trip.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (covers every integer type the workspace uses).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, as insertion-ordered pairs.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The elements, when this is a sequence.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Seq(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, when this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer as unsigned, when non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup on objects; `None` for other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Whether this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Seq(v) => v.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        matches!(self, Value::Int(n) if n == other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, Value::Int(n) if u64::try_from(*n).map(|v| v == *other).unwrap_or(false))
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of bytes that needs no escape in one `push_str`. Every
    // escaped byte is ASCII, so runs start and end on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl Value {
    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&f.to_string());
                }
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Map(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, level: usize| {
            for _ in 0..level {
                out.push_str("  ");
            }
        };
        match self {
            Value::Seq(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Value::Map(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Renders the value as compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Renders the value as indented JSON text.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Serialization error traits (the subset of `serde::ser` used here).
pub mod ser {
    use std::fmt;

    /// The error contract a [`crate::Serializer`] error type satisfies.
    pub trait Error: Sized + fmt::Debug + fmt::Display {
        /// Builds an error from a message.
        fn custom<T: fmt::Display>(msg: T) -> Self;
    }
}

/// Deserialization error traits (the subset of `serde::de` used here).
pub mod de {
    use std::fmt;

    /// The error contract a [`crate::Deserializer`] error type satisfies.
    pub trait Error: Sized + fmt::Debug + fmt::Display {
        /// Builds an error from a message.
        fn custom<T: fmt::Display>(msg: T) -> Self;
    }
}

/// A simple string-backed error usable for both directions.
#[derive(Debug, Clone)]
pub struct SimpleError(pub String);

impl fmt::Display for SimpleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SimpleError {}

impl ser::Error for SimpleError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        SimpleError(msg.to_string())
    }
}

impl de::Error for SimpleError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        SimpleError(msg.to_string())
    }
}

/// A sink that consumes one fully built [`Value`].
pub trait Serializer: Sized {
    /// Result of a successful serialization.
    type Ok;
    /// Error type.
    type Error: ser::Error;

    /// Consumes the value.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// A source that surrenders one [`Value`].
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;

    /// Produces the value to decode.
    fn take_value(self) -> Result<Value, Self::Error>;
}

/// A type that can render itself into the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` into `serializer`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A type that can rebuild itself from the [`Value`] data model.
pub trait Deserialize<'de>: Sized {
    /// Deserializes from `deserializer`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A type deserializable without borrowing from the input (always true in
/// this stub; provided for signature compatibility).
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Plumbing shared by derive-macro expansions and the `serde_json` stub.
pub mod __private {
    use super::*;
    use std::marker::PhantomData;

    /// A [`Serializer`] producing the built [`Value`] with a caller-chosen
    /// error type.
    pub struct ValueSerializer<E> {
        _marker: PhantomData<E>,
    }

    impl<E> ValueSerializer<E> {
        /// Creates the serializer.
        pub fn new() -> Self {
            ValueSerializer { _marker: PhantomData }
        }
    }

    impl<E> Default for ValueSerializer<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E: ser::Error> Serializer for ValueSerializer<E> {
        type Ok = Value;
        type Error = E;
        fn serialize_value(self, value: Value) -> Result<Value, E> {
            Ok(value)
        }
    }

    /// A [`Deserializer`] yielding a stored [`Value`] with a caller-chosen
    /// error type.
    pub struct ValueDeserializer<E> {
        value: Value,
        _marker: PhantomData<E>,
    }

    impl<E> ValueDeserializer<E> {
        /// Wraps a value.
        pub fn new(value: Value) -> Self {
            ValueDeserializer { value, _marker: PhantomData }
        }
    }

    impl<'de, E: de::Error> Deserializer<'de> for ValueDeserializer<E> {
        type Error = E;
        fn take_value(self) -> Result<Value, E> {
            Ok(self.value)
        }
    }

    /// Serializes `value` into a [`Value`], with error type `E`.
    pub fn to_value_err<T: Serialize + ?Sized, E: ser::Error>(value: &T) -> Result<Value, E> {
        value.serialize(ValueSerializer::<E>::new())
    }

    /// Deserializes a `T` out of `value`, with error type `E`.
    pub fn from_value_err<T: for<'de> Deserialize<'de>, E: de::Error>(
        value: Value,
    ) -> Result<T, E> {
        T::deserialize(ValueDeserializer::<E>::new(value))
    }

    /// Unwraps a map value into its pairs.
    pub fn expect_map<E: de::Error>(value: Value) -> Result<Vec<(String, Value)>, E> {
        match value {
            Value::Map(pairs) => Ok(pairs),
            other => Err(E::custom(format_args!("expected map, found {other}"))),
        }
    }

    /// Unwraps a sequence value into its elements.
    pub fn expect_seq<E: de::Error>(value: Value) -> Result<Vec<Value>, E> {
        match value {
            Value::Seq(items) => Ok(items),
            other => Err(E::custom(format_args!("expected sequence, found {other}"))),
        }
    }

    /// Removes `key` from `pairs`, erroring when missing.
    pub fn take_raw<E: de::Error>(
        pairs: &mut Vec<(String, Value)>,
        key: &str,
    ) -> Result<Value, E> {
        match pairs.iter().position(|(k, _)| k == key) {
            Some(at) => Ok(pairs.remove(at).1),
            None => Err(E::custom(format_args!("missing field `{key}`"))),
        }
    }

    /// Removes and decodes `key` from `pairs`, erroring when missing.
    pub fn take_field<T: for<'de> Deserialize<'de>, E: de::Error>(
        pairs: &mut Vec<(String, Value)>,
        key: &str,
    ) -> Result<T, E> {
        from_value_err(take_raw::<E>(pairs, key)?)
    }

    /// Removes and decodes `key`, defaulting when absent (`#[serde(default)]`).
    pub fn take_field_or_default<T: for<'de> Deserialize<'de> + Default, E: de::Error>(
        pairs: &mut Vec<(String, Value)>,
        key: &str,
    ) -> Result<T, E> {
        match pairs.iter().position(|(k, _)| k == key) {
            Some(at) => from_value_err(pairs.remove(at).1),
            None => Ok(T::default()),
        }
    }
}

/// Serializes `value` into a [`Value`] tree.
pub fn to_value_tree<T: Serialize + ?Sized>(value: &T) -> Result<Value, SimpleError> {
    __private::to_value_err(value)
}

/// Rebuilds a `T` from a [`Value`] tree.
pub fn from_value_tree<T: DeserializeOwned>(value: Value) -> Result<T, SimpleError> {
    __private::from_value_err(value)
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Int(*self as i64))
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.take_value()? {
                    Value::Int(n) => <$ty>::try_from(n).map_err(|_| {
                        de::Error::custom(format_args!("integer {n} out of range"))
                    }),
                    other => Err(de::Error::custom(format_args!(
                        "expected integer, found {other}"
                    ))),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Bool(*self))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(de::Error::custom(format_args!("expected bool, found {other}"))),
        }
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Float(*self))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Float(f) => Ok(f),
            Value::Int(n) => Ok(n as f64),
            other => Err(de::Error::custom(format_args!("expected number, found {other}"))),
        }
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Float(f64::from(*self)))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.clone()))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.to_owned()))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Str(s) => Ok(s),
            other => Err(de::Error::custom(format_args!("expected string, found {other}"))),
        }
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.to_string()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            None => serializer.serialize_value(Value::Null),
            Some(inner) => inner.serialize(serializer),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Null => Ok(None),
            other => T::deserialize(__private::ValueDeserializer::<D::Error>::new(other))
                .map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut items = Vec::with_capacity(self.len());
        for item in self {
            items.push(__private::to_value_err::<_, S::Error>(item)?);
        }
        serializer.serialize_value(Value::Seq(items))
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = __private::expect_seq::<D::Error>(deserializer.take_value()?)?;
        items
            .into_iter()
            .map(|v| T::deserialize(__private::ValueDeserializer::<D::Error>::new(v)))
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let items = vec![
                    $(__private::to_value_err::<_, S::Error>(&self.$idx)?,)+
                ];
                serializer.serialize_value(Value::Seq(items))
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let items = __private::expect_seq::<D::Error>(deserializer.take_value()?)?;
                let mut it = items.into_iter();
                Ok((
                    $({
                        let _ = $idx;
                        let item = it.next().ok_or_else(|| {
                            de::Error::custom("tuple too short")
                        })?;
                        $name::deserialize(
                            __private::ValueDeserializer::<D::Error>::new(item),
                        )?
                    },)+
                ))
            }
        }
    )*};
}

impl_tuple! {
    (T0:0)
    (T0:0, T1:1)
    (T0:0, T1:1, T2:2)
    (T0:0, T1:1, T2:2, T3:3)
}

fn serialize_string_map<'a, V: Serialize + 'a, S: Serializer>(
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    serializer: S,
) -> Result<S::Ok, S::Error> {
    let mut pairs = Vec::new();
    for (k, v) in entries {
        pairs.push((k.clone(), __private::to_value_err::<_, S::Error>(v)?));
    }
    serializer.serialize_value(Value::Map(pairs))
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_string_map(self.iter(), serializer)
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs = __private::expect_map::<D::Error>(deserializer.take_value()?)?;
        pairs
            .into_iter()
            .map(|(k, v)| {
                Ok((k, V::deserialize(__private::ValueDeserializer::<D::Error>::new(v))?))
            })
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Deterministic output: sort keys.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        serialize_string_map(entries.into_iter(), serializer)
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for HashMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs = __private::expect_map::<D::Error>(deserializer.take_value()?)?;
        pairs
            .into_iter()
            .map(|(k, v)| {
                Ok((k, V::deserialize(__private::ValueDeserializer::<D::Error>::new(v))?))
            })
            .collect()
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut items = Vec::with_capacity(self.len());
        for item in self {
            items.push(__private::to_value_err::<_, S::Error>(item)?);
        }
        serializer.serialize_value(Value::Seq(items))
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = __private::expect_seq::<D::Error>(deserializer.take_value()?)?;
        items
            .into_iter()
            .map(|v| T::deserialize(__private::ValueDeserializer::<D::Error>::new(v)))
            .collect()
    }
}

impl Serialize for HashSet<String> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Deterministic output: sort elements.
        let mut items: Vec<&String> = self.iter().collect();
        items.sort();
        let items = items
            .into_iter()
            .map(|s| Value::Str(s.clone()))
            .collect::<Vec<_>>();
        serializer.serialize_value(Value::Seq(items))
    }
}

impl<'de> Deserialize<'de> for HashSet<String> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = __private::expect_seq::<D::Error>(deserializer.take_value()?)?;
        items
            .into_iter()
            .map(|v| {
                String::deserialize(__private::ValueDeserializer::<D::Error>::new(v))
            })
            .collect()
    }
}

impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Map(vec![
            ("secs".to_owned(), Value::Int(self.as_secs() as i64)),
            ("nanos".to_owned(), Value::Int(i64::from(self.subsec_nanos()))),
        ]))
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut pairs = __private::expect_map::<D::Error>(deserializer.take_value()?)?;
        let secs: u64 = __private::take_field(&mut pairs, "secs")?;
        let nanos: u32 = __private::take_field(&mut pairs, "nanos")?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_text_escapes_and_indents() {
        let text = "q\"b\\n\nr\rt\t\u{1}\u{1f} é日🦀 end";
        let v = Value::Map(vec![
            ("s".into(), Value::Str(text.into())),
            ("n".into(), Value::Seq(vec![Value::Int(-42), Value::Seq(vec![]), Value::Map(vec![])])),
        ]);
        let escaped = r#""q\"b\\n\nr\rt\t\u0001\u001f é日🦀 end""#;
        assert_eq!(v.to_json(), format!(r#"{{"s":{escaped},"n":[-42,[],{{}}]}}"#));
        assert_eq!(
            v.to_json_pretty(),
            format!("{{\n  \"s\": {escaped},\n  \"n\": [\n    -42,\n    [],\n    {{}}\n  ]\n}}")
        );
    }

    #[test]
    fn value_accessors() {
        let v = Value::Map(vec![
            ("a".into(), Value::Int(3)),
            ("b".into(), Value::Seq(vec![Value::Str("x".into())])),
        ]);
        assert_eq!(v["a"], 3i64);
        assert_eq!(v["b"][0], "x");
        assert!(v.get("missing").is_none());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn round_trip_std_types() {
        let map: BTreeMap<String, Vec<i64>> =
            [("k".to_owned(), vec![1, 2, 3])].into_iter().collect();
        let tree = to_value_tree(&map).unwrap();
        let back: BTreeMap<String, Vec<i64>> = from_value_tree(tree).unwrap();
        assert_eq!(back, map);

        let d = Duration::new(7, 250);
        let back: Duration = from_value_tree(to_value_tree(&d).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn json_text_escaping() {
        let v = Value::Str("a\"b\\c\nd".into());
        assert_eq!(v.to_json(), r#""a\"b\\c\nd""#);
    }
}
