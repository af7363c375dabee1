//! # opass-json — minimal JSON for the Opass workspace
//!
//! A small, dependency-free JSON value model with a recursive-descent
//! parser, depth-bounded so hostile input cannot exhaust the stack, and a
//! pretty/compact writer. It exists so the CLI scenario files, experiment
//! reports, and the observability metrics exporter can round-trip JSON
//! without an external serialization framework. Every JSON input — the
//! `serve` wire, `opass run` scenarios, trace specs — decodes through
//! one field codec: the [`Field`] trait and the [`json_object!`] tables.
//!
//! Objects preserve insertion order, which keeps emitted reports diffable.
//!
//! ```
//! use opass_json::Json;
//!
//! let v = Json::parse(r#"{"name": "run", "nodes": 64, "ok": true}"#).unwrap();
//! assert_eq!(v.get("nodes").and_then(Json::as_u64), Some(64));
//!
//! let out = Json::object([
//!     ("name".into(), Json::from("run")),
//!     ("nodes".into(), Json::from(64u64)),
//! ]);
//! assert_eq!(out.to_compact(), r#"{"name":"run","nodes":64}"#);
//! ```

#![warn(missing_docs)]

use std::fmt;

/// A parsed JSON value. Objects keep their key insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

/// Error produced when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<I: IntoIterator<Item = (String, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object entries, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a JSON document (rejects trailing garbage and arrays or
    /// objects nested more than 128 levels deep).
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes without any whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind)
            }),
            Json::Object(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                let (k, v) = &pairs[i];
                write_string(k, out);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                v.write(out, ind);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = inner {
            out.push('\n');
            for _ in 0..depth * 2 {
                out.push(' ');
            }
        }
        item(out, i, inner);
    }
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth * 2 {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; emit null like serde_json's lossy mode.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        write_integer(n as i64, out);
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Writes `v` in decimal, as `format!("{v}")` does, from a stack buffer.
fn write_integer(v: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Writes `s` quoted, each run of characters that need no escape with
/// one copy.
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        // `b` is ASCII, so `i` and `i + 1` are character boundaries.
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// How deep arrays and objects may nest before [`Json::parse`] refuses
/// the input. The parser and the drop of a parsed value both recurse once
/// per level, so this cap bounds their stack use whatever the input
/// length; the deepest message the workspace writes nests six levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

#[cfg(test)]
thread_local! {
    /// String content the scanner has consumed on this thread: each run
    /// between escapes validated and copied once, each escape decoded
    /// once. A linear scan makes this the bytes inside quotes.
    static STRING_BYTES_SCANNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Adds to `STRING_BYTES_SCANNED` in test builds; nothing otherwise.
fn count_scanned(_bytes: usize) {
    #[cfg(test)]
    STRING_BYTES_SCANNED.set(STRING_BYTES_SCANNED.get() + _bytes);
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than 128 levels"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array_value()
                } else {
                    self.object_value()
                };
                self.depth -= 1;
                value
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array_value(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object_value(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash goes in as one
            // slice, validated once. The input came from a `&str` and both
            // stops are ASCII, so the slice starts and ends on char
            // boundaries.
            let bytes = self.bytes;
            let rest = &bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?;
            out.push_str(text);
            count_scanned(run);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: one escape.
                    let start = self.pos;
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our files;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    count_scanned(self.pos - start);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Number(n as f64)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Why a field could not be read: `missing field "k"`, or
/// `field "k" must be …` naming what the value should have been.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub String);

impl FieldError {
    /// Field `key` holds a value that is not `what`.
    pub fn must_be(key: &str, what: &str) -> FieldError {
        FieldError(format!("field {key:?} must be {what}"))
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

/// A value that is read from and written as one JSON value: the one
/// codec behind the wire protocol, scenario files and trace specs.
/// Structs get both directions from one table of `field: "key"` rows
/// with [`json_object!`].
pub trait Field: Sized {
    /// Encodes the value.
    fn put(&self) -> Json;
    /// Decodes `v`, the value of field `key` (named in errors).
    fn take(v: &Json, key: &str) -> Result<Self, FieldError>;
    /// Overwrites `self` with what `v` holds. An object overwrites only
    /// the keys `v` has, so whatever `self` started as fills the rest.
    fn fill(&mut self, v: &Json, key: &str) -> Result<(), FieldError> {
        *self = Self::take(v, key)?;
        Ok(())
    }
    /// Refuses a key of `v` that `fill` would not read; only a table
    /// ([`json_object!`]) has keys to check.
    fn only_known_keys(_v: &Json, _key: &str) -> Result<(), FieldError> {
        Ok(())
    }
}

/// The value of the required field `key` of object `v`.
pub fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, FieldError> {
    v.get(key)
        .ok_or_else(|| FieldError(format!("missing field {key:?}")))
}

/// Decodes the required field `key` of object `v`.
pub fn get<T: Field>(v: &Json, key: &str) -> Result<T, FieldError> {
    T::take(field(v, key)?, key)
}

/// Decodes the optional field `key` of object `v`: absent is `None`.
pub fn get_opt<T: Field>(v: &Json, key: &str) -> Result<Option<T>, FieldError> {
    v.get(key).map(|x| T::take(x, key)).transpose()
}

/// Fills `slot` from field `key` of object `v` when `v` has it.
pub fn fill<T: Field>(v: &Json, key: &str, slot: &mut T) -> Result<(), FieldError> {
    match v.get(key) {
        Some(x) => slot.fill(x, key),
        None => Ok(()),
    }
}

/// Refuses the first key of object `v` (the value of field `key`) that
/// is not in `known`: authored input names only keys its table reads,
/// so a misspelt key is an error rather than a silent default.
pub fn only_keys(v: &Json, key: &str, known: &[&str]) -> Result<(), FieldError> {
    let pairs = v.as_object().unwrap_or_default();
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(FieldError(format!("unknown field {k:?} in {key:?}"))),
        None => Ok(()),
    }
}

/// Integers below this are exact in a JSON number (an `f64`); from here
/// on, a decoded value may be the rounding of a neighbour the writer
/// meant.
const EXACT_LIMIT: u64 = 1 << 53;

impl Field for u64 {
    fn put(&self) -> Json {
        Json::from(*self)
    }
    fn take(v: &Json, key: &str) -> Result<u64, FieldError> {
        match v.as_u64() {
            Some(n) if n < EXACT_LIMIT => Ok(n),
            Some(_) => Err(FieldError::must_be(key, "below 2^53")),
            None => Err(FieldError::must_be(key, "an unsigned integer")),
        }
    }
}

impl Field for usize {
    fn put(&self) -> Json {
        Json::from(*self)
    }
    fn take(v: &Json, key: &str) -> Result<usize, FieldError> {
        usize::try_from(u64::take(v, key)?).map_err(|_| FieldError::must_be(key, "a usize"))
    }
}

impl Field for u32 {
    fn put(&self) -> Json {
        Json::from(*self)
    }
    fn take(v: &Json, key: &str) -> Result<u32, FieldError> {
        u32::try_from(u64::take(v, key)?).map_err(|_| FieldError::must_be(key, "below 2^32"))
    }
}

impl Field for f64 {
    fn put(&self) -> Json {
        Json::from(*self)
    }
    fn take(v: &Json, key: &str) -> Result<f64, FieldError> {
        v.as_f64()
            .ok_or_else(|| FieldError::must_be(key, "a number"))
    }
}

impl Field for bool {
    fn put(&self) -> Json {
        Json::from(*self)
    }
    fn take(v: &Json, key: &str) -> Result<bool, FieldError> {
        v.as_bool()
            .ok_or_else(|| FieldError::must_be(key, "a boolean"))
    }
}

impl Field for String {
    fn put(&self) -> Json {
        Json::from(self.as_str())
    }
    fn take(v: &Json, key: &str) -> Result<String, FieldError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| FieldError::must_be(key, "a string"))
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self) -> Json {
        Json::Array(self.iter().map(Field::put).collect())
    }
    fn take(v: &Json, key: &str) -> Result<Vec<T>, FieldError> {
        v.as_array()
            .ok_or_else(|| FieldError::must_be(key, "an array"))?
            .iter()
            .map(|x| T::take(x, key))
            .collect()
    }
    /// Replaces the vector, refusing an element with a key its table
    /// does not read.
    fn fill(&mut self, v: &Json, key: &str) -> Result<(), FieldError> {
        for x in v.as_array().into_iter().flatten() {
            T::only_known_keys(x, key)?;
        }
        *self = Self::take(v, key)?;
        Ok(())
    }
}

/// A pair is a two-element array.
impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self) -> Json {
        Json::Array(vec![self.0.put(), self.1.put()])
    }
    fn take(v: &Json, key: &str) -> Result<(A, B), FieldError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::take(a, key)?, B::take(b, key)?)),
            _ => Err(FieldError::must_be(key, "a two-element array")),
        }
    }
}

/// Implements [`Field`] for structs, one `field: "key"` row per field, in
/// key order: `put` writes an object with those keys in that order,
/// `take` reads every key back into its field, and `fill` overwrites the
/// fields whose keys are present (and refuses a value that is not an
/// object, or that has a key no row names).
///
/// ```
/// use opass_json::{json_object, Field, Json};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Run {
///     nodes: u32,
///     label: String,
/// }
/// json_object! { Run { nodes: "n_nodes", label: "label" } }
///
/// let run = Run { nodes: 8, label: "a".into() };
/// assert_eq!(run.put().to_compact(), r#"{"n_nodes":8,"label":"a"}"#);
/// assert_eq!(Run::take(&run.put(), "run"), Ok(run));
///
/// let mut partial = Run::default();
/// partial.fill(&Json::parse(r#"{"n_nodes": 3}"#).unwrap(), "run").unwrap();
/// assert_eq!(partial, Run { nodes: 3, label: String::new() });
/// let typo = Json::parse(r#"{"n_node": 3}"#).unwrap();
/// assert_eq!(
///     partial.fill(&typo, "run").unwrap_err().0,
///     r#"unknown field "n_node" in "run""#
/// );
/// ```
#[macro_export]
macro_rules! json_object {
    ($($ty:ident { $($field:ident: $key:literal),* $(,)? })*) => {$(
        impl $crate::Field for $ty {
            fn put(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $(($key.to_string(), $crate::Field::put(&self.$field))),*
                ])
            }
            fn take(v: &$crate::Json, _key: &str) -> Result<$ty, $crate::FieldError> {
                Ok($ty { $($field: $crate::get(v, $key)?),* })
            }
            fn fill(&mut self, v: &$crate::Json, key: &str) -> Result<(), $crate::FieldError> {
                if v.as_object().is_none() {
                    return Err($crate::FieldError::must_be(key, "an object"));
                }
                Self::only_known_keys(v, key)?;
                $($crate::fill(v, $key, &mut self.$field)?;)*
                Ok(())
            }
            fn only_known_keys(v: &$crate::Json, key: &str) -> Result<(), $crate::FieldError> {
                $crate::only_keys(v, key, &[$($key),*])
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_strings_write_as_their_format_bodies_did() {
        // The writers before the stack-buffer integers and the run
        // copies, verbatim.
        let number = |n: f64| {
            if !n.is_finite() {
                "null".to_string()
            } else if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            }
        };
        let string = |s: &str| {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let two_53 = (1u64 << 53) as f64;
        let mut numbers = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            99.0,
            100.0,
            two_53,
            -two_53,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15,
            -1e15,
            0.5,
            -3.25,
            1e-7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        numbers.extend((0..15).flat_map(|e| {
            let p = 10f64.powi(e);
            [p - 1.0, p, p + 1.0, -p]
        }));
        for n in numbers {
            let mut out = String::new();
            write_number(n, &mut out);
            assert_eq!(out, number(n), "{n:?}");
        }
        for s in [
            "",
            "plain",
            "\"",
            "a\"b\\c",
            "\n\r\t",
            "\u{0}\u{1}\u{1f}\u{20}\u{7f}",
            "héllo ✓ 😀",
            "\u{8}é\"\n end\\",
            "trailing escape\u{c}",
        ] {
            let mut out = String::new();
            write_string(s, &mut out);
            assert_eq!(out, string(s), "{s:?}");
        }
    }

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{
            "name": "demo",
            "seed": 42,
            "ratio": 0.125,
            "tags": ["a", "b"],
            "nested": {"ok": true, "none": null},
            "neg": -3,
            "exp": 1e3
        }"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(0.125));
        assert_eq!(
            v.get("tags").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("ok"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(v.get("exp").and_then(Json::as_f64), Some(1000.0));

        let reparsed = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(reparsed, v);
        let reparsed = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn preserves_object_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn escapes_strings() {
        let v = Json::String("line\n\"quote\"\\tab\t".into());
        let text = v.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn strings_decode_runs_escapes_and_multibyte_text() {
        for (text, want) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""héllo wörld ✓ 😀""#, "héllo wörld ✓ 😀"),
            (
                r#""a\"b\\c\/d\ne\tf\rg\bh\fi""#,
                "a\"b\\c/d\ne\tf\rg\u{8}h\u{c}i",
            ),
            (r#""\\""#, "\\"),
            (r#""\ud800""#, "\u{FFFD}"),
            (r#""ü\"ü""#, "ü\"ü"),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::String(want.into())), "{text}");
        }
    }

    #[test]
    fn malformed_strings_report_their_kind_and_offset() {
        for (text, message, offset) in [
            (r#"""#, "unterminated string", 1),
            (r#""abc"#, "unterminated string", 4),
            (r#""añ"#, "unterminated string", 4),
            (r#"["ok", "open]"#, "unterminated string", 13),
            (r#""ab\"#, "bad escape", 4),
            (r#""a\x""#, "unknown escape", 4),
            (r#"{"k\q": 1}"#, "unknown escape", 5),
            (r#""\u12""#, "short \\u escape", 3),
            (r#""\u12G4""#, "bad \\u escape", 3),
            (r#""\u000é""#, "non-ascii \\u escape", 3),
            (r#"{"a": 1, 2: 3}"#, "expected '\"'", 9),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{text}"
            );
        }
    }

    /// Bytes between the quotes of every string in `text`, escapes
    /// included, counted without the parser.
    fn bytes_inside_quotes(text: &str) -> usize {
        let (mut inside, mut escaped, mut n) = (false, false, 0);
        for b in text.bytes() {
            match (inside, escaped, b) {
                (false, _, b'"') => inside = true,
                (false, _, _) => {}
                (true, false, b'"') => inside = false,
                (true, false, b'\\') => (escaped, n) = (true, n + 1),
                (true, _, _) => (escaped, n) = (false, n + 1),
            }
        }
        n
    }

    #[test]
    fn the_string_scan_reads_each_byte_inside_quotes_once() {
        // A `layout` reply as the service sends it, recorded from a fresh
        // `serve_hot` world (dataset 0, generation 0): 1 280 entries of
        // three keys each. A scan that re-validated the rest of the input
        // per character would read about 30 bytes per byte parsed here.
        let layout = include_str!("../tests/layout_reply_1280.json");
        let escaped = r#"{"a\"b": "ü\\né ✓", "k": ["", "y\\", "\/"]}"#;
        for (i, text) in [layout, escaped].into_iter().enumerate() {
            let before = STRING_BYTES_SCANNED.get();
            Json::parse(text).expect("valid JSON");
            let scanned = STRING_BYTES_SCANNED.get() - before;
            assert_eq!(scanned, bytes_inside_quotes(text), "document {i}");
        }
        let entries = Json::parse(layout).expect("valid JSON");
        let entries = entries.get("entries").and_then(Json::as_array);
        assert_eq!(entries.map(<[Json]>::len), Some(1280));
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("nesting deeper than 128 levels", MAX_DEPTH)
        );
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&objects).expect_err("one level too deep");
        assert_eq!(err.offset, 5 * MAX_DEPTH);
        // Closing a level gives it back: siblings at the limit are fine.
        let siblings = format!("[{},{}]", nest(MAX_DEPTH - 1), nest(MAX_DEPTH - 1));
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn deep_input_draws_an_error_on_a_small_stack() {
        // Unbounded, 10 000 levels overflow a 2 MiB stack in release.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let results = worker
            .spawn(|| {
                [10_000, 2_000_000].map(|levels| {
                    let err = Json::parse(&"[".repeat(levels)).expect_err("too deep");
                    (err.message, err.offset)
                })
            })
            .expect("spawn")
            .join()
            .expect("parse thread");
        for (message, offset) in results {
            assert_eq!(
                (message.as_str(), offset),
                ("nesting deeper than 128 levels", 128)
            );
        }
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::from(64u64).to_compact(), "64");
        assert_eq!(Json::Number(0.5).to_compact(), "0.5");
        assert_eq!(Json::Number(f64::NAN).to_compact(), "null");
    }
}
