//! Workspace-local stand-in for the slice of `serde` this repository uses:
//! `#[derive(Serialize)]` plus JSON emission and parsing.
//!
//! The build environment has no network access, so external dependencies
//! are replaced by path crates with the same names. Real serde serializes
//! through a visitor; this shim serializes into an owned [`Value`] tree
//! and renders it as JSON via [`json::to_string`] — ample for the profile
//! reports and simulator outputs this workspace emits. The inverse
//! direction has one tokenizer, the pull reader [`json::Reader`], and two
//! kinds of consumer instead of `Deserialize` impls: [`json::parse`] (the
//! `serde_json::from_str` role) builds the same [`Value`] tree, which
//! callers destructure through the typed accessors (`as_str`, `as_i64`,
//! `get`, …), and a hot path such as `wlp-serve`'s request parser drives
//! the reader itself and fills its own types without a tree.

use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A JSON value tree — the intermediate representation every
/// [`Serialize`] implementation produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point number (non-finite values render as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
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
}

impl Value {
    /// The string payload, if this is [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as the tokenizer's [`json::Number`], so a
    /// value tree and a typed consumer convert by the same rules.
    fn number(&self) -> Option<json::Number> {
        match *self {
            Value::UInt(n) => Some(json::Number::UInt(n)),
            Value::Int(n) => Some(json::Number::Int(n)),
            Value::Float(x) => Some(json::Number::Float(x)),
            _ => None,
        }
    }

    /// The value as a signed integer (integral floats included).
    pub fn as_i64(&self) -> Option<i64> {
        self.number()?.as_i64()
    }

    /// The value as an unsigned integer (integral floats included).
    pub fn as_u64(&self) -> Option<u64> {
        self.number()?.as_u64()
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(n) => Some(*n as f64),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is [`Value::Object`].
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object by name (first match wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => escape_into(out, s),
            Value::Array(items) => {
                out.push('[');
                for (k, v) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (k, (name, v)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    escape_into(out, name);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

/// Types convertible to a JSON [`Value`]. Derivable for structs with named
/// fields via `#[derive(Serialize)]`.
pub trait Serialize {
    /// Converts `self` into a JSON value tree.
    fn serialize(&self) -> Value;
}

macro_rules! ser_uint {
    ($($t:ty),*) => { $(impl Serialize for $t {
        fn serialize(&self) -> Value { Value::UInt(*self as u64) }
    })* };
}
macro_rules! ser_int {
    ($($t:ty),*) => { $(impl Serialize for $t {
        fn serialize(&self) -> Value { Value::Int(*self as i64) }
    })* };
}
ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}
impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}
impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

/// JSON rendering and parsing of [`Serialize`] values (the `serde_json`
/// role).
pub mod json {
    use super::{Serialize, Value};
    use std::borrow::Cow;

    /// Renders `value` as a compact JSON string.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        value.serialize().to_string()
    }

    /// A JSON parse failure: byte offset and description.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError {
        /// Byte offset of the failure in the input.
        pub at: usize,
        /// What went wrong.
        pub msg: String,
    }

    impl std::fmt::Display for ParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
        }
    }

    impl std::error::Error for ParseError {}

    /// Parses one JSON document into a [`Value`] tree, rejecting trailing
    /// non-whitespace (the `serde_json::from_str` role).
    pub fn parse(src: &str) -> Result<Value, ParseError> {
        let mut r = Reader::new(src);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }

    /// Maximum container nesting a [`Reader`] accepts. Consumers recurse
    /// once per nesting level, so without a bound a line of a few tens
    /// of KB of `[` overflows the stack and aborts the process — fatal
    /// for a resident daemon parsing untrusted request lines.
    pub const MAX_PARSE_DEPTH: usize = 128;

    /// What the next value in the input is, by its first byte.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        /// `null`.
        Null,
        /// `true` or `false`.
        Bool,
        /// An integer or a float.
        Number,
        /// A string.
        Str,
        /// `[` ….
        Array,
        /// `{` ….
        Object,
    }

    /// A JSON number as the tokenizer read it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Number {
        /// A non-negative integer.
        UInt(u64),
        /// A negative integer (or `-0`).
        Int(i64),
        /// Anything with a fraction or an exponent.
        Float(f64),
    }

    impl Number {
        /// The number as a signed integer (integral floats included, up
        /// to a conservative `9.0e18`: the few integral floats between
        /// that and 2⁶³ are refused, none past the range is taken).
        pub fn as_i64(self) -> Option<i64> {
            match self {
                Number::Int(n) => Some(n),
                Number::UInt(n) => i64::try_from(n).ok(),
                Number::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => Some(x as i64),
                Number::Float(_) => None,
            }
        }

        /// The number as an unsigned integer (integral floats below 2⁶⁴
        /// included; from there on `as u64` would saturate, not convert).
        pub fn as_u64(self) -> Option<u64> {
            match self {
                Number::UInt(n) => Some(n),
                Number::Int(n) => u64::try_from(n).ok(),
                Number::Float(x)
                    if x.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(&x) =>
                {
                    Some(x as u64)
                }
                Number::Float(_) => None,
            }
        }
    }

    impl From<Number> for Value {
        fn from(n: Number) -> Value {
            match n {
                Number::UInt(n) => Value::UInt(n),
                Number::Int(n) => Value::Int(n),
                Number::Float(x) => Value::Float(x),
            }
        }
    }

    /// The one JSON tokenizer: a pull reader over a line. A consumer
    /// asks what comes next ([`peek_kind`](Self::peek_kind)), takes
    /// scalars with [`null`](Self::null) / [`bool`](Self::bool) /
    /// [`number`](Self::number) / [`str`](Self::str), walks containers
    /// with `begin_*` then `next_*` until it reports the end, and passes
    /// over what it does not want with [`skip_value`](Self::skip_value),
    /// which validates as strictly as reading does. [`parse`] is the
    /// consumer that builds a [`Value`] tree; a typed consumer fills its
    /// own structures and never builds one.
    ///
    /// Every container a consumer begins it must walk to its end;
    /// [`finish`](Self::finish) rejects anything but whitespace after the
    /// top-level value.
    pub struct Reader<'a> {
        src: &'a str,
        pos: usize,
        depth: usize,
        /// The innermost open container has yielded nothing yet, so its
        /// next item is not preceded by a comma.
        fresh: bool,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `src`.
        pub fn new(src: &'a str) -> Self {
            Reader {
                src,
                pos: 0,
                depth: 0,
                fresh: false,
            }
        }

        /// An error at the current position. Cold and out of line, with
        /// the message formatted in here, so that the readers inlined
        /// into a consumer's loop carry none of it.
        #[cold]
        #[inline(never)]
        fn err(&self, msg: std::fmt::Arguments<'_>) -> ParseError {
            ParseError {
                at: self.pos,
                msg: msg.to_string(),
            }
        }

        #[inline]
        fn peek(&self) -> Option<u8> {
            self.src.as_bytes().get(self.pos).copied()
        }

        #[inline]
        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        #[inline]
        fn expect(&mut self, c: u8) -> Result<(), ParseError> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format_args!("expected `{}`", c as char)))
            }
        }

        fn lit(&mut self, word: &str) -> Result<(), ParseError> {
            if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(())
            } else {
                Err(self.err(format_args!("expected `{word}`")))
            }
        }

        /// Skips whitespace and classifies the value that follows.
        #[inline]
        pub fn peek_kind(&mut self) -> Result<Kind, ParseError> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => Ok(Kind::Object),
                Some(b'[') => Ok(Kind::Array),
                Some(b'"') => Ok(Kind::Str),
                Some(b't' | b'f') => Ok(Kind::Bool),
                Some(b'n') => Ok(Kind::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
                Some(c) => Err(self.err(format_args!("unexpected character `{}`", c as char))),
                None => Err(self.err(format_args!("unexpected end of input"))),
            }
        }

        /// Reads `null`.
        pub fn null(&mut self) -> Result<(), ParseError> {
            self.lit("null")
        }

        /// Reads `true` or `false`.
        pub fn bool(&mut self) -> Result<bool, ParseError> {
            if self.peek() == Some(b't') {
                self.lit("true").map(|()| true)
            } else {
                self.lit("false").map(|()| false)
            }
        }

        /// Reads a number. Integers are accumulated digit by digit; only
        /// a fraction or an exponent goes through float parsing.
        #[inline]
        pub fn number(&mut self) -> Result<Number, ParseError> {
            let bytes = self.src.as_bytes();
            let start = self.pos;
            let negative = bytes.get(start) == Some(&b'-');
            let digits = start + usize::from(negative);
            let mut at = digits;
            // `None` once the magnitude no longer fits 64 bits
            let mut magnitude = Some(0u64);
            while let Some(d) = bytes
                .get(at)
                .map(|b| b.wrapping_sub(b'0'))
                .filter(|&d| d < 10)
            {
                magnitude = magnitude
                    .and_then(|m| m.checked_mul(10))
                    .and_then(|m| m.checked_add(u64::from(d)));
                at += 1;
            }
            self.pos = at;
            if matches!(bytes.get(at), Some(b'.' | b'e' | b'E')) {
                return self.float(start);
            }
            let has_digits = at > digits;
            let integer = magnitude.filter(|_| has_digits).and_then(|m| {
                if negative {
                    0i64.checked_sub_unsigned(m).map(Number::Int)
                } else {
                    Some(Number::UInt(m))
                }
            });
            integer.ok_or_else(|| self.err(format_args!("integer out of range")))
        }

        /// The rest of a number whose integer part ended at a `.` or an
        /// exponent; `start` is where the number began.
        fn float(&mut self, start: usize) -> Result<Number, ParseError> {
            let skip_digits = |r: &mut Self| {
                while matches!(r.peek(), Some(c) if c.is_ascii_digit()) {
                    r.pos += 1;
                }
            };
            if self.peek() == Some(b'.') {
                self.pos += 1;
                skip_digits(self);
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                skip_digits(self);
            }
            self.src[start..self.pos]
                .parse()
                .map(Number::Float)
                .map_err(|_| self.err(format_args!("malformed number")))
        }

        /// Reads a string: borrowed from the input when it holds no
        /// escape, decoded into an owned one when it does. A `\u` escape
        /// naming a surrogate pair decodes to the one scalar the pair
        /// encodes; a lone surrogate half becomes U+FFFD.
        pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
            self.expect(b'"')?;
            let bytes = self.src.as_bytes();
            let mut run = self.pos;
            let mut owned: Option<String> = None;
            loop {
                // `"` and `\` are ASCII, so they never sit inside a
                // multi-byte scalar and the runs between them slice
                // `src` on character boundaries
                match bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                {
                    None => {
                        self.pos = bytes.len();
                        return Err(self.err(format_args!("unterminated string")));
                    }
                    Some(k) => self.pos += k,
                }
                let text = &self.src[run..self.pos];
                if bytes[self.pos] == b'"' {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                let out = owned.get_or_insert_with(String::new);
                out.push_str(text);
                self.pos += 1;
                out.push(self.escape()?);
                run = self.pos;
            }
        }

        /// Decodes one escape; `pos` is just past the backslash.
        fn escape(&mut self) -> Result<char, ParseError> {
            let esc = self
                .peek()
                .ok_or_else(|| self.err(format_args!("bad escape")))?;
            self.pos += 1;
            Ok(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{0008}',
                b'f' => '\u{000c}',
                b'u' => {
                    let code = self.hex4()?;
                    let paired = (0xD800..0xDC00).contains(&code)
                        && self.src.as_bytes()[self.pos..].starts_with(b"\\u");
                    if paired {
                        let back = self.pos;
                        self.pos += 2;
                        match self.hex4() {
                            Ok(low @ 0xDC00..=0xDFFF) => {
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                return Ok(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                            }
                            // not a low half: it is read again as an
                            // escape of its own
                            _ => self.pos = back,
                        }
                    }
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                c => return Err(self.err(format_args!("bad escape `\\{}`", c as char))),
            })
        }

        fn hex4(&mut self) -> Result<u32, ParseError> {
            let digits = self.src.as_bytes().get(self.pos..self.pos + 4);
            let code = digits.and_then(|h| {
                h.iter()
                    .try_fold(0u32, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
            });
            let code = code.ok_or_else(|| self.err(format_args!("bad \\u escape")))?;
            self.pos += 4;
            Ok(code)
        }

        #[inline]
        fn begin(&mut self, open: u8) -> Result<(), ParseError> {
            if self.depth >= MAX_PARSE_DEPTH {
                return Err(self.err(format_args!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
            }
            self.expect(open)?;
            self.depth += 1;
            self.fresh = true;
            Ok(())
        }

        /// Steps to the next item of the innermost container: `false` at
        /// its `close`, which is consumed.
        #[inline]
        fn next(&mut self, close: u8, what: &str) -> Result<bool, ParseError> {
            self.skip_ws();
            let fresh = std::mem::replace(&mut self.fresh, false);
            if self.peek() == Some(close) {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            if !fresh {
                if self.peek() != Some(b',') {
                    return Err(self.err(format_args!(
                        "expected `,` or `{}` in {what}",
                        close as char
                    )));
                }
                self.pos += 1;
                self.skip_ws();
            }
            Ok(true)
        }

        /// Enters an array; follow with [`next_element`](Self::next_element).
        #[inline]
        pub fn begin_array(&mut self) -> Result<(), ParseError> {
            self.begin(b'[')
        }

        /// Whether the array has another element (then read or skip it);
        /// `false` consumes the closing `]`.
        #[inline]
        pub fn next_element(&mut self) -> Result<bool, ParseError> {
            self.next(b']', "array")
        }

        /// Inside an array, between elements: reads the run of plain
        /// integers that comes next into `out`, several per 8-byte load,
        /// and stops in front of the first element it does not take, with
        /// the reader exactly where [`next_element`](Self::next_element)
        /// + [`number`](Self::number) per element would have left it — so
        /// whatever ends the run is read, and judged, by those two.
        ///
        /// An element is taken when it follows the `[` or a `,` directly
        /// or after one space, is an optional `-` and 1 to 7 digits, is
        /// followed by a `,` directly, and all of that lies inside one
        /// load. It cannot fail: a longer number, a float, more white
        /// space, a value of another kind, an array's last element and
        /// the last bytes of the input are all left where they are.
        pub fn integers(&mut self, out: &mut Vec<i64>) {
            const LANES: u64 = 0x0101_0101_0101_0101;
            let bytes = self.src.as_bytes();
            // where the next element's text starts
            let start = match bytes.get(self.pos) {
                _ if self.fresh => self.pos,
                Some(b',') => self.pos + 1,
                _ => return,
            };
            let mut at = start;
            while let Some(load) = bytes.get(at..at + 8) {
                let w = u64::from_le_bytes(load.try_into().expect("an 8-byte slice"));
                // `d,d,d,d,`: no high nibble but the digits' 3, no low
                // nibble above 9 (the add cannot carry once the first
                // half of the test holds)
                let x = w ^ 0x2c30_2c30_2c30_2c30;
                if (x | x.wrapping_add(0x0006_0006_0006_0006)) & 0xfff0_fff0_fff0_fff0 == 0 {
                    out.extend_from_slice(&[
                        (x & 0xf) as i64,
                        (x >> 16 & 0xf) as i64,
                        (x >> 32 & 0xf) as i64,
                        (x >> 48 & 0xf) as i64,
                    ]);
                    at += 8;
                    continue;
                }
                // Every element that ends inside this load, one per comma
                // in it. A mask marks bytes in their top bit: `other` the
                // bytes that are not digits, `commas` the commas. Only
                // `commas` is carried from one element to the next;
                // everything else feeds a push or a branch.
                let at_least = |x: u64, least: u64| {
                    (((x & (0x7f * LANES)) + (0x80 - least) * LANES) | x) & (0x80 * LANES)
                };
                let other = at_least(w ^ (0x30 * LANES), 10);
                let mut commas = at_least(w ^ (0x2c * LANES), 1) ^ (0x80 * LANES);
                let byte = |i: usize| (w >> (8 * i)) as u8;
                // where in the load the next element's text starts
                let mut k = 0;
                while commas != 0 {
                    let end = commas.trailing_zeros() as usize / 8;
                    let mut digits = k + usize::from(byte(k) == b' ');
                    let negative = byte(digits) == b'-';
                    digits += usize::from(negative);
                    let len = (other >> (8 * digits)).trailing_zeros() as usize / 8;
                    if len == 0 || digits + len != end {
                        break;
                    }
                    // the digits moved to the top `len` bytes, first digit
                    // lowest, zeros below them: adjacent pairs, then
                    // fours, then the eight fold into one number
                    let v = ((w >> (8 * digits)) << (8 * (8 - len))) & (0x0f * LANES);
                    let v = (v.wrapping_mul(2561) >> 8) & 0x00ff_00ff_00ff_00ff;
                    let v = (v.wrapping_mul(6_553_601) >> 16) & 0x0000_ffff_0000_ffff;
                    let v = (v.wrapping_mul(42_949_672_960_001) >> 32) as i64;
                    out.push(if negative { -v } else { v });
                    k = end + 1;
                    commas &= commas - 1;
                }
                if k == 0 {
                    break;
                }
                at += k;
            }
            if at > start {
                // on the comma after the last element taken
                self.pos = at - 1;
                self.fresh = false;
            }
        }

        /// Enters an object; follow with [`next_key`](Self::next_key).
        pub fn begin_object(&mut self) -> Result<(), ParseError> {
            self.begin(b'{')
        }

        /// The object's next key, positioned at its value (then read or
        /// skip it); `None` consumes the closing `}`.
        pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
            if !self.next(b'}', "object")? {
                return Ok(None);
            }
            let key = self.str()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            Ok(Some(key))
        }

        /// Passes over one value of any kind, validating it exactly as
        /// reading it would.
        pub fn skip_value(&mut self) -> Result<(), ParseError> {
            match self.peek_kind()? {
                Kind::Null => self.null(),
                Kind::Bool => self.bool().map(drop),
                Kind::Number => self.number().map(drop),
                Kind::Str => self.str().map(drop),
                Kind::Array => {
                    self.begin_array()?;
                    while self.next_element()? {
                        self.skip_value()?;
                    }
                    Ok(())
                }
                Kind::Object => {
                    self.begin_object()?;
                    while self.next_key()?.is_some() {
                        self.skip_value()?;
                    }
                    Ok(())
                }
            }
        }

        /// Reads one value of any kind into a [`Value`] tree.
        pub fn value(&mut self) -> Result<Value, ParseError> {
            Ok(match self.peek_kind()? {
                Kind::Null => {
                    self.null()?;
                    Value::Null
                }
                Kind::Bool => Value::Bool(self.bool()?),
                Kind::Number => self.number()?.into(),
                Kind::Str => Value::Str(self.str()?.into_owned()),
                Kind::Array => {
                    self.begin_array()?;
                    let mut items = Vec::new();
                    while self.next_element()? {
                        items.push(self.value()?);
                    }
                    Value::Array(items)
                }
                Kind::Object => {
                    self.begin_object()?;
                    let mut fields = Vec::new();
                    while let Some(key) = self.next_key()? {
                        fields.push((key.into_owned(), self.value()?));
                    }
                    Value::Object(fields)
                }
            })
        }

        /// Ends the document: only whitespace may remain.
        pub fn finish(&mut self) -> Result<(), ParseError> {
            self.skip_ws();
            if self.pos != self.src.len() {
                return Err(self.err(format_args!("trailing characters after JSON value")));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_json() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b".into())),
            ("xs".into(), Value::Array(vec![Value::UInt(1), Value::Null])),
            ("ok".into(), Value::Bool(true)),
        ]);
        assert_eq!(v.to_string(), r#"{"name":"a\"b","xs":[1,null],"ok":true}"#);
    }

    #[test]
    fn parses_what_it_renders() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a\"b\nc".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::UInt(1), Value::Null, Value::Int(-3)]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("f".into(), Value::Float(1.5)),
        ]);
        assert_eq!(json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parse_accessors_destructure() {
        let v = json::parse(r#" {"id":"r1","n":42,"neg":-7,"xs":[1,2],"b":false} "#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(42));
        assert_eq!(v.get("neg").and_then(Value::as_i64), Some(-7));
        assert_eq!(
            v.get("xs").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "{} x", "\"unterminated"] {
            assert!(json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_rejects_hostile_nesting_instead_of_overflowing() {
        // Well past any honest request, far past the recursion budget: a
        // pre-fix parser blows the stack here and aborts the process.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}0{}", open.repeat(100_000), close.repeat(100_000));
            let err = json::parse(&deep).unwrap_err();
            assert!(err.msg.contains("nesting"), "{err}");
        }
        // ...while the bound leaves generous headroom for real payloads
        let fine = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(json::parse(&fine).is_ok());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = json::parse(r#""tab\t nl\n quote\" uA é""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t nl\n quote\" uA é"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar_and_lone_halves_to_the_replacement() {
        let s = |src: &str| json::parse(src).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""a\uD83D\uDE00b""#), "a😀b");
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        // a high half followed by an escape that is not its low half:
        // the second escape stands on its own
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
        assert_eq!(s(r#""\ud83d\n""#), "\u{fffd}\n");
        let err = json::parse(r#""\ud83d\u00""#).unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (9, "bad \\u escape"));
    }

    #[test]
    fn strings_borrow_unless_they_hold_an_escape() {
        use std::borrow::Cow;
        let mut r = json::Reader::new(r#"["raw é 😀","tab\there"]"#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("raw é 😀")));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "tab\there"));
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn numbers_keep_their_ranges_and_their_error_offsets() {
        let ok = |src: &str| json::parse(src).unwrap();
        assert_eq!(ok("18446744073709551615"), Value::UInt(u64::MAX));
        assert_eq!(ok("-9223372036854775808"), Value::Int(i64::MIN));
        assert_eq!(ok("-0"), Value::Int(0));
        assert_eq!(ok("007"), Value::UInt(7));
        assert_eq!(ok("1e400"), Value::Float(f64::INFINITY));
        assert_eq!(ok("-.5"), Value::Float(-0.5));
        assert_eq!(ok("1."), Value::Float(1.0));
        // past 64 bits an integer is an error, a float is not
        assert_eq!(
            ok("123456789012345678901.5"),
            Value::Float(1.2345678901234568e20)
        );
        let err = |src: &str| {
            let e = json::parse(src).unwrap_err();
            (e.at, e.msg)
        };
        assert_eq!(err("-"), (1, "integer out of range".into()));
        assert_eq!(err("[-]"), (2, "integer out of range".into()));
        assert_eq!(
            err("18446744073709551616"),
            (20, "integer out of range".into())
        );
        assert_eq!(
            err("12345678901234567890123"),
            (23, "integer out of range".into())
        );
        assert_eq!(
            err("-9223372036854775809"),
            (20, "integer out of range".into())
        );
        assert_eq!(err("1e"), (2, "malformed number".into()));
        assert_eq!(err("-e5"), (3, "malformed number".into()));
    }

    #[test]
    fn syntax_errors_name_the_byte_they_were_found_at() {
        let err = |src: &str| {
            let e = json::parse(src).unwrap_err();
            (e.at, e.msg)
        };
        assert_eq!(err(""), (0, "unexpected end of input".into()));
        assert_eq!(err("[1,]"), (3, "unexpected character `]`".into()));
        assert_eq!(err("[1 2]"), (3, "expected `,` or `]` in array".into()));
        assert_eq!(err(r#"{"a":1,}"#), (7, "expected `\"`".into()));
        assert_eq!(err(r#"{"a" 1}"#), (5, "expected `:`".into()));
        assert_eq!(
            err(r#"{"a":1 "b":2}"#),
            (7, "expected `,` or `}` in object".into())
        );
        assert_eq!(err("tru"), (0, "expected `true`".into()));
        assert_eq!(
            err("{} x"),
            (3, "trailing characters after JSON value".into())
        );
        assert_eq!(err(r#""abc"#), (4, "unterminated string".into()));
        assert_eq!(err(r#""abc\"#), (5, "bad escape".into()));
        assert_eq!(err(r#""\x""#), (3, "bad escape `\\x`".into()));
        assert_eq!(err(r#""\u12g4""#), (3, "bad \\u escape".into()));
        // raw multi-byte text before the fault: offsets are bytes
        assert_eq!(err(r#"["é😀",]"#), (10, "unexpected character `]`".into()));
    }

    #[test]
    fn skipping_validates_as_strictly_as_reading() {
        for bad in [
            "[1,]",
            r#"{"a":}"#,
            r#"["\x"]"#,
            "[18446744073709551616]",
            r#"{"a":[tru]}"#,
            "[1",
        ] {
            let read = json::parse(bad).unwrap_err();
            let mut r = json::Reader::new(bad);
            let skipped = r.skip_value().and_then(|()| r.finish()).unwrap_err();
            assert_eq!(skipped, read, "{bad:?}");
        }
        let deep = format!("{}0{}", "[".repeat(200), "]".repeat(200));
        let err = json::Reader::new(&deep).skip_value().unwrap_err();
        assert_eq!(err.at, json::MAX_PARSE_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
    }

    /// One array read the way a typed consumer reads it — elements that
    /// are `i64`s, and where the others stood — with the integer-run step
    /// before the first element and after every element, or without it.
    fn read_array(src: &str, step: bool) -> Result<(Vec<i64>, Vec<usize>), json::ParseError> {
        let mut r = json::Reader::new(src);
        let (mut ints, mut others) = (Vec::new(), Vec::new());
        r.begin_array()?;
        if step {
            r.integers(&mut ints);
        }
        while r.next_element()? {
            let int = match r.peek_kind()? {
                json::Kind::Number => r.number()?.as_i64(),
                _ => r.skip_value().map(|()| None)?,
            };
            match int {
                Some(x) => ints.push(x),
                None => others.push(ints.len()),
            }
            if step {
                r.integers(&mut ints);
            }
        }
        r.finish()?;
        Ok((ints, others))
    }

    /// The step changes nothing: same elements or same error, on `src`
    /// and on `src` cut short at every byte.
    fn assert_step_is_invisible(src: &str) {
        for cut in (0..=src.len()).filter(|&k| src.is_char_boundary(k)) {
            let text = &src[..cut];
            assert_eq!(read_array(text, true), read_array(text, false), "{text:?}");
        }
    }

    /// Elements around which the step must stop, start again, or carry
    /// on: every width it takes and the first it does not, signs, zeros,
    /// white space in every place, floats, and values of other kinds.
    fn awkward_elements() -> Vec<String> {
        let mut of: Vec<String> = [
            "-",
            "-0",
            "0",
            "007",
            "0000000",
            "00000000",
            "-007",
            " 5",
            "  5",
            "\t5",
            "\n5",
            "5 ",
            "5\t",
            " -5",
            "  -5",
            "- 5",
            " 1234567",
            " -123456",
            "-1234567",
            " -1234567",
            "1.0",
            "1.",
            "-1.5",
            "1e2",
            "1E2",
            "12e",
            "12.e",
            ".5",
            "1-2",
            "1+2",
            "--1",
            "x",
            "5x",
            "12é",
            // the bytes on either side of `0`..=`9`, and those a bit apart
            "/",
            ":",
            "1/",
            "/1",
            "1:",
            ":1",
            "1°",
            "°1",
            "1\u{b9}",
            "\u{b9}",
            "1p",
            "q",
            "\"s\"",
            "\"1,2\"",
            "[2]",
            "[1,2,3,4,5]",
            "{}",
            "null",
            "true",
            "",
            " ",
        ]
        .map(String::from)
        .to_vec();
        for digits in 1..=20 {
            let magnitude: String = "12345678901234567890"[..digits].into();
            of.push(format!("-{magnitude}"));
            of.push("9".repeat(digits));
            of.push(magnitude);
        }
        of
    }

    #[test]
    fn the_integer_run_step_reads_what_the_general_path_reads() {
        let singles = |n: usize| (0..n).map(|k| ((k * 7 + 3) % 10).to_string());
        let array = |before: usize, item: &str, after: usize| {
            let items: Vec<String> = singles(before)
                .chain([item.to_string()])
                .chain(singles(after))
                .collect();
            format!("[{}]", items.join(","))
        };
        // single-digit runs of every length around the four-per-load
        // boundary, alone
        for n in 0..=13 {
            let items: Vec<String> = singles(n).collect();
            assert_step_is_invisible(&format!("[{}]", items.join(",")));
            assert_step_is_invisible(&format!("[ {}]", items.join(", ")));
        }
        for item in awkward_elements() {
            for before in 0..=13 {
                // ...in front of each awkward element, and after it
                for after in [0, 3, 9] {
                    assert_step_is_invisible(&array(before, &item, after));
                }
                // ...and the run ending every distance from the end of
                // the input, where a load no longer fits
                for pad in 0..=12 {
                    let src = format!("{}{}", array(before, "42", 2), " ".repeat(pad));
                    assert_eq!(read_array(&src, true), read_array(&src, false), "{src:?}");
                    let src = format!("{}{}", array(before, &item, 0), " ".repeat(pad));
                    assert_eq!(read_array(&src, true), read_array(&src, false), "{src:?}");
                }
            }
        }
        // what it read, not only that both agree
        assert_eq!(
            read_array(
                "[1,2,3,4,5,6,7,8,9,10, -11,1234567,-0,007,12345678,2.0,5 ,6]",
                true
            ),
            Ok((
                vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -11, 1234567, 0, 7, 12345678, 2, 5, 6],
                vec![]
            ))
        );
    }

    #[test]
    fn the_integer_run_step_agrees_on_mixed_widths_and_separators() {
        // xorshift64: widths of 1..=9 digits, signs and separators mixed,
        // every array cut short at every byte
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..400 {
            let mut src = String::from("[");
            // mostly the widths real arrays have; now and then any
            let widest = [2, 2, 3, 5, 9][draw(5) as usize];
            for k in 0..draw(40) {
                if k > 0 {
                    src.push_str([",", ",", ",", ", ", " ,", ",  ", ",\t"][draw(7) as usize]);
                }
                if draw(8) == 0 {
                    src.push('-');
                }
                let width = 1 + draw(widest) as u32;
                src.push_str(&draw(10u64.pow(width)).to_string());
            }
            src.push(']');
            assert_step_is_invisible(&src);
        }
    }

    #[test]
    fn the_integer_run_step_moves_only_between_elements() {
        let mut r = json::Reader::new("[1,2,3,4,5,6 ,7,[8,9,1,2,3,4,5,60],1]  ");
        let mut out = Vec::new();
        r.begin_array().unwrap();
        r.integers(&mut out);
        assert_eq!(out, [1, 2, 3, 4, 5]);
        // `6` is not followed by its comma: left to the general path
        r.integers(&mut out);
        assert_eq!(out.len(), 5);
        assert!(r.next_element().unwrap());
        assert_eq!(r.number().unwrap(), json::Number::UInt(6));
        // in front of white space, and then of a nested array: a no-op
        r.integers(&mut out);
        assert!(r.next_element().unwrap());
        assert_eq!(r.number().unwrap(), json::Number::UInt(7));
        r.integers(&mut out);
        assert_eq!(out.len(), 5);
        // the innermost array is the one it reads, up to its last element
        assert!(r.next_element().unwrap());
        r.begin_array().unwrap();
        r.integers(&mut out);
        assert_eq!(out[5..], [8, 9, 1, 2, 3, 4, 5]);
        assert!(r.next_element().unwrap());
        assert_eq!(r.number().unwrap(), json::Number::UInt(60));
        assert!(!r.next_element().unwrap());
        // too close to the end of the input for a load
        r.integers(&mut out);
        assert_eq!(out.len(), 12);
        assert!(r.next_element().unwrap());
        assert_eq!(r.number().unwrap(), json::Number::UInt(1));
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn integral_floats_convert_only_inside_the_integer_range() {
        let num = |src: &str| json::parse(src).unwrap();
        assert_eq!(
            num("1.8446744073709550e19").as_u64(),
            Some(18446744073709549568)
        );
        // 2^64 and beyond: `as u64` would saturate to u64::MAX
        assert_eq!(num("18446744073709551616.0").as_u64(), None);
        assert_eq!(num("1.85e19").as_u64(), None);
        assert_eq!(num("1e400").as_u64(), None);
        assert_eq!(num("-1.0").as_u64(), None);
        assert_eq!(num("2e2").as_u64(), Some(200));
        assert_eq!(num("9e18").as_i64(), None);
        assert_eq!(num("8.9e18").as_i64(), Some(8_900_000_000_000_000_000));
    }

    #[test]
    fn primitives_serialize() {
        assert_eq!(json::to_string(&3usize), "3");
        assert_eq!(json::to_string(&-2i64), "-2");
        assert_eq!(json::to_string(&vec![1u64, 2]), "[1,2]");
        assert_eq!(json::to_string(&Option::<u64>::None), "null");
        assert_eq!(json::to_string("hi"), "\"hi\"");
    }
}
