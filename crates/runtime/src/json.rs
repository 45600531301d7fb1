//! The workspace's one JSON codec (RFC 8259), used by run traces, grid
//! reports, the grid profile sidecar and the bench baselines.
//!
//! [`Obj`] appends one compact object (`{"k":v,…}`, members in call order)
//! straight into the caller's `String`, so a line is a pure function of its
//! values and can be hashed and compared byte for byte. [`parse`] reads a
//! document into a [`Value`]: integer literals stay exact up to `u64::MAX`,
//! objects keep their member order, and the `get_*` accessors name the
//! field that is missing or has the wrong type.

use std::fmt::{self, Write as _};

/// Integer types [`Obj::int`] and [`Obj::ints`] write exactly, in decimal.
pub trait Int: fmt::Display + Copy {}

impl Int for u32 {}
impl Int for u64 {}
impl Int for usize {}
impl Int for i64 {}

/// A JSON object being appended to a `String`. Members appear in call
/// order; [`Obj::finish`] closes the object.
#[must_use = "an object is closed only by `finish`"]
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, empty: true }
    }

    /// Writes the separator and `"key":`, and hands back the buffer for the
    /// value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        write_str(self.key(key), value);
        self
    }

    /// An integer member.
    pub fn int(mut self, key: &str, value: impl Int) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A float member: `{}` plus `.0` when integral, `null` when
    /// non-finite.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        write_num(self.key(key), value);
        self
    }

    /// A boolean member.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A `null` member.
    pub fn null(mut self, key: &str) -> Self {
        self.key(key).push_str("null");
        self
    }

    /// An array-of-integers member.
    pub fn ints<I: Int>(self, key: &str, values: &[I]) -> Self {
        self.arr(key, values, |out, v| {
            let _ = write!(out, "{v}");
        })
    }

    /// An array-of-floats member, each element written as by [`Obj::num`].
    pub fn nums(self, key: &str, values: &[f64]) -> Self {
        self.arr(key, values, |out, v| write_num(out, *v))
    }

    /// An array member with one element per item, each appended by `each`
    /// (a nested [`Obj`], for instance).
    pub fn arr<T>(
        mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut String, T),
    ) -> Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            each(out, item);
        }
        out.push(']');
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Appends `s` as a JSON string: `"` and `\` are backslash-escaped, `\n`,
/// `\r` and `\t` take their short forms, the other control characters
/// `\u00XX`, and everything else (non-ASCII included) is copied as is.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0; // start of the pending unescaped run
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        // Byte `i` is ASCII, so both slices end on a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a float so that it reads back to the same bits and stays valid
/// JSON. NaN and infinities become `null`, which reads back as a type
/// error: the right loudness for a poisoned norm.
fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    // `{}` never uses an exponent and prints integral floats without a
    // dot; the `.0` keeps them readable as floats.
    if !out[start..].contains('.') {
        out.push_str(".0");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, kept exact.
    Int(u64),
    /// Any other number: negative, fractional, with an exponent, or above
    /// `u64::MAX`. Always finite.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

/// A malformed document, or a field that is missing or has the wrong type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

pub(crate) fn err(message: impl Into<String>) -> Error {
    Error {
        message: message.into(),
    }
}

impl Value {
    /// The exact value of a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number; integers above 2^53 round to the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(n) => Some(*n as f64),
            Self::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object's members, in document order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Self::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Member `key` of an object (the first, if the key repeats).
    pub fn get(&self, key: &str) -> Result<&Value, Error> {
        self.as_object()
            .and_then(|members| members.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .ok_or_else(|| err(format!("missing field {key:?}")))
    }

    /// A string member.
    pub fn get_str(&self, key: &str) -> Result<&str, Error> {
        self.get(key)?
            .as_str()
            .ok_or_else(|| err(format!("field {key:?} must be a string")))
    }

    /// An integer member that fits `T`.
    pub fn get_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, Error> {
        self.get(key)?
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| err(format!("field {key:?} must be a non-negative integer")))
    }

    /// A number member.
    pub fn get_f64(&self, key: &str) -> Result<f64, Error> {
        self.get(key)?
            .as_f64()
            .ok_or_else(|| err(format!("field {key:?} must be a number")))
    }

    /// A boolean member.
    pub fn get_bool(&self, key: &str) -> Result<bool, Error> {
        match self.get(key)? {
            Self::Bool(b) => Ok(*b),
            _ => Err(err(format!("field {key:?} must be a boolean"))),
        }
    }

    /// An array member.
    pub fn get_array(&self, key: &str) -> Result<&[Value], Error> {
        self.get(key)?
            .as_array()
            .ok_or_else(|| err(format!("field {key:?} must be an array")))
    }

    /// An array-of-integers member, each element fitting `T`.
    pub fn get_ints<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, Error> {
        self.get_array(key)?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| T::try_from(n).ok())
                    .ok_or_else(|| err(format!("field {key:?} must contain only integers")))
            })
            .collect()
    }

    /// An array-of-numbers member.
    pub fn get_f64s(&self, key: &str) -> Result<Vec<f64>, Error> {
        self.get_array(key)?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| err(format!("field {key:?} must contain only numbers")))
            })
            .collect()
    }
}

/// Arrays and objects nested deeper than this are rejected rather than
/// recursed into, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.bytes().get(self.pos),
            Some(b' ' | b'\t' | b'\n' | b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(err(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self
                .items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Value::Obj),
            b'[' => self.items(b']', Self::value).map(Value::Arr),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.eat_literal("true", Value::Bool(true)),
            b'f' => self.eat_literal("false", Value::Bool(false)),
            b'n' => self.eat_literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(err(format!("unexpected character {:?}", c as char))),
        }
    }

    /// The comma-separated items of the array or object that opens at the
    /// current byte, through its closing `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1; // the opening bracket
        let mut items = Vec::new();
        self.skip_ws();
        while self.peek()? != close {
            if !items.is_empty() {
                self.expect(b',')?;
            }
            items.push(item(self)?);
            self.skip_ws();
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the unescaped run; it ends at an ASCII
            // byte (or the end), so the slice is on char boundaries.
            while let Some(&b) = self.bytes().get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            // The writer never emits surrogate pairs;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        c => return Err(err(format!("invalid escape \\{:?}", c as char))),
                    }
                    self.pos += 1;
                }
                _ => unreachable!("scan stops only at quote or backslash"),
            }
        }
    }

    /// A number: exact [`Value::Int`] for a non-negative integer literal
    /// that fits a `u64`, otherwise a finite [`Value::Num`].
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos; // at `-` or a digit
        while matches!(
            self.bytes().get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj(build: impl FnOnce(Obj<'_>) -> Obj<'_>) -> String {
        let mut s = String::new();
        build(Obj::new(&mut s)).finish();
        s
    }

    #[test]
    fn writer_emits_compact_members_in_call_order() {
        let line = obj(|o| {
            o.str("s", "x")
                .int("n", 3u64)
                .int("neg", -2i64)
                .num("f", 1.0)
                .num("g", 0.1)
                .num("nan", f64::NAN)
                .bool("b", true)
                .null("z")
                .ints("v", &[1usize, 2])
                .nums("w", &[])
                .arr("o", [7u32], |out, id| Obj::new(out).int("id", id).finish())
        });
        assert_eq!(
            line,
            r#"{"s":"x","n":3,"neg":-2,"f":1.0,"g":0.1,"nan":null,"b":true,"z":null,"v":[1,2],"w":[],"o":[{"id":7}]}"#
        );
        assert_eq!(obj(|o| o), "{}");
    }

    #[test]
    fn escaper_uses_short_forms_and_lowercase_unicode_escapes() {
        let line = obj(|o| o.str("k\"", "q\" b\\ n\n r\r t\t c\u{1}\u{1f} é\u{7f}"));
        assert_eq!(
            line,
            "{\"k\\\"\":\"q\\\" b\\\\ n\\n r\\r t\\t c\\u0001\\u001f é\u{7f}\"}"
        );
        let back = parse(&line).unwrap();
        assert_eq!(
            back.get_str("k\"").unwrap(),
            "q\" b\\ n\n r\r t\t c\u{1}\u{1f} é\u{7f}"
        );
    }

    #[test]
    fn float_edge_cases_round_trip_bit_for_bit() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),              // smallest subnormal
            -f64::from_bits((1 << 52) - 1), // largest subnormal
            f64::EPSILON,
            9007199254740992.0, // 2^53, printed with all its digits
            1e300,
        ] {
            let line = obj(|o| o.num("v", v));
            let back = parse(&line).unwrap().get_f64("v").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{line}");
        }
        assert_eq!(obj(|o| o.num("v", -0.0)), r#"{"v":-0.0}"#);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                obj(|o| o.num("v", v).nums("a", &[v])),
                r#"{"v":null,"a":[null]}"#
            );
        }
    }

    #[test]
    fn integers_stay_exact_and_only_non_negative_integers_are_u64() {
        for n in [0, 1, (1 << 53) + 1, 0xc221_6479_740c_b604, u64::MAX] {
            let line = obj(|o| o.int("n", n));
            assert_eq!(parse(&line).unwrap().get_int::<u64>("n"), Ok(n), "{line}");
        }
        for text in ["-1", "3.5", "1e3", "-0", "1.0", "18446744073709551616"] {
            let v = parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text} read as u64");
            assert!(v.as_f64().is_some(), "{text} is still a number");
        }
        let v = parse(r#"{"big":4294967296,"arr":[1,4294967296]}"#).unwrap();
        assert_eq!(v.get_int::<u64>("big"), Ok(1 << 32));
        assert!(v.get_int::<u32>("big").is_err(), "u32 overflow is an error");
        assert!(v.get_ints::<u32>("arr").is_err());
        assert_eq!(v.get_ints::<u64>("arr"), Ok(vec![1, 1 << 32]));
    }

    #[test]
    fn accessors_name_the_field() {
        let v = parse(r#"{"s":1,"n":"x","b":0,"a":{},"xs":[1,"y"],"fs":[1.5,null]}"#).unwrap();
        let msg = |r: Result<(), Error>| r.unwrap_err().to_string();
        assert_eq!(msg(v.get("nope").map(drop)), r#"missing field "nope""#);
        assert_eq!(
            msg(v.get_str("s").map(drop)),
            r#"field "s" must be a string"#
        );
        assert_eq!(
            msg(v.get_int::<u64>("n").map(drop)),
            r#"field "n" must be a non-negative integer"#
        );
        assert_eq!(
            msg(v.get_f64("n").map(drop)),
            r#"field "n" must be a number"#
        );
        assert_eq!(
            msg(v.get_bool("b").map(drop)),
            r#"field "b" must be a boolean"#
        );
        assert_eq!(
            msg(v.get_array("a").map(drop)),
            r#"field "a" must be an array"#
        );
        assert_eq!(
            msg(v.get_ints::<u64>("xs").map(drop)),
            r#"field "xs" must contain only integers"#
        );
        assert_eq!(
            msg(v.get_f64s("fs").map(drop)),
            r#"field "fs" must contain only numbers"#
        );
        assert!(parse("[1]").unwrap().get("k").is_err(), "not an object");
    }

    #[test]
    fn reader_accepts_whitespace_and_nesting() {
        let v = parse(" {\n \"a\" : [ 1 , { \"b\" : null } , [ ] ] , \"c\" : false }\t").unwrap();
        assert_eq!(
            v,
            Value::Obj(vec![
                (
                    "a".into(),
                    Value::Arr(vec![
                        Value::Int(1),
                        Value::Obj(vec![("b".into(), Value::Null)]),
                        Value::Arr(vec![]),
                    ])
                ),
                ("c".into(), Value::Bool(false)),
            ])
        );
        assert_eq!(
            parse(r#""\/\b\f\u00e9""#).unwrap(),
            Value::Str("/\u{8}\u{c}é".into())
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let ok_deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok_deep).is_ok());
        for bad in [
            "",
            " ",
            "{",
            "}",
            "[1,2",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{a:1}",
            "\"open",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "tru",
            "nul",
            "-",
            "1.2.3",
            "1e999",
            "--1",
            "1 2",
            "NaN",
            "inf",
            &deep,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Characters the malformed-input property draws from: JSON syntax,
    /// digits, escapes and one non-ASCII character.
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '0', '1', '9', '.', 'e', '-', '+', 't', 'r',
        'n', 'l', ' ', '\n', 'é',
    ];

    /// A string from random code points (surrogates skipped), interleaved
    /// with random ASCII so controls, quotes and backslashes are common.
    fn text_from(codes: &[u32], ascii: &[u32]) -> String {
        let mut s = String::new();
        for (i, c) in codes.iter().enumerate() {
            s.extend(char::from_u32(*c));
            if let Some(a) = ascii.get(i) {
                s.extend(char::from_u32(*a));
            }
        }
        s.extend(
            ascii
                .iter()
                .skip(codes.len())
                .filter_map(|a| char::from_u32(*a)),
        );
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn strings_round_trip_exactly(
            codes in prop::collection::vec(0u32..0x11_0000, 0..24),
            ascii in prop::collection::vec(0u32..0x80, 0..24),
        ) {
            let s = text_from(&codes, &ascii);
            let line = obj(|o| o.str(&s, &s));
            let back = parse(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
            let members = back.as_object().unwrap();
            prop_assert_eq!(members.len(), 1);
            prop_assert_eq!(&members[0].0, &s);
            prop_assert_eq!(members[0].1.as_str(), Some(s.as_str()));
        }

        #[test]
        fn floats_round_trip_to_the_same_bits(bits in 0..=u64::MAX, sub in 0u64..(1 << 52), neg in 0u64..2) {
            let subnormal = f64::from_bits(sub | (neg << 63));
            for v in [f64::from_bits(bits), subnormal] {
                let line = obj(|o| o.num("v", v).nums("a", &[v, v]));
                let back = parse(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
                if v.is_finite() {
                    prop_assert_eq!(back.get_f64("v").unwrap().to_bits(), v.to_bits());
                    let a: Vec<u64> = back.get_f64s("a").unwrap().iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(a, vec![v.to_bits(); 2]);
                } else {
                    prop_assert_eq!(line, r#"{"v":null,"a":[null,null]}"#.to_string());
                }
            }
        }

        #[test]
        fn u64_round_trips_exactly(n in 0..=u64::MAX, small in 0u64..1024) {
            let line = obj(|o| o.int("n", n).ints("a", &[small, n]));
            let back = parse(&line).unwrap();
            prop_assert_eq!(back.get_int::<u64>("n"), Ok(n));
            prop_assert_eq!(back.get_ints::<u64>("a"), Ok(vec![small, n]));
        }

        #[test]
        fn member_order_is_preserved(keys in prop::collection::vec(0u32..50, 0..16)) {
            let names: Vec<String> = keys.iter().map(|k| format!("k{k}")).collect();
            let mut line = String::new();
            let mut o = Obj::new(&mut line);
            for (i, name) in names.iter().enumerate() {
                o = o.int(name, i);
            }
            o.finish();
            let back = parse(&line).unwrap();
            let read: Vec<&str> = back.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            prop_assert_eq!(read, names.iter().map(String::as_str).collect::<Vec<_>>());
        }

        #[test]
        fn malformed_input_errs_without_panicking(
            picks in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
            cut in 0usize..1000,
        ) {
            // Arbitrary syntax soup may or may not parse, but must return.
            let soup: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let _ = parse(&soup);
            // Every proper prefix of a valid object is malformed.
            let line = obj(|o| o.str("s", &soup).int("n", cut).nums("f", &[0.5, -1e-7]));
            let mut end = cut % line.len();
            while !line.is_char_boundary(end) {
                end -= 1;
            }
            prop_assert!(parse(&line[..end]).is_err(), "accepted prefix {:?}", &line[..end]);
            prop_assert!(parse(&line).is_ok());
        }
    }
}
