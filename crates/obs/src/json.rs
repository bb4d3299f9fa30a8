//! Minimal JSON tree: deterministic emission and a strict parser.
//!
//! The build environment has no registry access, so manifests are emitted
//! and parsed with this hand-rolled module instead of an external JSON
//! crate. Two properties matter here beyond correctness:
//!
//! * **Deterministic emission** — objects keep insertion order and floats
//!   use Rust's shortest-round-trip formatting, so a manifest built from
//!   bit-identical simulation results is byte-identical regardless of
//!   worker-thread count.
//! * **Precision** — 64-bit seeds exceed `f64`'s integer range, so they
//!   are carried as JSON *strings*; [`Value::as_u64`] accepts both forms.
//!
//! The parser recurses once per array or object level and rejects input
//! nested deeper than [`MAX_DEPTH`], so hostile input returns an error
//! instead of overflowing the stack.

use std::fmt::Write as _;

/// The deepest array/object nesting [`Value::parse`] accepts. Manifests
/// and scenario files nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; pairs keep insertion order (no sorting, no dedup).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`: either a non-negative integral number or a
    /// decimal string (the manifest's representation for 64-bit seeds).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            Value::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Emits compact JSON (no whitespace). Non-finite numbers — which
    /// JSON cannot represent — emit as `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// or of the first bracket nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}", pos = *pos))
    }
}

/// Parses the value at `pos`; `depth` counts the arrays and objects that
/// enclose it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our emitter;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Value::Obj(vec![
            ("schema".into(), Value::Num(1.0)),
            (
                "name".into(),
                Value::Str("eq1: no prefetch, \"k=25\"".into()),
            ),
            ("seed".into(), Value::Str("18446744073709551615".into())),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "xs".into(),
                Value::Arr(vec![Value::Num(1.5), Value::Num(-2.0), Value::Num(0.0)]),
            ),
            ("empty_obj".into(), Value::Obj(vec![])),
            ("empty_arr".into(), Value::Arr(vec![])),
        ]);
        let json = v.to_json();
        assert_eq!(Value::parse(&json).unwrap(), v);
    }

    #[test]
    fn seeds_as_strings_keep_full_precision() {
        let seed = u64::MAX - 1;
        let v = Value::Str(seed.to_string());
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(parsed.as_u64(), Some(seed));
    }

    #[test]
    fn numbers_round_trip_to_the_bit() {
        for n in [
            0.0,
            16.001234,
            -1.0 / 3.0,
            1e-12,
            9.25e17,
            f64::MIN_POSITIVE,
        ] {
            let json = Value::Num(n).to_json();
            let back = Value::parse(&json).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{json}");
        }
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn string_escapes() {
        let s = "line\nbreak\ttab \"quote\" back\\slash \u{1} é";
        let json = Value::Str(s.into()).to_json();
        assert_eq!(Value::parse(&json).unwrap().as_str(), Some(s));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\u0001"));
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#"{"a": 3, "b": [1, 2], "c": "x", "d": false}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(
            v.get("b").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("a"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":}",
            "",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let hostile = open.repeat(100_000);
            let err = Value::parse(&hostile).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            assert!(
                err.contains(&format!("byte {}", MAX_DEPTH * open.len())),
                "{err}"
            );
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&over).is_err());
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Value::parse(" { \"a\" : [ { \"b\" : null } , -2.5e3 ] } ").unwrap();
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].get("b"), Some(&Value::Null));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
    }
}
