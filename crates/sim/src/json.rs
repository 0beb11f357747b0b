//! Minimal recursive-descent JSON reader for the hand-rolled artifacts
//! (stats, timeline, flight dumps). The workspace is offline (no serde),
//! and the formats are small enough that a ~150-line reader keeps the
//! artifacts human-editable without a dependency.

use std::fmt;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub(crate) String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: &str) -> ParseError {
    ParseError(msg.to_string())
}

/// A parsed JSON value. Numbers are kept as `f64` plus an exact `u64`
/// when the literal was integral.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number; `(f64, Some(u64))` when the literal was a non-negative
    /// integer that fits in `u64`.
    Num(f64, Option<u64>),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an insertion-ordered key/value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object key/value list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(kv) => Some(kv),
            _ => None,
        }
    }
    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The exact integer, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(_, exact) => *exact,
            _ => None,
        }
    }
    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(f, _) => Some(*f),
            _ => None,
        }
    }
}

/// First value for `key` in an object k/v list.
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse a complete JSON document (trailing data is an error).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(&format!("trailing data at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), ParseError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}' at byte {}", ch as char, *pos)))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(err(&format!("unexpected input at byte {}", *pos))),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, val: Value) -> Result<Value, ParseError> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(val)
    } else {
        Err(err(&format!("bad literal at byte {}", *pos)))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(b, pos, b'{')?;
    let mut kv = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(kv));
    }
    loop {
        skip_ws(b, pos);
        let k = string(b, pos)?;
        expect(b, pos, b':')?;
        let v = value(b, pos)?;
        kv.push((k, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(kv));
            }
            _ => return Err(err(&format!("expected ',' or '}}' at byte {}", *pos))),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(out));
    }
    loop {
        out.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            _ => return Err(err(&format!("expected ',' or ']' at byte {}", *pos))),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    _ => return Err(err("unsupported string escape")),
                }
                *pos += 1;
            }
            c if c < 0x20 => return Err(err("control char in string")),
            _ => {
                // Copy one UTF-8 scalar (input is a valid &str).
                let start = *pos;
                let mut end = start + 1;
                while end < b.len() && (b[end] & 0xc0) == 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..end])
                        .map_err(|_| err("invalid utf-8 in string"))?,
                );
                *pos = end;
            }
        }
    }
    Err(err("unterminated string"))
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
    let f: f64 = text
        .parse()
        .map_err(|_| err(&format!("bad number \"{text}\"")))?;
    let exact = text.parse::<u64>().ok();
    Ok(Value::Num(f, exact))
}
