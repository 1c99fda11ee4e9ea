//! A minimal JSON codec for telemetry snapshots.
//!
//! The build environment is air-gapped — the vendored `serde` is a no-op
//! stub (see `vendor/README.md`) — so the exporters render JSON by hand
//! and this module supplies the inverse: a small recursive-descent parser
//! sufficient for the snapshot files `lion-obs` itself writes. Integers
//! that fit `u64` are kept exact (not routed through `f64`), which is what
//! lets nanosecond counters and `u64::MAX` sentinels round-trip.

use std::fmt;

/// Deepest `[`/`{` nesting [`parse`] accepts. The parser recurses once
/// per level, so the cap bounds its stack use on hostile input; the
/// exporters never nest more than a handful of levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in source order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Escapes a string for embedding in a JSON document (adds no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns [`JsonError`] with the byte offset of the first problem,
/// including `"nesting too deep"` at the bracket that opens level 129.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            offset: pos,
            message: "trailing characters",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8, message: &'static str) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError {
            offset: *pos,
            message,
        })
    }
}

/// Parses the value at `*pos`, nested inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError {
            offset: *pos,
            message: "unexpected end of input",
        }),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError {
            offset: *pos,
            message: "nesting too deep",
        }),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, b"null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &'static [u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes.len() - *pos >= word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError {
            offset: *pos,
            message: "invalid keyword",
        })
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{', "expected '{'")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => {
                return Err(JsonError {
                    offset: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    offset: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
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
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(JsonError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        // Surrogate pairs are not needed for our own files.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (snapshot files are valid UTF-8
                // because they come from Rust strings).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| JsonError {
                    offset: *pos,
                    message: "invalid UTF-8",
                })?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError {
        offset: start,
        message: "invalid number",
    })?;
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
        offset: start,
        message: "invalid number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-1.5").unwrap(), Json::Num(-1.5));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn u64_max_is_exact() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a":[1,2,{"b":"x"}],"c":{"d":3.25},"e":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(3.25));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").is_err());
        let err = parse("").unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let err = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // The cap itself still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&over).unwrap_err().offset, MAX_DEPTH);
    }
}
