//! The wire format: one JSON value per line, hand-rolled.
//!
//! The offline compat policy rules out `serde`, so this module carries a
//! deliberately small JSON implementation — a parser and serializer for
//! exactly the value shapes the protocol uses (objects, arrays, strings,
//! integers/floats, booleans, null). It is not a general-purpose JSON
//! library: numbers round-trip through `f64`, object key order is
//! preserved as written, duplicate keys keep the first occurrence on
//! lookup, and arrays/objects nest at most [`MAX_DEPTH`] levels deep.
//!
//! Requests and responses are both single-line objects; see
//! [`crate::server`] for the protocol fields.

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a single line of `[`s would
/// overflow the stack; protocol messages nest only a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a key in an object (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON value from text (the whole input must be consumed,
    /// modulo whitespace). Nesting deeper than [`MAX_DEPTH`] is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

/// An object builder for response construction:
/// `obj([("ok", Json::Bool(true)), ...])`.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value starting at `pos`, inside `depth` enclosing
/// arrays/objects. `pos` always sits on a char boundary of `text`: it only
/// ever advances past ASCII bytes or whole string runs.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = &text[start..*pos];
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash in one slice.
        // Both are ASCII, so the run ends on a char boundary and
        // multi-byte sequences pass through unmodified.
        let start = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&text[start..*pos]);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: decode one escape sequence.
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = text
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        // Surrogate pairs are not needed by this protocol;
                        // lone surrogates map to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\t' => write!(f, "\\t")?,
            '\r' => write!(f, "\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let cases = [
            r#"{"id":1,"op":"answer","rule":"p(X) :- q(X)."}"#,
            r#"{"ok":true,"rows":[["a","b"],["c","d"]],"epoch":3}"#,
            r#"{"nested":{"a":[1,2.5,-3],"b":null,"c":false}}"#,
            r#"["line \"quoted\"","tab\there"]"#,
            r#"{"name":"Purkinje–Zelle","ja":"神経細胞","emoji":"🧠 \u00e9"}"#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap();
            let rendered = v.to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "case {case}");
        }
        let multibyte = Json::parse(r#"["a–b神🧠\u00e9"]"#).unwrap();
        assert_eq!(multibyte, Json::Arr(vec![Json::str("a–b神🧠é")]));
        // The deepest nesting the parser accepts still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let v = Json::parse(&deepest).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn accessors_and_builder() {
        let v = obj([
            ("ok", Json::Bool(true)),
            ("epoch", Json::int(7)),
            ("err", Json::str("overloaded")),
        ]);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("err").and_then(Json::as_str), Some("overloaded"));
        assert!(v.get("missing").is_none());
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
        // One level past the limit is an error, not a stack overflow...
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
        let over_obj = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over_obj).unwrap_err().contains("nesting"));
        // ...and so is a hostile line of a million open brackets.
        assert!(Json::parse(&"[".repeat(1_000_000))
            .unwrap_err()
            .contains("nesting"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "ab–神".repeat((1 << 20) / 8);
        let line = format!(r#"{{"rule":"{body}"}}"#);
        assert!(line.len() >= 1 << 20);
        let start = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        let took = start.elapsed();
        assert_eq!(v.get("rule").and_then(Json::as_str), Some(body.as_str()));
        assert!(
            took < std::time::Duration::from_secs(2),
            "1 MiB string took {took:?}"
        );
    }

    #[test]
    fn control_chars_escape() {
        let v = Json::str("a\nb\u{1}c");
        let text = v.to_string();
        assert_eq!(text, "\"a\\nb\\u0001c\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
        // A newline inside a string value must never split the wire line.
        assert!(!text.contains('\n'));
    }
}
