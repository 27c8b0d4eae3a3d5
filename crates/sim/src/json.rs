//! Minimal JSON codec: one value type, a strict recursive-descent parser
//! and a string quoter.
//!
//! The workspace is hermetic (no serde; see DESIGN.md), yet two tools
//! speak JSON: the lint's `scalewall-lint/v2` report and the microbench
//! `scalewall-microbench/v1` reports. Each keeps only its schema-specific
//! writer and validator on top of this module.
//!
//! The parser never panics: malformed input, including nesting deeper
//! than 64 levels (which would otherwise overflow the stack), is an
//! `Err` naming the byte offset.

/// Deepest array/object nesting the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// `s` as a quoted JSON string literal (RFC 8259 escapes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parse a JSON document (strict: one value, no trailing input).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.pos != text.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

/// Cursor over the document. `pos` only ever advances past ASCII bytes
/// or whole characters, so it always sits on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                c as char,
                self.pos,
                self.peek().map(char::from)
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            None => Err("unexpected end of input".to_string()),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.pos += 1;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let c = match self.text.as_bytes().get(self.pos + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let c = self
                                .text
                                .get(self.pos + 2..self.pos + 6)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 2;
                }
                Some(_) => {
                    let c = self.text[self.pos..].chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.comma_or(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            if self.comma_or(b'}')? {
                return Ok(Json::Obj(fields));
            }
        }
    }

    /// After a container element: `,` (more follow) or the closing
    /// bracket (returns `true`).
    fn comma_or(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(true)
            }
            other => Err(format!(
                "expected ',' or {:?} at byte {} (found {:?})",
                close as char,
                self.pos,
                other.map(char::from)
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_round_trips_every_escape() {
        let s = "quote \" slash \\ nl \n cr \r tab \t ctrl \u{1} ünï";
        assert_eq!(parse(&quote(s)), Ok(Json::Str(s.to_string())));
        assert_eq!(quote("a\u{1}"), "\"a\\u0001\"");
    }

    #[test]
    fn parses_nested_documents() {
        let doc = parse(" {\"a\": [1, -2.5e1, true, null, {}], \"b\": {\"c\": \"d\"}} ").unwrap();
        let a = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].as_count(), Some(1));
        assert_eq!(a[1], Json::Num(-25.0));
        assert_eq!(a[1].as_count(), None);
        assert_eq!(a[4], Json::Obj(Vec::new()));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("d"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\" 1}", "{1: 2}", "\"open", "tru", "-", "1 2", "\"\\q\"",
            "\"\\u12\"", "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }
}
