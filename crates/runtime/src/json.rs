//! The workspace's one JSON model: the value every report, response and
//! schedule file is built as, its two renderers, and the one parser.
//!
//! It lives in `runtime` because this is the lowest crate that writes a
//! document (`systolic-metrics-v1`, `systolic-opt-v1`, the trace);
//! `interp`, `sim`, `service` and the CLI sit above it and compose their
//! documents out of the values the plan types here hand them, so a
//! report is valid JSON by construction and a string is escaped in
//! exactly one place. The parser is also the first code hostile request
//! bytes reach (`POST /v1/run`), so it is linear in the input and bounds
//! its own recursion.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Our own documents
/// nest at most six deep; the cap is what keeps a body of `[[[[…` from
/// overflowing the small stacks of the service's connection threads.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers are `i64`: every quantity we write (rounds,
/// channel ids, seeds, counters) fits, and refusing floats keeps the
/// round-trip exact. Objects keep their members in insertion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible to values.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Append a member to an object — how a document gains a section.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("member \"{key}\" pushed into non-object {other}"),
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The file layout of every report: the root object's members one
    /// per line, the elements of a root-level array one per line below
    /// their key, everything deeper on its element's line; a trailing
    /// newline.
    pub fn pretty(&self) -> String {
        let Json::Obj(fields) = self else {
            return format!("{self:#}\n");
        };
        let mut out = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str(if i > 0 { ",\n  " } else { "\n  " });
            write_str(k, &mut out);
            out.push_str(": ");
            match v {
                Json::Arr(xs) if !xs.is_empty() => {
                    out.push('[');
                    for (j, x) in xs.iter().enumerate() {
                        out.push_str(if j > 0 { ",\n    " } else { "\n    " });
                        x.write(&mut out, true);
                    }
                    out.push_str("\n  ]");
                }
                v => v.write(&mut out, true),
            }
        }
        out.push_str(if fields.is_empty() { "}\n" } else { "\n}\n" });
        out
    }

    /// One line; `spaced` puts a blank after every `:` and `,`.
    fn write(&self, out: &mut String, spaced: bool) {
        let (comma, colon) = if spaced { (", ", ": ") } else { (",", ":") };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    x.write(out, spaced);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(k, out);
                    out.push_str(colon);
                    v.write(out, spaced);
                }
                out.push('}');
            }
        }
    }
}

/// A quoted, escaped string literal — the only escaper in the workspace.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One-line serialization: `{}` is compact (no insignificant
/// whitespace, what goes over the wire), `{:#}` is the spaced form
/// [`Json::pretty`] uses within a line. `to_string()` comes with it.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate());
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n)
    }
}

/// Counters and ids; a `u64` past `i64::MAX` (a seed) wraps, and reads
/// back through `as u64`.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as i64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as i64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Parse a JSON document. Errors carry the byte offset where parsing
/// stopped making sense. Linear in `src`; nesting past [`MAX_DEPTH`] is
/// an error, not a stack overflow.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != Some(ch) {
            return Err(format!("expected '{}' at byte {}", ch as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// `depth` counts the arrays and objects already open around this
    /// value.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        let c = self.peek().ok_or("unexpected end of input")?;
        if matches!(c, b'{' | b'[') && depth >= MAX_DEPTH {
            let at = self.pos;
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        }
        match c {
            b'{' => Ok(Json::Obj(self.items(b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                Ok((key, p.value(depth + 1)?))
            })?)),
            b'[' => Ok(Json::Arr(self.items(b']', |p| p.value(depth + 1))?)),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            b'-' | b'0'..=b'9' => self.num(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    /// The body of an array or object: from its opening bracket through
    /// `close`, one `item` between commas.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    let (close, at) = (close as char, self.pos);
                    return Err(format!("expected ',' or '{close}' at byte {at}"));
                }
            }
        }
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if !self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(format!("malformed literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(value)
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!("floats are not part of any schema (byte {start})"));
        }
        self.src[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("malformed number at byte {start}"))
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.src.as_bytes().get(self.pos..self.pos + 4);
        let digits = digits.filter(|h| h.iter().all(u8::is_ascii_hexdigit));
        let digits = digits.ok_or_else(|| format!("malformed \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(digits
            .iter()
            .fold(0, |n, &d| n * 16 + (d as char).to_digit(16).unwrap_or(0)))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece;
            // both are ASCII, so the cut is on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            let stop = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            if stop == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let mut code = self.hex4()?;
                    // A high surrogate followed by an escaped low one is
                    // one scalar; a lone surrogate is U+FFFD.
                    if (0xd800..0xdc00).contains(&code) && self.src[self.pos..].starts_with("\\u") {
                        let at = self.pos;
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xdc00..0xe000).contains(&low) {
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        } else {
                            self.pos = at;
                        }
                    }
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                c => return Err(format!("unknown escape '\\{}'", c as char)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_whitespace_escapes_and_negatives() {
        let parsed = parse(" { \"a\\n\\\"b\" : [ -7 ,\n true , null ] } ").unwrap();
        assert_eq!(
            parsed,
            Json::obj([(
                "a\n\"b",
                Json::Arr(vec![Json::Num(-7), true.into(), Json::Null])
            )])
        );
    }

    #[test]
    fn rejects_floats_truncation_and_trailing_junk() {
        assert!(parse("1.5").unwrap_err().contains("floats"));
        assert!(parse("[1,").is_err());
        assert!(parse("{} x").unwrap_err().contains("trailing"));
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"dangling\\").is_err());
        assert!(parse("\"\\u+123\"").unwrap_err().contains("\\u escape"));
        assert!(parse("-").unwrap_err().contains("number"));
    }

    #[test]
    fn accessors_select_by_shape() {
        let doc = parse("{\"k\":3,\"s\":\"v\",\"a\":[1],\"b\":false}").unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_i64), Some(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert!(doc.get("missing").is_none());
    }

    /// The cap is on open containers: 64 deep parses, 65 is an error
    /// that names the byte, and a hostile body of nothing but `[` costs
    /// 65 frames however long it is.
    #[test]
    fn nesting_is_capped_not_recursed_without_bound() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 64 at byte 64"
        );
        let e = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(e, "nesting deeper than 64 at byte 64");
        let objs = "{\"k\":".repeat(100_000);
        assert!(parse(&objs)
            .unwrap_err()
            .starts_with("nesting deeper than 64"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        // A lone half, or a high half before an ordinary escape, is
        // U+FFFD and the next escape still stands.
        assert_eq!(parse(r#""\ud83d""#).unwrap(), Json::Str("\u{fffd}".into()));
        assert_eq!(
            parse(r#""\ud83d\u0041\ude00""#).unwrap(),
            Json::Str("\u{fffd}A\u{fffd}".into())
        );
    }

    #[test]
    fn pretty_puts_root_members_and_root_array_elements_one_per_line() {
        let doc = Json::obj([
            ("schema", "s-v1".into()),
            ("n", 3u64.into()),
            (
                "deep",
                Json::obj([("a", Json::arr([1u64, 2])), ("b", Json::Null)]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::arr([0u64, 5]), Json::obj([("k", "v".into())])]),
            ),
            ("none", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"schema\": \"s-v1\",\n  \"n\": 3,\n  \"deep\": {\"a\": [1, 2], \"b\": null},\n  \
             \"rows\": [\n    [0, 5],\n    {\"k\": \"v\"}\n  ],\n  \"none\": []\n}\n"
        );
        assert_eq!(Json::obj::<&str>([]).pretty(), "{}\n");
        assert_eq!(Json::arr([1u64, 2]).pretty(), "[1, 2]\n");
        assert_eq!(
            doc.get("deep").unwrap().to_string(),
            r#"{"a":[1,2],"b":null}"#
        );
    }

    /// A tree grown from a tape of random draws: every value kind, keys
    /// and strings over an alphabet of the characters that need care.
    fn tree(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
        const ALPHABET: [char; 12] = [
            'a', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '\u{ffff}', '😀', '𝄞',
        ];
        let text = |tape: &mut dyn Iterator<Item = u64>| -> String {
            let len = tape.next().unwrap_or(0) % 6;
            (0..len)
                .map(|_| ALPHABET[(tape.next().unwrap_or(0) % 12) as usize])
                .collect()
        };
        let kind = tape.next().unwrap_or(0) % if depth < 4 { 6 } else { 4 };
        let len = tape.next().unwrap_or(0) % 4;
        match kind {
            0 => Json::Null,
            1 => Json::Bool(len < 2),
            2 => Json::Num(tape.next().unwrap_or(0) as i64),
            3 => Json::Str(text(tape)),
            4 => Json::Arr((0..len).map(|_| tree(tape, depth + 1)).collect()),
            _ => Json::Obj(
                (0..len)
                    .map(|_| (text(tape), tree(tape, depth + 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #[test]
        fn both_renderers_round_trip_through_the_parser(
            tape in proptest::collection::vec(0u64..u64::MAX, 1..200)
        ) {
            let v = tree(&mut tape.into_iter(), 0);
            for text in [v.to_string(), v.pretty(), format!("{v:#}")] {
                prop_assert_eq!(parse(&text), Ok(v.clone()), "{}", text);
            }
        }
    }
}
