//! A hand-rolled JSON value type: serializer and parser, zero deps.
//!
//! The workspace policy is zero external dependencies (see `DESIGN.md`
//! §5), so every machine-readable artifact — the `BENCH_*.json` baselines,
//! bench history archives and the layer-ledger traces — is produced and
//! consumed by this ~300-line module instead of `serde`. It lives in
//! `ipt-core`, the one crate every writer already depends on. Scope is
//! exactly what those artifacts need:
//!
//! * **Stable output** — objects are ordered `Vec`s of key/value pairs,
//!   so serialization preserves insertion order and identical reports
//!   serialize to identical bytes (diffs stay reviewable, and the
//!   round-trip tests can compare strings).
//! * **Round-trip numbers** — numbers are `f64`, written with Rust's
//!   shortest-round-trip formatting (integers without a decimal point),
//!   so `parse(render(x)) == x` for every value the harness emits.
//! * **Full parser** — the `compare` mode reads files that may have been
//!   hand-edited, so the parser handles the complete JSON grammar
//!   (escapes, `\uXXXX`, nested containers, whitespace) and reports
//!   errors with byte offsets.

use std::fmt::Write as _;

/// A JSON document: the usual six variants.
///
/// Object keys keep their insertion order (no map type), which makes
/// serialization deterministic — the property the baseline-diffing
/// workflow depends on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as an integer, if whole and exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline —
    /// the format every `BENCH_*.json` at the repo root uses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Serialize like [`Json::render`], but *fail* if the document holds
    /// a non-finite number instead of degrading it to `null`.
    ///
    /// A NaN/±inf statistic (e.g. a throughput computed from a
    /// zero-duration sample) would otherwise round-trip as `Json::Null`
    /// and only surface much later, as a confusing schema error when the
    /// report is re-loaded. Writers that persist documents for later
    /// parsing (the bench reports and history archives) use this
    /// checked form; the error names the path of the offending value.
    pub fn render_checked(&self) -> Result<String, String> {
        self.check_finite("$")?;
        Ok(self.render())
    }

    fn check_finite(&self, path: &str) -> Result<(), String> {
        match self {
            Json::Num(x) if !x.is_finite() => Err(format!(
                "non-finite number ({x}) at {path} has no JSON encoding"
            )),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .try_for_each(|(i, v)| v.check_finite(&format!("{path}[{i}]"))),
            Json::Obj(pairs) => pairs
                .iter()
                .try_for_each(|(k, v)| v.check_finite(&format!("{path}.{k}"))),
            _ => Ok(()),
        }
    }

    /// Parse a JSON document. The entire input must be consumed (trailing
    /// whitespace allowed). Errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Shortest-round-trip number formatting; whole numbers print as
/// integers. Non-finite values have no JSON encoding, so the infallible
/// display path degrades them to `null`; use [`Json::render_checked`]
/// when the document is persisted for later parsing, so the corruption
/// errors at write time instead of at some later load.
fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
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
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
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
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
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
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are out of scope for the values
                        // the harness writes; map lone surrogates to the
                        // replacement character instead of failing.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one whole UTF-8 character.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_key_order_and_exact_rendering() {
        let doc = Json::obj(vec![
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Num(2.5)),
            ("list", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let expected =
            "{\n  \"zeta\": 1,\n  \"alpha\": 2.5,\n  \"list\": [\n    true,\n    null\n  ]\n}\n";
        assert_eq!(doc.render(), expected);
        // Insertion order survives a render → parse → render cycle.
        assert_eq!(Json::parse(expected).unwrap().render(), expected);
    }

    #[test]
    fn round_trips_numbers_exactly() {
        for x in [
            0.0,
            1.0,
            -7.0,
            0.1,
            1e-9,
            123456789.25,
            9.007199254740992e15, // 2^53
            1.7976931348623157e308,
            -2.2250738585072014e-308,
        ] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{rendered}");
        }
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        let ugly = "quote\" backslash\\ newline\n tab\t unicode\u{263a} ctrl\u{1}";
        let rendered = Json::Str(ugly.to_string()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str().unwrap(), ugly);
    }

    #[test]
    fn parses_standard_documents() {
        let doc = Json::parse(r#" { "a": [1, 2.5, -3e2], "b": {"nested": false}, "c": "xAy" } "#)
            .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("nested"),
            Some(&Json::Bool(false))
        );
        assert_eq!(
            doc.get("b").unwrap().get("nested").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(doc.get("c").unwrap().as_bool(), None);
        assert_eq!(doc.get("c").unwrap().as_str(), Some("xAy"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\": @}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integer_accessor_guards_range_and_fraction() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(42.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
    }

    #[test]
    fn integer_accessor_at_the_2_pow_53_boundary() {
        let exact = 2f64.powi(53); // largest f64 where every integer below is exact
        assert_eq!(Json::Num(exact).as_u64(), Some(9_007_199_254_740_992));
        assert_eq!(Json::Num(exact - 1.0).as_u64(), Some(9_007_199_254_740_991));
        // The next representable f64 above 2^53 is 2^53 + 2: past the
        // boundary, integers are no longer uniquely representable, so the
        // accessor refuses rather than silently round.
        assert_eq!(Json::Num(exact + 2.0).as_u64(), None);
        // Round-trip through text stays exact right up to the boundary.
        for x in [exact, exact - 1.0] {
            let back = Json::parse(&Json::Num(x).render()).unwrap();
            assert_eq!(back.as_u64(), Some(x as u64));
        }
    }

    #[test]
    fn checked_render_rejects_non_finite_numbers_with_a_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj(vec![(
                "entries",
                Json::Arr(vec![Json::obj(vec![("median_gbps", Json::Num(bad))])]),
            )]);
            let err = doc.render_checked().unwrap_err();
            assert!(
                err.contains("$.entries[0].median_gbps"),
                "error should locate the value: {err}"
            );
            // The infallible path still renders (as null) for display use.
            assert!(doc.render().contains("null"));
        }
    }

    #[test]
    fn checked_render_matches_render_for_finite_documents() {
        let doc = Json::obj(vec![
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Num(2f64.powi(53)), Json::Null])),
        ]);
        assert_eq!(doc.render_checked().unwrap(), doc.render());
    }
}
