//! Dependency-free JSON: event serialization and a small value parser.
//!
//! The offline build cannot use serde, and the trace format is simple
//! enough not to need it: every event is one flat JSON object per line.
//! The parser handles the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) — enough to read traces back and to
//! compare golden snapshots.

use crate::event::{span_event_name, CommSnapshot, Event};
use std::fmt::Write as _;

/// Serialize an event as a single-line JSON object (no trailing newline).
pub fn event_to_json(ev: &Event) -> String {
    let mut s = String::with_capacity(160);
    match ev {
        Event::SolveBegin {
            solver,
            system_index,
            nrows,
            nrhs,
            restart,
            recycle,
        } => {
            let _ = write!(
                s,
                "{{\"type\":\"solve_begin\",\"solver\":\"{solver}\",\"system_index\":{system_index},\
                 \"nrows\":{nrows},\"nrhs\":{nrhs},\"restart\":{restart},\"recycle\":{recycle}}}"
            );
        }
        Event::Iteration(it) => {
            let _ = write!(
                s,
                "{{\"type\":\"iteration\",\"solver\":\"{}\",\"system_index\":{},\"cycle\":{},\"iter\":{},\
                 \"per_rhs_residuals\":{},",
                it.solver,
                it.system_index,
                it.cycle,
                it.iter,
                f64_array(&it.per_rhs_residuals),
            );
            push_comm_fields(&mut s, &it.comm, "delta");
            match it.breakdown_rank {
                Some(r) => {
                    let _ = write!(s, ",\"breakdown_rank\":{r}");
                }
                None => s.push_str(",\"breakdown_rank\":null"),
            }
            let _ = write!(s, ",\"wall_ns\":{}}}", it.wall_ns);
        }
        Event::Span(sp) => {
            let _ = write!(
                s,
                "{{\"type\":\"span\",\"solver\":\"{}\",\"system_index\":{},\"kind\":\"{}\",\"cycle\":{},",
                sp.solver,
                sp.system_index,
                span_event_name(sp.kind),
                sp.cycle,
            );
            push_comm_fields(&mut s, &sp.comm, "delta");
            let _ = write!(s, ",\"wall_ns\":{}}}", sp.wall_ns);
        }
        Event::Diag(d) => {
            let _ = write!(
                s,
                "{{\"type\":\"diag\",\"solver\":\"{}\",\"system_index\":{},\"cycle\":{},\"iter\":{},\
                 \"kind\":\"{}\",\"value\":{},\"detail\":{}}}",
                d.solver,
                d.system_index,
                d.cycle,
                d.iter,
                d.kind.name(),
                fmt_f64(d.value),
                d.detail
            );
        }
        Event::SolveEnd(e) => {
            let _ = write!(
                s,
                "{{\"type\":\"solve_end\",\"solver\":\"{}\",\"system_index\":{},\"iterations\":{},\
                 \"converged\":{},\"final_relres\":{},",
                e.solver,
                e.system_index,
                e.iterations,
                e.converged,
                f64_array(&e.final_relres),
            );
            push_comm_fields(&mut s, &e.comm_total, "total");
            let _ = write!(s, ",\"wall_ns\":{}}}", e.wall_ns);
        }
    }
    s
}

/// The seven counters as `"<name>_<suffix>":<value>` fields.
fn push_comm_fields(s: &mut String, c: &CommSnapshot, suffix: &str) {
    let fields = [
        ("reductions", c.reductions),
        ("reduction_bytes", c.reduction_bytes),
        ("fused_parts", c.fused_parts),
        ("p2p", c.p2p_messages),
        ("p2p_bytes", c.p2p_bytes),
        ("flops", c.flops),
        ("overlap_flops", c.overlap_flops),
    ];
    for (i, (name, v)) in fields.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}\"{name}_{suffix}\":{v}");
    }
}

/// Render a float array with enough digits to round-trip `f64`.
pub fn f64_array(v: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", fmt_f64(*x));
    }
    s.push(']');
    s
}

/// One float, JSON-compatible (`NaN`/`inf` become `null` — JSON has no
/// representation for them and traces should stay parseable).
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        // {:?} prints the shortest representation that round-trips.
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Escape `s` into `out` as the *body* of a JSON string (no surrounding
/// quotes): quotes, backslashes, and control characters are encoded, so any
/// Rust string round-trips through [`JsonValue::parse`].
pub fn escape_json_str(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document.
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as usize),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs (source order preserved).
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build an array of numbers.
    pub fn nums<I: IntoIterator<Item = f64>>(it: I) -> JsonValue {
        JsonValue::Arr(it.into_iter().map(JsonValue::Num).collect())
    }

    /// Serialize this value back to JSON text — the single writer every
    /// hand-rolled emitter in the workspace funnels through. Whole numbers
    /// within exact-`f64` range print as integers, everything else uses the
    /// shortest round-tripping float form; non-finite numbers become `null`;
    /// strings are escape-correct via [`escape_json_str`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => {
                const EXACT: f64 = 9.007_199_254_740_992e15; // 2^53
                if x.is_finite() && x.fract() == 0.0 && x.abs() <= EXACT {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{}", fmt_f64(*x));
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                escape_json_str(s, out);
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_str(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> JsonValue {
        JsonValue::Num(x)
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> JsonValue {
        JsonValue::Num(x as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.i
            )),
        }
    }

    fn keyword(&mut self, kw: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(kw.as_bytes()) {
            self.i += kw.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .map(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(false)
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IterationEvent, SolveEndEvent};

    #[test]
    fn iteration_event_round_trips_through_json() {
        let ev = Event::Iteration(IterationEvent {
            solver: "gmres",
            system_index: 2,
            cycle: 1,
            iter: 37,
            per_rhs_residuals: vec![1.5e-3, 0.25],
            comm: CommSnapshot {
                reductions: 3,
                reduction_bytes: 72,
                fused_parts: 6,
                p2p_messages: 14,
                p2p_bytes: 4096,
                flops: 12345,
                overlap_flops: 2345,
            },
            breakdown_rank: Some(1),
            wall_ns: 9876,
        });
        let line = event_to_json(&ev);
        let v = JsonValue::parse(&line).expect("parse back");
        assert_eq!(v.get("type").unwrap().as_str(), Some("iteration"));
        assert_eq!(v.get("solver").unwrap().as_str(), Some("gmres"));
        assert_eq!(v.get("cycle").unwrap().as_usize(), Some(1));
        assert_eq!(v.get("iter").unwrap().as_usize(), Some(37));
        assert_eq!(v.get("reductions_delta").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("fused_parts_delta").unwrap().as_usize(), Some(6));
        assert_eq!(v.get("overlap_flops_delta").unwrap().as_usize(), Some(2345));
        assert_eq!(v.get("p2p_delta").unwrap().as_usize(), Some(14));
        assert_eq!(v.get("breakdown_rank").unwrap().as_usize(), Some(1));
        let res = v.get("per_rhs_residuals").unwrap().as_array().unwrap();
        assert_eq!(res[0].as_f64(), Some(1.5e-3));
        assert_eq!(res[1].as_f64(), Some(0.25));
    }

    #[test]
    fn solve_end_round_trips() {
        let ev = Event::SolveEnd(SolveEndEvent {
            solver: "gcrodr",
            system_index: 1,
            iterations: 42,
            converged: true,
            final_relres: vec![1e-9],
            comm_total: CommSnapshot {
                reductions: 100,
                ..Default::default()
            },
            wall_ns: 1,
        });
        let v = JsonValue::parse(&event_to_json(&ev)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("solve_end"));
        assert_eq!(v.get("converged").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("reductions_total").unwrap().as_usize(), Some(100));
    }

    #[test]
    fn diag_event_round_trips() {
        use crate::event::{DiagEvent, DiagKind};
        let ev = Event::Diag(DiagEvent {
            solver: "gcrodr",
            system_index: 3,
            cycle: 2,
            iter: 17,
            kind: DiagKind::RitzQuality,
            value: 2.5e-4,
            detail: 10,
        });
        let v = JsonValue::parse(&event_to_json(&ev)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("diag"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("ritz-quality"));
        assert_eq!(v.get("cycle").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("iter").unwrap().as_usize(), Some(17));
        assert_eq!(v.get("value").unwrap().as_f64(), Some(2.5e-4));
        assert_eq!(v.get("detail").unwrap().as_usize(), Some(10));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v =
            JsonValue::parse(r#"{"a": [1, -2.5e3, null, true], "s": "x\"\nA", "o": {"k": false}}"#)
                .unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2], JsonValue::Null);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"\nA"));
        assert_eq!(v.get("o").unwrap().get("k").unwrap().as_bool(), Some(false));
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let v = JsonValue::obj(vec![
            ("backend", JsonValue::from("socket")),
            ("count", JsonValue::from(42usize)),
            ("alpha", JsonValue::Num(1.25e-6)),
            ("ok", JsonValue::from(true)),
            ("bad", JsonValue::Num(f64::NAN)),
            ("hist", JsonValue::nums([1.0, 2.0, 0.5])),
            (
                "nested",
                JsonValue::obj(vec![("s", JsonValue::from("a\"b\\c\nd\u{1}"))]),
            ),
        ]);
        let text = v.to_json();
        let back = JsonValue::parse(&text).expect("writer output parses");
        assert_eq!(back.get("backend").unwrap().as_str(), Some("socket"));
        assert_eq!(back.get("count").unwrap().as_usize(), Some(42));
        assert_eq!(back.get("alpha").unwrap().as_f64(), Some(1.25e-6));
        assert_eq!(back.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("bad"), Some(&JsonValue::Null));
        let hist = back.get("hist").unwrap().as_array().unwrap();
        assert_eq!(hist[2].as_f64(), Some(0.5));
        assert_eq!(
            back.get("nested").unwrap().get("s").unwrap().as_str(),
            Some("a\"b\\c\nd\u{1}")
        );
        // Whole numbers print as integers, not "42.0".
        assert!(text.contains("\"count\":42,"));
    }

    #[test]
    fn writer_escapes_keys_and_control_chars() {
        let v = JsonValue::obj(vec![("k\"\n", JsonValue::from("\u{7}"))]);
        let text = v.to_json();
        assert_eq!(text, "{\"k\\\"\\n\":\"\\u0007\"}");
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.get("k\"\n").unwrap().as_str(), Some("\u{7}"));
    }

    #[test]
    fn floats_round_trip_exactly() {
        #[allow(clippy::excessive_precision)] // extra digits exercise shortest-round-trip printing
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }
}
