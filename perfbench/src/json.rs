//! The one-line JSON result the benchmark prints last, and a small parser
//! that reads it back (used by the tests to check what is printed).

#[cfg(test)]
use std::collections::BTreeMap;

/// One printed metric: a finite value and its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: correctness, op accounting and the metrics by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Renders the result as one JSON object on one line. Values print with
    /// Rust's shortest round-trip formatting; a non-finite value (which JSON
    /// cannot carry) is printed as 0 and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn number(value: f64) -> String {
    // `{:?}` keeps a trailing `.0` on integral values, so every value reads
    // back as a float; exponents are valid JSON as printed.
    format!("{value:?}")
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (the subset the result line uses).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Number(f64),
    Text(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

#[cfg(test)]
impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON value made of objects, arrays, strings, numbers and
/// booleans.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.at));
    }
    Ok(value)
}

#[cfg(test)]
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.text().map(Value::Text),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_space();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_space();
            let key = self.text()?;
            self.expect(b':')?;
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            self.skip_space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_space();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn text(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.at + 1).ok_or("dangling escape")?;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'u' => {
                            let hex = self.bytes.get(self.at + 2..self.at + 6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                                .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.at += 4;
                        }
                        other => return Err(format!("unsupported escape \\{}", *other as char)),
                    }
                    self.at += 2;
                }
                Some(_) => {
                    let start = self.at;
                    while self.at < self.bytes.len() && !matches!(self.bytes[self.at], b'"' | b'\\') {
                        self.at += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?);
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn boolean(&mut self) -> Result<Value, String> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.bytes[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(Value::Bool(value));
            }
        }
        Err(format!("invalid literal at byte {}", self.at))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self.at < self.bytes.len()
            && matches!(self.bytes[self.at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "verdicts_per_s".into(),
                    value: 12_345.678_901_234,
                    unit: "1/s",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.081_234_567_8,
                    unit: "s",
                },
                Metric {
                    name: "core.signature_entries".into(),
                    value: 31.0,
                    unit: "count",
                },
                Metric {
                    name: "tiny".into(),
                    value: 1.5e-9,
                    unit: "s",
                },
            ],
        }
    }

    #[test]
    fn printed_metrics_parse_back_with_every_digit() {
        let result = sample();
        let line = result.to_json();
        assert!(!line.contains('\n'));
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Value::as_f64), Some(1234.0));
        assert_eq!(parsed.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = parsed.get("metrics").unwrap();
        for metric in &result.metrics {
            let entry = metrics.get(&metric.name).unwrap();
            assert_eq!(entry.get("value").and_then(Value::as_f64), Some(metric.value));
            assert_eq!(entry.get("unit"), Some(&Value::Text(metric.unit.to_string())));
        }
        let Value::Object(top) = parsed else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().cloned().collect::<Vec<_>>(),
            vec!["attempted", "correct", "failed", "metrics"]
        );
    }

    #[test]
    fn non_finite_values_mark_the_run_incorrect() {
        let mut result = sample();
        result.metrics[0].value = f64::NAN;
        let parsed = parse(&result.to_json()).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{\"a\": 1} tail").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
        assert_eq!(
            parse("{\"q\": \"say \\\"hi\\\"\"}").unwrap().get("q"),
            Some(&Value::Text("say \"hi\"".into()))
        );
    }
}
