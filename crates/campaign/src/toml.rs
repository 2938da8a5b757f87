//! A hand-rolled parser for the TOML subset campaign specs (and cell
//! records) use — the build environment has no crates.io access, so
//! this mirrors the SWF parser's discipline: line-based, every error
//! carries a `line N` location.
//!
//! Supported grammar, deliberately small:
//!
//! * `# comment` lines and blank lines;
//! * `[section]` headers (one level; keys inside are reported as
//!   `section.key`);
//! * `key = value` where value is a `"string"`, an integer, a float, or
//!   a single-line array `[v, v, …]` of strings/integers;
//! * trailing `# comments` after a value.
//!
//! No nested tables, no multi-line values, no datetimes, no booleans
//! beyond `true`/`false` — campaign specs do not need them, and every
//! rejected construct fails loudly with its line number.

use crate::error::CampaignError;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float (any numeric with `.`, `e`, `nan`, or `inf`).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A homogeneous single-line array.
    List(Vec<TomlValue>),
}

impl TomlValue {
    /// The string payload, if this is a [`TomlValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a [`TomlValue::Int`].
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            TomlValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload: floats as-is, integers widened.
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            TomlValue::Float(v) => Some(*v),
            TomlValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The list payload, if this is a [`TomlValue::List`].
    pub(crate) fn as_list(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::List(items) => Some(items),
            _ => None,
        }
    }
}

/// A parsed document: `(key, value)` pairs in file order, section keys
/// flattened to `section.key`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TomlTable {
    pairs: Vec<(String, TomlValue)>,
}

impl TomlTable {
    /// Parse a document.
    pub fn parse(text: &str) -> Result<TomlTable, CampaignError> {
        let mut table = TomlTable::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(err(line_no, "unterminated [section] header"));
                };
                let name = name.trim();
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(err(line_no, format!("bad section name `{name}`")));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, rest)) = line.split_once('=') else {
                return Err(err(
                    line_no,
                    "expected `key = value`, `[section]`, or a comment",
                ));
            };
            let key = key.trim();
            if key.is_empty()
                || !key
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(err(line_no, format!("bad key `{key}`")));
            }
            let value = parse_value(rest.trim(), line_no)?;
            let full_key = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            if table.pairs.iter().any(|(k, _)| *k == full_key) {
                return Err(err(line_no, format!("duplicate key `{full_key}`")));
            }
            table.pairs.push((full_key, value));
        }
        Ok(table)
    }

    /// The value stored under `key` (`section.key` for sectioned keys).
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Keys present in the document, in file order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.pairs.iter().map(|(k, _)| k.as_str())
    }
}

fn err(line_no: usize, message: impl Into<String>) -> CampaignError {
    CampaignError::Parse {
        location: format!("line {line_no}"),
        message: message.into(),
    }
}

/// Split a raw value off from a trailing `# comment`. Respects quotes, so
/// `"#1"` survives.
fn strip_trailing_comment(raw: &str) -> &str {
    let mut in_string = false;
    for (i, c) in raw.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return raw[..i].trim_end(),
            _ => {}
        }
    }
    raw
}

fn parse_value(raw: &str, line_no: usize) -> Result<TomlValue, CampaignError> {
    let raw = strip_trailing_comment(raw).trim();
    if raw.is_empty() {
        return Err(err(line_no, "missing value"));
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err(err(line_no, "unterminated array (arrays are single-line)"));
        };
        let mut items = Vec::new();
        for element in split_array_elements(body, line_no)? {
            let value = parse_scalar(&element, line_no)?;
            if matches!(value, TomlValue::List(_)) {
                return Err(err(line_no, "nested arrays are not supported"));
            }
            items.push(value);
        }
        return Ok(TomlValue::List(items));
    }
    parse_scalar(raw, line_no)
}

/// Split an array body on commas outside quotes.
fn split_array_elements(body: &str, line_no: usize) -> Result<Vec<String>, CampaignError> {
    let mut elements = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                elements.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if in_string {
        return Err(err(line_no, "unterminated string in array"));
    }
    let last = current.trim();
    if !last.is_empty() {
        elements.push(last.to_string());
    }
    if elements.iter().any(|e| e.is_empty()) {
        return Err(err(line_no, "empty array element"));
    }
    Ok(elements)
}

fn parse_scalar(raw: &str, line_no: usize) -> Result<TomlValue, CampaignError> {
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(err(line_no, format!("unterminated string `{raw}`")));
        };
        if body.contains('"') {
            return Err(err(line_no, "strings may not contain embedded quotes"));
        }
        return Ok(TomlValue::Str(body.to_string()));
    }
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(v) = raw.parse::<i64>() {
        return Ok(TomlValue::Int(v));
    }
    if let Ok(v) = raw.parse::<f64>() {
        return Ok(TomlValue::Float(v));
    }
    Err(err(
        line_no,
        format!("`{raw}` is not a string, number, boolean, or array"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
# A campaign.
name = "paper_grid"   # trailing comment
jobs = [60, 1000]
policies = ["FCFS", "SJF"]
scale = 2.5
quick = false

[solver]
sa_iteration_cap = 50
"#;

    #[test]
    fn parses_scalars_arrays_and_sections() {
        let t = TomlTable::parse(DOC).expect("parses");
        assert_eq!(t.get("name").unwrap().as_str(), Some("paper_grid"));
        assert_eq!(
            t.get("jobs").unwrap().as_list().unwrap(),
            &[TomlValue::Int(60), TomlValue::Int(1000)]
        );
        assert_eq!(
            t.get("policies").unwrap().as_list().unwrap()[1].as_str(),
            Some("SJF")
        );
        assert_eq!(t.get("scale").unwrap().as_float(), Some(2.5));
        assert_eq!(t.get("quick"), Some(&TomlValue::Bool(false)));
        assert_eq!(t.get("solver.sa_iteration_cap").unwrap().as_int(), Some(50));
        assert!(t.get("sa_iteration_cap").is_none(), "sectioned key only");
    }

    #[test]
    fn hash_inside_a_string_is_not_a_comment() {
        let t = TomlTable::parse("label = \"#1 grid\"").expect("parses");
        assert_eq!(t.get("label").unwrap().as_str(), Some("#1 grid"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, needle) in [
            ("name 3", "expected `key = value`"),
            ("x = ", "missing value"),
            ("x = \"unterminated", "unterminated string"),
            ("x = [1, 2", "unterminated array"),
            ("x = [1, [2]]", "is not a string, number"),
            ("x = what", "not a string, number"),
            ("[bad section", "unterminated [section]"),
            ("x = 1\nx = 2", "duplicate key `x`"),
            ("x = [1, , 2]", "empty array element"),
        ] {
            match TomlTable::parse(text) {
                Err(CampaignError::Parse { location, message }) => {
                    assert!(location.starts_with("line "), "{text}: {location}");
                    assert!(message.contains(needle), "{text}: {message}");
                }
                other => panic!("{text}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_keys_in_different_sections_are_distinct() {
        let t = TomlTable::parse("[a]\nx = 1\n[b]\nx = 2").expect("parses");
        assert_eq!(t.get("a.x").unwrap().as_int(), Some(1));
        assert_eq!(t.get("b.x").unwrap().as_int(), Some(2));
    }

    #[test]
    fn non_finite_floats_parse() {
        let t = TomlTable::parse("x = nan\ny = inf\nz = -inf").expect("parses");
        assert!(t.get("x").unwrap().as_float().unwrap().is_nan());
        assert_eq!(t.get("y").unwrap().as_float(), Some(f64::INFINITY));
        assert_eq!(t.get("z").unwrap().as_float(), Some(f64::NEG_INFINITY));
    }
}
