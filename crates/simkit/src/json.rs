//! Byte-stable JSON fragment helpers.
//!
//! The workspace's JSON artifacts (campaign `summary.json`, the telemetry
//! exports) are hand-rendered with a fixed key order so they stay
//! diffable across commits. The two rules every JSON writer must agree on
//! — string escaping and the canonical six-decimal float spelling — live
//! here, once; a change in either would silently shift artifact bytes, so
//! every writer shares this single definition. (A cell's record is not
//! JSON: `rsched_campaign::cache` writes it with exact floats.)

/// JSON-escape a string body (quotes, backslashes, control characters).
/// The common control characters use their short escapes (`\n`, `\r`,
/// `\t`); the rest of C0 uses `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// The canonical fixed-precision float spelling: six decimals for finite
/// values; non-finite values (impossible for our metrics, but never emit
/// invalid JSON) serialize as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo"), "héllo", "non-ASCII passes through");
    }

    #[test]
    fn num_is_six_decimals_or_null() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(0.0), "0.000000");
        assert_eq!(num(-12.3456789), "-12.345679");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
