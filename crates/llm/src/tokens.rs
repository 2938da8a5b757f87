//! Approximate token counting.
//!
//! Simulated backends report token usage like a real API would. We use the
//! standard ~4-characters-per-token heuristic, floored by the whitespace
//! word count (a token is never larger than a word plus its punctuation in
//! typical English/code mixes).

/// Estimated token count of `text`: a quarter of its `char`s, rounded up,
/// floored by its `split_whitespace` word count.
pub fn estimate_tokens(text: &str) -> u32 {
    tally(text).tokens()
}

/// The additive half of [`estimate_tokens`]: `char`s and whitespace-separated
/// words. The tallies of the pieces of a text sum to the tally of the whole
/// when every piece but the last ends in whitespace — a newline, say — so a
/// reader that remembers a piece's tally need not count it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    chars: usize,
    words: usize,
}

impl Tally {
    /// The tally of ASCII text of `chars` bytes and `words` words.
    pub(crate) fn ascii(chars: usize, words: usize) -> Tally {
        Tally { chars, words }
    }

    /// The estimate these counts amount to.
    pub fn tokens(self) -> u32 {
        (self.chars as u32).div_ceil(4).max(self.words as u32)
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, piece: Tally) {
        self.chars += piece.chars;
        self.words += piece.words;
    }
}

/// What is left of a sum of tallies once one of its pieces is taken out.
impl std::ops::SubAssign for Tally {
    fn sub_assign(&mut self, piece: Tally) {
        self.chars -= piece.chars;
        self.words -= piece.words;
    }
}

/// Count `text` in one pass over its bytes, because a simulated model counts
/// every 150 KB prompt it is handed.
pub fn tally(text: &str) -> Tally {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x80 * LOW;
    let bytes = text.as_bytes();
    let (mut chars, mut words) = (0usize, 0usize);
    // A word starts at every non-whitespace char that follows whitespace
    // (or the start of the text).
    let mut after_ws = true;
    let mut i = 0;
    while i < bytes.len() {
        // Eight ASCII bytes at a time. With every byte below 0x80 the
        // per-byte sums cannot carry into a neighbour, so bit 7 of each
        // byte of `ws` ends up set exactly where that byte is whitespace.
        if let Some(&chunk) = bytes[i..].first_chunk::<8>() {
            let x = u64::from_le_bytes(chunk);
            if x & HIGH == 0 {
                let space = !((x ^ (0x20 * LOW)) + 0x7F * LOW);
                let tab_to_cr = (x + (0x80 - 0x09) * LOW) & !(x + (0x80 - 0x0E) * LOW);
                let ws = (space | tab_to_cr) & HIGH;
                let preceded = (ws << 8) | (u64::from(after_ws) << 7);
                let starts = (preceded & !ws) >> 7;
                words += (starts.wrapping_mul(LOW) >> 56) as usize;
                chars += 8;
                after_ws = ws >> 63 != 0;
                i += 8;
                continue;
            }
        }
        let b = bytes[i];
        // Continuation bytes belong to the char their lead byte counted.
        if b & 0xC0 != 0x80 {
            let ws = match bytes[i..] {
                [b' ' | 0x09..=0x0D, ..] => true,
                // U+0085, U+00A0
                [0xC2, 0x85 | 0xA0, ..] => true,
                // U+1680
                [0xE1, 0x9A, 0x80, ..] => true,
                // U+2000–U+200A, U+2028, U+2029, U+202F
                [0xE2, 0x80, 0x80..=0x8A | 0xA8 | 0xA9 | 0xAF, ..] => true,
                // U+205F
                [0xE2, 0x81, 0x9F, ..] => true,
                // U+3000
                [0xE3, 0x80, 0x80, ..] => true,
                _ => false,
            };
            chars += 1;
            words += usize::from(after_ws && !ws);
            after_ws = ws;
        }
        i += 1;
    }
    Tally { chars, words }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, as two library passes: what `estimate_tokens` was
    /// before it became one pass over the bytes, and what it must equal.
    fn two_pass_reference(text: &str) -> u32 {
        if text.is_empty() {
            return 0;
        }
        let chars = text.chars().count() as u32;
        let words = text.split_whitespace().count() as u32;
        (chars.div_ceil(4)).max(words)
    }

    /// ASCII the fast path reads eight at a time: `char::is_whitespace`'s
    /// six, the control bytes either side of them, and fillers.
    const ASCII: &[char] = &[
        ' ', '\t', '\n', '\x0b', '\x0c', '\r', '\x08', '\x0e', '\x1c', '\x1f', 'a', 'z', '.',
    ];

    /// Every wide char `char::is_whitespace` accepts (ends of the
    /// U+2000–U+200A run), their nearest non-whitespace neighbours under
    /// the same lead bytes, and fillers of two, three and four bytes.
    const WIDE: &[char] = &[
        '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}', '\u{2005}', '\u{200a}', '\u{2028}', '\u{2029}',
        '\u{202f}', '\u{205f}', '\u{3000}', '\u{84}', '\u{86}', '\u{a1}', '\u{167f}', '\u{1681}',
        '\u{1fff}', '\u{200b}', '\u{2027}', '\u{202a}', '\u{2030}', '\u{205e}', '\u{2060}',
        '\u{3001}', 'é', '—', '😀',
    ];

    #[test]
    fn hand_cases_equal_the_two_pass_reference() {
        for text in [
            "",
            " ",
            "a",
            "a b  c\t\n\x0b\x0cd\r",
            "\u{85}a\u{1680}",
            "é — \u{a0}x\u{2003}y\u{3000}",
            "a\x08b\tc\nd\x0be\x0cf\rg\x0eh i\x1fj\x1ck",
            "eight by eight: the ASCII path, then a tail",
            "sixteen bytes ok\u{2003}then a wide space on the chunk edge",
            "[t=12] Feedback: job 32 cannot be started — requires 256 Nodes",
        ] {
            assert_eq!(estimate_tokens(text), two_pass_reference(text), "{text:?}");
        }
    }

    /// Every scalar value, alone between two letters: pins the whitespace
    /// table to `char::is_whitespace` with nothing sampled.
    #[test]
    fn every_scalar_is_classified_like_char_is_whitespace() {
        let mut text = String::new();
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            text.clear();
            text.extend(['a', c, 'b']);
            let words = if c.is_whitespace() { 2 } else { 1 };
            assert_eq!(estimate_tokens(&text), words, "U+{:04X}", u32::from(c));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn equals_the_two_pass_reference_on_arbitrary_text(text in "\\PC*") {
            prop_assert_eq!(estimate_tokens(&text), two_pass_reference(&text));
        }

        /// Whitespace of every width at every offset of the eight-byte
        /// fast path, which arbitrary text almost never contains. Three
        /// picks in four are ASCII, so eight-byte ASCII runs do occur.
        #[test]
        fn equals_the_two_pass_reference_around_whitespace(
            picks in prop::collection::vec(0usize..4 * WIDE.len(), 0..96)
        ) {
            let text: String = picks
                .iter()
                .map(|&i| WIDE.get(i).copied().unwrap_or(ASCII[i % ASCII.len()]))
                .collect();
            prop_assert_eq!(estimate_tokens(&text), two_pass_reference(&text));
        }

        /// What lets a reader skip lines whose tally it remembers: cut after
        /// any of its newlines, a text tallies to the sum of its pieces.
        #[test]
        fn pieces_cut_at_newlines_tally_to_the_whole(
            lines in prop::collection::vec("\\PC*", 1..9),
            cuts in 0u32..256,
            crlf in 0u32..256,
        ) {
            let mut whole = String::new();
            let mut sum = Tally::default();
            let mut counted = 0;
            for (i, line) in lines.iter().enumerate() {
                whole.push_str(line);
                whole.push_str(if crlf >> i & 1 == 1 { "\r\n" } else { "\n" });
                if cuts >> i & 1 == 1 {
                    sum += tally(&whole[counted..]);
                    counted = whole.len();
                }
            }
            whole.push_str(&lines[0]);
            sum += tally(&whole[counted..]);
            prop_assert_eq!(sum, tally(&whole));
            prop_assert_eq!(sum.tokens(), two_pass_reference(&whole));
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(estimate_tokens(""), 0);
    }

    #[test]
    fn four_chars_per_token_heuristic() {
        // 40 chars of continuous text ≈ 10 tokens.
        let text = "abcdefghijklmnopqrstuvwxyzabcdefghijklmn";
        assert_eq!(estimate_tokens(text), 10);
    }

    #[test]
    fn word_floor_applies() {
        // Many short words: "a b c d" is 7 chars → 2 by chars, but 4 words.
        assert_eq!(estimate_tokens("a b c d"), 4);
    }
}
