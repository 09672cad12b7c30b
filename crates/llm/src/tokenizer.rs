//! A byte-level (7-bit ASCII) tokenizer.
//!
//! The HNLPU's "instruction set" is the token stream (§2.1: prompts replace
//! the binary ISA). This minimal tokenizer closes the text↔token loop for
//! demos and tests: one token per ASCII byte, so it works with any model
//! whose vocabulary is at least 128 entries.

/// Byte-level tokenizer over 7-bit ASCII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsciiTokenizer;

/// Replacement token for non-ASCII input ( `?` ).
pub(crate) const REPLACEMENT: u32 = b'?' as u32;

impl AsciiTokenizer {
    /// The tokenizer.
    pub fn new() -> Self {
        AsciiTokenizer
    }

    /// Encode text: one token per byte; non-ASCII bytes become `?`.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        text.bytes()
            .map(|b| if b < 128 { b as u32 } else { REPLACEMENT })
            .collect()
    }

    /// Decode tokens back to text; out-of-range ids render as `?`,
    /// non-printable control codes as `·`.
    pub fn decode(&self, tokens: &[u32]) -> String {
        tokens
            .iter()
            .map(|&t| match t {
                9 | 10 | 13 => char::from(t as u8),
                32..=126 => char::from(t as u8),
                0..=127 => '·',
                _ => '?',
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trips() {
        let tk = AsciiTokenizer::new();
        let text = "Ask me anything: 2+2?";
        assert_eq!(tk.decode(&tk.encode(text)), text);
    }

    #[test]
    fn non_ascii_becomes_replacement() {
        let tk = AsciiTokenizer::new();
        let toks = tk.encode("héllo");
        assert!(toks.contains(&REPLACEMENT));
        // Every token stays in the 128-entry vocabulary.
        assert!(toks.iter().all(|&t| t < 128));
    }

    #[test]
    fn control_codes_render_visibly() {
        let tk = AsciiTokenizer::new();
        assert_eq!(tk.decode(&[7, 65]), "·A");
        assert_eq!(tk.decode(&[999]), "?");
    }

    #[test]
    fn newlines_survive() {
        let tk = AsciiTokenizer::new();
        assert_eq!(tk.decode(&tk.encode("a\nb\tc")), "a\nb\tc");
    }

    #[test]
    fn fits_the_dataflow_test_model_vocabulary() {
        let tk = AsciiTokenizer::new();
        let vocab = hnlpu_model::zoo::dataflow_test_model().config.vocab_size;
        // The highest code the tokenizer emits has an embedding.
        assert!((tk.encode("\u{7f}")[0] as usize) < vocab);
    }
}
