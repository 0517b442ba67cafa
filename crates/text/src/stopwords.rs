//! Stop-word filtering.
//!
//! Stop-words are removed before term vectors are built (§II-B: "The
//! stop-words are removed and the remaining terms' weights are
//! normalized"). The list is the standard English function-word set used
//! by classic IR systems (articles, prepositions, pronouns, auxiliaries),
//! matched case-insensitively on normalized terms.

/// Sorted list of stop-words (lower-case).
const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "also",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Length in bytes of the longest listed word.
const MAX_LEN: usize = 10;

/// A word of at most 15 bytes as one integer: its bytes big-endian from
/// the top, zero-padded, and its length in the low byte. NUL-free words
/// keep their lexicographic order; `"a\0"` and `"a"` differ.
const fn pack(word: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf.split_at_mut(word.len()).0.copy_from_slice(word);
    buf[15] = word.len() as u8;
    u128::from_be_bytes(buf)
}

/// [`STOPWORDS`] packed; the build fails unless every word fits
/// [`MAX_LEN`] and the keys strictly increase.
const PACKED: [u128; STOPWORDS.len()] = {
    let mut out = [0u128; STOPWORDS.len()];
    let mut i = 0;
    while i < out.len() {
        out[i] = pack(STOPWORDS[i].as_bytes());
        assert!(STOPWORDS[i].len() <= MAX_LEN && (i == 0 || out[i - 1] < out[i]));
        i += 1;
    }
    out
};

/// Is `term` (already lower-cased) a stop-word? A binary search over
/// [`PACKED`]: no string comparison.
pub fn is_stopword(term: &str) -> bool {
    term.len() <= MAX_LEN && PACKED.binary_search(&pack(term.as_bytes())).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_unique() {
        for w in STOPWORDS.windows(2) {
            assert!(w[0] < w[1], "{:?} >= {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn common_stopwords_detected() {
        for w in ["the", "and", "of", "a", "is", "with", "to"] {
            assert!(is_stopword(w), "{w} should be a stop-word");
        }
    }

    #[test]
    fn content_words_pass() {
        for w in ["president", "cuba", "global", "warming", "jaguar"] {
            assert!(!is_stopword(w), "{w} should not be a stop-word");
        }
    }

    #[test]
    fn case_sensitivity_contract() {
        // Callers must lower-case first; upper-case input is not matched.
        assert!(!is_stopword("The"));
    }

    /// The packed lookup accepts exactly the listed words: each word, and
    /// none of its prefixes, one-byte extensions, case variants, NUL
    /// variants, non-ASCII look-alikes or over-long strings unless that
    /// string is itself listed.
    #[test]
    fn packed_lookup_is_exactly_the_list() {
        let listed = |s: &str| STOPWORDS.contains(&s);
        let mut probes: Vec<String> = vec![
            String::new(),
            "\0".into(),
            "a\0".into(),
            "\0a".into(),
            "th\0e".into(),
            "thé".into(),
            "ünder".into(),
            "öf".into(),
            "\u{1F600}".into(),
            "themselvess".into(),
            "yourselvesyourselves".into(),
            "x".repeat(MAX_LEN + 1),
            "x".repeat(64),
        ];
        for w in STOPWORDS {
            probes.push(w.to_string());
            probes.push(w.to_uppercase());
            let mut capitalized = w.to_string();
            capitalized[..1].make_ascii_uppercase();
            probes.push(capitalized);
            for end in 0..w.len() {
                probes.push(w[..end].to_string());
            }
            for b in 0u8..128 {
                probes.push(format!("{w}{}", b as char));
            }
            probes.push(format!("{w}é"));
            probes.push(format!("{w}\0"));
        }
        for p in &probes {
            assert_eq!(is_stopword(p), listed(p), "{p:?}");
        }
    }
}
