//! Text-processing substrate for the `ctxrank` workspace.
//!
//! The Contextual Shortcuts platform (Irmak, von Brzeski & Kraft, ICDE 2009,
//! §II) runs a sequence of pre-processing steps over every input document:
//! HTML parsing, tokenization, sentence and paragraph boundary detection.
//! The relevance machinery additionally stems terms with the Porter (1980)
//! algorithm, lower-cases them and strips surrounding punctuation (§IV-B),
//! and the click-data evaluation partitions long documents into overlapping
//! character windows to control position bias (§V-A.1).
//!
//! This crate implements all of those building blocks with no external
//! dependencies:
//!
//! * [`tokenize`](mod@tokenize) — offset-preserving word tokenizer and term normalization,
//! * [`stem`](mod@stem) — a complete Porter stemmer,
//! * [`stopwords`] — the stop-word list used when building term vectors,
//! * [`html`] — a small, forgiving HTML tag/entity stripper,
//! * [`segment`] — sentence and paragraph boundary detection,
//! * [`window`] — overlapping character-window partitioning,
//! * [`intern`](mod@intern) — dense term-id interning,
//! * [`trie`](mod@trie) — id-sequence tries for phrase matching.

pub mod html;
pub mod intern;
pub mod segment;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod trie;
pub mod window;

pub use html::strip_html;
pub use intern::{FnvBuildHasher, FnvHasher, Interner, TermId};
pub use segment::{paragraphs, sentences, Span};
pub use stem::stem;
pub use stopwords::is_stopword;
pub use tokenize::{normalize_term, tokenize, tokenize_terms, Token};
pub use trie::{NodeId, PhraseTrie};
pub use window::{windows, Window};

/// Normalize, stop-filter and stem every token of `text`, returning the
/// processed terms in document order.
///
/// This is the canonical "bag of stemmed terms" used by the relevance miner
/// (§IV-B): lower-cased, punctuation-trimmed, stop-words removed, Porter
/// stemmed.
pub fn stemmed_terms(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter_map(|t| {
            let norm = normalize_term(t.text);
            if norm.is_empty() || is_stopword(&norm) {
                None
            } else {
                Some(stem(&norm))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stemmed_terms_pipeline() {
        let terms = stemmed_terms("The runners were running quickly!");
        assert_eq!(terms, vec!["runner", "run", "quickli"]);
    }

    #[test]
    fn stemmed_terms_empty_input() {
        assert!(stemmed_terms("").is_empty());
        assert!(stemmed_terms("the and of").is_empty());
    }
}
