//! Snippet extraction.
//!
//! The relevance miner treats "the snippets retrieved for the first
//! hundred results" as one big document (§IV-B). A snippet here is a
//! window of tokens centred on the first match position of the query in
//! the document — the same short summary a search engine shows under each
//! result URL.

use crate::postings::DocId;
use crate::Index;

/// Default number of tokens either side of the match.
pub const DEFAULT_CONTEXT_TOKENS: usize = 12;

impl Index {
    /// Extract a snippet of `context` tokens on each side of the token at
    /// `match_pos` in `doc`. Returns an empty string for an empty document.
    pub fn snippet(&self, doc: DocId, match_pos: u32, context: usize) -> String {
        let stored = self.doc(doc);
        if stored.is_empty() {
            return String::new();
        }
        let pos = (match_pos as usize).min(stored.len() - 1);
        let from = pos.saturating_sub(context);
        let to = (pos + context + 1).min(stored.len());
        let start_byte = stored.offsets[from].0 as usize;
        let end_byte = stored.offsets[to - 1].1 as usize;
        stored.text[start_byte..end_byte].to_string()
    }

    /// Run a phrase search and return the top-`k` snippets, one per hit —
    /// the exact resource the relevance miner consumes.
    pub fn phrase_snippets(&self, terms: &[String], k: usize, context: usize) -> Vec<String> {
        self.phrase_search(terms, k)
            .into_iter()
            .map(|hit| self.snippet(hit.doc, hit.first_match, context))
            .collect()
    }
}

/// Free-function convenience wrapper around [`Index::snippet`].
pub fn snippet(index: &Index, doc: DocId, match_pos: u32, context: usize) -> String {
    index.snippet(doc, match_pos, context)
}

#[cfg(test)]
mod tests {
    use crate::IndexBuilder;

    fn terms(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn snippet_centres_on_match() {
        let mut b = IndexBuilder::new();
        let doc = b.add_document("one two three four five six seven eight nine ten");
        let idx = b.build();
        let s = idx.snippet(doc, 4, 1);
        assert_eq!(s, "four five six");
    }

    #[test]
    fn snippet_clamps_at_edges() {
        let mut b = IndexBuilder::new();
        let doc = b.add_document("alpha beta gamma");
        let idx = b.build();
        assert_eq!(idx.snippet(doc, 0, 5), "alpha beta gamma");
        assert_eq!(idx.snippet(doc, 2, 5), "alpha beta gamma");
        // Out-of-range position clamps to the last token.
        assert_eq!(idx.snippet(doc, 99, 0), "gamma");
    }

    #[test]
    fn empty_document_snippet() {
        let mut b = IndexBuilder::new();
        let doc = b.add_document("!!! ...");
        let idx = b.build();
        assert_eq!(idx.snippet(doc, 0, 3), "");
    }

    #[test]
    fn phrase_snippets_contain_phrase() {
        let mut b = IndexBuilder::new();
        b.add_document("the summit on global warming opened today in oslo");
        b.add_document("scientists warn global warming accelerates rapidly");
        b.add_document("unrelated content about sports");
        let idx = b.build();
        let snippets = idx.phrase_snippets(&terms("global warming"), 10, 3);
        assert_eq!(snippets.len(), 2);
        for s in &snippets {
            assert!(s.to_lowercase().contains("global warming"), "snippet: {s}");
        }
    }

    #[test]
    fn phrase_snippets_respect_k() {
        let mut b = IndexBuilder::new();
        for i in 0..20 {
            b.add_document(&format!("doc {i} mentions red car today"));
        }
        let idx = b.build();
        assert_eq!(idx.phrase_snippets(&terms("red car"), 5, 2).len(), 5);
    }
}
