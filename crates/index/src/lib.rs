//! Inverted-index search engine substrate.
//!
//! The paper leans on Yahoo! Search in four places: the term dictionary
//! with term–document frequencies used to build tf·idf term vectors
//! (§II-B), the number of results returned for a phrase query
//! (`searchengine_phrase`, feature 4 of Table I), the result snippets used
//! to mine relevance keywords (§IV-B), and the ranked document lists that
//! the Prisma-style refinement tool draws pseudo-relevance feedback from.
//!
//! This crate implements that search engine from scratch: a positional
//! inverted index over a document collection, tf·idf ranked retrieval
//! (Salton & Buckley weighting, reference \[6\]), conjunctive and phrase
//! queries with document counts, and match-window snippet extraction.
//!
//! ```
//! use ctxrank_index::IndexBuilder;
//!
//! let mut b = IndexBuilder::new();
//! b.add_document("global warming threatens polar bears");
//! b.add_document("the warming trend continued this year");
//! let index = b.build();
//!
//! assert_eq!(index.doc_freq("warming"), 2);
//! assert_eq!(index.phrase_count(&["global".into(), "warming".into()]), 1);
//! let hits = index.search(&["warming".into(), "polar".into()], 10);
//! assert_eq!(hits[0].doc.0, 0);
//! ```

mod postings;
mod search;
mod snippet;
mod tfidf;

pub use postings::{
    decode_all, decode_block, encode_blocks, read_varint, write_varint, DocId, PostingRef,
    Postings, SkipEntry, BLOCK,
};
pub use search::SearchHit;
pub use snippet::{snippet, DEFAULT_CONTEXT_TOKENS};
pub use tfidf::tf_idf_weight;

use ctxrank_text::{Interner, TermId};

/// A document stored in the index: the raw text plus its token stream.
///
/// Each token is stored once, as an id into the owning index's
/// [`Interner`] plus its byte span: 12 bytes per token. The normalized
/// term is `index.interner().term(id)`; the original spelling is
/// `text[start as usize..end as usize]`.
#[derive(Debug, Clone)]
pub struct StoredDoc {
    /// Raw document text.
    pub text: String,
    /// Interned id of each normalized term, in document order (empty
    /// normalizations dropped).
    pub term_ids: Vec<TermId>,
    /// Byte span `(start, end)` of each term in `text` (parallel to
    /// `term_ids`).
    pub offsets: Vec<(u32, u32)>,
}

impl StoredDoc {
    /// Number of terms in the document.
    pub fn len(&self) -> usize {
        self.term_ids.len()
    }

    /// True when the document has no indexable terms.
    pub fn is_empty(&self) -> bool {
        self.term_ids.is_empty()
    }
}

/// Builder that accumulates documents before freezing them into an
/// [`Index`].
#[derive(Debug, Default)]
pub struct IndexBuilder {
    docs: Vec<StoredDoc>,
    interner: Interner,
}

impl IndexBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenize, normalize, intern and store one document; returns its id.
    ///
    /// Term spans are stored as `u32` byte offsets, so one document may
    /// be at most 4 GiB of text.
    ///
    /// # Panics
    ///
    /// If a term ends past byte `u32::MAX` of `text`.
    pub fn add_document(&mut self, text: &str) -> DocId {
        let id = DocId(self.docs.len() as u32);
        let tokens = ctxrank_text::tokenize(text);
        let mut term_ids = Vec::with_capacity(tokens.len());
        let mut offsets = Vec::with_capacity(tokens.len());
        let to_u32 = |byte: usize| u32::try_from(byte).expect("document exceeds 4 GiB");
        for tok in tokens {
            let norm = ctxrank_text::normalize_term(tok.text);
            if !norm.is_empty() {
                term_ids.push(self.interner.intern(&norm));
                offsets.push((to_u32(tok.start), to_u32(tok.end)));
            }
        }
        // The corpus lives as long as the index: keep no slack past the
        // terms that survived normalization.
        term_ids.shrink_to_fit();
        offsets.shrink_to_fit();
        self.docs.push(StoredDoc {
            text: text.to_string(),
            term_ids,
            offsets,
        });
        id
    }

    /// Freeze the collection into a searchable [`Index`]. Postings are
    /// keyed by dense [`TermId`], one list per vocabulary slot,
    /// block-coded on freeze (delta-varint runs plus skip entries).
    pub fn build(self) -> Index {
        let mut builders: Vec<postings::PostingsBuilder> =
            vec![postings::PostingsBuilder::default(); self.interner.len()];
        for (doc_idx, doc) in self.docs.iter().enumerate() {
            let id = DocId(doc_idx as u32);
            for (pos, term_id) in doc.term_ids.iter().enumerate() {
                builders[term_id.idx()].push(id, pos as u32);
            }
        }
        Index {
            docs: self.docs,
            interner: self.interner,
            postings: builders
                .into_iter()
                .map(postings::PostingsBuilder::freeze)
                .collect(),
        }
    }
}

/// A frozen, searchable document collection.
#[derive(Debug)]
pub struct Index {
    docs: Vec<StoredDoc>,
    /// The collection vocabulary; every indexed term has a dense id.
    interner: Interner,
    /// Postings indexed by [`TermId`] (every interned term occurs in at
    /// least one document, so no slot is empty).
    postings: Vec<Postings>,
}

impl Index {
    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Access a stored document.
    pub fn doc(&self, id: DocId) -> &StoredDoc {
        &self.docs[id.0 as usize]
    }

    /// The collection vocabulary interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The dense id of `term`, if any document contains it.
    #[inline]
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Number of documents containing `term` (document frequency).
    pub fn doc_freq(&self, term: &str) -> usize {
        self.term_id(term).map_or(0, |id| self.doc_freq_id(id))
    }

    /// Document frequency by term id.
    pub fn doc_freq_id(&self, id: TermId) -> usize {
        self.postings[id.idx()].doc_count()
    }

    /// Inverse document frequency, smoothed so unseen terms get the
    /// maximum idf instead of infinity: `ln((N + 1) / (df + 1))`.
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.docs.len() as f64;
        let df = self.doc_freq(term) as f64;
        ((n + 1.0) / (df + 1.0)).ln()
    }

    /// Idf by term id.
    pub fn idf_id(&self, id: TermId) -> f64 {
        let n = self.docs.len() as f64;
        let df = self.doc_freq_id(id) as f64;
        ((n + 1.0) / (df + 1.0)).ln()
    }

    /// Postings list for `term`, if any document contains it.
    pub fn postings(&self, term: &str) -> Option<&Postings> {
        self.term_id(term).map(|id| self.postings_id(id))
    }

    /// Postings list by term id.
    #[inline]
    pub fn postings_id(&self, id: TermId) -> &Postings {
        &self.postings[id.idx()]
    }

    /// Iterate over all indexed terms.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.interner.iter().map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> Index {
        let mut b = IndexBuilder::new();
        b.add_document("global warming threatens the arctic");
        b.add_document("warming oceans and global trade");
        b.add_document("trade talks stall again");
        b.build()
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let mut b = IndexBuilder::new();
        b.add_document("spam spam spam");
        b.add_document("spam once");
        let idx = b.build();
        assert_eq!(idx.doc_freq("spam"), 2);
    }

    #[test]
    fn idf_ordering() {
        let idx = small_index();
        // "arctic" appears once, "global" twice: rarer term has higher idf.
        assert!(idx.idf("arctic") > idx.idf("global"));
        // Unseen term gets the maximum idf.
        assert!(idx.idf("zebra") >= idx.idf("arctic"));
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.doc_freq("x"), 0);
        assert!(idx.search(&["x".into()], 5).is_empty());
    }

    #[test]
    fn stored_doc_offsets_align() {
        let idx = small_index();
        let doc = idx.doc(DocId(0));
        assert_eq!(doc.len(), 5);
        assert_eq!(doc.offsets.len(), doc.len());
        for (&id, &(s, e)) in doc.term_ids.iter().zip(&doc.offsets) {
            let term = idx
                .interner()
                .term(id)
                .expect("doc ids come from the index");
            assert_eq!(doc.text[s as usize..e as usize].to_lowercase(), term);
        }
    }

    #[test]
    fn terms_iterator_covers_vocabulary() {
        let idx = small_index();
        let vocab: Vec<_> = idx.terms().collect();
        assert!(vocab.contains(&"warming"));
        assert!(vocab.contains(&"stall"));
    }
}
