//! The Prisma query-refinement tool.
//!
//! Prisma (Anick, SIGIR 2003 — reference \[19\]) "assists users to augment
//! or replace their queries by providing feedback terms ... generated
//! using a pseudo-relevance feedback approach by considering the top 50
//! documents in a large collection, based on factors such as count and
//! position of the terms in the documents, document rank, occurrence of
//! query terms within the input phrase" (§IV-B). It returns at most twenty
//! feedback terms per query.

use ctxrank_index::{DocId, Index};
use ctxrank_text::TermId;

/// Number of top-ranked documents considered, as in the paper.
pub const PRISMA_TOP_DOCS: usize = 50;
/// Maximum feedback terms returned, as in the paper.
pub const PRISMA_MAX_TERMS: usize = 20;

/// A Prisma-style pseudo-relevance-feedback engine over a document
/// [`Index`].
///
/// Construction pre-computes per-document `(term id, tf, first position)`
/// stats and per-vocabulary stop-word flags once, so scoring a feedback
/// pool touches no strings and re-counts no documents — the same corpus
/// is probed for every mined surface.
#[derive(Debug)]
pub struct Prisma<'a> {
    index: &'a Index,
    /// Rounds of query expansion beyond the initial retrieval. Classic
    /// multi-round pseudo feedback drifts toward the broad topic of the
    /// initial results — the characteristic weakness that makes Prisma
    /// the poorest relevance-mining resource in the paper (Table IV).
    pub expansion_rounds: usize,
    /// Stop-word flag per vocabulary term, indexed by [`TermId`].
    stop: Vec<bool>,
    /// Per document: `(term, tf, first_pos)` in first-occurrence order.
    doc_stats: Vec<Vec<(TermId, u32, u32)>>,
}

impl<'a> Prisma<'a> {
    /// Wrap an index (one expansion round, as the production tool's
    /// behaviour suggests).
    pub fn new(index: &'a Index) -> Self {
        let vocab = index.interner().len();
        let mut stop = vec![false; vocab];
        for (id, term) in index.interner().iter() {
            stop[id.idx()] = ctxrank_text::is_stopword(term);
        }
        // One pass per document with a vocabulary-sized scratch table
        // (reset via the touched list, not a full sweep).
        let mut slot: Vec<u32> = vec![u32::MAX; vocab];
        let mut doc_stats = Vec::with_capacity(index.num_docs());
        for d in 0..index.num_docs() {
            let doc = index.doc(DocId(d as u32));
            let mut stats: Vec<(TermId, u32, u32)> = Vec::new();
            for (pos, &tid) in doc.term_ids.iter().enumerate() {
                let s = slot[tid.idx()];
                if s == u32::MAX {
                    slot[tid.idx()] = stats.len() as u32;
                    stats.push((tid, 1, pos as u32));
                } else {
                    stats[s as usize].1 += 1;
                }
            }
            for &(tid, _, _) in &stats {
                slot[tid.idx()] = u32::MAX;
            }
            doc_stats.push(stats);
        }
        Self {
            index,
            expansion_rounds: 1,
            stop,
            doc_stats,
        }
    }

    /// Resolve query terms against the index vocabulary (terms outside
    /// the vocabulary cannot occur in any document).
    fn query_ids(&self, query_terms: &[String]) -> Vec<TermId> {
        query_terms
            .iter()
            .filter_map(|t| self.index.term_id(t))
            .collect()
    }

    /// Feedback terms for `query_terms`: at most `max_terms` terms scored
    /// over the top `top_docs` ranked results.
    ///
    /// Per-document term score = `tf · rank_discount · position_boost`,
    /// summed over documents and multiplied by the term's idf. Query
    /// terms themselves and stop-words are excluded.
    pub fn feedback_terms(
        &self,
        query_terms: &[String],
        top_docs: usize,
        max_terms: usize,
    ) -> Vec<(String, f64)> {
        // Initial retrieval plus pseudo-feedback expansion rounds: the
        // top terms of each round are re-issued as a query and the newly
        // retrieved documents join the feedback pool.
        let query_ids = self.query_ids(query_terms);
        // Vocabulary-sized scratch shared by every accumulation of this
        // call; `accumulate` leaves it all-empty again.
        let mut slot: Vec<u32> = vec![u32::MAX; self.stop.len()];
        let mut hits = self
            .index
            .search(query_terms, top_docs / (1 + self.expansion_rounds));
        for _ in 0..self.expansion_rounds {
            // Drift mechanism: expansion picks the most *frequent* terms
            // of the current pool (tf, no idf) — the classic PRF failure
            // mode of chasing common vocabulary.
            let tf = self.accumulate(
                &mut slot,
                &query_ids,
                hits.iter()
                    .flat_map(|hit| &self.doc_stats[hit.doc.0 as usize])
                    .map(|&(tid, n, _)| (tid, n as usize)),
            );
            let mut by_tf: Vec<(&str, usize)> =
                tf.into_iter().map(|(tid, n)| (self.term(tid), n)).collect();
            by_tf.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let expansion: Vec<String> = by_tf.iter().take(5).map(|(t, _)| t.to_string()).collect();
            if expansion.is_empty() {
                break;
            }
            let mut more = self
                .index
                .search(&expansion, top_docs / (1 + self.expansion_rounds));
            more.retain(|m| hits.iter().all(|h| h.doc != m.doc));
            // The tool cannot tell drifted results from on-query ones:
            // both pools interleave in its final ranking.
            let mut merged = Vec::with_capacity(hits.len() + more.len());
            let mut a = hits.into_iter();
            let mut b = more.into_iter();
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break,
                    (x, y) => {
                        merged.extend(x);
                        merged.extend(y);
                    }
                }
            }
            hits = merged;
            hits.truncate(top_docs);
        }
        self.score_docs(&mut slot, &hits, &query_ids, max_terms)
    }

    /// PRF scoring of one document pool, entirely in id space; only the
    /// returned terms become `String`s.
    fn score_docs(
        &self,
        slot: &mut [u32],
        hits: &[ctxrank_index::SearchHit],
        query_ids: &[TermId],
        max_terms: usize,
    ) -> Vec<(String, f64)> {
        let contributions = hits.iter().enumerate().flat_map(|(rank, hit)| {
            let rank_discount = 1.0 / (1.0 + (rank as f64)).ln_1p();
            let n = self.index.doc(hit.doc).len().max(1) as f64;
            self.doc_stats[hit.doc.0 as usize]
                .iter()
                .map(move |&(tid, tf, first_pos)| {
                    // Terms appearing earlier in the document count more.
                    let position_boost = 1.0 + (1.0 - first_pos as f64 / n);
                    (tid, tf as f64 * rank_discount * position_boost)
                })
        });
        let scores = self.accumulate(slot, query_ids, contributions);

        // Anick's selection factors are count, position and document
        // rank — frequency-driven, with no idf damping (§IV-B). This is
        // the second reason the resource drifts toward everyday
        // vocabulary.
        let mut ranked: Vec<(&str, f64)> = scores
            .into_iter()
            .map(|(tid, s)| (self.term(tid), s))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        });
        ranked
            .into_iter()
            .take(max_terms)
            .map(|(term, s)| (term.to_string(), s))
            .collect()
    }

    /// Sum `(term, value)` contributions per term, skipping stop-words
    /// and query terms, in first-contribution order. Sums are taken in
    /// contribution order, as a per-term map would take them. `slot` is
    /// a vocabulary-sized scratch that is all `u32::MAX` on entry and is
    /// left that way.
    fn accumulate<V: std::ops::AddAssign>(
        &self,
        slot: &mut [u32],
        query_ids: &[TermId],
        contributions: impl Iterator<Item = (TermId, V)>,
    ) -> Vec<(TermId, V)> {
        let mut out: Vec<(TermId, V)> = Vec::new();
        for (tid, v) in contributions {
            if self.stop[tid.idx()] || query_ids.contains(&tid) {
                continue;
            }
            match slot[tid.idx()] {
                u32::MAX => {
                    slot[tid.idx()] = out.len() as u32;
                    out.push((tid, v));
                }
                s => out[s as usize].1 += v,
            }
        }
        for &(tid, _) in &out {
            slot[tid.idx()] = u32::MAX;
        }
        out
    }

    /// The vocabulary term behind an id from `doc_stats`.
    fn term(&self, tid: TermId) -> &str {
        self.index
            .interner()
            .term(tid)
            .expect("doc stats use index ids")
    }

    /// The paper's defaults: top 50 documents, at most 20 feedback terms.
    pub fn paper_feedback(&self, query_terms: &[String]) -> Vec<(String, f64)> {
        self.feedback_terms(query_terms, PRISMA_TOP_DOCS, PRISMA_MAX_TERMS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_index::IndexBuilder;

    fn t(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn corpus() -> Index {
        let mut b = IndexBuilder::new();
        b.add_document("hurricane katrina devastated new orleans levees flooding");
        b.add_document("hurricane season brings flooding and levee failures");
        b.add_document("new orleans rebuilt levees after hurricane katrina flooding");
        b.add_document("stock market rallies on tech earnings");
        b.add_document("tech startup raises funding round");
        b.build()
    }

    #[test]
    fn feedback_terms_topical() {
        let idx = corpus();
        let prisma = Prisma::new(&idx);
        let fb = prisma.feedback_terms(&t("hurricane"), 50, 20);
        let terms: Vec<&str> = fb.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            terms.contains(&"levees") || terms.contains(&"flooding"),
            "{terms:?}"
        );
        // Off-topic vocabulary must not surface.
        assert!(!terms.contains(&"earnings"));
    }

    #[test]
    fn query_terms_excluded() {
        let idx = corpus();
        let prisma = Prisma::new(&idx);
        let fb = prisma.feedback_terms(&t("hurricane katrina"), 50, 20);
        assert!(fb.iter().all(|(t, _)| t != "hurricane" && t != "katrina"));
    }

    #[test]
    fn stopwords_excluded() {
        let idx = corpus();
        let prisma = Prisma::new(&idx);
        let fb = prisma.feedback_terms(&t("hurricane"), 50, 20);
        assert!(fb.iter().all(|(t, _)| !ctxrank_text::is_stopword(t)));
    }

    #[test]
    fn max_terms_respected() {
        let idx = corpus();
        let prisma = Prisma::new(&idx);
        assert!(prisma.feedback_terms(&t("hurricane"), 50, 3).len() <= 3);
        assert_eq!(PRISMA_MAX_TERMS, 20);
        assert_eq!(PRISMA_TOP_DOCS, 50);
    }

    #[test]
    fn scores_sorted_descending() {
        let idx = corpus();
        let prisma = Prisma::new(&idx);
        let fb = prisma.paper_feedback(&t("hurricane"));
        for w in fb.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn unknown_query_no_feedback() {
        let idx = corpus();
        let prisma = Prisma::new(&idx);
        assert!(prisma.paper_feedback(&t("zzz")).is_empty());
    }
}
