//! Ranked retrieval, conjunctive queries and phrase queries.

use crate::postings::{DocId, Postings};
use crate::tfidf::tf_idf_weight;
use crate::Index;

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub doc: DocId,
    /// tf·idf relevance score (higher is better).
    pub score: f64,
    /// Token position of the first query-term match in the document —
    /// used for snippet extraction.
    pub first_match: u32,
}

/// In-place sorted intersection of `docs` with a block-coded postings
/// list. Both sides are ascending; the cursor gallops block-to-block
/// over the skip table and then inside the decoded block (doubling
/// probes followed by a binary search over the bracketed range), so
/// runtime is `O(n log(m/n))` when the list is much longer than `docs`
/// — whole blocks that bracket no candidate are never decoded — and
/// degrades gracefully to a linear merge when the lists are similar in
/// length.
fn intersect_galloping(docs: &mut Vec<DocId>, list: &Postings) {
    let mut cur = list.cursor();
    let mut keep = 0usize;
    for i in 0..docs.len() {
        let d = docs[i];
        match cur.seek(d) {
            Some(r) if r.doc == d => {
                docs[keep] = d;
                keep += 1;
            }
            Some(_) => {}
            None => break,
        }
    }
    docs.truncate(keep);
}

/// Hit ordering: score descending, ties broken by document id for
/// determinism.
fn hit_order(a: &SearchHit, b: &SearchHit) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.doc.cmp(&b.doc))
}

/// Keep the best `k` hits, sorted. Uses quickselect to avoid sorting the
/// full accumulator when only a small prefix is wanted.
fn top_k(mut hits: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    if k == 0 {
        return Vec::new();
    }
    if hits.len() > k {
        hits.select_nth_unstable_by(k - 1, hit_order);
        hits.truncate(k);
    }
    hits.sort_by(hit_order);
    hits
}

impl Index {
    /// Disjunctive ("regular") tf·idf search: documents matching any query
    /// term, ranked by summed tf·idf, top `k` returned. Ties are broken by
    /// document id for determinism.
    pub fn search(&self, terms: &[String], k: usize) -> Vec<SearchHit> {
        // Dense per-document accumulator: postings carry dense doc ids,
        // so scoring indexes a flat array instead of hashing each hit.
        let mut acc: Vec<(f64, u32)> = vec![(0.0, u32::MAX); self.num_docs()];
        let mut seen: Vec<bool> = vec![false; self.num_docs()];
        let mut touched: Vec<DocId> = Vec::new();
        for term in terms {
            if let Some(id) = self.term_id(term) {
                let idf = self.idf_id(id);
                for p in self.postings_id(id).iter() {
                    let i = p.doc.0 as usize;
                    if !seen[i] {
                        seen[i] = true;
                        touched.push(p.doc);
                    }
                    let entry = &mut acc[i];
                    entry.0 += tf_idf_weight(p.positions.len(), idf);
                    entry.1 = entry.1.min(p.positions[0]);
                }
            }
        }
        let hits: Vec<SearchHit> = touched
            .into_iter()
            .map(|doc| {
                let (score, first_match) = acc[doc.0 as usize];
                SearchHit {
                    doc,
                    score,
                    first_match,
                }
            })
            .collect();
        top_k(hits, k)
    }

    /// Number of documents that match *all* query terms (conjunctive
    /// count — the "regular query" result count the paper experimented
    /// with during feature selection).
    pub fn conjunctive_count(&self, terms: &[String]) -> usize {
        match self.candidate_docs(terms) {
            Some(docs) => docs.len(),
            None => 0,
        }
    }

    /// Number of documents containing `terms` as a contiguous phrase —
    /// the `searchengine_phrase` feature (Table I, feature 4).
    pub fn phrase_count(&self, terms: &[String]) -> usize {
        match self.phrase_postings(terms) {
            Some(list) => list.len(),
            None => 0,
        }
    }

    /// Ranked phrase search: documents containing the contiguous phrase,
    /// scored by phrase frequency times the summed idf of the phrase
    /// terms; top `k` returned.
    pub fn phrase_search(&self, terms: &[String], k: usize) -> Vec<SearchHit> {
        let matches = match self.phrase_postings(terms) {
            Some(m) => m,
            None => return Vec::new(),
        };
        let phrase_idf: f64 = terms.iter().map(|t| self.idf(t)).sum();
        let hits: Vec<SearchHit> = matches
            .into_iter()
            .map(|(doc, positions)| SearchHit {
                doc,
                score: tf_idf_weight(positions.len(), phrase_idf),
                first_match: positions[0],
            })
            .collect();
        top_k(hits, k)
    }

    /// Documents containing all terms (intersection of postings), or
    /// `None` when any term is missing from the index or the query is
    /// empty.
    fn candidate_docs(&self, terms: &[String]) -> Option<Vec<DocId>> {
        if terms.is_empty() {
            return None;
        }
        let mut lists: Vec<&crate::Postings> = Vec::with_capacity(terms.len());
        for t in terms {
            lists.push(self.postings(t)?);
        }
        // Intersect starting from the shortest list; each further list is
        // merged with a galloping scan that adapts to skew (near-linear
        // for similar lengths, logarithmic probes when one side is much
        // longer).
        lists.sort_by_key(|p| p.doc_count());
        let mut docs: Vec<DocId> = lists[0].iter().map(|p| p.doc).collect();
        for list in &lists[1..] {
            intersect_galloping(&mut docs, list);
            if docs.is_empty() {
                break;
            }
        }
        Some(docs)
    }

    /// For each document containing the contiguous phrase, the sorted
    /// token positions of the phrase's first term.
    fn phrase_postings(&self, terms: &[String]) -> Option<Vec<(DocId, Vec<u32>)>> {
        if terms.is_empty() {
            return None;
        }
        if terms.len() == 1 {
            return Some(
                self.postings(&terms[0])?
                    .iter()
                    .map(|p| (p.doc, p.positions.to_vec()))
                    .collect(),
            );
        }
        let docs = self.candidate_docs(terms)?;
        let lists: Vec<&crate::Postings> = terms
            .iter()
            .map(|t| self.postings(t).expect("candidate_docs verified presence"))
            .collect();
        // One monotone cursor per term: the intersection is ascending,
        // so each document lookup resumes where the last one stopped
        // and never re-decodes a block.
        let mut cursors: Vec<_> = lists.iter().map(|l| l.cursor()).collect();
        let mut out = Vec::new();
        for doc in docs {
            let entries: Vec<crate::PostingRef<'_>> = cursors
                .iter_mut()
                .map(|c| c.seek(doc).expect("doc in intersection"))
                .collect();
            debug_assert!(entries.iter().all(|e| e.doc == doc));
            let mut starts = Vec::new();
            for &p0 in entries[0].positions {
                let aligned = entries[1..]
                    .iter()
                    .enumerate()
                    .all(|(i, e)| e.positions.binary_search(&(p0 + i as u32 + 1)).is_ok());
                if aligned {
                    starts.push(p0);
                }
            }
            if !starts.is_empty() {
                out.push((doc, starts));
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::IndexBuilder;

    fn terms(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn build(docs: &[&str]) -> crate::Index {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build()
    }

    #[test]
    fn search_ranks_by_tfidf() {
        let idx = build(&[
            "cuba cuba cuba policy",
            "cuba appears once here",
            "nothing relevant at all",
        ]);
        let hits = idx.search(&terms("cuba"), 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].doc.0, 0);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn search_truncates_to_k() {
        let idx = build(&["a x", "a y", "a z"]);
        assert_eq!(idx.search(&terms("a"), 2).len(), 2);
    }

    #[test]
    fn phrase_count_requires_adjacency() {
        let idx = build(&[
            "global warming is real",
            "warming global order reversed",
            "global economic warming gap",
        ]);
        assert_eq!(idx.phrase_count(&terms("global warming")), 1);
        assert_eq!(idx.conjunctive_count(&terms("global warming")), 3);
    }

    #[test]
    fn phrase_count_single_term() {
        let idx = build(&["alpha beta", "beta gamma"]);
        assert_eq!(idx.phrase_count(&terms("beta")), 2);
    }

    #[test]
    fn phrase_three_terms() {
        let idx = build(&[
            "president of the united states of america",
            "united states senate",
            "the states united once",
        ]);
        assert_eq!(idx.phrase_count(&terms("united states")), 2);
        assert_eq!(idx.phrase_count(&terms("united states senate")), 1);
    }

    #[test]
    fn phrase_search_scores_by_frequency() {
        let idx = build(&["new york new york so nice", "new york once"]);
        let hits = idx.phrase_search(&terms("new york"), 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].doc.0, 0);
        assert_eq!(hits[0].first_match, 0);
    }

    #[test]
    fn missing_term_empty_results() {
        let idx = build(&["something here"]);
        assert_eq!(idx.phrase_count(&terms("absent phrase")), 0);
        assert!(idx.phrase_search(&terms("absent"), 5).is_empty());
        assert_eq!(idx.conjunctive_count(&terms("something absent")), 0);
    }

    #[test]
    fn empty_query() {
        let idx = build(&["something here"]);
        assert!(idx.search(&[], 5).is_empty());
        assert_eq!(idx.phrase_count(&[]), 0);
    }

    #[test]
    fn galloping_intersection_matches_naive() {
        use crate::postings::{DocId, PostingsBuilder};
        // Deterministic pseudo-random doc id sets of very different
        // sizes; the big side spans many coded blocks so the cursor's
        // skip-table galloping is exercised, not just in-block search.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for (n_small, n_big) in [(0, 50), (3, 1000), (40, 45), (100, 100), (7, 8000)] {
            let mut small: Vec<u32> = (0..n_small).map(|_| next(10_000) as u32).collect();
            small.sort_unstable();
            small.dedup();
            let mut big: Vec<u32> = (0..n_big).map(|_| next(10_000) as u32).collect();
            // Force some overlap.
            big.extend(small.iter().copied().step_by(2));
            big.sort_unstable();
            big.dedup();
            let mut builder = PostingsBuilder::default();
            for &d in &big {
                builder.push(DocId(d), 0);
            }
            let list = builder.freeze();
            let expect: Vec<DocId> = small
                .iter()
                .filter(|d| big.binary_search(d).is_ok())
                .map(|&d| DocId(d))
                .collect();
            let mut docs: Vec<DocId> = small.iter().map(|&d| DocId(d)).collect();
            super::intersect_galloping(&mut docs, &list);
            assert_eq!(docs, expect, "n_small={n_small} n_big={n_big}");
        }
    }

    #[test]
    fn top_k_selection_matches_full_sort() {
        let idx = build(&[
            "apple banana",
            "apple",
            "apple apple",
            "banana banana apple",
            "apple cherry",
            "cherry apple apple",
            "banana",
            "apple date",
        ]);
        let q = terms("apple banana");
        let full = idx.search(&q, usize::MAX);
        for k in 0..=full.len() + 2 {
            let topk = idx.search(&q, k);
            assert_eq!(topk.len(), full.len().min(k));
            assert_eq!(&full[..topk.len()], &topk[..], "k={k}");
        }
    }

    #[test]
    fn repeated_phrase_in_one_doc() {
        let idx = build(&["ab cd ab cd ab cd", "other text entirely"]);
        let hits = idx.phrase_search(&terms("ab cd"), 5);
        assert_eq!(hits.len(), 1);
        // Three phrase occurrences: score reflects tf=3.
        assert!(hits[0].score > 0.0);
    }
}
