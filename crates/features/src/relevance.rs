//! Relevance-keyword mining and runtime relevance scoring (§IV-B).
//!
//! For each concept `cᵢ` in the supported set `C = {c₁ … cₙ}` we pre-mine
//! the top *m* = 100 relevant context keywords with scores,
//! `relevantTermsᵢ = {(tᵢ₁, sᵢ₁), …, (tᵢₘ, sᵢₘ)}`, from one of three
//! resources:
//!
//! * **search-engine snippets** — the snippets of the first hundred
//!   phrase-query results form one bag-of-words document; keywords are
//!   scored by tf·idf;
//! * **Prisma** — the query-refinement tool's ≤ 20 feedback terms form
//!   the document; tf·idf again;
//! * **related query suggestions** — up to 300 suggestions with their
//!   query frequencies; a term appearing in `k` suggestions scores
//!   `Σᵢ₌₁ᵏ ln(query_freqᵢ) · idf(term)`.
//!
//! All terms are stemmed, lower-cased and punctuation-stripped. At
//! runtime the relevance of a concept in a context is approximated by the
//! summed scores of its pre-mined keywords that co-occur in the context —
//! the "safety net" that keeps general/low-quality concepts down, because
//! their mined keywords never cluster and end up with small scores
//! (§IV-C, Table II).

use ctxrank_index::Index;
use ctxrank_querylog::{Prisma, QueryLog, SuggestionService};
use ctxrank_text::{Interner, TermId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The paper's *m*: keywords kept per concept.
pub const PAPER_M: usize = 100;
/// Snippet results consulted ("the first hundred results").
pub const SNIPPET_RESULTS: usize = 100;
/// Tokens of context kept around each snippet match.
pub const SNIPPET_CONTEXT: usize = 12;

/// How mined keyword tf combines with idf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeywordWeighting {
    /// `tf · idf` with raw term frequency.
    RawTf,
    /// `(1 + ln tf) · idf`.
    LogTf,
    /// `idf` only (presence), tf used just for ranking into the top *m*.
    Presence,
}

/// Which resource the keywords are mined from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MiningResource {
    Snippets,
    Prisma,
    Suggestions,
}

impl MiningResource {
    /// All three resources, in the order Table IV reports them.
    pub const ALL: [MiningResource; 3] = [
        MiningResource::Prisma,
        MiningResource::Suggestions,
        MiningResource::Snippets,
    ];
}

/// The mined keywords of one concept: stemmed terms with scores, sorted
/// descending.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RelevantTerms {
    pub terms: Vec<(String, f64)>,
}

impl RelevantTerms {
    /// Sum of all keyword scores — the Table II "summation" diagnostic.
    pub fn summation(&self) -> f64 {
        self.terms.iter().map(|(_, s)| s).sum()
    }

    /// Number of keywords.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when nothing was mined.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Raw relevance score of this concept in a context given as a set
    /// of stemmed terms: the summed scores of co-occurring keywords.
    pub fn score_context(&self, context: &HashSet<String>) -> f64 {
        self.terms
            .iter()
            .filter(|(t, _)| context.contains(t))
            .map(|(_, s)| s)
            .sum()
    }
}

/// Document-frequency table over *stemmed* terms, for idf of mined
/// keywords (the corpus index itself is unstemmed).
#[derive(Debug, Clone)]
pub struct StemmedIdf {
    df: HashMap<String, u32>,
    num_docs: usize,
}

impl StemmedIdf {
    /// Scan `index` once, counting per-document stemmed-term presence.
    ///
    /// Each vocabulary term is stemmed exactly once (the index interner
    /// makes the vocabulary dense); the per-document pass then walks term
    /// ids and dedups per-doc stems with an epoch table — no per-token
    /// stemming or string hashing.
    pub fn from_index(index: &Index) -> Self {
        let vocab = index.interner().len();
        // term id -> stem id (None for stop-words); stems interned densely.
        let mut stems = Interner::new();
        let mut stem_of: Vec<Option<TermId>> = vec![None; vocab];
        for (id, term) in index.interner().iter() {
            if !ctxrank_text::is_stopword(term) {
                stem_of[id.idx()] = Some(stems.intern(&ctxrank_text::stem(term)));
            }
        }
        let mut df_by_stem: Vec<u32> = vec![0; stems.len()];
        let mut last_doc: Vec<u32> = vec![u32::MAX; stems.len()];
        for d in 0..index.num_docs() {
            let doc = index.doc(ctxrank_index::DocId(d as u32));
            for tid in &doc.term_ids {
                if let Some(sid) = stem_of[tid.idx()] {
                    if last_doc[sid.idx()] != d as u32 {
                        last_doc[sid.idx()] = d as u32;
                        df_by_stem[sid.idx()] += 1;
                    }
                }
            }
        }
        let df: HashMap<String, u32> = stems
            .iter()
            .map(|(sid, stem)| (stem.to_string(), df_by_stem[sid.idx()]))
            .collect();
        Self {
            df,
            num_docs: index.num_docs(),
        }
    }

    /// Smoothed idf of a stemmed term.
    pub fn idf(&self, stem: &str) -> f64 {
        let df = self.df.get(stem).copied().unwrap_or(0) as f64;
        ((self.num_docs as f64 + 1.0) / (df + 1.0)).ln()
    }

    /// Number of distinct stems tracked.
    pub fn len(&self) -> usize {
        self.df.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.df.is_empty()
    }
}

/// Builder that mines [`RelevantTerms`] for concepts.
pub struct RelevanceModelBuilder<'a> {
    corpus: &'a Index,
    stemmed_idf: StemmedIdf,
    suggest: SuggestionService<'a>,
    prisma: Prisma<'a>,
    /// Keywords kept per concept (*m*).
    pub m: usize,
    /// Minimum idf a stemmed keyword needs to be kept. The paper's
    /// web-scale corpus pushes everyday words to negligible tf·idf on its
    /// own; with a synthetic vocabulary this floor plays that role
    /// (see DESIGN.md §1).
    pub min_idf: f64,
    /// Minimum query frequency for a related query to count as a
    /// suggestion (real suggestion services require minimum support,
    /// which is what limits the resource's coverage, §V-A.5).
    pub min_suggestion_freq: u64,
    /// Keyword weighting scheme for the tf·idf resources.
    pub weighting: KeywordWeighting,
}

impl<'a> std::fmt::Debug for RelevanceModelBuilder<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelevanceModelBuilder")
            .field("m", &self.m)
            .finish_non_exhaustive()
    }
}

impl<'a> RelevanceModelBuilder<'a> {
    /// Create a builder over the corpus and query log.
    pub fn new(corpus: &'a Index, log: &'a QueryLog) -> Self {
        Self {
            corpus,
            stemmed_idf: StemmedIdf::from_index(corpus),
            suggest: SuggestionService::new(log),
            prisma: Prisma::new(corpus),
            m: PAPER_M,
            min_idf: 0.0,
            min_suggestion_freq: 1,
            weighting: KeywordWeighting::LogTf,
        }
    }

    /// Access the stemmed-idf table.
    pub fn stemmed_idf(&self) -> &StemmedIdf {
        &self.stemmed_idf
    }

    /// The underlying corpus index.
    pub fn corpus(&self) -> &Index {
        self.corpus
    }

    /// Apply the configured keyword weighting scheme.
    pub fn keyword_weight(&self, tf: usize, idf: f64) -> f64 {
        match self.weighting {
            KeywordWeighting::RawTf => tf as f64 * idf,
            KeywordWeighting::LogTf => ctxrank_index::tf_idf_weight(tf, idf),
            KeywordWeighting::Presence => idf * (1.0 + 1e-6 * tf as f64),
        }
    }

    /// Mine the relevant keywords of one concept from `resource`.
    pub fn mine(&self, concept_terms: &[String], resource: MiningResource) -> RelevantTerms {
        match resource {
            MiningResource::Snippets => self.mine_snippets(concept_terms),
            MiningResource::Prisma => self.mine_prisma(concept_terms),
            MiningResource::Suggestions => self.mine_suggestions(concept_terms),
        }
    }

    /// Build the full model for a set of concepts.
    pub fn build(
        &self,
        concepts: impl IntoIterator<Item = Vec<String>>,
        resource: MiningResource,
    ) -> RelevanceModel {
        let mined = concepts.into_iter().map(|terms| {
            let mined = self.mine(&terms, resource);
            (terms.join(" "), mined)
        });
        RelevanceModel::from_mined(resource, mined)
    }

    /// Snippets resource: top-100 phrase results, context windows, one
    /// bag of words, tf·idf over stems, top *m*.
    fn mine_snippets(&self, concept_terms: &[String]) -> RelevantTerms {
        let snippets = self
            .corpus
            .phrase_snippets(concept_terms, SNIPPET_RESULTS, SNIPPET_CONTEXT);
        let concept_stems: HashSet<String> = concept_terms
            .iter()
            .map(|t| ctxrank_text::stem(t))
            .collect();
        let mut tf: HashMap<String, usize> = HashMap::new();
        for snip in &snippets {
            for stem in ctxrank_text::stemmed_terms(snip) {
                if !concept_stems.contains(&stem) {
                    *tf.entry(stem).or_insert(0) += 1;
                }
            }
        }
        self.finish_tfidf(tf)
    }

    /// Prisma resource: ≤ 20 feedback terms as one document, tf·idf.
    ///
    /// Unlike the other resources, Prisma's output is consumed as-is —
    /// pseudo-relevance feedback famously drifts toward frequent terms,
    /// and that drift is part of what makes the resource the weakest of
    /// the three (Table IV), so no idf floor is applied here.
    fn mine_prisma(&self, concept_terms: &[String]) -> RelevantTerms {
        let feedback = self.prisma.paper_feedback(concept_terms);
        let mut tf: HashMap<String, usize> = HashMap::new();
        for (term, _) in feedback {
            let stem = ctxrank_text::stem(&term);
            *tf.entry(stem).or_insert(0) += 1;
        }
        let mut terms: Vec<(String, f64)> = tf
            .into_iter()
            .map(|(stem, count)| {
                let idf = self.stemmed_idf.idf(&stem);
                (stem, self.keyword_weight(count, idf))
            })
            .collect();
        self.sort_truncate(&mut terms);
        RelevantTerms { terms }
    }

    /// Suggestions resource: score(term) = Σ ln(freq) · idf(term) over
    /// the suggestions containing the term.
    ///
    /// Suggestions are the refinement queries that contain the whole
    /// concept as a phrase — what a "related searches" service returns.
    /// This is why the resource has the poorest keyword *coverage* of
    /// the three (§V-A.5): tail concepts have few refinement queries, so
    /// their mined keyword sets are tiny.
    fn mine_suggestions(&self, concept_terms: &[String]) -> RelevantTerms {
        let mut suggestions = self
            .suggest
            .phrase_suggestions(concept_terms, ctxrank_querylog::suggest::MAX_SUGGESTIONS);
        suggestions.retain(|s| s.freq >= self.min_suggestion_freq);
        let concept_stems: HashSet<String> = concept_terms
            .iter()
            .map(|t| ctxrank_text::stem(t))
            .collect();
        let mut log_freq_sum: HashMap<String, f64> = HashMap::new();
        for s in &suggestions {
            let mut seen = HashSet::new();
            for term in &s.terms {
                if ctxrank_text::is_stopword(term) {
                    continue;
                }
                let stem = ctxrank_text::stem(term);
                if concept_stems.contains(&stem) || !seen.insert(stem.clone()) {
                    continue;
                }
                *log_freq_sum.entry(stem).or_insert(0.0) += (s.freq.max(1) as f64).ln().max(0.1);
            }
        }
        let mut terms: Vec<(String, f64)> = log_freq_sum
            .into_iter()
            .filter_map(|(stem, lf)| {
                let idf = self.stemmed_idf.idf(&stem);
                if idf < self.min_idf {
                    return None;
                }
                Some((stem, lf * idf))
            })
            .collect();
        self.sort_truncate(&mut terms);
        RelevantTerms { terms }
    }

    fn finish_tfidf(&self, tf: HashMap<String, usize>) -> RelevantTerms {
        let mut terms: Vec<(String, f64)> = tf
            .into_iter()
            .filter_map(|(stem, count)| {
                let idf = self.stemmed_idf.idf(&stem);
                if idf < self.min_idf {
                    return None;
                }
                Some((stem, self.keyword_weight(count, idf)))
            })
            .collect();
        self.sort_truncate(&mut terms);
        RelevantTerms { terms }
    }

    fn sort_truncate(&self, terms: &mut Vec<(String, f64)>) {
        terms.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        terms.truncate(self.m);
    }
}

/// The frozen relevance model: concept surface → mined keywords.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelevanceModel {
    map: HashMap<String, RelevantTerms>,
    pub resource: MiningResource,
}

impl RelevanceModel {
    /// Assemble a model from `(concept surface, mined keywords)` pairs,
    /// e.g. mined concept by concept on several threads.
    pub fn from_mined(
        resource: MiningResource,
        mined: impl IntoIterator<Item = (String, RelevantTerms)>,
    ) -> Self {
        Self {
            map: mined.into_iter().collect(),
            resource,
        }
    }

    /// Mined keywords for a concept surface.
    pub fn terms(&self, surface: &str) -> Option<&RelevantTerms> {
        self.map.get(surface)
    }

    /// Number of concepts covered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no concept was mined.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Prepare a context for scoring: the set of stemmed terms of `text`.
    pub fn context_of(text: &str) -> HashSet<String> {
        ctxrank_text::stemmed_terms(text).into_iter().collect()
    }

    /// Raw relevance score of `surface` in a prepared context (0 when the
    /// concept is not in the model).
    pub fn score(&self, surface: &str, context: &HashSet<String>) -> f64 {
        self.map
            .get(surface)
            .map_or(0.0, |t| t.score_context(context))
    }

    /// Log-compressed relevance score, suitable as a learning feature.
    pub fn score_feature(&self, surface: &str, context: &HashSet<String>) -> f64 {
        self.score(surface, context).ln_1p()
    }

    /// Freeze the model into a [`CompiledRelevance`] whose keywords are
    /// interned stem ids, for allocation-lean scoring over many contexts.
    pub fn compile(&self) -> CompiledRelevance {
        let mut stems = Interner::new();
        let map: HashMap<String, Vec<(TermId, f64)>> = self
            .map
            .iter()
            .map(|(surface, rt)| {
                let kws: Vec<(TermId, f64)> = rt
                    .terms
                    .iter()
                    .map(|(stem, score)| (stems.intern(stem), *score))
                    .collect();
                (surface.clone(), kws)
            })
            .collect();
        CompiledRelevance {
            stems,
            map,
            resource: self.resource,
        }
    }
}

/// A [`RelevanceModel`] compiled onto interned keyword-stem ids.
///
/// Contexts become dense presence bitmaps over the model's keyword
/// vocabulary; scoring a concept is then one pass over its keyword list
/// with index probes — no string hashing per (concept, context) pair.
/// Keyword order is preserved from the source model, so floating-point
/// sums are bit-identical to [`RelevantTerms::score_context`].
#[derive(Debug, Clone)]
pub struct CompiledRelevance {
    /// All keyword stems across the model's concepts.
    stems: Interner,
    /// Concept surface → (stem id, score) in mined (descending) order.
    map: HashMap<String, Vec<(TermId, f64)>>,
    pub resource: MiningResource,
}

impl CompiledRelevance {
    /// Number of concepts covered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no concept was mined.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Prepare a context for scoring: a presence bitmap over the model's
    /// keyword vocabulary. Stems outside the vocabulary cannot influence
    /// any score and are dropped.
    pub fn context_of(&self, text: &str) -> Vec<bool> {
        self.context_from_stems(&ctxrank_text::stemmed_terms(text))
    }

    /// Build the presence bitmap from already-stemmed terms, so one
    /// stemming pass can feed several compiled models.
    pub fn context_from_stems(&self, stems: &[String]) -> Vec<bool> {
        let mut present = vec![false; self.stems.len()];
        for stem in stems {
            if let Some(id) = self.stems.get(stem) {
                present[id.idx()] = true;
            }
        }
        present
    }

    /// Raw relevance score of `surface` in a prepared context (0 when the
    /// concept is not in the model). Identical (bit-for-bit) to
    /// [`RelevanceModel::score`] on the equivalent context.
    pub fn score(&self, surface: &str, context: &[bool]) -> f64 {
        self.map.get(surface).map_or(0.0, |kws| {
            kws.iter()
                .filter(|(id, _)| context[id.idx()])
                .map(|(_, s)| s)
                .sum()
        })
    }

    /// Log-compressed relevance score, suitable as a learning feature.
    pub fn score_feature(&self, surface: &str, context: &[bool]) -> f64 {
        self.score(surface, context).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxrank_index::IndexBuilder;

    fn t(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Corpus where "solar flares" lives among astronomy vocabulary and
    /// "random stuff" appears in scattered contexts.
    fn setup() -> (Index, QueryLog) {
        let mut b = IndexBuilder::new();
        for i in 0..12 {
            b.add_document(&format!(
                "astronomers observed solar flares near sunspot cluster {i} \
                 with telescope arrays measuring radiation"
            ));
        }
        b.add_document("random stuff happened downtown yesterday evening");
        b.add_document("she bought random stuff online cheaply");
        b.add_document("random stuff piled in the garage corner");
        for i in 0..12 {
            b.add_document(&format!("financial markets closed higher on day {i}"));
        }
        let mut log = QueryLog::new();
        log.add("solar flares", 80);
        log.add("solar flares radiation", 30);
        log.add("solar flares telescope", 20);
        log.add("random stuff", 40);
        log.add("random stuff cheap", 5);
        (b.build(), log)
    }

    #[test]
    fn snippets_mine_topical_keywords() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let mined = builder.mine(&t("solar flares"), MiningResource::Snippets);
        assert!(!mined.is_empty());
        let keywords: Vec<&str> = mined.terms.iter().map(|(s, _)| s.as_str()).collect();
        assert!(
            keywords.contains(&ctxrank_text::stem("sunspot").as_str())
                || keywords.contains(&ctxrank_text::stem("telescope").as_str())
                || keywords.contains(&ctxrank_text::stem("radiation").as_str()),
            "{keywords:?}"
        );
    }

    #[test]
    fn concept_terms_excluded_from_own_keywords() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let mined = builder.mine(&t("solar flares"), MiningResource::Snippets);
        let solar = ctxrank_text::stem("solar");
        assert!(mined.terms.iter().all(|(s, _)| *s != solar));
    }

    #[test]
    fn specific_concept_summation_beats_junk() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let specific = builder.mine(&t("solar flares"), MiningResource::Snippets);
        let junk = builder.mine(&t("random stuff"), MiningResource::Snippets);
        assert!(
            specific.summation() > junk.summation(),
            "Table II shape: specific {} must exceed junk {}",
            specific.summation(),
            junk.summation()
        );
    }

    #[test]
    fn runtime_scoring_discriminates_contexts() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let model = builder.build(vec![t("solar flares")], MiningResource::Snippets);
        let on_topic = RelevanceModel::context_of(
            "the telescope recorded intense radiation from the sunspot region",
        );
        let off_topic =
            RelevanceModel::context_of("markets closed higher as financial stocks rallied");
        let s_on = model.score("solar flares", &on_topic);
        let s_off = model.score("solar flares", &off_topic);
        assert!(s_on > s_off, "on-topic {s_on} vs off-topic {s_off}");
    }

    #[test]
    fn prisma_produces_few_terms() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let mined = builder.mine(&t("solar flares"), MiningResource::Prisma);
        // Prisma only ever returns <= 20 feedback terms (the paper notes
        // this limits its usefulness for relevance mining).
        assert!(mined.len() <= 20, "got {}", mined.len());
    }

    #[test]
    fn suggestions_resource_mines_from_related_queries() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let mined = builder.mine(&t("solar flares"), MiningResource::Suggestions);
        let keywords: Vec<&str> = mined.terms.iter().map(|(s, _)| s.as_str()).collect();
        assert!(
            keywords.contains(&ctxrank_text::stem("radiation").as_str())
                || keywords.contains(&ctxrank_text::stem("telescope").as_str()),
            "{keywords:?}"
        );
    }

    #[test]
    fn m_truncation_respected() {
        let (corpus, log) = setup();
        let mut builder = RelevanceModelBuilder::new(&corpus, &log);
        builder.m = 3;
        let mined = builder.mine(&t("solar flares"), MiningResource::Snippets);
        assert!(mined.len() <= 3);
    }

    #[test]
    fn unknown_concept_scores_zero() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let model = builder.build(vec![t("solar flares")], MiningResource::Snippets);
        let ctx = RelevanceModel::context_of("anything at all");
        assert_eq!(model.score("never mined", &ctx), 0.0);
    }

    #[test]
    fn keywords_sorted_descending() {
        let (corpus, log) = setup();
        let builder = RelevanceModelBuilder::new(&corpus, &log);
        let mined = builder.mine(&t("solar flares"), MiningResource::Snippets);
        for w in mined.terms.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn stemmed_idf_counts_documents() {
        let (corpus, _) = setup();
        let idf = StemmedIdf::from_index(&corpus);
        assert!(!idf.is_empty());
        // A word in many documents is cheaper than a rare one.
        assert!(idf.idf(&ctxrank_text::stem("garage")) > idf.idf(&ctxrank_text::stem("solar")));
    }

    #[test]
    fn score_feature_is_log_compressed() {
        let rt = RelevantTerms {
            terms: vec![("x".into(), 10.0)],
        };
        let mut map = HashMap::new();
        map.insert("c".to_string(), rt);
        let model = RelevanceModel {
            map,
            resource: MiningResource::Snippets,
        };
        let ctx: HashSet<String> = ["x".to_string()].into_iter().collect();
        assert!((model.score_feature("c", &ctx) - 11f64.ln()).abs() < 1e-9);
    }
}
