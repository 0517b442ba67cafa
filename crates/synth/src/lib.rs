//! The synthetic world standing in for Yahoo!'s proprietary data.
//!
//! The paper's pipeline is built on resources we cannot obtain: one week
//! of Yahoo! search query logs, the Yahoo! Search web corpus, Yahoo! News
//! stories with Contextual Shortcuts click tracking, Wikipedia dumps and a
//! team of expert editorial judges. Following the substitution rule laid
//! out in `DESIGN.md` §1, this crate generates deterministic synthetic
//! equivalents that preserve the statistical structure those resources
//! contribute:
//!
//! * a **latent concept universe** ([`concepts`]) where every concept has
//!   a hidden *interestingness* and a home *topic* (or none, for the
//!   general/low-quality phrases of §IV-B),
//! * a **query log** ([`queries`]) whose frequencies are driven by
//!   interestingness — so `freq_exact`, `freq_phrase_contained` and unit
//!   mutual information carry real signal,
//! * a **web corpus** ([`corpus`]) where specific concepts co-occur with
//!   their topic's distinctive vocabulary — so snippet mining clusters for
//!   specific concepts and stays diffuse for junk ones (Table II),
//! * an **encyclopedia** ([`encyclopedia`]) standing in for Wikipedia,
//! * **news stories** ([`news`]) embedding on-topic and off-topic entity
//!   mentions,
//! * a **click model** ([`clicks`]) that turns latent
//!   interestingness × relevance into views/clicks/CTR with position bias
//!   and binomial sampling — the paper's causal assumption (§I-B),
//! * **position-bias models** ([`bias`]) — PBM/UBM examination curves
//!   behind one trait, plus a rank-annotated biased log generator
//!   feeding the counterfactual debiasing pipeline,
//! * simulated **editorial judges** ([`judges`]) for the Table VI study,
//! * a lazy **event-stream generator** ([`stream`]) that synthesizes
//!   click/query logs of arbitrary magnitude one event at a time for the
//!   append-only ingestion path — nothing is materialized.
//!
//! Everything is generated from a single `u64` seed; the same seed always
//! produces the same world.

pub mod bias;
pub mod clicks;
pub mod concepts;
pub mod corpus;
pub mod encyclopedia;
pub mod judges;
pub mod lexicon;
pub mod news;
pub mod queries;
pub mod rng;
pub mod stream;
pub mod world;

pub use bias::{
    generate_ranked_log, simulate_story_biased, LinearBias, NoBias, Pbm, PositionBiasModel,
    RankedLog, RankedLogConfig, RankedStory, Ubm,
};
pub use clicks::{ClickConfig, ClickRecord, StoryClicks};
pub use concepts::{ConceptId, ConceptSpec, ConceptUniverse, HighLevelType, Quality};
pub use corpus::CorpusConfig;
pub use encyclopedia::Encyclopedia;
pub use judges::{JudgeConfig, JudgePanel};
pub use lexicon::Lexicon;
pub use news::{NewsConfig, NewsStory};
pub use queries::QueryConfig;
pub use rng::ZipfSampler;
pub use stream::{EventStream, StreamConfig};
pub use world::{SynthWorld, WorldConfig};
