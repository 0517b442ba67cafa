//! Term interning — the dense id substrate of the annotation hot path.
//!
//! §VI of the paper describes a "Global TID Table which simply maps a
//! given term to its TID"; the runtime framework (`ctxrank-framework`)
//! keeps its own 22-bit-capped table for the packed relevance stores.
//! This module is the build-time counterpart, shared by every crate that
//! keys data structures on term *sequences*: once terms are dense `u32`
//! ids, a phrase becomes a `&[TermId]` that can be hashed directly or
//! walked through a [`crate::trie::PhraseTrie`] with no `join(" ")`
//! allocation per probe.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a, the [`Interner`]'s hasher. It has no defence against
/// keys crafted to collide, and needs none where keys are inserted only
/// by offline builds: a probe with hostile bytes cannot lengthen a chain.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let prime = 0x0000_0100_0000_01b3;
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(prime));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FnvHasher`]s: `HashMap<K, V, FnvBuildHasher>`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A dense term id, valid within the [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a vector index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Maps terms to dense [`TermId`]s and back.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    ids: HashMap<Box<str>, TermId, FnvBuildHasher>,
    terms: Vec<Box<str>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its (possibly pre-existing) id. Ids are
    /// assigned densely in first-seen order.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        let boxed: Box<str> = term.into();
        self.ids.insert(boxed.clone(), id);
        self.terms.push(boxed);
        id
    }

    /// Look up a term without interning it.
    #[inline]
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Reverse lookup.
    #[inline]
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.idx()).map(|s| &**s)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate all interned terms in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, s)| (TermId(i as u32), &**s))
    }

    /// Map a term sequence to ids, `None` as soon as any term is
    /// unknown (a phrase with an unknown term cannot be present in any
    /// id-keyed structure built from this interner).
    pub fn ids_of(&self, terms: &[String]) -> Option<Vec<TermId>> {
        terms.iter().map(|t| self.get(t)).collect()
    }

    /// Map each token to its id, keeping unknown tokens as `None` — the
    /// per-document projection detectors scan instead of raw strings.
    pub fn map_tokens(&self, tokens: &[String]) -> Vec<Option<TermId>> {
        tokens.iter().map(|t| self.get(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_idempotent_and_dense() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), TermId(0));
        assert_eq!(i.intern("b"), TermId(1));
        assert_eq!(i.intern("a"), TermId(0));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn reverse_lookup() {
        let mut i = Interner::new();
        let id = i.intern("warming");
        assert_eq!(i.term(id), Some("warming"));
        assert_eq!(i.term(TermId(7)), None);
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.get("x"), None);
        assert!(i.is_empty());
    }

    #[test]
    fn ids_of_fails_on_unknown() {
        let mut i = Interner::new();
        i.intern("a");
        assert!(i.ids_of(&["a".into()]).is_some());
        assert!(i.ids_of(&["a".into(), "b".into()]).is_none());
        assert_eq!(i.ids_of(&[]), Some(vec![]));
    }

    #[test]
    fn map_tokens_keeps_unknowns() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let mapped = i.map_tokens(&["a".into(), "zzz".into()]);
        assert_eq!(mapped, vec![Some(a), None]);
    }
}
