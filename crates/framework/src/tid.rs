//! The Global TID Table.
//!
//! §VI: "the system uses a global hash table (Global TID Table) which
//! simply maps a given term to its TID (if that term is used by at least
//! one concept) ... the total number of unique terms stored in the
//! Global TID Table decreases as we increase the number of concepts in
//! the system ... the largest TID value we need to support in the system
//! is not too large and can easily fit into 22 bits."
//!
//! The table has two representations behind one API: a *building* form
//! (growable `HashMap`, used by the offline pipeline while interning)
//! and a *frozen* form (an arena-backed [`StrTable`] view created when a
//! `snapshot.ctxr` file is loaded — no per-term allocation or decode).

use crate::arena::StrTable;
use std::collections::HashMap;

/// A term id — guaranteed to fit in 22 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

/// The largest representable TID (22 bits).
pub const MAX_TID: u32 = (1 << 22) - 1;

#[derive(Debug, Clone)]
enum Repr {
    /// Offline form: supports [`GlobalTidTable::intern`].
    Building {
        ids: HashMap<String, TermId>,
        terms: Vec<String>,
    },
    /// Arena-loaded form: lookups go through the shared string table,
    /// term text is borrowed straight from the snapshot buffer.
    Frozen(StrTable),
}

/// Maps stemmed terms to dense [`TermId`]s.
#[derive(Debug, Clone)]
pub struct GlobalTidTable {
    repr: Repr,
}

impl Default for GlobalTidTable {
    fn default() -> Self {
        Self {
            repr: Repr::Building {
                ids: HashMap::new(),
                terms: Vec::new(),
            },
        }
    }
}

impl GlobalTidTable {
    /// Create an empty (building) table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an arena-backed string table (ids are the dense indices).
    pub(crate) fn from_frozen(table: StrTable) -> Self {
        Self {
            repr: Repr::Frozen(table),
        }
    }

    /// The table as a frozen string table — the arena encoder's view.
    /// Cheap for an arena-loaded table; builds the hash index once for
    /// a building table.
    pub(crate) fn to_str_table(&self) -> StrTable {
        match &self.repr {
            Repr::Building { terms, .. } => StrTable::build(terms.iter().map(String::as_str)),
            Repr::Frozen(t) => t.clone(),
        }
    }

    /// Intern a term, returning its (possibly existing) id.
    ///
    /// # Panics
    /// Panics if the table outgrows the 22-bit id space, or if called
    /// on a frozen (arena-loaded) table — interning is an offline
    /// operation and loaded snapshots are immutable.
    pub fn intern(&mut self, term: &str) -> TermId {
        match &mut self.repr {
            Repr::Building { ids, terms } => {
                if let Some(&id) = ids.get(term) {
                    return id;
                }
                let id = TermId(terms.len() as u32);
                assert!(id.0 <= MAX_TID, "Global TID Table exceeded 22-bit id space");
                ids.insert(term.to_string(), id);
                terms.push(term.to_string());
                id
            }
            Repr::Frozen(_) => panic!("intern on a frozen (arena-loaded) Global TID Table"),
        }
    }

    /// Look up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        match &self.repr {
            Repr::Building { ids, .. } => ids.get(term).copied(),
            Repr::Frozen(t) => t.lookup(term).map(TermId),
        }
    }

    /// Reverse lookup.
    pub fn term(&self, id: TermId) -> Option<&str> {
        match &self.repr {
            Repr::Building { terms, .. } => terms.get(id.0 as usize).map(String::as_str),
            Repr::Frozen(t) => {
                if (id.0 as usize) < t.len() {
                    Some(t.str_at(id.0))
                } else {
                    None
                }
            }
        }
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Building { terms, .. } => terms.len(),
            Repr::Frozen(t) => t.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map a prepared context (stemmed terms) to the set of known TIDs.
    pub fn context_tids<'a>(
        &self,
        stemmed_terms: impl IntoIterator<Item = &'a str>,
    ) -> std::collections::HashSet<TermId> {
        stemmed_terms
            .into_iter()
            .filter_map(|t| self.get(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = GlobalTidTable::new();
        let a = t.intern("warm");
        let b = t.intern("warm");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let mut t = GlobalTidTable::new();
        assert_eq!(t.intern("a"), TermId(0));
        assert_eq!(t.intern("b"), TermId(1));
        assert_eq!(t.intern("c"), TermId(2));
    }

    #[test]
    fn reverse_lookup() {
        let mut t = GlobalTidTable::new();
        let id = t.intern("sunspot");
        assert_eq!(t.term(id), Some("sunspot"));
        assert_eq!(t.term(TermId(99)), None);
    }

    #[test]
    fn get_does_not_intern() {
        let t = GlobalTidTable::new();
        assert_eq!(t.get("missing"), None);
        assert!(t.is_empty());
    }

    #[test]
    fn context_mapping_skips_unknown() {
        let mut t = GlobalTidTable::new();
        let a = t.intern("alpha");
        t.intern("beta");
        let ctx = t.context_tids(["alpha", "gamma"]);
        assert_eq!(ctx.len(), 1);
        assert!(ctx.contains(&a));
    }

    #[test]
    fn max_tid_is_22_bits() {
        assert_eq!(MAX_TID, 4_194_303);
    }

    #[test]
    fn frozen_table_agrees_with_building_table() {
        let mut built = GlobalTidTable::new();
        for term in ["warm", "ocean", "arctic", "trade"] {
            built.intern(term);
        }
        let frozen = GlobalTidTable::from_frozen(built.to_str_table());
        assert_eq!(frozen.len(), built.len());
        for term in ["warm", "ocean", "arctic", "trade", "missing"] {
            assert_eq!(frozen.get(term), built.get(term), "{term}");
        }
        for id in 0..=4 {
            assert_eq!(frozen.term(TermId(id)), built.term(TermId(id)));
        }
        let ctx = ["warm", "unknown", "trade"];
        assert_eq!(frozen.context_tids(ctx), built.context_tids(ctx));
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn intern_on_frozen_panics() {
        let mut t = GlobalTidTable::from_frozen(GlobalTidTable::new().to_str_table());
        t.intern("nope");
    }
}
