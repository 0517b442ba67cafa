//! Allocation bound of `ConceptVectorBuilder::build_from_tokens`.
//!
//! A counting global allocator records every block the calling thread
//! allocates while armed. On a ≈ 250-token document the builder may
//! allocate one `String` per returned concept plus at most 16 blocks of
//! working state, and no block may be as large as a dense `f64` per unit
//! of the dictionary: per-document state is sized by the document.

use ctxrank_querylog::{extract_units, QueryLog, UnitConfig, UnitDictionary};
use ctxrank_shortcuts::{ConceptVectorBuilder, ConceptVectorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            BLOCKS.with(|b| b.set(b.get() + 1));
            LARGEST.with(|l| l.set(l.get().max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // block of this allocator is), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 6,000 single-term units plus a few multi-term ones.
fn units() -> UnitDictionary {
    let mut log = QueryLog::new();
    for i in 0..6000 {
        log.add(&format!("word{i}"), 5 + i % 11);
    }
    for q in ["global warming", "polar bears", "bank of america"] {
        log.add(q, 60);
    }
    extract_units(&log, &UnitConfig::default())
}

/// A deterministic 250-token document: dictionary words with repeats,
/// stop-words, words no unit contains and multi-term units.
fn document() -> Vec<String> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut tokens = Vec::new();
    while tokens.len() < 250 {
        let r = next();
        match r % 8 {
            0 => tokens.push(["the", "of", "and", "a"][(r >> 8) as usize % 4].to_string()),
            1 => tokens.push(format!("unseen{}", (r >> 8) % 40)),
            2 => tokens.extend(["global", "warming"].map(String::from)),
            3 => tokens.extend(["polar", "bears"].map(String::from)),
            _ => tokens.push(format!("word{}", (r >> 8) % 300)),
        }
    }
    tokens
}

#[test]
fn build_from_tokens_allocates_per_output_not_per_unit() {
    let units = units();
    let tokens = document();
    let builder = ConceptVectorBuilder::new(
        &units,
        |t: &str| 1.0 + t.len() as f64 * 0.1,
        ConceptVectorConfig::default(),
    );

    ARMED.with(|a| a.set(true));
    let vector = builder.build_from_tokens(&tokens);
    ARMED.with(|a| a.set(false));

    let blocks = BLOCKS.with(Cell::get);
    let largest = LARGEST.with(Cell::get);
    eprintln!(
        "{} tokens, {} units, {} concepts: {blocks} blocks, largest {largest} B",
        tokens.len(),
        units.len(),
        vector.len()
    );
    assert!(vector.len() > 100, "the document must exercise the builder");
    assert!(
        blocks <= vector.len() + 16,
        "{blocks} blocks for {} concepts",
        vector.len()
    );
    assert!(
        largest < units.len() * 8,
        "a {largest}-byte block scales with the {}-unit dictionary",
        units.len()
    );
}
