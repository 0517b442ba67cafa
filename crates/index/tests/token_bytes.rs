//! Heap bytes per indexed token.
//!
//! A counting global allocator tracks the live heap bytes the calling
//! thread holds while armed. Building an index over generated documents
//! must leave at most `MAX_BYTES_PER_TOKEN` live bytes per token: the
//! document text, a term id and a `u32` byte span per token (12 B), the
//! postings' positions and block-coded doc ids, and the vocabulary —
//! about 38 B in all on this corpus. A second per-token copy of each
//! term (a `String` is 24 bytes before its heap block) or `usize` spans
//! (8 more bytes per token) break the bound.

use ctxrank_index::IndexBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live bytes per token the built index may hold.
const MAX_BYTES_PER_TOKEN: f64 = 44.0;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LIVE.with(|l| l.set(l.get() + delta));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // block of this allocator is), as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 400 deterministic documents of 120–179 words drawn from a
/// 3,000-word vocabulary of 3–10 letter words, Zipf-like skewed.
fn documents() -> Vec<String> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let vocab: Vec<String> = (0..3000)
        .map(|_| {
            let len = 3 + (next() % 8) as usize;
            (0..len)
                .map(|_| char::from(b'a' + (next() % 26) as u8))
                .collect()
        })
        .collect();
    (0..400)
        .map(|_| {
            let words = 120 + (next() % 60) as usize;
            let mut doc = String::new();
            for w in 0..words {
                // The product of two uniforms skews toward low ranks.
                let rank = (next() % 3000) * (next() % 3000) / 3000;
                if w > 0 {
                    doc.push(' ');
                }
                doc.push_str(&vocab[rank as usize]);
            }
            doc
        })
        .collect()
}

#[test]
fn built_index_holds_bounded_bytes_per_token() {
    let docs = documents();

    ARMED.with(|a| a.set(true));
    let mut builder = IndexBuilder::new();
    for doc in &docs {
        builder.add_document(doc);
    }
    let index = builder.build();
    ARMED.with(|a| a.set(false));

    let live = LIVE.with(Cell::get);
    let tokens: usize = (0..index.num_docs())
        .map(|d| index.doc(ctxrank_index::DocId(d as u32)).len())
        .sum();
    let per_token = live as f64 / tokens as f64;
    eprintln!(
        "{tokens} tokens, {} terms: {live} live bytes, {per_token:.1} B/token",
        index.interner().len()
    );
    assert!(
        tokens > 50_000,
        "the corpus must be large enough to amortize the vocabulary"
    );
    assert!(
        per_token <= MAX_BYTES_PER_TOKEN,
        "{per_token:.1} live bytes per token (bound {MAX_BYTES_PER_TOKEN})"
    );
}
