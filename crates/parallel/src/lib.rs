//! Deterministic data-parallel primitives for the experiment and
//! ranking hot paths.
//!
//! The execution engine is a **lazily-initialized persistent worker
//! pool**: the first parallel call spawns the workers, and every later
//! call reuses them, so the per-call cost is a queue push and a condvar
//! wake instead of `threads` thread spawns. Each call splits its input
//! into one contiguous segment per worker; a worker drains its own
//! segment in adaptively-sized chunks (derived from item count and
//! worker count, see [`adaptive_chunk`]) and, when its segment is dry,
//! steals chunks from the other segments. Results are written into
//! index-addressed output slots, so output order — and therefore every
//! downstream consumer — is identical to the sequential loop, element
//! for element, regardless of scheduling.
//!
//! Fan-out is capped at the machine's available parallelism (or the
//! `CTXRANK_THREADS` override when it asks for more): oversubscribing a
//! CPU-bound map never helps, and the cap is what lets a request for
//! "8 threads" on a 1-core host degenerate to the plain inline loop
//! instead of paying scheduler overhead for negative scaling.
//! [`par_map_exact`] bypasses the cap for tests and scaling
//! experiments that must exercise the pool machinery regardless of the
//! host.
//!
//! With one effective worker, `par_map` degenerates to a plain in-place
//! map on the calling thread, so the serial and parallel code paths run
//! the exact same closure either way.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Worker count: `CTXRANK_THREADS` if set to a usable value, else the
/// machine's available parallelism. A value of `0`, an empty string, or
/// garbage never reaches callers — every pool in the workspace (and the
/// serving layer's worker threads) sizes itself through here, so the
/// override must degrade to the default rather than to zero workers.
pub fn num_threads() -> usize {
    parse_threads(std::env::var("CTXRANK_THREADS").ok().as_deref()).unwrap_or_else(hardware_threads)
}

/// Interpret a `CTXRANK_THREADS` value: `Some(n)` only for a parseable
/// integer >= 1, `None` (fall back to the default) for unset, empty,
/// zero, negative, or non-numeric input.
pub fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The machine's available parallelism (cached; `1` when unknown).
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Upper bound on useful fan-out: the hardware parallelism, raised by an
/// explicit `CTXRANK_THREADS` override (someone who sets the variable
/// above the core count is asking for oversubscription on purpose —
/// e.g. concurrency tests on a small host).
fn fan_out_cap() -> usize {
    let hw = hardware_threads();
    parse_threads(std::env::var("CTXRANK_THREADS").ok().as_deref()).map_or(hw, |t| t.max(hw))
}

/// The worker count [`par_map`] will actually use for a request of
/// `threads` over `items` inputs: capped by [`fan_out_cap`] and by the
/// item count, never zero.
pub fn effective_workers(threads: usize, items: usize) -> usize {
    threads.min(fan_out_cap()).min(items.max(1)).max(1)
}

/// How many chunks each worker's segment is split into. Small chunks
/// balance skewed workloads (one long document among many short ones);
/// the divisor keeps the atomic claim traffic proportional to the
/// worker count rather than the item count.
const TARGET_CHUNKS_PER_WORKER: usize = 8;

/// Chunk ceiling so gigantic inputs still rebalance across workers.
const MAX_CHUNK: usize = 4096;

/// Hard cap on persistent pool threads, far above any sane fan-out.
const MAX_POOL_WORKERS: usize = 256;

/// Claim granularity for `n` items across `workers` segments: about
/// [`TARGET_CHUNKS_PER_WORKER`] claims per worker, clamped to
/// `1..=`[`MAX_CHUNK`]. Replaces the old fixed `CHUNK = 8`, whose claim
/// count grew linearly with the input while the work per claim stayed
/// constant.
fn adaptive_chunk(n: usize, workers: usize) -> usize {
    (n / (workers * TARGET_CHUNKS_PER_WORKER)).clamp(1, MAX_CHUNK)
}

/// Map `f` over `items`, in parallel, preserving order.
///
/// `threads == 1` (or a single item, or a single effective worker after
/// the hardware cap) runs inline on the caller's thread. Results land
/// at the same index as their input, so the output is byte-identical to
/// `items.iter().map(f).collect()` regardless of thread count or
/// scheduling.
///
/// Panics in `f` propagate to the caller once all workers stop.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_exact(effective_workers(threads, items.len()), items, f)
}

/// [`par_map`] with an exact fan-out, bypassing the hardware cap.
///
/// This exists so tests and scaling experiments can force real
/// multi-worker execution on hosts whose available parallelism would
/// otherwise collapse the call to the inline path. Production callers
/// should use [`par_map`].
pub fn par_map_exact<T, R, F>(fan_out: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if fan_out <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let fan_out = fan_out.min(n);

    // Collect into index-addressed slots so claim order can't reorder
    // the output.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    let ctx = MapCtx {
        items,
        slots: slots.as_mut_ptr(),
        f: &f,
        segments: build_segments(n, fan_out),
        tickets: AtomicUsize::new(0),
        chunk: adaptive_chunk(n, fan_out),
        abort: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    let job = Arc::new(Job {
        exec: run_map::<T, R, F>,
        ctx: (&raw const ctx).cast::<()>(),
        open: AtomicBool::new(true),
        pending: AtomicUsize::new(0),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    });

    let pool = pool();
    pool.ensure_workers(fan_out - 1);
    pool.shared
        .queue
        .lock()
        .expect("pool queue poisoned")
        .push(Arc::clone(&job));
    pool.shared.work_ready.notify_all();

    // The caller is always one of the workers, so progress never
    // depends on pool threads being free (this also makes nested
    // par_map calls deadlock-free: the inner caller can drain its own
    // job alone).
    // SAFETY: `ctx` outlives every `exec` call — helpers register in
    // `pending` under the queue lock while the job is queued, we remove
    // the job from the queue below and then wait for `pending == 0`.
    unsafe { (job.exec)(job.ctx) };
    job.open.store(false, Ordering::Release);
    pool.shared
        .queue
        .lock()
        .expect("pool queue poisoned")
        .retain(|j| !Arc::ptr_eq(j, &job));
    let mut guard = job.done_lock.lock().expect("job lock poisoned");
    while job.pending.load(Ordering::SeqCst) > 0 {
        guard = job.done_cv.wait(guard).expect("job lock poisoned");
    }
    drop(guard);

    if let Some(payload) = ctx.panic.lock().expect("panic slot poisoned").take() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("par_map: worker skipped a slot"))
        .collect()
}

// ---------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------

/// One contiguous range of input indices owned by one worker. Padded to
/// a cache line so claim traffic on one segment never invalidates a
/// neighbour's.
#[repr(align(64))]
struct Segment {
    next: AtomicUsize,
    end: usize,
}

/// Split `0..n` into `workers` near-equal contiguous segments.
fn build_segments(n: usize, workers: usize) -> Vec<Segment> {
    let base = n / workers;
    let rem = n % workers;
    let mut segments = Vec::with_capacity(workers);
    let mut start = 0usize;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        segments.push(Segment {
            next: AtomicUsize::new(start),
            end: start + len,
        });
        start += len;
    }
    segments
}

/// Per-call typed state, living on the submitting caller's stack for
/// the duration of the call. Accessed by workers only between their
/// `pending` registration and deregistration, which the caller brackets
/// with its completion wait.
struct MapCtx<'a, T, R, F> {
    items: &'a [T],
    /// Raw slot base; disjoint chunk claims guarantee disjoint writes.
    slots: *mut Option<R>,
    f: &'a F,
    segments: Vec<Segment>,
    /// Entry tickets: ticket `w < segments.len()` makes the entrant the
    /// owner of segment `w`; later entrants bounce off.
    tickets: AtomicUsize,
    chunk: usize,
    /// Set on panic so other workers stop claiming promptly.
    abort: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A queued parallel call: a type-erased entry point plus the handshake
/// state the untyped worker loop needs.
struct Job {
    exec: unsafe fn(*const ()),
    ctx: *const (),
    /// Accepting new entrants? Cleared once any entrant observes the
    /// work exhausted (claims are monotone, so one drained scan means
    /// drained forever).
    open: AtomicBool,
    /// Workers currently inside `exec`. Incremented under the queue
    /// lock while the job is queued; the submitter dequeues and then
    /// waits for zero, so `ctx` cannot be touched after the call
    /// returns.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is only dereferenced inside `exec`, whose monomorphized
// instantiation enforces `T: Sync`, `R: Send`, `F: Sync`; the lifetime
// of the pointee is protected by the pending-count handshake above.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Typed worker body: take an entry ticket, drain the owned segment in
/// chunks, then steal chunks from the other segments until everything
/// is claimed. Returns only when no claimable work remains (or on
/// ticket overflow / abort).
unsafe fn run_map<T, R, F>(ctx: *const ())
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // SAFETY: the caller (worker loop or submitter) guarantees `ctx`
    // points at a live `MapCtx<T, R, F>` for the duration of this call.
    let ctx = unsafe { &*ctx.cast::<MapCtx<T, R, F>>() };
    let ticket = ctx.tickets.fetch_add(1, Ordering::Relaxed);
    let k = ctx.segments.len();
    if ticket >= k {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for off in 0..k {
            let seg = &ctx.segments[(ticket + off) % k];
            loop {
                if ctx.abort.load(Ordering::Relaxed) {
                    return;
                }
                let start = seg.next.fetch_add(ctx.chunk, Ordering::Relaxed);
                if start >= seg.end {
                    break;
                }
                let end = (start + ctx.chunk).min(seg.end);
                for (i, item) in ctx.items[start..end].iter().enumerate() {
                    let out = (ctx.f)(item);
                    // SAFETY: index `start + i` is claimed by exactly
                    // one worker (fetch_add hands out disjoint ranges)
                    // and the slot vector outlives the job.
                    unsafe { ctx.slots.add(start + i).write(Some(out)) };
                }
            }
        }
    }));
    if let Err(payload) = outcome {
        ctx.abort.store(true, Ordering::Relaxed);
        let mut slot = ctx.panic.lock().expect("panic slot poisoned");
        slot.get_or_insert(payload);
    }
}

struct PoolShared {
    queue: Mutex<Vec<Arc<Job>>>,
    work_ready: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    spawned: Mutex<usize>,
}

impl Pool {
    /// Grow the persistent worker set to at least `want` threads
    /// (bounded by [`MAX_POOL_WORKERS`]). Spawn failure degrades to
    /// fewer helpers — the submitting caller always participates, so
    /// correctness never depends on this succeeding.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_POOL_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool spawn lock poisoned");
        while *spawned < want {
            let shared = Arc::clone(&self.shared);
            let ok = std::thread::Builder::new()
                .name(format!("ctxrank-pool-{spawned}"))
                .spawn(move || worker_loop(&shared))
                .is_ok();
            if !ok {
                break;
            }
            *spawned += 1;
        }
    }
}

/// The process-wide pool, created on first parallel call.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(PoolShared {
            queue: Mutex::new(Vec::new()),
            work_ready: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

/// Persistent worker: sleep until a job is queued, help drain it, mark
/// it closed, deregister, repeat. Never exits; pool threads die with
/// the process.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.iter().find(|j| j.open.load(Ordering::Acquire)) {
                    let job = Arc::clone(job);
                    // Registered while the job is still queued and the
                    // lock is held: the submitter's dequeue (same lock)
                    // strictly follows, so it will wait for us.
                    job.pending.fetch_add(1, Ordering::SeqCst);
                    break job;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        // SAFETY: see `Job::pending` — the submitter keeps `ctx` alive
        // until we deregister below.
        unsafe { (job.exec)(job.ctx) };
        // `exec` returns only once no claimable work remains, so stop
        // further entrants from paying the entry cost.
        job.open.store(false, Ordering::Release);
        let guard = job.done_lock.lock().expect("job lock poisoned");
        if job.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            job.done_cv.notify_all();
        }
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let parallel = par_map(threads, &items, |x| x * x + 1);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn exact_fan_out_matches_sequential_map() {
        // Forces real pool execution even on a 1-core host.
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for fan_out in [2, 3, 8, 64] {
            let parallel = par_map_exact(fan_out, &items, |x| x * x + 1);
            assert_eq!(parallel, serial, "fan_out={fan_out}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(4, &empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(4, &[7u32], |x| x + 1), vec![8]);
        assert_eq!(par_map_exact(4, &empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map_exact(4, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn unbalanced_items_keep_order() {
        // Heavy items early: chunk claiming and stealing must not
        // reorder output.
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_exact(4, &items, |&i| {
            let spins = if i < 8 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for s in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Back-to-back calls through the same persistent pool, with
        // varying sizes so segment/chunk geometry changes every call.
        for round in 0..20usize {
            let n = 1 + round * 37;
            let items: Vec<usize> = (0..n).collect();
            let serial: Vec<usize> = items.iter().map(|x| x ^ round).collect();
            assert_eq!(par_map_exact(3, &items, |x| x ^ round), serial, "n={n}");
        }
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map_exact(4, &outer, |&i| {
            let inner: Vec<usize> = (0..50).collect();
            par_map_exact(3, &inner, |&j| i * 1000 + j)
                .iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = outer
            .iter()
            .map(|&i| (0..50).map(|j| i * 1000 + j).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panic_in_f_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_exact(4, &items, |&x| {
                assert!(x != 37, "boom");
                x
            })
        });
        assert!(result.is_err());
        // The pool must still be usable after a panicked job.
        assert_eq!(
            par_map_exact(4, &items, |&x| x + 1),
            items.iter().map(|&x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn effective_workers_bounds() {
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(8, 100) >= 1);
        assert!(effective_workers(8, 100) <= 8);
        assert_eq!(effective_workers(8, 0), 1);
        assert_eq!(effective_workers(8, 3).min(3), effective_workers(8, 3));
    }

    #[test]
    fn adaptive_chunk_scales_with_input() {
        assert_eq!(adaptive_chunk(10, 4), 1);
        assert!(adaptive_chunk(100_000, 4) > adaptive_chunk(1_000, 4));
        assert!(adaptive_chunk(usize::MAX / 2, 2) <= MAX_CHUNK);
        assert!(adaptive_chunk(0, 8) >= 1);
    }

    #[test]
    fn segments_cover_input_exactly() {
        for (n, w) in [(10, 3), (7, 7), (100, 8), (3, 2)] {
            let segs = build_segments(n, w);
            assert_eq!(segs.len(), w);
            let mut covered = 0usize;
            for s in &segs {
                let start = s.next.load(Ordering::Relaxed);
                assert_eq!(start, covered);
                covered = s.end;
            }
            assert_eq!(covered, n, "n={n} w={w}");
        }
    }

    #[test]
    fn num_threads_env_override() {
        std::env::set_var("CTXRANK_THREADS", "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var("CTXRANK_THREADS", "bogus");
        assert!(num_threads() >= 1);
        std::env::remove_var("CTXRANK_THREADS");
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_only_usable_counts() {
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some("16")), Some(16));
        assert_eq!(parse_threads(Some("  8 ")), Some(8));
    }

    #[test]
    fn parse_threads_falls_back_on_zero_empty_or_garbage() {
        for bad in [
            "0",
            "",
            "   ",
            "-2",
            "4.5",
            "four",
            "0x4",
            "18446744073709551616",
        ] {
            assert_eq!(parse_threads(Some(bad)), None, "input {bad:?}");
        }
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn num_threads_never_zero_even_when_env_is_hostile() {
        for bad in ["0", "", "garbage"] {
            std::env::set_var("CTXRANK_THREADS", bad);
            assert!(num_threads() >= 1, "CTXRANK_THREADS={bad:?}");
        }
        std::env::remove_var("CTXRANK_THREADS");
    }
}
