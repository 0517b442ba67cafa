//! The micro-batcher: coalesce queued `/rank` requests into
//! [`ServiceHandle::rank_batch_online`] calls.
//!
//! Connection threads parse requests and *submit* jobs; one batcher thread
//! owns the ranking cadence. A job waits in a bounded queue until
//! either `max_batch` jobs have accumulated or the oldest job has
//! waited `max_wait` — then the whole batch is ranked through **one**
//! `rank_batch_online` call, which pins one snapshot and one adjuster
//! read for the entire batch. That single call is what makes torn
//! responses impossible: every document in a batch is served by exactly
//! the epoch reported back to its client.
//!
//! The batcher also *completes* each job: it renders and writes the
//! response onto the job's connection itself, instead of handing the
//! result back to the submitting thread. That removes a condvar wake
//! and a thread handoff from every request — that thread is already back
//! in `read_request` for the connection's next request (which a
//! well-behaved client only sends after this response arrives).
//!
//! The queue bound is the server's admission control: a full queue
//! rejects immediately ([`SubmitError::QueueFull`] → 503 +
//! `Retry-After`) instead of buffering unbounded work it cannot finish
//! in time. Shedding at the door costs the client one round trip;
//! queueing it would cost everyone's latency.

use crate::cache::ResultCache;
use crate::http::write_response;
use crate::metrics::{Endpoint, Metrics};
use crate::server::{render_rank_response, render_rank_response_sharded};
use ctxrank_framework::ServiceHandle;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued rank request, carrying the connection to respond on.
pub struct RankJob {
    pub text: String,
    pub candidates: Vec<String>,
    pub enqueued: Instant,
    /// The connection's write half, shared with its connection thread (all
    /// writes go through the mutex, so response bytes never interleave).
    pub writer: Arc<Mutex<TcpStream>>,
    /// Whether the *request* asked to keep the connection open; the
    /// batcher additionally closes when the server is draining.
    pub keep_alive: bool,
    /// [`crate::cache::query_hash`] of (text, candidates), computed by
    /// the connection thread that already probed the cache and missed. `None` when
    /// the cache is disabled. The batcher uses it to insert the
    /// rendered body under the epoch that ranked it.
    pub query_hash: Option<u64>,
}

struct Queue {
    jobs: VecDeque<RankJob>,
    shutting: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals the batcher thread that jobs arrived (or shutdown).
    nonempty: Condvar,
}

/// Why a submit was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed with 503 + `Retry-After`.
    QueueFull,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

/// Handle to the batcher: submit side for connections, lifecycle for the
/// server. Shared behind `Arc`, so shutdown takes `&self` and joins the
/// thread exactly once.
pub struct Batcher {
    shared: Arc<Shared>,
    capacity: usize,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Spawn the batcher thread. `capacity` bounds the pending-job
    /// queue; `max_batch`/`max_wait` shape the coalescing window.
    pub fn start(
        handle: Arc<ServiceHandle>,
        metrics: Arc<Metrics>,
        cache: Option<Arc<ResultCache>>,
        capacity: usize,
        max_batch: usize,
        max_wait: Duration,
        shard_mode: bool,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting: false,
            }),
            nonempty: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ctxrank-batcher".into())
                .spawn(move || {
                    run_batcher(
                        &shared,
                        &handle,
                        &metrics,
                        cache.as_deref(),
                        max_batch.max(1),
                        max_wait,
                        shard_mode,
                    )
                })
                .expect("spawn batcher thread")
        };
        Self {
            shared,
            capacity: capacity.max(1),
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Enqueue one rank request for batched completion. On success the
    /// batcher owns the job end-to-end: it will rank it and write the
    /// response onto `job.writer`. On refusal the caller still owns the
    /// connection and writes the 503 itself.
    pub fn submit(&self, metrics: &Metrics, job: RankJob) -> Result<(), SubmitError> {
        let mut q = self.shared.queue.lock().expect("batcher queue poisoned");
        if q.shutting {
            return Err(SubmitError::ShuttingDown);
        }
        if q.jobs.len() >= self.capacity {
            return Err(SubmitError::QueueFull);
        }
        q.jobs.push_back(job);
        metrics.set_queue_depth(q.jobs.len());
        // Only the batcher thread ever waits on this condvar.
        self.shared.nonempty.notify_one();
        Ok(())
    }

    /// Stop admitting work, rank everything already queued (their
    /// responses still go out — that is the drain guarantee), then join
    /// the batcher thread. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().expect("batcher queue poisoned");
            q.shutting = true;
            self.shared.nonempty.notify_all();
        }
        let joined = self.thread.lock().expect("batcher join lock").take();
        if let Some(t) = joined {
            t.join().expect("batcher thread panicked");
        }
    }
}

fn run_batcher(
    shared: &Shared,
    handle: &ServiceHandle,
    metrics: &Metrics,
    cache: Option<&ResultCache>,
    max_batch: usize,
    max_wait: Duration,
    shard_mode: bool,
) {
    loop {
        let (batch, draining): (Vec<RankJob>, bool) = {
            let mut q = shared.queue.lock().expect("batcher queue poisoned");
            while q.jobs.is_empty() && !q.shutting {
                q = shared.nonempty.wait(q).expect("batcher queue poisoned");
            }
            if q.jobs.is_empty() && q.shutting {
                return;
            }
            // Coalescing window: hold until the batch fills or the
            // oldest job has waited max_wait. During drain, rank
            // immediately — latency no longer buys batching.
            while q.jobs.len() < max_batch && !q.shutting {
                let oldest = q.jobs.front().expect("nonempty").enqueued;
                let Some(remaining) = max_wait.checked_sub(oldest.elapsed()) else {
                    break;
                };
                if remaining.is_zero() {
                    break;
                }
                let (guard, _) = shared
                    .nonempty
                    .wait_timeout(q, remaining)
                    .expect("batcher queue poisoned");
                q = guard;
            }
            let take = q.jobs.len().min(max_batch);
            let batch = q.jobs.drain(..take).collect();
            metrics.set_queue_depth(q.jobs.len());
            (batch, q.shutting)
        };

        // Dispatch point: everything from here on is ranking, not
        // queueing — attribute the wait so SLO misses can be blamed on
        // the right stage.
        for job in &batch {
            metrics.record_queue_wait(job.enqueued.elapsed().as_secs_f64());
        }

        let docs: Vec<(&str, &[String])> = batch
            .iter()
            .map(|j| (j.text.as_str(), j.candidates.as_slice()))
            .collect();
        // One call, one snapshot, one adjuster read — for every job in
        // the batch. Shard mode needs the pinned snapshot itself (not
        // just its epoch) so the "owned" flags are computed against
        // exactly the snapshot that ranked the batch.
        let (snapshot, results) = handle.rank_batch_online_pinned(&docs);
        let epoch = snapshot.epoch();
        metrics.record_batch(batch.len());
        for (job, ranked) in batch.into_iter().zip(results) {
            let resp = if shard_mode {
                render_rank_response_sharded(&snapshot, &ranked)
            } else {
                render_rank_response(epoch, &ranked)
            };
            // Cache the rendered body under the epoch that *ranked* it
            // — the only epoch this body can ever be served for, which
            // is the whole no-stale-reads argument.
            if let (Some(cache), Some(qhash)) = (cache, job.query_hash) {
                cache.insert(epoch, qhash, Arc::from(resp.body.as_slice()), metrics);
            }
            let keep_alive = job.keep_alive && !draining;
            // Record before writing: once the response is on the wire
            // the client may immediately scrape /metrics and must see
            // this request counted.
            metrics.record_request(Endpoint::Rank, job.enqueued.elapsed().as_secs_f64());
            let mut writer = job.writer.lock().expect("conn writer poisoned");
            let _ = write_response(&mut writer, &resp, keep_alive);
        }
    }
}
