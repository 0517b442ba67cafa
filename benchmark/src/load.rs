//! The load generator: closed-loop lanes (one connection each, next
//! request only after the previous reply — how a page renderer calls
//! the ranker), an open-loop Poisson pass kept as a diagnostic, and
//! `/metrics` scraping.

use crate::fixture::{Bodies, IndexStream, Mix};
use crate::http::{self, Conn};
use crate::stats::{self, Rng, Scrape};
use crate::trace::Trace;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th response of a lane is kept for the output
/// check.
const SAMPLE_EVERY: u64 = 64;
const STOP: usize = usize::MAX;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Completion time, ns since the run's origin.
    pub end_ns: u64,
    pub lat_ns: u64,
    /// Index into the lanes' target list.
    pub target: usize,
    /// 200 and a well-formed body.
    pub ok: bool,
}

/// A response kept for verification.
pub struct Sampled {
    pub index: u64,
    pub body: Vec<u8>,
}

#[derive(Default)]
pub struct LaneOut {
    pub recs: Vec<Rec>,
    pub sampled: Vec<Sampled>,
    /// Responses whose epoch was lower than an earlier one on the same
    /// connection.
    pub epoch_regressions: u64,
}

/// Running closed-loop lanes. They send to `targets[current]` until
/// [`ClosedLoop::stop`]; [`ClosedLoop::switch`] moves every lane to
/// another target between windows.
pub struct ClosedLoop {
    current: Arc<AtomicUsize>,
    lanes: Vec<std::thread::JoinHandle<LaneOut>>,
}

impl ClosedLoop {
    pub fn start(
        bodies: &Arc<Bodies>,
        mix: Mix,
        seed: u64,
        lanes: usize,
        targets: Vec<SocketAddr>,
        origin: Instant,
    ) -> Self {
        let current = Arc::new(AtomicUsize::new(0));
        let lanes = (0..lanes)
            .map(|lane| {
                let bodies = Arc::clone(bodies);
                let current = Arc::clone(&current);
                let targets = targets.clone();
                let indices = IndexStream::new(mix, seed, lane, lanes);
                std::thread::Builder::new()
                    .name(format!("bench-lane-{lane}"))
                    .spawn(move || run_lane(&bodies, indices, &targets, &current, origin))
                    .expect("spawn lane")
            })
            .collect();
        Self { current, lanes }
    }

    pub fn switch(&self, target: usize) {
        self.current.store(target, Ordering::Release);
    }

    /// Stop the lanes, close their connections and collect what they
    /// recorded.
    pub fn stop(self) -> Vec<LaneOut> {
        self.current.store(STOP, Ordering::Release);
        self.lanes
            .into_iter()
            .map(|t| t.join().expect("lane panicked"))
            .collect()
    }
}

fn run_lane(
    bodies: &Bodies,
    mut indices: IndexStream,
    targets: &[SocketAddr],
    current: &AtomicUsize,
    origin: Instant,
) -> LaneOut {
    let mut out = LaneOut {
        recs: Vec::with_capacity(1 << 18),
        ..LaneOut::default()
    };
    let mut conn: Option<(usize, Conn)> = None;
    let mut payload = Vec::with_capacity(4096);
    let mut body = Vec::with_capacity(1024);
    let mut last_epoch = 0;
    let mut sent = 0u64;
    loop {
        let target = current.load(Ordering::Acquire);
        if target == STOP {
            return out;
        }
        if conn.as_ref().map(|(t, _)| *t) != Some(target) {
            // Dropping the old connection first frees its server worker.
            conn = None;
            match Conn::connect(targets[target]) {
                Ok(c) => {
                    conn = Some((target, c));
                    last_epoch = 0;
                }
                Err(_) => {
                    out.recs.push(Rec {
                        end_ns: origin.elapsed().as_nanos() as u64,
                        lat_ns: 0,
                        target,
                        ok: false,
                    });
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let index = indices.next_index();
        bodies.render(index, &mut payload);
        let (_, c) = conn.as_mut().expect("connected above");
        let start = Instant::now();
        let result = c.request("POST", "/rank", &payload, &mut body);
        let lat_ns = start.elapsed().as_nanos() as u64;
        let epoch = match result {
            Ok(200) => response_epoch(&body),
            Ok(_) => None,
            Err(_) => {
                conn = None;
                None
            }
        };
        if let Some(epoch) = epoch {
            if epoch < last_epoch {
                out.epoch_regressions += 1;
            }
            last_epoch = epoch;
        }
        out.recs.push(Rec {
            end_ns: origin.elapsed().as_nanos() as u64,
            lat_ns,
            target,
            ok: epoch.is_some(),
        });
        if sent.is_multiple_of(SAMPLE_EVERY) && epoch.is_some() {
            out.sampled.push(Sampled {
                index,
                body: body.clone(),
            });
        }
        sent += 1;
    }
}

/// The epoch of a `/rank` body (`{"epoch":N,"results":[…]}`), or `None`
/// when the body has another shape.
pub fn response_epoch(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"epoch\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || !rest[digits..].starts_with(b",\"results\":[") {
        return None;
    }
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// A stretch of the run to report on: the requests that completed in
/// `[start_ns, end_ns)` against `target`.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub start_ns: u64,
    pub end_ns: u64,
    pub target: usize,
}

impl Segment {
    fn holds(&self, r: &Rec) -> bool {
        r.target == self.target && r.end_ns >= self.start_ns && r.end_ns < self.end_ns
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_quantile: f64,
    pub n: usize,
    pub failed: usize,
}

pub fn window_stats(lanes: &[LaneOut], seg: &Segment) -> WindowStats {
    let in_window =
        |r: &&Rec| r.target == seg.target && r.end_ns >= seg.start_ns && r.end_ns < seg.end_ns;
    let recs: Vec<&Rec> = lanes
        .iter()
        .flat_map(|l| &l.recs)
        .filter(in_window)
        .collect();
    let failed = recs.iter().filter(|r| !r.ok).count();
    let lat = stats::sorted(
        recs.iter()
            .filter(|r| r.ok)
            .map(|r| r.lat_ns as f64 / 1e6)
            .collect(),
    );
    if lat.is_empty() {
        return WindowStats {
            failed,
            ..WindowStats::default()
        };
    }
    let tail_quantile = stats::tail_quantile(lat.len());
    WindowStats {
        ops_per_s: lat.len() as f64 / ((seg.end_ns - seg.start_ns) as f64 / 1e9),
        p50_ms: stats::percentile(&lat, 0.5),
        tail_ms: stats::percentile(&lat, tail_quantile),
        tail_quantile,
        n: lat.len(),
        failed,
    }
}

/// Record up to 2,000 successful requests of `seg` as spans called
/// `name` (one operation each) and return the segment's p50 in ms.
pub fn trace_requests(
    trace: &mut Trace,
    name: &'static str,
    lanes: &[LaneOut],
    seg: &Segment,
) -> f64 {
    let ok = lanes
        .iter()
        .flat_map(|l| &l.recs)
        .filter(|r| r.ok && seg.holds(r));
    for (op, r) in ok.take(2_000).enumerate() {
        trace.push(name, r.end_ns - r.lat_ns, r.end_ns, None, op as u64);
    }
    window_stats(lanes, seg).p50_ms
}

/// Sleep through one window and return it as a [`Segment`].
pub fn hold(origin: Instant, target: usize, length: Duration) -> Segment {
    let start_ns = origin.elapsed().as_nanos() as u64;
    std::thread::sleep(length);
    Segment {
        start_ns,
        end_ns: origin.elapsed().as_nanos() as u64,
        target,
    }
}

/// The sum of the `/metrics` pages of `addrs`, each fetched on a
/// connection of its own.
pub fn scrape(addrs: &[SocketAddr]) -> Scrape {
    addrs.iter().fold(Scrape::default(), |sum, &addr| {
        let (status, body) = http::one_shot(addr, "GET", "/metrics").expect("scrape /metrics");
        assert_eq!(status, 200, "/metrics answered {status}");
        sum.plus(&Scrape::parse(&String::from_utf8_lossy(&body)))
    })
}

/// What one open-loop pass measured.
#[derive(Default)]
pub struct OpenLoopOut {
    /// Reply time minus *due* time, so a stall charges every request it
    /// delayed.
    pub lat_ms: Vec<f64>,
    /// Send time minus due time: how late the generator itself ran.
    pub late_us: Vec<f64>,
    pub failed: u64,
}

/// Poisson arrivals at `rps` in total over `lanes` connections, unique
/// bodies, for `length`.
pub fn open_loop(
    bodies: &Arc<Bodies>,
    addr: SocketAddr,
    seed: u64,
    lanes: usize,
    rps: f64,
    length: Duration,
) -> OpenLoopOut {
    let lane_rate = rps / lanes as f64;
    let threads: Vec<_> = (0..lanes)
        .map(|lane| {
            let bodies = Arc::clone(bodies);
            std::thread::spawn(move || {
                let mut out = OpenLoopOut::default();
                let mut indices = IndexStream::new(Mix::Miss, seed ^ 0x09E7, lane, lanes);
                let mut rng = Rng::new(seed ^ 0x09E7, 1000 + lane as u64);
                let mut conn = Conn::connect(addr).expect("open-loop connect");
                let (mut payload, mut body) = (Vec::new(), Vec::new());
                let begin = Instant::now();
                let mut due = Duration::ZERO;
                loop {
                    due += Duration::from_secs_f64(-rng.next_unit().ln() / lane_rate);
                    if due >= length {
                        return out;
                    }
                    bodies.render(indices.next_index(), &mut payload);
                    sleep_until(begin + due);
                    let sent = begin.elapsed();
                    match conn.request("POST", "/rank", &payload, &mut body) {
                        Ok(200) => {
                            out.lat_ms.push((begin.elapsed() - due).as_secs_f64() * 1e3);
                            out.late_us.push((sent - due).as_secs_f64() * 1e6);
                        }
                        Ok(_) => out.failed += 1,
                        Err(_) => {
                            out.failed += 1;
                            conn = Conn::connect(addr).expect("open-loop reconnect");
                        }
                    }
                }
            })
        })
        .collect();
    threads
        .into_iter()
        .fold(OpenLoopOut::default(), |mut all, t| {
            let lane = t.join().expect("open-loop lane panicked");
            all.lat_ms.extend(lane.lat_ms);
            all.late_us.extend(lane.late_us);
            all.failed += lane.failed;
            all
        })
}

/// Sleep to shortly before `deadline`, then spin: `thread::sleep`
/// alone overshoots by a scheduler tick.
pub fn sleep_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_read_only_from_rank_shaped_bodies() {
        assert_eq!(response_epoch(b"{\"epoch\":42,\"results\":[]}"), Some(42));
        assert_eq!(response_epoch(b"{\"epoch\":,\"results\":[]}"), None);
        assert_eq!(response_epoch(b"{\"error\":\"overloaded\"}"), None);
        assert_eq!(response_epoch(b"{\"epoch\":7}"), None);
    }

    #[test]
    fn windows_count_only_their_own_target_and_interval() {
        let rec = |end_ns, lat_ns, target, ok| Rec {
            end_ns,
            lat_ns,
            target,
            ok,
        };
        let lanes = vec![
            LaneOut {
                recs: vec![
                    rec(50, 1_000_000, 0, true), // before the window
                    rec(100, 1_000_000, 0, true),
                    rec(500, 3_000_000, 0, true),
                    rec(600, 9_000_000, 1, true), // other target
                ],
                ..LaneOut::default()
            },
            LaneOut {
                recs: vec![
                    rec(700, 2_000_000, 0, true),
                    rec(800, 0, 0, false),
                    rec(1_000_000_100, 1_000_000, 0, true), // at the end: excluded
                ],
                ..LaneOut::default()
            },
        ];
        let w = window_stats(
            &lanes,
            &Segment {
                start_ns: 100,
                end_ns: 1_000_000_100,
                target: 0,
            },
        );
        assert_eq!((w.n, w.failed), (3, 1));
        assert_eq!(w.ops_per_s, 3.0);
        assert_eq!(w.p50_ms, 2.0);
        assert_eq!(
            w.tail_quantile, 0.5,
            "three samples support only the median"
        );
    }
}
