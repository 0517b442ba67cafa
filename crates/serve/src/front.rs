//! The HTTP front both servers run on: bind and accept, one thread per
//! open connection, request reading under deadlines and size limits,
//! keep-alive, `POST /admin/shutdown` and the drain. A server plugs in
//! only its [`Handler`]: [`Server`](crate::Server) and the router's
//! `RouterServer`.
//!
//! A connection that is idle between requests, dripping a request in
//! or stalled mid-body holds its own thread and nothing else: the
//! permit that bounds how many requests execute at once is taken only
//! once a whole request has been read, and given back as soon as the
//! response is written or handed off. Open connections are capped, so
//! threads are too; above the cap, or when a thread cannot be spawned,
//! the acceptor answers `503` + `Retry-After` itself.

use crate::http::{
    is_timeout, read_request_deadline, write_response, HttpError, Request, Response,
};
use crate::metrics::{Endpoint, Metrics};
use crate::ServeConfig;
use serde_json::json;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A connection's write half. Shared so a handler can finish a response
/// on another thread (serve's batcher writes `/rank` answers); every
/// write holds the mutex, so response bytes never interleave.
pub type Writer = Arc<Mutex<TcpStream>>;

/// What a server plugs into the [`Front`].
pub trait Handler: Send + Sync + 'static {
    /// Answer one fully read request. Return the response for the front
    /// to write, or `None` once the handler has taken the write over on
    /// `writer`. `keep_alive` is what that response must announce: the
    /// request's wish, turned off while the front drains.
    fn handle(&self, req: &Request, keep_alive: bool, writer: &Writer) -> Option<Response>;

    /// Where the front counts what it answers or drops on its own:
    /// sheds, timeouts, rejected requests, transport errors.
    fn metrics(&self) -> Option<&Metrics> {
        None
    }
}

/// A running front. Call [`Front::shutdown`] for a graceful drain;
/// dropping it without that leaves its threads running unjoined.
pub struct Front {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

struct Shared {
    handler: Arc<dyn Handler>,
    config: ServeConfig,
    permits: Option<Permits>,
    shutting: AtomicBool,
    state: Mutex<State>,
    /// Signalled when a connection closes or shutdown is requested.
    changed: Condvar,
}

#[derive(Default)]
struct State {
    open: usize,
    shutdown_requested: bool,
    /// A connection thread panicked; the drain re-raises it.
    panicked: bool,
}

const POISONED: &str = "front state poisoned";

impl Front {
    /// Bind `config.addr` and serve `handler` under its connection cap,
    /// timeouts and shutdown switch, and with `permits` (if any) as the
    /// bound on requests executing at once. Returns once the listener is
    /// live.
    pub fn start(
        config: &ServeConfig,
        permits: Option<usize>,
        handler: Arc<dyn Handler>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            config: config.clone(),
            permits: permits.map(|n| Permits(Mutex::new(n.max(1)), Condvar::new())),
            shutting: AtomicBool::new(false),
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ctxrank-acceptor".into())
                .spawn(move || accept(&shared, &listener))?
        };
        Ok(Self {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a client calls `POST /admin/shutdown` (requires
    /// `enable_shutdown_endpoint`).
    pub fn wait_for_shutdown_request(&self) {
        drop(self.shared.wait_until(|s| s.shutdown_requested));
    }

    /// Graceful drain: stop accepting, then wait for every connection to
    /// finish its request in flight and close. Responses written from
    /// here on announce `Connection: close`; an idle connection closes
    /// when its peer does or its keep-alive window ends.
    pub fn shutdown(mut self) {
        self.shared.shutting.store(true, Ordering::Release);
        // Wake the acceptor out of `accept()` with a throwaway
        // connection; it checks the flag before handling it.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            t.join().expect("acceptor panicked");
        }
        let state = self.shared.wait_until(|s| s.open == 0);
        assert!(!state.panicked, "a connection thread panicked");
    }
}

impl Shared {
    fn wait_until(&self, done: impl Fn(&State) -> bool) -> MutexGuard<'_, State> {
        let state = self.state.lock().expect(POISONED);
        self.changed
            .wait_while(state, |s| !done(s))
            .expect(POISONED)
    }

    /// Refuse a connection at the door: one 503 with `Retry-After`.
    fn shed(&self, writer: &Writer) {
        if let Some(metrics) = self.handler.metrics() {
            metrics.record_shed();
        }
        let resp = Response::json(503, &json!({"error": "overloaded"}))
            .with_header("retry-after", self.config.retry_after_secs.to_string());
        let _ = write(writer, &resp, false);
    }

    fn serve_connection(&self, stream: TcpStream, writer: &Writer) {
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream);
        loop {
            // Re-arm the idle timeout every time: `read_request_deadline`
            // re-arms the socket with its shrinking budget, which must
            // not leak into the wait for the next request.
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(self.config.keep_alive_timeout));
            let req = match read_request_deadline(&mut reader, Some(self.config.request_deadline)) {
                Ok(Some(req)) => req,
                // Peer closed between requests — normal keep-alive end.
                Ok(None) => return,
                Err(err) => return self.reject(err, writer),
            };
            if !self.respond(&req, writer) {
                return;
            }
        }
    }

    /// Answer a request that could not be read, and count it.
    fn reject(&self, err: HttpError, writer: &Writer) {
        let metrics = self.handler.metrics();
        let (status, detail) = match err {
            // An idle timeout is routine; a transport error mid-stream
            // is worth counting.
            HttpError::Io(e) => {
                if let (Some(metrics), false) = (metrics, is_timeout(&e)) {
                    metrics.record_io_error();
                }
                return;
            }
            HttpError::Timeout => {
                metrics.inspect(|m| m.record_timeout());
                (408, "request timed out")
            }
            HttpError::TooLarge => (413, "request too large"),
            HttpError::BadRequest(detail) => (400, detail),
        };
        metrics.inspect(|m| m.record_request(Endpoint::Other, 0.0));
        let resp = Response::json(status, &json!({"error": detail}));
        let _ = write(writer, &resp, false);
    }

    /// Run one request under a permit; whether the connection stays open.
    fn respond(&self, req: &Request, writer: &Writer) -> bool {
        let keep_alive = req.keep_alive && !self.shutting.load(Ordering::Acquire);
        let _permit = self.permits.as_ref().map(Permits::take);
        let resp = if self.config.enable_shutdown_endpoint
            && req.method == "POST"
            && req.path == "/admin/shutdown"
        {
            self.state.lock().expect(POISONED).shutdown_requested = true;
            self.changed.notify_all();
            Some(Response::json(200, &json!({"status": "shutting down"})))
        } else {
            self.handler.handle(req, keep_alive, writer)
        };
        resp.is_none_or(|resp| write(writer, &resp, keep_alive).is_ok()) && keep_alive
    }
}

fn write(writer: &Writer, resp: &Response, keep_alive: bool) -> std::io::Result<()> {
    let mut stream = writer.lock().expect("conn writer poisoned");
    write_response(&mut stream, resp, keep_alive)
}

fn accept(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.shutting.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        let writer = Arc::new(Mutex::new(writer));
        let admitted = {
            let mut state = shared.state.lock().expect(POISONED);
            let admitted = state.open < shared.config.conn_backlog;
            state.open += usize::from(admitted);
            admitted
        };
        let spawned = admitted && {
            let slot = Slot(Arc::clone(shared));
            let writer = Arc::clone(&writer);
            // A failed spawn drops the closure, and with it the slot.
            std::thread::Builder::new()
                .name("ctxrank-conn".into())
                .spawn(move || {
                    slot.0.serve_connection(stream, &writer);
                    // Free the slot before the socket closes, so a
                    // client that sees EOF can reconnect under the cap.
                    drop(slot);
                    drop(writer);
                })
                .is_ok()
        };
        if !spawned {
            shared.shed(&writer);
        }
    }
}

/// One counted open connection; dropping it frees its place under the
/// cap, even when the connection's thread unwinds.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        if let Ok(mut state) = self.0.state.lock() {
            state.open -= 1;
            state.panicked |= std::thread::panicking();
        }
        self.0.changed.notify_all();
    }
}

/// A counting semaphore: the permits free, and their return signal.
struct Permits(Mutex<usize>, Condvar);

struct Permit<'a>(&'a Permits);

impl Permits {
    fn take(&self) -> Permit<'_> {
        let free = self.0.lock().expect("permits poisoned");
        let mut free = self
            .1
            .wait_while(free, |free| *free == 0)
            .expect("permits poisoned");
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Ok(mut free) = self.0 .0.lock() {
            *free += 1;
        }
        self.0 .1.notify_one();
    }
}
