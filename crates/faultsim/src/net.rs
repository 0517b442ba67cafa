//! Chaos clients and a fault-injecting listener shim for the HTTP
//! serving layer.
//!
//! Each helper models one way a real network peer misbehaves:
//!
//! * [`send_slowloris`] — drip-feeds a valid request one byte at a
//!   time. A server without a per-request deadline holds a worker
//!   hostage forever; a hardened one answers 408 or closes.
//! * [`send_partial_request`] — sends a prefix of a request and then
//!   closes. The server must treat it as a bad request or clean close,
//!   never a hang.
//! * [`send_oversized`] — advertises (and starts sending) a body far
//!   over the server's limit; expects an early 413.
//! * [`send_then_vanish`] — writes a few bytes and drops the socket
//!   (an abrupt peer disappearance / reset as seen by the server).
//!
//! All helpers put a read timeout on their own socket, so the *test*
//! can never hang either; each returns a [`NetOutcome`] the harness
//! asserts on. [`ChaosProxy`] is the listener-side shim: it forwards
//! bytes between a client and an upstream server, killing or stalling
//! connections per the shared [`FaultPlan`].

use crate::plan::FaultPlan;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the server did with a hostile connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetOutcome {
    /// A complete HTTP status line came back.
    Status(u16),
    /// The server closed the connection without a (complete) response.
    Closed,
    /// Our own read timeout expired — the server hung on us. Harnesses
    /// treat this as the failure it is.
    HungUp,
}

fn read_status(stream: &mut TcpStream, timeout: Duration) -> NetOutcome {
    let _ = stream.set_read_timeout(Some(timeout));
    let mut buf = [0u8; 512];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                return parse_status(&head).map_or(NetOutcome::Closed, NetOutcome::Status);
            }
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if let Some(status) = parse_status(&head) {
                    return NetOutcome::Status(status);
                }
                if head.len() > 16 * 1024 {
                    return NetOutcome::Closed;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return NetOutcome::HungUp;
            }
            Err(_) => {
                return parse_status(&head).map_or(NetOutcome::Closed, NetOutcome::Status);
            }
        }
    }
}

/// Extract the status code once a full status line has arrived.
fn parse_status(head: &[u8]) -> Option<u16> {
    let line_end = head.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&head[..line_end]).ok()?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Drip-feed `wire` one byte every `byte_delay`, then (if the server is
/// still listening) read the response. `patience` bounds how long we
/// wait for the server's verdict.
pub fn send_slowloris(
    addr: SocketAddr,
    wire: &[u8],
    byte_delay: Duration,
    patience: Duration,
) -> std::io::Result<NetOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    for &b in wire {
        if stream.write_all(&[b]).is_err() {
            // Server gave up on us mid-drip — that is a pass.
            return Ok(read_status(&mut stream, patience));
        }
        std::thread::sleep(byte_delay);
    }
    Ok(read_status(&mut stream, patience))
}

/// Send only `prefix` of a request, half-close the write side, and see
/// what the server does.
pub fn send_partial_request(
    addr: SocketAddr,
    prefix: &[u8],
    patience: Duration,
) -> std::io::Result<NetOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let _ = stream.write_all(prefix);
    let _ = stream.shutdown(Shutdown::Write);
    Ok(read_status(&mut stream, patience))
}

/// Advertise a `claimed_len` body (and start sending junk) — a
/// hardened server rejects from the `Content-Length` header alone.
pub fn send_oversized(
    addr: SocketAddr,
    claimed_len: usize,
    patience: Duration,
) -> std::io::Result<NetOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!("POST /rank HTTP/1.1\r\nhost: x\r\ncontent-length: {claimed_len}\r\n\r\n");
    let _ = stream.write_all(head.as_bytes());
    // Push some body bytes in case the server reads before judging.
    let junk = [b'x'; 1024];
    for _ in 0..8 {
        if stream.write_all(&junk).is_err() {
            break;
        }
    }
    Ok(read_status(&mut stream, patience))
}

/// Send an arbitrary byte blob as-is and wait for the server's verdict
/// — the workhorse of fuzzers that generate whole malformed requests.
pub fn send_raw(addr: SocketAddr, bytes: &[u8], patience: Duration) -> std::io::Result<NetOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    if stream.write_all(bytes).is_err() {
        return Ok(read_status(&mut stream, patience));
    }
    let _ = stream.shutdown(Shutdown::Write);
    Ok(read_status(&mut stream, patience))
}

/// Write `bytes` and vanish: drop the socket with the request unsent.
/// From the server's side this is a peer reset / disappearance
/// mid-request; it must not leak the worker or the connection slot.
pub fn send_then_vanish(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let _ = stream.write_all(bytes);
    // Dropping without reading the response: if the server already
    // wrote bytes, the close turns into an RST on most stacks.
    drop(stream);
    Ok(())
}

/// A byte-forwarding TCP proxy that injects faults between a client
/// and an upstream server: per forwarded chunk it may kill the
/// connection (reset as observed by both sides) or stall briefly.
///
/// The plan's *write* schedule drives injection so a proxy can share a
/// plan with disk-fault adapters without consuming their read stream.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    dropped: Arc<AtomicU64>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listen on an ephemeral loopback port, forwarding to `upstream`.
    pub fn start(upstream: SocketAddr, plan: Arc<FaultPlan>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let dropped = Arc::clone(&dropped);
            std::thread::Builder::new()
                .name("faultsim-proxy".into())
                .spawn(move || run_proxy(&listener, upstream, &plan, &stop, &dropped))
                .expect("spawn proxy thread")
        };
        Ok(Self {
            addr,
            stop,
            dropped,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections the proxy has killed so far.
    pub fn dropped_connections(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stop accepting and join the acceptor. In-flight pump threads
    /// finish on their own (their sockets have read timeouts).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn run_proxy(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &Arc<FaultPlan>,
    stop: &Arc<AtomicBool>,
    dropped: &Arc<AtomicU64>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(client) = conn else { continue };
        let Ok(server) = TcpStream::connect(upstream) else {
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        let kill = Arc::new(AtomicBool::new(false));
        for (mut from, mut to) in [(client_r, server), (server_r, client)] {
            let plan = Arc::clone(plan);
            let kill = Arc::clone(&kill);
            let dropped = Arc::clone(dropped);
            let _ = std::thread::Builder::new()
                .name("faultsim-pump".into())
                .spawn(move || {
                    let _ = from.set_read_timeout(Some(Duration::from_secs(5)));
                    let mut buf = [0u8; 4096];
                    loop {
                        if kill.load(Ordering::Acquire) {
                            break;
                        }
                        let n = match from.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => n,
                        };
                        if plan.decide_write().is_some() {
                            // Kill both directions: the abrupt
                            // mid-stream death a flaky LB produces.
                            kill.store(true, Ordering::Release);
                            dropped.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    // However this direction ended, end the other one
                    // too: its pump is blocked reading `to`'s socket, and
                    // would otherwise hold that socket (and the peer's
                    // connection) open until its read timeout.
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_status_wants_a_full_line() {
        assert_eq!(parse_status(b"HTTP/1.1 200 OK"), None);
        assert_eq!(parse_status(b"HTTP/1.1 200 OK\r\nmore"), Some(200));
        assert_eq!(parse_status(b"HTTP/1.1 503 Bad\n"), Some(503));
        assert_eq!(parse_status(b"garbage\r\n"), None);
    }

    /// The proxy with an empty plan is a transparent byte pipe.
    #[test]
    fn transparent_proxy_round_trips() {
        // A one-shot echo "server".
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let upstream = listener.local_addr().expect("addr");
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).expect("read");
            s.write_all(&buf[..n]).expect("write");
        });

        let proxy = ChaosProxy::start(upstream, Arc::new(FaultPlan::empty())).expect("start proxy");
        let mut conn = TcpStream::connect(proxy.local_addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"ping").expect("send");
        let mut back = [0u8; 4];
        conn.read_exact(&mut back).expect("echo");
        assert_eq!(&back, b"ping");
        echo.join().expect("echo thread");
        assert_eq!(proxy.dropped_connections(), 0);
        proxy.shutdown();
    }
}
