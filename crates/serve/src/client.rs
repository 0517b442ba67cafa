//! A minimal blocking HTTP/1.1 client for loopback use: the integration
//! tests, the fault-injection harness and the router all talk to the
//! server through this instead of each hand-rolling socket code.
//!
//! [`Conn::connect_with`] / [`request_with_retry`] add the hardening a
//! client facing a faulty network needs: connect and read timeouts (a
//! hung server fails the call instead of freezing the caller), a cap on
//! response size (a runaway `Content-Length` cannot balloon memory),
//! and bounded retries with jittered exponential backoff. The jitter is
//! seeded, so a test that retries is as replayable as one that does
//! not.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// `(status, lowercased headers, body)` of one response.
pub type HttpReply = (u16, Vec<(String, String)>, String);

/// Client-side limits and retry policy.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout — a server that stops sending mid-response
    /// fails the request instead of hanging the caller.
    pub read_timeout: Duration,
    /// Ceiling on `Content-Length` the client will buffer.
    pub max_response_bytes: usize,
    /// Extra attempts after the first (0 = no retries).
    pub retries: u32,
    /// Backoff before retry `n` (1-based) is `base · 2^(n-1)` plus up
    /// to 50% seeded jitter.
    pub backoff_base: Duration,
    /// Seed for backoff jitter: deterministic sleeps, replayable tests.
    pub jitter_seed: u64,
    /// Ceiling on how long an advertised `Retry-After` may hold the
    /// client. A shedding server chooses the hint; this keeps a
    /// misconfigured (or hostile) one from parking us for minutes.
    pub max_retry_after: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            max_response_bytes: 8 * 1024 * 1024,
            retries: 2,
            backoff_base: Duration::from_millis(20),
            jitter_seed: 0x5EED,
            max_retry_after: Duration::from_secs(5),
        }
    }
}

/// A keep-alive connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_response_bytes: usize,
    /// Scratch for status/header lines, reused across requests.
    line: String,
}

impl Conn {
    /// Connect with no timeouts and no response-size cap — the
    /// happy-path constructor tests on a healthy loopback use.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, usize::MAX)
    }

    /// Connect under `config`: bounded connect time, bounded read time,
    /// bounded response size.
    pub fn connect_with(addr: SocketAddr, config: &ClientConfig) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        Self::from_stream(stream, config.max_response_bytes)
    }

    fn from_stream(stream: TcpStream, max_response_bytes: usize) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            max_response_bytes,
            line: String::new(),
        })
    }

    /// Send one request and read the full response. `body = None` sends
    /// no body (GET). Returns `(status, headers, body)`; header names
    /// are lowercased.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpReply> {
        let body = body.unwrap_or("");
        // One buffer, one write syscall per request.
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<HttpReply> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("connection closed before status line"));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name, value));
            }
        }
        if content_length > self.max_response_bytes {
            return Err(bad("response exceeds max_response_bytes"));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-utf8 body"))?;
        Ok((status, headers, body))
    }
}

/// What a failed backend request *means*, separated from the raw
/// transport error. The scatter-gather router keys its policy off this:
/// a refused connect says the process is gone (fail over to the replica
/// immediately and count the backend down), a blown deadline says the
/// process may be alive but late (fail over, but the backend stays in
/// rotation), anything else is an in-flight transport fault (failed
/// mid-exchange — also fail over, the endpoints are idempotent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestErrorKind {
    /// The backend actively refused (or could not be reached for) the
    /// TCP connect: nothing is listening.
    ConnectRefused,
    /// The connect or read budget elapsed: the backend never finished
    /// answering inside the deadline.
    DeadlineExceeded,
    /// Any other transport or protocol failure (reset mid-response,
    /// malformed reply, oversized body, ...).
    Transport,
}

impl RequestErrorKind {
    /// Stable label for metrics/logs.
    pub fn label(self) -> &'static str {
        match self {
            RequestErrorKind::ConnectRefused => "connect_refused",
            RequestErrorKind::DeadlineExceeded => "deadline_exceeded",
            RequestErrorKind::Transport => "transport",
        }
    }
}

/// A failed request annotated with *which* backend failed and *how* —
/// the per-shard identity a fan-out caller needs to route around the
/// failure instead of just reporting it.
#[derive(Debug)]
pub struct RequestError {
    /// The backend the request was addressed to.
    pub backend: SocketAddr,
    /// The routing-relevant classification of the failure.
    pub kind: RequestErrorKind,
    /// The underlying transport error.
    pub source: std::io::Error,
}

impl RequestError {
    /// Classify a raw transport error from `backend`.
    pub fn classify(backend: SocketAddr, source: std::io::Error) -> Self {
        use std::io::ErrorKind;
        let kind = match source.kind() {
            ErrorKind::ConnectionRefused => RequestErrorKind::ConnectRefused,
            // Read timeouts surface as `WouldBlock` on unix sockets and
            // `TimedOut` from `connect_timeout`; both mean the deadline
            // elapsed.
            ErrorKind::TimedOut | ErrorKind::WouldBlock => RequestErrorKind::DeadlineExceeded,
            _ => RequestErrorKind::Transport,
        };
        Self {
            backend,
            kind,
            source,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request to {} failed ({}): {}",
            self.backend,
            self.kind.label(),
            self.source
        )
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One request under `config` with failures classified per-backend —
/// the router's fan-out primitive. No retries here: the caller decides
/// between retrying this backend and failing over based on the error's
/// [`RequestErrorKind`].
pub fn request_classified(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    config: &ClientConfig,
) -> Result<HttpReply, RequestError> {
    Conn::connect_with(addr, config)
        .and_then(|mut c| c.request(method, path, body))
        .map_err(|e| RequestError::classify(addr, e))
}

/// One request over a fresh connection.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpReply> {
    Conn::connect(addr)?.request(method, path, body)
}

/// Deterministic jitter stream for backoff sleeps — a private xorshift
/// so the client never depends on the faultsim crate.
struct Jitter(u64);

impl Jitter {
    fn next(&mut self) -> u64 {
        // Displace seed 0 off the xorshift fixed point.
        if self.0 == 0 {
            self.0 = 0x9E37_79B9_7F4A_7C15;
        }
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Is this request worth retrying on a fresh connection? Transport
/// failures and explicit back-pressure (503) are; definitive responses
/// (2xx–4xx) are the server's answer, not a fault.
fn retryable(result: &std::io::Result<HttpReply>) -> bool {
    match result {
        Ok((status, _, _)) => *status == 503,
        Err(_) => true,
    }
}

/// The `Retry-After` delay a 503 advertises, if it carries one the
/// delta-seconds way the server emits it (the HTTP-date form is not
/// parsed — it reads as absent and the client falls back to backoff).
fn retry_after_secs(headers: &[(String, String)]) -> Option<u64> {
    headers
        .iter()
        .find(|(name, _)| name == "retry-after")
        .and_then(|(_, value)| value.trim().parse().ok())
}

/// One request under `config`, retried up to `config.retries` extra
/// times on transport errors and 503s, each attempt on a fresh
/// connection. A 503 carrying `Retry-After` sleeps exactly the
/// advertised delay (capped at `config.max_retry_after`) — the server
/// knows its queue better than our backoff curve does. Everything else
/// sleeps a jittered exponential backoff. Returns the last attempt's
/// outcome.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    config: &ClientConfig,
) -> std::io::Result<HttpReply> {
    let mut jitter = Jitter(config.jitter_seed);
    let mut attempt = 0u32;
    loop {
        let result =
            Conn::connect_with(addr, config).and_then(|mut c| c.request(method, path, body));
        if attempt >= config.retries || !retryable(&result) {
            return result;
        }
        attempt += 1;
        let advertised = match &result {
            Ok((503, headers, _)) => retry_after_secs(headers),
            _ => None,
        };
        let sleep = match advertised {
            Some(secs) => Duration::from_secs(secs).min(config.max_retry_after),
            None => {
                let base = config
                    .backoff_base
                    .saturating_mul(1 << (attempt - 1).min(16));
                // Up to +50% jitter so synchronized retriers spread out.
                let extra = base.as_micros() as u64 / 2;
                base + Duration::from_micros(if extra == 0 { 0 } else { jitter.next() % extra })
            }
        };
        std::thread::sleep(sleep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = Jitter(7);
        let mut b = Jitter(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = Jitter(8);
        assert_ne!(a.next(), c.next());
    }

    #[test]
    fn zero_seed_still_produces_a_stream() {
        let mut j = Jitter(0);
        assert_ne!(j.next(), 0);
        assert_ne!(j.next(), j.next());
    }

    #[test]
    fn retryable_judgments() {
        assert!(retryable(&Err(std::io::Error::other("reset"))));
        assert!(retryable(&Ok((503, Vec::new(), String::new()))));
        assert!(!retryable(&Ok((200, Vec::new(), String::new()))));
        assert!(!retryable(&Ok((400, Vec::new(), String::new()))));
        assert!(!retryable(&Ok((408, Vec::new(), String::new()))));
    }

    /// A server that drops the first connection and answers the second:
    /// the retry path must recover transparently.
    #[test]
    fn retry_recovers_from_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: accept and slam shut.
            let (first, _) = listener.accept().expect("accept 1");
            drop(first);
            // Second: answer properly.
            let (mut s, _) = listener.accept().expect("accept 2");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .expect("write");
        });
        let config = ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let (status, _, body) =
            request_with_retry(addr, "GET", "/healthz", None, &config).expect("retried ok");
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        server.join().expect("server");
    }

    /// Zero retries: the first failure is the answer.
    #[test]
    fn no_retries_means_one_attempt() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("accept");
            drop(first);
        });
        let config = ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        };
        assert!(request_with_retry(addr, "GET", "/healthz", None, &config).is_err());
        server.join().expect("server");
    }

    #[test]
    fn retry_after_parsing() {
        let h = |v: &str| vec![("retry-after".to_string(), v.to_string())];
        assert_eq!(retry_after_secs(&h("3")), Some(3));
        assert_eq!(retry_after_secs(&h(" 0 ")), Some(0));
        // HTTP-date form and garbage both fall back to backoff.
        assert_eq!(retry_after_secs(&h("Fri, 08 Aug 2026 00:00:00 GMT")), None);
        assert_eq!(retry_after_secs(&h("-1")), None);
        assert_eq!(retry_after_secs(&[]), None);
        assert_eq!(
            retry_after_secs(&[("content-type".to_string(), "3".to_string())]),
            None
        );
    }

    /// A 503 with `retry-after: 0` must override the (here, enormous)
    /// exponential backoff: the whole retry completes in well under the
    /// 2 s the backoff alone would cost.
    #[test]
    fn retry_after_overrides_backoff() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept 1");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 0\r\ncontent-length: 0\r\n\r\n",
            )
            .expect("write 503");
            drop(s);
            let (mut s, _) = listener.accept().expect("accept 2");
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .expect("write 200");
        });
        let config = ClientConfig {
            retries: 1,
            // So slow that landing under the deadline proves the
            // advertised delay was honored instead.
            backoff_base: Duration::from_secs(2),
            ..ClientConfig::default()
        };
        let start = std::time::Instant::now();
        let (status, _, body) =
            request_with_retry(addr, "GET", "/healthz", None, &config).expect("retried ok");
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "Retry-After: 0 was not honored; took {:?}",
            start.elapsed()
        );
        server.join().expect("server");
    }

    /// An absurd advertised delay is capped at `max_retry_after`, so a
    /// misbehaving server cannot park the client.
    #[test]
    fn retry_after_is_capped() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept 1");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 9999\r\ncontent-length: 0\r\n\r\n",
            )
            .expect("write 503");
            drop(s);
            let (mut s, _) = listener.accept().expect("accept 2");
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .expect("write 200");
        });
        let config = ClientConfig {
            retries: 1,
            max_retry_after: Duration::from_millis(10),
            ..ClientConfig::default()
        };
        let start = std::time::Instant::now();
        let (status, _, _) =
            request_with_retry(addr, "GET", "/healthz", None, &config).expect("retried ok");
        assert_eq!(status, 200);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "retry-after: 9999 was not capped; took {:?}",
            start.elapsed()
        );
        server.join().expect("server");
    }

    /// Nothing listening: the typed error says `ConnectRefused` and
    /// names the backend, so a router can take the replica immediately.
    #[test]
    fn classified_connect_refused() {
        // Bind then drop to get a port with nothing listening.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let config = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        let err = request_classified(addr, "GET", "/healthz", None, &config)
            .expect_err("no listener must fail");
        assert_eq!(err.kind, RequestErrorKind::ConnectRefused, "{err}");
        assert_eq!(err.backend, addr);
        assert_eq!(err.kind.label(), "connect_refused");
    }

    /// A backend that accepts and then goes silent: the typed error
    /// says `DeadlineExceeded` once the read budget elapses.
    #[test]
    fn classified_deadline_exceeded() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            // Read the request, answer nothing, hold the socket open
            // past the client's deadline.
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            std::thread::sleep(Duration::from_millis(300));
        });
        let config = ClientConfig {
            read_timeout: Duration::from_millis(50),
            ..ClientConfig::default()
        };
        let err = request_classified(addr, "GET", "/healthz", None, &config)
            .expect_err("silent backend must time out");
        assert_eq!(err.kind, RequestErrorKind::DeadlineExceeded, "{err}");
        assert_eq!(err.backend, addr);
        server.join().expect("server");
    }

    /// A backend that accepts and slams the connection shut mid-exchange
    /// is a plain transport fault, not a refused connect or a timeout.
    #[test]
    fn classified_transport_fault() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().expect("accept");
            drop(s);
        });
        let config = ClientConfig::default();
        let err = request_classified(addr, "GET", "/healthz", None, &config)
            .expect_err("dropped connection must fail");
        assert_eq!(err.kind, RequestErrorKind::Transport, "{err}");
        server.join().expect("server");
    }

    /// An absurd Content-Length is refused before allocation.
    #[test]
    fn oversized_response_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 999999999\r\n\r\n")
                .expect("write");
        });
        let config = ClientConfig {
            max_response_bytes: 1024,
            retries: 0,
            ..ClientConfig::default()
        };
        let err = request_with_retry(addr, "GET", "/big", None, &config);
        assert!(err.is_err(), "unbounded response accepted: {err:?}");
        server.join().expect("server");
    }
}
