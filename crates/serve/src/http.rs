//! A deliberately small HTTP/1.1 implementation on blocking sockets.
//!
//! The serving layer needs exactly four verbs of HTTP: read a request
//! line, read headers until the blank line, read `Content-Length` bytes
//! of body, write a response with a handful of headers. Everything else
//! (chunked encoding, multipart, TLS, HTTP/2) is out of scope — the
//! front door runs behind a load balancer in the deployment the paper
//! describes, and the reproduction keeps the workspace dependency-free.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Ceiling on the request line + headers, and on a request body. Both
/// exist so a malicious or broken client cannot make the server buffer
/// unbounded memory — the same principle as the bounded request queue.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// `Connection: keep-alive` semantics (HTTP/1.1 default unless the
    /// client sent `Connection: close`).
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (including read timeouts on idle
    /// keep-alive connections — the caller closes quietly).
    Io(std::io::Error),
    /// The bytes on the wire are not an HTTP request we accept.
    BadRequest(&'static str),
    /// Head or body exceeded the fixed ceilings above.
    TooLarge,
    /// The request started arriving but did not finish within the
    /// per-request deadline — a slowloris client, or a peer that
    /// stalled mid-body. Answered with 408.
    Timeout,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one request off the connection. `Ok(None)` means the peer
/// closed cleanly between requests (normal end of a keep-alive
/// session). No per-request deadline: total read time is bounded only
/// by the socket timeout the caller configured.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, HttpError> {
    read_request_deadline(reader, None)
}

/// Floor for re-armed socket timeouts: `set_read_timeout` rejects a
/// zero duration, and a sub-millisecond window would busy-spin.
const MIN_ARM: Duration = Duration::from_millis(1);

pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Re-arm the socket read timeout with the time left until `deadline`.
/// Returns `Timeout` if the deadline has already passed.
fn arm_remaining(stream: &TcpStream, deadline: Option<Instant>) -> Result<(), HttpError> {
    if let Some(dl) = deadline {
        let remaining = dl
            .checked_duration_since(Instant::now())
            .ok_or(HttpError::Timeout)?;
        let _ = stream.set_read_timeout(Some(remaining.max(MIN_ARM)));
    }
    Ok(())
}

/// Append one `\n`-terminated line to `line` (terminator included).
///
/// Reads through `fill_buf` rather than `read_line` so the remaining
/// deadline can be re-checked between network chunks — `read_line`
/// does not return until the newline arrives, which is exactly the
/// opaqueness a slowloris client exploits. Returns `Ok(true)` when a
/// newline was seen, `Ok(false)` on EOF first.
fn read_line_deadline(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    cap: usize,
    deadline: &mut Option<Instant>,
    budget: Option<Duration>,
    started: &mut bool,
) -> Result<bool, HttpError> {
    loop {
        if *started {
            arm_remaining(reader.get_ref(), *deadline)?;
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // Before the first byte this is the caller's idle timeout
            // (quiet close); after it, with a budget, it is the
            // deadline firing.
            Err(e) if is_timeout(&e) => {
                return Err(if *started && deadline.is_some() {
                    HttpError::Timeout
                } else {
                    HttpError::Io(e)
                });
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if buf.is_empty() {
            return Ok(false);
        }
        if !*started {
            // The request clock starts at its first byte, so idle
            // keep-alive time is never charged against the budget.
            *started = true;
            *deadline = budget.map(|b| Instant::now() + b);
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if line.len() + take > cap {
            return Err(HttpError::TooLarge);
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if nl.is_some() {
            return Ok(true);
        }
    }
}

/// Read exactly `len` body bytes, bounded by `deadline`.
fn read_body_deadline(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        arm_remaining(reader.get_ref(), deadline)?;
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::BadRequest("connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                return Err(if deadline.is_some() {
                    HttpError::Timeout
                } else {
                    HttpError::Io(e)
                });
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(body)
}

/// Read one request, bounding the *total* time from its first byte to
/// the end of its body by `budget`.
///
/// A per-socket read timeout cannot provide this bound: a slowloris
/// client lands one byte inside every window, so each individual recv
/// succeeds while the request never completes. Here the socket timeout
/// is re-armed with the remaining budget around every read, so the
/// whole request either finishes in time or fails with
/// [`HttpError::Timeout`] (answered 408).
pub fn read_request_deadline(
    reader: &mut BufReader<TcpStream>,
    budget: Option<Duration>,
) -> Result<Option<Request>, HttpError> {
    let mut deadline = None;
    let mut started = false;

    let mut line = Vec::new();
    let saw_newline = read_line_deadline(
        reader,
        &mut line,
        MAX_HEAD_BYTES,
        &mut deadline,
        budget,
        &mut started,
    )?;
    if line.is_empty() {
        return Ok(None);
    }
    if !saw_newline {
        return Err(HttpError::BadRequest("connection closed mid-request-line"));
    }
    let mut head_bytes = line.len();
    let first = String::from_utf8_lossy(&line);
    let mut parts = first.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    let mut keep_alive = true;
    // One scratch buffer for every header line, cleared between lines.
    let mut header = Vec::new();
    loop {
        header.clear();
        let cap = MAX_HEAD_BYTES - head_bytes;
        if !read_line_deadline(
            reader,
            &mut header,
            cap,
            &mut deadline,
            budget,
            &mut started,
        )? {
            return Err(HttpError::BadRequest("connection closed mid-headers"));
        }
        head_bytes += header.len();
        let text = String::from_utf8_lossy(&header);
        let text = text.trim_end();
        if text.is_empty() {
            break;
        }
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header"));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let body = read_body_deadline(reader, content_length, deadline)?;
    Ok(Some(Request {
        method,
        path,
        keep_alive,
        body,
    }))
}

/// One response, about to be written.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers, e.g. `Retry-After` on a shed response.
    pub extra: Vec<(&'static str, String)>,
}

impl Response {
    pub fn json(status: u16, value: &serde_json::Value) -> Self {
        let body = serde_json::to_string(value)
            .unwrap_or_else(|_| "{}".to_string())
            .into_bytes();
        Self {
            status,
            content_type: "application/json",
            body,
            extra: Vec::new(),
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            extra: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra.push((name, value));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `resp` onto the socket. `keep_alive` controls the
/// `Connection` header the client sees.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = String::with_capacity(160 + resp.body.len());
    wire.push_str(&format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    ));
    for (name, value) in &resp.extra {
        wire.push_str(name);
        wire.push_str(": ");
        wire.push_str(value);
        wire.push_str("\r\n");
    }
    wire.push_str("\r\n");
    // Head and body go out in one write: one syscall per response, and
    // no risk of the head landing in its own TCP segment.
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(&resp.body);
    stream.write_all(&wire)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Run `bytes` through a real loopback socket and parse.
    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let bytes = bytes.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&bytes).expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        let out = read_request(&mut BufReader::new(stream));
        writer.join().expect("writer");
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /rank HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
            .expect("parse")
            .expect("some");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/rank");
        assert!(req.keep_alive);
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn connection_close_clears_keep_alive() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("parse")
            .expect("some");
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn closed_connection_is_none() {
        assert!(parse(b"").expect("parse").is_none());
    }

    #[test]
    fn garbage_is_bad_request() {
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let head = format!("POST /rank HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 1 << 30);
        assert!(matches!(parse(head.as_bytes()), Err(HttpError::TooLarge)));
    }

    /// A drip-fed request must hit the deadline, not hang: each byte
    /// lands within its own socket-timeout window, so only the total
    /// budget can catch it.
    #[test]
    fn slow_request_times_out_against_total_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dripper = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for &b in b"GET / HTTP/1.1\r\n\r\n".iter() {
                if s.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (stream, _) = listener.accept().expect("accept");
        let started = Instant::now();
        let out =
            read_request_deadline(&mut BufReader::new(stream), Some(Duration::from_millis(80)));
        assert!(matches!(out, Err(HttpError::Timeout)), "got {out:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "deadline did not bound the read"
        );
        dripper.join().expect("dripper");
    }

    /// A request that fits inside the budget parses exactly as without
    /// one.
    #[test]
    fn fast_request_unaffected_by_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"POST /rank HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
                .expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        let req = read_request_deadline(&mut BufReader::new(stream), Some(Duration::from_secs(5)))
            .expect("parse")
            .expect("some");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"abcd");
        writer.join().expect("writer");
    }
}
