//! The benchmark's own blocking HTTP/1.1 keep-alive client.
//!
//! Deliberately not `ctxrank_serve::client`: the instrument must not
//! change when the product's client does. It speaks exactly what the
//! load generator needs — one request, one `content-length` response,
//! connection reuse — and nothing else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Generous: a healthy loopback request takes a millisecond, and a
/// stalled one must fail the run rather than hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    stream: TcpStream,
    /// Request bytes, reused across requests.
    out: Vec<u8>,
    /// Response bytes read so far (head, then body).
    inbuf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(4096),
            inbuf: Vec::with_capacity(4096),
        })
    }

    /// Send one request and read its response. The body is left in
    /// `body`; the status code is returned.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        payload: &[u8],
        body: &mut Vec<u8>,
    ) -> io::Result<u16> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            payload.len()
        )?;
        self.out.extend_from_slice(payload);
        self.stream.write_all(&self.out)?;

        self.inbuf.clear();
        let head_end = loop {
            if let Some(at) = find(&self.inbuf, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.inbuf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let (status, length) = parse_head(head)?;
        while self.inbuf.len() < head_end + length {
            self.fill()?;
        }
        if self.inbuf.len() != head_end + length {
            return Err(bad("bytes after the response body"));
        }
        body.clear();
        body.extend_from_slice(&self.inbuf[head_end..]);
        Ok(status)
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.inbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One request on a fresh connection that is closed afterwards (used
/// for `/metrics` scrapes, so no server worker stays pinned).
pub fn one_shot(addr: SocketAddr, method: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::new();
    let status = conn.request(method, path, b"", &mut body)?;
    Ok((status, body))
}

fn bad(detail: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// `(status, content-length)` of a response head.
fn parse_head(head: &str) -> io::Result<(u16, usize)> {
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("response without content-length"))?;
    Ok((status, length))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_status_and_length_case_insensitively() {
        let head =
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 17\r\nretry-after: 1\r\n\r\n";
        assert_eq!(parse_head(head).expect("head"), (503, 17));
        assert!(parse_head("HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_head("garbage\r\n\r\n").is_err());
    }

    #[test]
    fn keeps_the_connection_alive_across_split_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut seen = Vec::new();
            let mut buf = [0u8; 1024];
            for reply in ["first", "second!"] {
                // Read one request (head + declared body).
                loop {
                    if let Some(at) = find(&seen, b"\r\n\r\n") {
                        let head = std::str::from_utf8(&seen[..at + 4]).expect("utf8");
                        let len = head
                            .split("\r\n")
                            .find_map(|l| l.strip_prefix("content-length: "))
                            .and_then(|v| v.parse::<usize>().ok())
                            .expect("length");
                        if seen.len() >= at + 4 + len {
                            seen.drain(..at + 4 + len);
                            break;
                        }
                    }
                    let n = s.read(&mut buf).expect("read");
                    assert!(n > 0, "client closed early");
                    seen.extend_from_slice(&buf[..n]);
                }
                // Head and body in separate writes: the client must
                // keep reading until content-length is satisfied.
                let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", reply.len());
                s.write_all(head.as_bytes()).expect("head");
                s.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(5));
                s.write_all(reply.as_bytes()).expect("body");
            }
        });
        let mut conn = Conn::connect(addr).expect("connect");
        let mut body = Vec::new();
        assert_eq!(
            conn.request("POST", "/rank", b"{}", &mut body).expect("1"),
            200
        );
        assert_eq!(body, b"first");
        assert_eq!(
            conn.request("GET", "/healthz", b"", &mut body).expect("2"),
            200
        );
        assert_eq!(body, b"second!");
        server.join().expect("server");
    }
}
