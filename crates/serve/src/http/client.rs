//! Client half of the wire layer: request rendering, the response codec,
//! one keep-alive [`Conn`], and the one-shot [`request`]. The router's pool
//! and relay, `workgen load`, `sam-cli train --addr` and the test suites
//! all speak HTTP through these.

use super::{copy_chunked, io_bad, read_head_line, MAX_HEADER_BYTES};
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest buffered response body (64 MiB). Anything bigger must be
/// streamed off [`Conn::send`]'s reader instead.
pub const MAX_BUFFERED_RESPONSE: usize = 64 << 20;

/// Connect timeout of the one-shot [`request`].
const REQUEST_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-operation I/O timeout of the one-shot [`request`] — long enough to
/// sit out a generation or training call.
const REQUEST_IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A fully buffered response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response headers in wire order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// De-framed body bytes (chunked transfer decoding already applied).
    pub body: Vec<u8>,
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

impl Response {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Body as UTF-8 (lossy — diagnostics only need best effort).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Build the raw bytes of one HTTP/1.1 request. `extra_headers` come after
/// the computed `Host`/`Content-Length`; the request asks for keep-alive
/// unless they carry their own `Connection` header.
pub fn build_request(
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + body.len());
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\n").as_bytes());
    out.extend_from_slice(b"Host: sam\r\n");
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !extra_headers
        .iter()
        .any(|(name, _)| name.eq_ignore_ascii_case("connection"))
    {
        out.extend_from_slice(b"Connection: keep-alive\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Parsed response head: status plus headers (names lowercased).
#[derive(Debug, Clone)]
pub struct RespHead {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl RespHead {
    fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Declared `Content-Length`, if present and parsable.
    pub fn content_length(&self) -> Option<usize> {
        self.header("content-length")?.trim().parse().ok()
    }

    /// Whether the body uses chunked transfer encoding.
    pub fn chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
    }

    /// Whether the peer will close the connection after this response —
    /// it said so, or the body is framed by the close itself.
    pub fn close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.to_ascii_lowercase().contains("close"))
            || (!self.chunked() && self.content_length().is_none())
    }
}

/// Read one response head (status line + headers) from `reader`.
///
/// # Errors
///
/// Transport errors, or `InvalidData` on malformed framing or a head above
/// [`MAX_HEADER_BYTES`].
pub fn read_head<R: BufRead>(reader: &mut R) -> std::io::Result<RespHead> {
    let mut budget = MAX_HEADER_BYTES;
    let mut line = String::new();
    let mut next_line = |line: &mut String| match read_head_line(reader, line, &mut budget)? {
        0 => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed inside the response head",
        )),
        _ => Ok(()),
    };
    next_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io_bad(format!("bad status line: {}", line.trim())))?;
    let mut headers = Vec::new();
    loop {
        next_line(&mut line)?;
        if line.trim().is_empty() {
            return Ok(RespHead { status, headers });
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
}

/// Read a response body per the head's framing: `Content-Length`, chunked
/// (decoded), or read-to-close.
///
/// # Errors
///
/// Transport errors, `InvalidData` on malformed chunk framing or a body
/// above [`MAX_BUFFERED_RESPONSE`].
pub fn read_body<R: BufRead>(reader: &mut R, head: &RespHead) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    if head.chunked() {
        copy_chunked(reader, &mut body, false, MAX_BUFFERED_RESPONSE)?;
    } else if let Some(len) = head.content_length() {
        if len > MAX_BUFFERED_RESPONSE {
            return Err(io_bad("response too large to buffer"));
        }
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader
            .take(MAX_BUFFERED_RESPONSE as u64 + 1)
            .read_to_end(&mut body)?;
        if body.len() > MAX_BUFFERED_RESPONSE {
            return Err(io_bad("response too large to buffer"));
        }
    }
    Ok(body)
}

/// One keep-alive client connection to `addr`. It connects lazily (with a
/// connect timeout, per-operation I/O timeouts and `TCP_NODELAY`), carries
/// any number of requests, and reconnects by itself when the peer closed
/// the socket in between — after any failed exchange the socket is dropped,
/// so the next request starts clean.
#[derive(Debug)]
pub struct Conn {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    reader: Option<BufReader<TcpStream>>,
    /// The held socket has carried a response (so the peer may since have
    /// idle-closed it).
    reused: bool,
}

impl Conn {
    /// A not-yet-connected connection to `addr` (`host:port`).
    pub fn new(addr: impl ToString, connect_timeout: Duration, io_timeout: Duration) -> Conn {
        Conn {
            addr: addr.to_string(),
            connect_timeout,
            io_timeout,
            reader: None,
            reused: false,
        }
    }

    /// Whether a socket is currently held (it may still turn out stale).
    pub fn is_open(&self) -> bool {
        self.reader.is_some()
    }

    /// Connect now if not connected. Callers that must tell "never reached
    /// the peer" from "failed mid-exchange" call this first; everyone else
    /// lets [`Conn::send`] connect on demand.
    ///
    /// # Errors
    ///
    /// Resolution and connect errors.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.reader.is_none() {
            self.reader = Some(self.open()?);
            self.reused = false;
        }
        Ok(())
    }

    fn open(&self) -> std::io::Result<BufReader<TcpStream>> {
        let mut last = io_bad(format!("address {:?} resolves to nothing", self.addr));
        for sock_addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.io_timeout))?;
                    stream.set_write_timeout(Some(self.io_timeout))?;
                    stream.set_nodelay(true).ok();
                    return Ok(BufReader::new(stream));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Write `request` and read the response head; the body is left on the
    /// returned reader for the caller to buffer ([`read_body`]) or stream.
    /// A transport failure on a socket that already carried a response is
    /// retried once on a fresh connection — the peer's idle timeout may
    /// simply have closed it. A timeout is not retried (the peer is slow,
    /// not gone), nor is any failure on a fresh connection.
    ///
    /// # Errors
    ///
    /// Connect/transport errors and malformed response framing.
    pub fn send(
        &mut self,
        request: &[u8],
    ) -> std::io::Result<(RespHead, &mut BufReader<TcpStream>)> {
        fn send_on(reader: &mut BufReader<TcpStream>, request: &[u8]) -> std::io::Result<RespHead> {
            reader.get_mut().write_all(request)?;
            read_head(reader)
        }
        let (mut reader, reused) = match self.reader.take() {
            Some(reader) => (reader, self.reused),
            None => (self.open()?, false),
        };
        let head = match send_on(&mut reader, request) {
            Err(err) if reused && !matches!(err.kind(), TimedOut | WouldBlock) => {
                reader = self.open()?;
                send_on(&mut reader, request)?
            }
            other => other?,
        };
        self.reused = true;
        Ok((head, self.reader.insert(reader)))
    }

    /// Send one request and buffer the whole response.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`], plus body framing errors.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Response> {
        let (head, reader) = self.send(request)?;
        let body = read_body(reader, &head);
        if body.is_err() || head.close() {
            self.reader = None;
        }
        Ok(Response {
            status: head.status,
            headers: head.headers,
            body: body?,
        })
    }
}

/// One request on its own connection (`Connection: close`), fully buffered.
///
/// # Errors
///
/// Connect/transport errors and malformed response framing.
pub fn request(
    addr: impl ToString,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Response> {
    let mut headers = headers.to_vec();
    headers.push(("Connection", "close"));
    Conn::new(addr, REQUEST_CONNECT_TIMEOUT, REQUEST_IO_TIMEOUT)
        .exchange(&build_request(method, path, &headers, body))
}
