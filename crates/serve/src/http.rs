//! The wire layer: the only code in the workspace that speaks HTTP/1.1, in
//! either direction. This module holds the codec both directions share —
//! request parsing, framed JSON / text responses, chunked transfer encoding
//! in and out, and the bounded line reader every socket-facing parser goes
//! through. [`client`] is the client half (response codec, keep-alive
//! [`Conn`], one-shot [`request`]); [`listener`] is the server half (accept
//! loop and keep-alive connection loop) that `sam-serve` and `sam-router`
//! both run; [`route`] is the path grammar both of them match on
//! ([`Route`]).
//!
//! Connections are **persistent by default** (HTTP/1.1 keep-alive): the
//! parser records the negotiated connection state on each [`Request`] and
//! the response writers echo it, so a client can issue many requests over
//! one socket. `Connection: close` (or HTTP/1.0 without
//! `Connection: keep-alive`) downgrades to one-request-per-connection.
//! Requests are parsed from any [`BufRead`] so the parser is unit-testable
//! without sockets; responses are written to any [`Write`].
//!
//! Streaming bodies (the CSV export endpoint) use [`ChunkedWriter`], which
//! frames an arbitrary `Write` stream as HTTP/1.1 chunked transfer encoding
//! through a fixed-size buffer — memory stays bounded no matter how large
//! the streamed relation is.
//!
//! The server side keeps a **syscall budget**: a response frame — a whole
//! `Content-Length`-framed answer, a head, a chunk — is rendered into memory
//! and written once, and socket options are set once per connection
//! ([`listener`]), so a steady-state keep-alive request costs one `recv`
//! and one `send`.

use crate::error::ServeError;
use std::io::{BufRead, Read, Write};

pub mod client;
pub mod listener;
pub mod route;

pub use client::{
    build_request, read_body, read_head, request, Conn, RespHead, Response, MAX_BUFFERED_RESPONSE,
};
pub use listener::{serve_connection, Acceptor};
pub use route::Route;

/// Largest accepted request body (1 MiB) — estimates and job submissions
/// are small; anything bigger is a client error. The limit applies to the
/// bytes on the wire: a gzip/deflate-coded body (`Content-Encoding`) may
/// decode to more, up to [`MAX_DECODED_BODY_BYTES`] — which is how large
/// workload uploads reach `POST /train` without raising the wire cap.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request body *after* content decoding (64 MiB) — the
/// decompression-bomb guard for `Content-Encoding: gzip|deflate` uploads.
pub const MAX_DECODED_BODY_BYTES: usize = 64 << 20;

/// Largest accepted head — request or status line plus every header line —
/// in either direction (64 KiB).
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Buffered bytes per chunk emitted by [`ChunkedWriter`] (64 KiB). This is
/// the whole per-connection memory footprint of a streamed export.
pub const CHUNK_BYTES: usize = 64 << 10;

/// A parsed HTTP request: method, path, body, and negotiated connection
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (query string included; the router splits it).
    pub path: String,
    /// Raw UTF-8 body.
    pub body: String,
    /// Whether the client negotiated a persistent connection: HTTP/1.1
    /// unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`. The response **must** echo this (a `close`
    /// response on a keep-alive request strands the client's next request).
    pub keep_alive: bool,
    /// Content codings the client accepts (`Accept-Encoding` tokens,
    /// lowercased, in client order, `q=0` entries dropped). Empty when the
    /// header is absent — responses must then be sent identity-coded.
    pub accept_encoding: Vec<String>,
    /// First byte offset of a `Range: bytes=N-` header (the
    /// resume-a-download form). Only this open-ended single-range shape is
    /// honoured; any other `Range` value is ignored per RFC 9110 (the
    /// server may then answer 200 with the full representation).
    pub range_start: Option<u64>,
}

impl Request {
    /// Whether the client listed `coding` (or the `*` wildcard) in
    /// `Accept-Encoding` with a non-zero quality.
    pub fn accepts_encoding(&self, coding: &str) -> bool {
        self.accept_encoding.iter().any(|t| t == coding || t == "*")
    }
}

/// Split a request target into its path and raw query string (`""` when
/// there is no `?`). [`Request::path`] carries the target as sent; every
/// router in the workspace splits it here and hands the path to
/// [`Route::parse`].
pub fn split_target(target: &str) -> (&str, &str) {
    target.split_once('?').unwrap_or((target, ""))
}

/// Value of `key` in a raw query string (`a=1&b=2`), if present. No
/// percent-decoding; the first match wins.
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Parse a `Range` header value of the open-ended single-range form
/// `bytes=N-` into `N`. Every other shape (closed ranges, suffix ranges,
/// multiple ranges, non-byte units) yields `None` — the caller then serves
/// the full representation, which RFC 9110 permits for any `Range` a server
/// chooses not to honour.
fn parse_range_start(value: &str) -> Option<u64> {
    let spec = value.trim().strip_prefix("bytes=")?;
    let start = spec.strip_suffix('-')?;
    start.trim().parse::<u64>().ok()
}

/// Parse an `Accept-Encoding` header value into accepted coding tokens
/// (lowercased, client order preserved, entries with `q=0` dropped).
fn parse_accept_encoding(value: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for part in value.split(',') {
        let mut items = part.split(';');
        let token = items.next().unwrap_or("").trim().to_ascii_lowercase();
        if token.is_empty() {
            continue;
        }
        let mut quality = 1.0f64;
        for param in items {
            if let Some(q) = param.trim().strip_prefix("q=") {
                quality = q.trim().parse().unwrap_or(0.0);
            }
        }
        if quality > 0.0 {
            tokens.push(token);
        }
    }
    tokens
}

pub(crate) fn io_bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Read one `\n`-terminated line of a request or response head into `line`
/// (cleared first), spending at most `budget` bytes on it. Every line a
/// socket-facing parser reads — request line, status line, header,
/// chunk-size line, trailer — goes through here, so a peer that never sends
/// `\n` cannot grow `line` past the budget. Returns the bytes consumed (0 at
/// end-of-stream).
///
/// # Errors
///
/// Transport errors; `InvalidData` when the budget runs out before the line
/// ends, or the line is not UTF-8.
pub(crate) fn read_head_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    budget: &mut usize,
) -> std::io::Result<usize> {
    line.clear();
    let n = reader.by_ref().take(*budget as u64).read_line(line)?;
    if n == *budget && !line.ends_with('\n') {
        return Err(io_bad("header section too large"));
    }
    *budget -= n;
    Ok(n)
}

/// Read and parse one HTTP/1.1 request from `reader`.
///
/// Returns `Ok(None)` on clean end-of-stream before any byte of a request —
/// the normal way a keep-alive client ends a connection between requests.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on malformed framing: garbled request line, a
/// head above [`MAX_HEADER_BYTES`] (no line is ever buffered past that), a
/// head cut off by end-of-stream before its blank line (nothing is ever
/// dispatched from a truncated head), a `Content-Length` above
/// [`MAX_BODY_BYTES`] (rejected *before* reading the body, so oversized
/// uploads get an immediate 400 instead of a slow drain), or a body shorter
/// than declared. [`ServeError::Internal`] on
/// transport I/O errors. After any error the connection must be closed:
/// request framing can no longer be trusted.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ServeError> {
    let bad = |m: &str| ServeError::BadRequest(m.to_string());
    let read_err = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::InvalidData => ServeError::BadRequest(e.to_string()),
        _ => ServeError::Internal(format!("read request head: {e}")),
    };
    let mut budget = MAX_HEADER_BYTES;
    let mut line = String::new();
    if read_head_line(reader, &mut line, &mut budget).map_err(read_err)? == 0 {
        return Ok(None);
    }
    if line.trim().is_empty() {
        return Err(bad("empty request line"));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_string();
    let http10 = match parts.next() {
        Some("HTTP/1.0") => true,
        Some(v) if v.starts_with("HTTP/1") => false,
        _ => return Err(bad("expected HTTP/1.x request")),
    };

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = !http10;
    let mut accept_encoding = Vec::new();
    let mut content_encoding: Option<String> = None;
    let mut range_start = None;
    loop {
        if read_head_line(reader, &mut line, &mut budget).map_err(read_err)? == 0 {
            // The peer died mid-head: a request is only complete — and only
            // safe to dispatch — once its blank line has arrived.
            return Err(bad("request head cut short before the blank line"));
        }
        if line.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| bad("invalid Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                // Token list; `close` wins over anything else.
                let mut close = false;
                let mut ka = false;
                for token in value.split(',') {
                    let token = token.trim();
                    close |= token.eq_ignore_ascii_case("close");
                    ka |= token.eq_ignore_ascii_case("keep-alive");
                }
                keep_alive = if close { false } else { ka || !http10 };
            } else if name.eq_ignore_ascii_case("accept-encoding") {
                accept_encoding = parse_accept_encoding(value);
            } else if name.eq_ignore_ascii_case("content-encoding") {
                content_encoding = Some(value.to_ascii_lowercase());
            } else if name.eq_ignore_ascii_case("range") {
                range_start = parse_range_start(value);
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        // Reject before reading: the client learns immediately (400) instead
        // of pushing a megabyte-scale body into a dead connection.
        return Err(bad("request body too large"));
    }
    let mut buf = vec![0u8; content_length];
    reader
        .read_exact(&mut buf)
        .map_err(|e| ServeError::BadRequest(format!("short body: {e}")))?;
    let buf = decode_request_body(buf, content_encoding.as_deref())?;
    let body = String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
        accept_encoding,
        range_start,
    }))
}

/// Apply the request's `Content-Encoding` to the raw body bytes. Supports
/// `gzip` (and its legacy `x-gzip` alias) and `deflate` — the same codings
/// the export path emits — with zlib-wrapped **and** raw DEFLATE both
/// accepted for `deflate` (clients disagree on which the token means).
/// Decoded output above [`MAX_DECODED_BODY_BYTES`] is rejected.
fn decode_request_body(buf: Vec<u8>, coding: Option<&str>) -> Result<Vec<u8>, ServeError> {
    let bad = |m: String| ServeError::BadRequest(m);
    let decoded = match coding {
        None | Some("identity") => return Ok(buf),
        Some("gzip") | Some("x-gzip") => crate::compress::gunzip(&buf)
            .map_err(|e| bad(format!("cannot decode gzip body: {e}")))?,
        Some("deflate") => crate::compress::zlib_decode(&buf)
            .or_else(|_| crate::compress::inflate(&buf))
            .map_err(|e| bad(format!("cannot decode deflate body: {e}")))?,
        Some(other) => {
            return Err(bad(format!(
                "unsupported Content-Encoding {other:?} (gzip|deflate|identity)"
            )))
        }
    };
    if decoded.len() > MAX_DECODED_BODY_BYTES {
        return Err(bad("decoded request body too large".into()));
    }
    Ok(decoded)
}

/// `Content-Type` of the Prometheus text exposition (`GET /metrics?format=prometheus`).
pub const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4";

/// Render a response head onto `frame`: status line, `headers` in order,
/// the `Connection` header echoing the negotiated state, and the blank
/// line. The only place a head is formatted — every response frame the
/// workspace emits is rendered into memory first and then written once.
fn render_head<'h>(
    frame: &mut Vec<u8>,
    status: u16,
    headers: impl IntoIterator<Item = &'h (&'h str, &'h str)>,
    keep_alive: bool,
) {
    // `Write` for `Vec<u8>` cannot fail.
    let _ = write!(frame, "HTTP/1.1 {status} {}\r\n", reason(status));
    for (name, value) in headers {
        for piece in [name.as_bytes(), b": ", value.as_bytes(), b"\r\n"] {
            frame.extend_from_slice(piece);
        }
    }
    frame.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
}

/// Write the head of a response whose body the caller frames itself (a
/// relayed upstream body, a chunked stream): status line, `headers`, then
/// the `Connection` header — one `write_all`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_head<W: Write>(
    out: &mut W,
    status: u16,
    headers: &[(&str, &str)],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(256);
    render_head(&mut frame, status, headers, keep_alive);
    out.write_all(&frame)
}

/// Write one complete `Content-Length`-framed response, echoing the
/// negotiated connection state. `extra_headers` follow the computed ones —
/// e.g. the `Content-Range: bytes */N` a 416 answer carries.
///
/// Degradation statuses (429 Overloaded, 503 Shutting Down / draining,
/// 504 Deadline Exceeded) automatically carry `Retry-After: 1` unless the
/// caller supplied its own `Retry-After` — well-behaved clients (and the
/// router in front of a worker pool) back off briefly instead of
/// hammering a shard that already said it cannot take the request.
///
/// Head and body are rendered into one buffer and leave in one
/// `write_all` — on a bare `TcpStream`, one `send` and (with
/// `TCP_NODELAY`) one segment for the peer to `recv`. Bodies on this path
/// are a few KB (exports stream through [`ChunkedWriter`]), so the body is
/// copied.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_response<W: Write>(
    out: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let length = body.len().to_string();
    let computed = [("Content-Type", content_type), ("Content-Length", &length)];
    let auto_retry = matches!(status, 429 | 503 | 504)
        && !extra_headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("retry-after"));
    let retry = auto_retry.then_some(("Retry-After", "1"));
    let mut frame = Vec::with_capacity(256 + body.len());
    render_head(
        &mut frame,
        status,
        computed.iter().chain(&retry).chain(extra_headers),
        keep_alive,
    );
    frame.extend_from_slice(body);
    out.write_all(&frame)?;
    out.flush()
}

/// [`write_response`] for a serialised JSON body.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_json_response<W: Write>(
    out: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response(
        out,
        status,
        "application/json",
        &[],
        body.as_bytes(),
        keep_alive,
    )
}

/// Write the head of a chunked streaming response; the body follows
/// through a [`ChunkedWriter`] over the same stream. `content_encoding`
/// marks a compressed stream (the chunked framing wraps the *encoded*
/// bytes, per RFC 9112 — content coding applies before transfer coding);
/// `content_range` is the `Content-Range` of a 206 partial-content stream
/// (ranged responses are always identity-coded, so the two are mutually
/// exclusive in practice).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_chunked_headers<W: Write>(
    out: &mut W,
    status: u16,
    content_type: &str,
    content_encoding: Option<&str>,
    content_range: Option<&str>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut headers = vec![("Content-Type", content_type)];
    if let Some(coding) = content_encoding {
        headers.push(("Content-Encoding", coding));
        headers.push(("Vary", "Accept-Encoding"));
    }
    if let Some(range) = content_range {
        headers.push(("Content-Range", range));
    }
    headers.push(("Transfer-Encoding", "chunked"));
    write_head(out, status, &headers, keep_alive)
}

/// Room [`ChunkedWriter`] keeps ahead of the chunk data for its size line:
/// the hex digits of any `usize`, plus CRLF.
const SIZE_LINE_ROOM: usize = (usize::BITS / 4) as usize + 2;

/// [`Write`] adapter that frames everything written through it as HTTP/1.1
/// chunked transfer encoding.
///
/// Bytes accumulate in a fixed buffer holding at most [`CHUNK_BYTES`] of
/// data; each time it fills, a `<hex len>\r\n<data>\r\n` chunk goes out in
/// one `write_all` — the size line is rendered into the room reserved ahead
/// of the data, the CRLF appended behind it. [`finish`](Self::finish) sends
/// the tail and the terminal `0\r\n\r\n` chunk together. Because the buffer
/// never grows, streaming a 100-million-row relation costs the same memory
/// as streaming ten rows.
pub struct ChunkedWriter<'a, W: Write> {
    inner: &'a mut W,
    /// `[SIZE_LINE_ROOM][chunk data]`; the CRLF and the terminal chunk are
    /// appended only for the write.
    buf: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Wrap `inner`; headers (with `Transfer-Encoding: chunked`) must
    /// already have been written via [`write_chunked_headers`].
    pub fn new(inner: &'a mut W) -> Self {
        let mut buf = Vec::with_capacity(SIZE_LINE_ROOM + CHUNK_BYTES + b"\r\n0\r\n\r\n".len());
        buf.resize(SIZE_LINE_ROOM, 0);
        ChunkedWriter { inner, buf }
    }

    /// Frame the buffered data as one chunk — followed by the terminal
    /// chunk when `last` — and write the frame once. No data and not
    /// `last` writes nothing: an empty chunk would end the stream.
    fn emit_chunk(&mut self, last: bool) -> std::io::Result<()> {
        let mut start = SIZE_LINE_ROOM;
        let mut len = self.buf.len() - SIZE_LINE_ROOM;
        if len > 0 {
            start -= 2;
            self.buf[start..SIZE_LINE_ROOM].copy_from_slice(b"\r\n");
            while len > 0 {
                start -= 1;
                self.buf[start] = b"0123456789abcdef"[len % 16];
                len /= 16;
            }
            self.buf.extend_from_slice(b"\r\n");
        }
        if last {
            self.buf.extend_from_slice(b"0\r\n\r\n");
        }
        let written = self.inner.write_all(&self.buf[start..]);
        self.buf.truncate(SIZE_LINE_ROOM);
        written
    }

    /// Flush buffered bytes and write the terminal chunk. Must be called
    /// exactly once; dropping without it leaves the stream unterminated
    /// (which clients correctly treat as a truncated response).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.emit_chunk(true)?;
        self.inner.flush()
    }
}

impl<W: Write> Write for ChunkedWriter<'_, W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        // Fill the buffer only up to CHUNK_BYTES of data, emitting whenever
        // it is exactly full — no chunk ever exceeds CHUNK_BYTES no matter
        // how large a single write is.
        let mut rest = data;
        while !rest.is_empty() {
            let held = self.buf.len() - SIZE_LINE_ROOM;
            let take = (CHUNK_BYTES - held).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if held + take == CHUNK_BYTES {
                self.emit_chunk(false)?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.emit_chunk(false)?;
        self.inner.flush()
    }
}

/// Copy exactly `len` body bytes from `reader` to `out`.
///
/// # Errors
///
/// Transport errors; `UnexpectedEof` if the peer closes first.
pub fn copy_exact<R: BufRead, W: Write>(
    reader: &mut R,
    out: &mut W,
    len: u64,
) -> std::io::Result<()> {
    if std::io::copy(&mut reader.by_ref().take(len), out)? != len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed mid-body",
        ));
    }
    Ok(())
}

/// Read one chunked body from `reader` through its terminal chunk and
/// trailer section — the only chunk-size parser in the workspace. With
/// `verbatim` the framing (size lines, CRLFs, trailers) is copied to `out`
/// along with the data, chunk boundaries preserved, which is what a relay
/// wants; without it only the decoded data is. `max_data` caps the summed
/// chunk sizes and is checked before a chunk's bytes are read, so `out` never
/// grows past it on the peer's say-so.
///
/// # Errors
///
/// Transport errors; `InvalidData` on a bad size line, a missing chunk-data
/// CRLF, or chunk sizes that sum past `max_data` (or past `usize`).
pub fn copy_chunked<R: BufRead, W: Write>(
    reader: &mut R,
    out: &mut W,
    verbatim: bool,
    max_data: usize,
) -> std::io::Result<()> {
    let mut line = String::new();
    let mut total = 0usize;
    loop {
        let mut budget = MAX_HEADER_BYTES;
        if read_head_line(reader, &mut line, &mut budget)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed mid-chunk",
            ));
        }
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| io_bad(format!("bad chunk size: {}", line.trim())))?;
        if verbatim {
            out.write_all(line.as_bytes())?;
        }
        if size == 0 {
            // Trailer section: through the blank line.
            loop {
                let n = read_head_line(reader, &mut line, &mut budget)?;
                if verbatim {
                    out.write_all(line.as_bytes())?;
                }
                if n == 0 || line.trim().is_empty() {
                    return Ok(());
                }
            }
        }
        total = total
            .checked_add(size)
            .filter(|total| *total <= max_data)
            .ok_or_else(|| io_bad("chunked body too large"))?;
        copy_exact(reader, out, size as u64)?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(io_bad("missing chunk-data CRLF"));
        }
        if verbatim {
            out.write_all(&crlf)?;
        }
    }
}

/// Decode a complete chunked body held in memory (tests that kept the raw
/// stream to assert on chunk boundaries use this to get the payload back).
///
/// # Errors
///
/// As [`copy_chunked`]: malformed or truncated chunk framing.
pub fn decode_chunked(mut raw: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    copy_chunked(&mut raw, &mut out, false, usize::MAX)?;
    Ok(out)
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        416 => "Range Not Satisfiable",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn query_param_parses() {
        assert_eq!(query_param("model=m&x=1", "model"), Some("m"));
        assert_eq!(query_param("model=m", "x"), None);
        assert_eq!(query_param("", "x"), None);
        assert_eq!(
            split_target("/metrics?format=json"),
            ("/metrics", "format=json")
        );
        assert_eq!(split_target("/metrics"), ("/metrics", ""));
    }

    #[test]
    fn parses_post_with_body() {
        let raw = "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}x";
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/estimate");
        assert_eq!(req.body, "{\"a\": 1}x");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body() {
        let req = read_request(&mut Cursor::new("GET /healthz HTTP/1.1\r\n\r\n"))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn negotiates_connection_state() {
        let close = read_request(&mut Cursor::new(
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
        ))
        .unwrap()
        .unwrap();
        assert!(!close.keep_alive);
        let old = read_request(&mut Cursor::new("GET / HTTP/1.0\r\n\r\n"))
            .unwrap()
            .unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_ka = read_request(&mut Cursor::new(
            "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        ))
        .unwrap()
        .unwrap();
        assert!(old_ka.keep_alive, "HTTP/1.0 opts in explicitly");
        // `close` wins inside a token list, case-insensitively.
        let mixed = read_request(&mut Cursor::new(
            "GET / HTTP/1.1\r\nConnection: keep-alive, CLOSE\r\n\r\n",
        ))
        .unwrap()
        .unwrap();
        assert!(!mixed.keep_alive);
    }

    #[test]
    fn parses_accept_encoding() {
        let req = read_request(&mut Cursor::new(
            "GET / HTTP/1.1\r\nAccept-Encoding: GZip, deflate;q=0.5, br;q=0\r\n\r\n",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(req.accept_encoding, vec!["gzip", "deflate"]);
        assert!(req.accepts_encoding("gzip"));
        assert!(req.accepts_encoding("deflate"));
        assert!(!req.accepts_encoding("br"), "q=0 means not acceptable");

        let plain = read_request(&mut Cursor::new("GET / HTTP/1.1\r\n\r\n"))
            .unwrap()
            .unwrap();
        assert!(plain.accept_encoding.is_empty());
        assert!(!plain.accepts_encoding("gzip"));

        let wild = read_request(&mut Cursor::new(
            "GET / HTTP/1.1\r\nAccept-Encoding: *\r\n\r\n",
        ))
        .unwrap()
        .unwrap();
        assert!(wild.accepts_encoding("gzip"), "wildcard accepts anything");
    }

    #[test]
    fn chunked_header_carries_content_encoding() {
        let mut out = Vec::new();
        write_chunked_headers(&mut out, 200, "text/csv", Some("gzip"), None, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Encoding: gzip\r\n"));
        assert!(text.contains("Vary: Accept-Encoding\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        let mut out = Vec::new();
        write_chunked_headers(&mut out, 200, "text/csv", None, None, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("Content-Encoding"));
    }

    #[test]
    fn parses_resume_range_and_ignores_other_shapes() {
        let req = read_request(&mut Cursor::new(
            "GET /jobs/1/export HTTP/1.1\r\nRange: bytes=1024-\r\n\r\n",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(req.range_start, Some(1024));
        for other in [
            "bytes=0-99",  // closed range
            "bytes=-500",  // suffix range
            "bytes=1-,5-", // multiple ranges
            "items=3-",    // non-byte unit
            "garbage",
        ] {
            let raw = format!("GET / HTTP/1.1\r\nRange: {other}\r\n\r\n");
            let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
            assert_eq!(req.range_start, None, "shape {other:?} must be ignored");
        }
        let plain = read_request(&mut Cursor::new("GET / HTTP/1.1\r\n\r\n"))
            .unwrap()
            .unwrap();
        assert_eq!(plain.range_start, None);
    }

    #[test]
    fn decodes_gzip_and_deflate_request_bodies() {
        use crate::compress::{Coding, Encoder};
        let payload = "SELECT COUNT(*) FROM t WHERE a = 1 -- card=7\n".repeat(64);
        for coding in [Coding::Gzip, Coding::Deflate] {
            let mut enc = Encoder::new(Vec::new(), coding);
            enc.write_all(payload.as_bytes()).unwrap();
            let compressed = enc.finish().unwrap();
            let raw = format!(
                "POST /train HTTP/1.1\r\nContent-Encoding: {}\r\nContent-Length: {}\r\n\r\n",
                coding.token(),
                compressed.len()
            );
            let mut framed = raw.into_bytes();
            framed.extend_from_slice(&compressed);
            let req = read_request(&mut Cursor::new(framed)).unwrap().unwrap();
            assert_eq!(req.body, payload, "{coding:?} body must round-trip");
        }
    }

    #[test]
    fn unknown_content_encoding_is_rejected() {
        let raw = "POST / HTTP/1.1\r\nContent-Encoding: br\r\nContent-Length: 2\r\n\r\nxx";
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert!(err.to_string().contains("unsupported Content-Encoding"));
        assert_eq!(err.status(), 400);
        // identity is a no-op, not an error.
        let raw = "POST / HTTP/1.1\r\nContent-Encoding: identity\r\nContent-Length: 2\r\n\r\nok";
        let req = read_request(&mut Cursor::new(raw)).unwrap().unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn eof_between_requests_is_clean() {
        assert_eq!(read_request(&mut Cursor::new("")).unwrap(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_request(&mut Cursor::new("nonsense\r\n\r\n")).is_err());
        assert!(read_request(&mut Cursor::new("\r\n")).is_err());
        // Declared body longer than what arrives.
        let short = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut Cursor::new(short)).is_err());
    }

    #[test]
    fn oversized_body_is_rejected_without_reading_it() {
        // The body bytes never arrive; the 400 must not wait for them.
        let oversize = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_request(&mut Cursor::new(oversize)).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_header_section_is_rejected() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..9000 {
            raw.push_str(&format!("X-Filler-{i}: aaaaaaaa\r\n"));
        }
        raw.push_str("\r\n");
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn writes_framed_response() {
        let mut out = Vec::new();
        write_json_response(&mut out, 429, "{\"error\":\"full\"}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"full\"}"));
    }

    #[test]
    fn degradation_statuses_carry_retry_after() {
        for status in [429u16, 503, 504] {
            let mut out = Vec::new();
            write_json_response(&mut out, status, "{}", false).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(
                text.contains("Retry-After: 1\r\n"),
                "status {status} missing Retry-After: {text}"
            );
        }
        // Success statuses never carry it.
        let mut out = Vec::new();
        write_json_response(&mut out, 200, "{}", false).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"));
        // A caller-supplied Retry-After wins over the automatic one.
        let mut out = Vec::new();
        let retry = [("Retry-After", "7")];
        write_response(&mut out, 503, "application/json", &retry, b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 7\r\n"));
        assert!(!text.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn responses_echo_keep_alive() {
        let mut out = Vec::new();
        write_json_response(&mut out, 200, "{}", true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
        let mut out = Vec::new();
        write_response(&mut out, 200, PROMETHEUS_TEXT, &[], b"x 1", true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn chunked_round_trip() {
        let mut raw = Vec::new();
        {
            let mut w = ChunkedWriter::new(&mut raw);
            w.write_all(b"hello ").unwrap();
            w.write_all(&vec![b'x'; CHUNK_BYTES]).unwrap();
            w.write_all(b" world").unwrap();
            w.finish().unwrap();
        }
        let decoded = decode_chunked(&raw).unwrap();
        assert_eq!(decoded.len(), 12 + CHUNK_BYTES);
        assert!(decoded.starts_with(b"hello "));
        assert!(decoded.ends_with(b" world"));
        assert!(raw.ends_with(b"0\r\n\r\n"));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut raw = Vec::new();
        {
            let mut w = ChunkedWriter::new(&mut raw);
            w.write_all(b"data").unwrap();
            w.finish().unwrap();
        }
        assert!(decode_chunked(&raw[..raw.len() - 5]).is_err());
    }
}
