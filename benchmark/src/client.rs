//! Minimal blocking HTTP/1.1 keep-alive client: the harness's own
//! instrument, independent of `sam_workgen::load` and the router's proxy so a
//! change to either cannot change what the benchmark measures.
//!
//! One [`Client`] is one connection with at most one request in flight. It
//! reconnects when the server answers `Connection: close` (the serve tier
//! does after `--conn-requests` requests) and retries once when a reused
//! connection turns out to have been closed by the peer.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client will buffer.
const MAX_BODY_BYTES: usize = 64 << 20;
/// Longest status or header line accepted.
const MAX_LINE_BYTES: usize = 16 << 10;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Render a request with a `Content-Length` body, ready for [`Client::send`].
pub fn build_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// A single keep-alive connection to one address.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
    line: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
            connects: 0,
            line: Vec::new(),
        }
    }

    /// TCP connections opened so far (1 while keep-alive holds).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send(&build_request("GET", path, b""))
    }

    /// Send pre-rendered request bytes and read the response.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.exchange(raw) {
            // The peer may close an idle keep-alive connection at any time;
            // that shows as EOF or a reset before any response byte. Only a
            // reused connection is retried, and only once.
            Err(e) if reused && is_stale(&e) => {
                self.conn = None;
                self.exchange(raw)
            }
            other => other,
        }
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let result = self.exchange_on_conn(raw);
        match &result {
            Ok((_, close)) if !*close => {}
            // Framing is unknown after an error, and `close` ends the
            // connection by contract.
            _ => self.conn = None,
        }
        result.map(|(response, _)| response)
    }

    fn exchange_on_conn(&mut self, raw: &[u8]) -> io::Result<(Response, bool)> {
        let reader = self.conn.as_mut().expect("connected above");
        reader.get_mut().write_all(raw)?;

        read_line(reader, &mut self.line)?;
        if self.line.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status = parse_status(&self.line)?;

        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        let mut close = false;
        loop {
            read_line(reader, &mut self.line)?;
            let line = trim_crlf(&self.line);
            if line.is_empty() {
                break;
            }
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                return Err(bad("header line without a colon"));
            };
            let name = &line[..colon];
            let value = std::str::from_utf8(&line[colon + 1..])
                .map_err(|_| bad("header value is not UTF-8"))?
                .trim();
            if name.eq_ignore_ascii_case(b"content-length") {
                content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                chunked = value.to_ascii_lowercase().contains("chunked");
            } else if name.eq_ignore_ascii_case(b"connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }

        let body = if chunked {
            read_chunked(reader, &mut self.line)?
        } else {
            let n = content_length.ok_or_else(|| bad("response has no body framing"))?;
            if n > MAX_BODY_BYTES {
                return Err(bad("response body too large"));
            }
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        };
        Ok((Response { status, body }, close))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Read one `\n`-terminated line into `line` (cleared first); an empty
/// `line` afterwards means end of stream.
fn read_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<()> {
    line.clear();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', line)?;
    if line.len() >= MAX_LINE_BYTES {
        return Err(bad("header line too long"));
    }
    Ok(())
}

fn trim_crlf(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

fn parse_status(line: &[u8]) -> io::Result<u16> {
    let text = std::str::from_utf8(trim_crlf(line)).map_err(|_| bad("status line not UTF-8"))?;
    let mut parts = text.split(' ');
    match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => {
            code.parse().map_err(|_| bad("bad status code"))
        }
        _ => Err(bad("bad status line")),
    }
}

fn read_chunked<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        read_line(reader, line)?;
        let size_text = std::str::from_utf8(trim_crlf(line)).map_err(|_| bad("bad chunk size"))?;
        // Chunk extensions (";name=value") are allowed and ignored.
        let size_hex = size_text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            // Trailer section: header lines up to the blank line.
            loop {
                read_line(reader, line)?;
                if trim_crlf(line).is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len().saturating_add(size) > MAX_BODY_BYTES {
            return Err(bad("response body too large"));
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        read_line(reader, line)?;
        if !trim_crlf(line).is_empty() {
            return Err(bad("chunk not followed by CRLF"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread;

    /// Read one request (head + Content-Length body); `None` on EOF.
    fn read_request(reader: &mut BufReader<TcpStream>) -> Option<(String, Vec<u8>)> {
        let mut head = String::new();
        let mut length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
            head.push_str(&line);
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).ok()?;
        Some((head, body))
    }

    /// Every request a scripted server saw: (connection index, head, body).
    type SeenRequests = mpsc::Receiver<(usize, String, Vec<u8>)>;

    /// A server that answers each accepted connection with the next script:
    /// one raw response per request, closing the socket when the script ends.
    /// Reports every request it saw as (connection index, head, body).
    fn scripted_server(
        scripts: Vec<Vec<&'static [u8]>>,
    ) -> (SocketAddr, SeenRequests, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            for (index, script) in scripts.into_iter().enumerate() {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                for response in script {
                    let Some((head, body)) = read_request(&mut reader) else {
                        break;
                    };
                    tx.send((index, head, body)).unwrap();
                    reader.get_mut().write_all(response).unwrap();
                }
            }
        });
        (addr, rx, handle)
    }

    fn client(addr: SocketAddr) -> Client {
        Client::new(addr, Duration::from_secs(5))
    }

    #[test]
    fn content_length_body_and_keep_alive_reuse() {
        let (addr, seen, server) = scripted_server(vec![vec![
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\n{\"a\":1}",
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ]]);
        let mut c = client(addr);
        let r = c
            .send(&build_request("POST", "/estimate", b"{\"q\":1}"))
            .unwrap();
        assert_eq!((r.status, r.text().as_str()), (200, "{\"a\":1}"));
        let r = c.get("/missing").unwrap();
        assert_eq!((r.status, r.body.len()), (404, 0));
        let r = c.get("/again").unwrap();
        assert_eq!(r.text(), "ok");
        assert_eq!(c.connects(), 1, "three requests over one connection");
        drop(c);
        server.join().unwrap();

        let requests: Vec<_> = seen.iter().collect();
        assert_eq!(requests.len(), 3);
        assert!(requests.iter().all(|(conn, _, _)| *conn == 0));
        assert!(requests[0].1.starts_with("POST /estimate HTTP/1.1\r\n"));
        assert_eq!(requests[0].2, b"{\"q\":1}");
        assert!(requests[1].1.starts_with("GET /missing HTTP/1.1\r\n"));
    }

    #[test]
    fn chunked_body_with_extension_and_trailer() {
        let (addr, _seen, server) = scripted_server(vec![vec![
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n6;ext=1\r\npedia \r\nE\r\nin \r\n\r\nchunks.\r\n0\r\nX-Trailer: 1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nz",
        ]]);
        let mut c = client(addr);
        assert_eq!(c.get("/a").unwrap().text(), "Wikipedia in \r\n\r\nchunks.");
        assert_eq!(c.get("/b").unwrap().body, b"");
        // The chunked bodies were consumed exactly: the next response parses.
        assert_eq!(c.get("/c").unwrap().text(), "z");
        assert_eq!(c.connects(), 1);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn connection_close_forces_a_new_connection() {
        let (addr, seen, server) = scripted_server(vec![
            vec![b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: close\r\n\r\na"],
            vec![b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"],
        ]);
        let mut c = client(addr);
        assert_eq!(c.get("/1").unwrap().text(), "a");
        assert_eq!(c.get("/2").unwrap().text(), "b");
        assert_eq!(c.connects(), 2);
        drop(c);
        server.join().unwrap();
        let conns: Vec<usize> = seen.iter().map(|(conn, _, _)| conn).collect();
        assert_eq!(conns, vec![0, 1]);
    }

    #[test]
    fn stale_keep_alive_connection_is_retried_once() {
        // The first connection answers once and is then closed by the server
        // without `Connection: close`; the second request must reconnect.
        let (addr, _seen, server) = scripted_server(vec![
            vec![b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"],
            vec![b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"],
        ]);
        let mut c = client(addr);
        assert_eq!(c.get("/1").unwrap().text(), "a");
        assert_eq!(c.get("/2").unwrap().text(), "b");
        assert_eq!(c.connects(), 2);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn malformed_responses_are_errors() {
        let (addr, _seen, server) = scripted_server(vec![
            vec![b"HTTP/1.1 200 OK\r\n\r\nno framing"],
            vec![b"garbage\r\n\r\n"],
            vec![b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"],
        ]);
        let mut c = client(addr);
        assert!(c.get("/no-framing").is_err());
        assert!(c.get("/bad-status").is_err());
        assert!(c.get("/bad-chunk").is_err());
        assert_eq!(c.connects(), 3, "each error drops the connection");
        drop(c);
        server.join().unwrap();
    }
}
