//! Upstream side of the router: a keep-alive connection pool per worker,
//! buffered request/response exchange for fan-out and control traffic, a
//! streaming relay for large bodies (CSV exports) that must not be
//! buffered in router memory, and the health probe. The HTTP itself —
//! request rendering, response codec, the connection — is
//! [`sam_serve::http`]'s.
//!
//! Retry safety is framed here: [`ConnPool::exchange`] buffers the whole
//! upstream response before the router writes a byte to the client, so a
//! failed exchange is always retryable. [`relay`] streams — it may only be
//! retried while the upstream *head* has not yet been forwarded, which it
//! signals by failing before any client write.

use crate::worker::WorkerHealth;
use sam_serve::http::{self, build_request, Conn, Response};
use sam_serve::sync::Lock;
use std::io::Write;
use std::time::Duration;

/// Idle sockets kept per worker.
const POOL_CAPACITY: usize = 8;

/// A keep-alive connection pool to one worker address. The address is
/// mutable because a restarted worker binds a fresh ephemeral port — the
/// supervisor calls [`ConnPool::reset`] with the new address, which also
/// drops every (now dead) idle socket.
#[derive(Debug)]
pub struct ConnPool {
    addr: Lock<String>,
    idle: Lock<Vec<Conn>>,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl ConnPool {
    /// A pool for `addr` with the given connect and per-operation I/O
    /// timeouts.
    pub fn new(addr: String, connect_timeout: Duration, io_timeout: Duration) -> ConnPool {
        ConnPool {
            addr: Lock::new(addr),
            idle: Lock::new(Vec::new()),
            connect_timeout,
            io_timeout,
        }
    }

    /// Current upstream address.
    pub fn addr(&self) -> String {
        self.addr.lock().clone()
    }

    /// Point the pool at a new address (worker restarted on a fresh port)
    /// and drop all idle sockets to the old one.
    pub fn reset(&self, addr: String) {
        *self.addr.lock() = addr;
        self.clear();
    }

    /// Drop all idle sockets (the worker died; they are all stale).
    pub fn clear(&self) {
        self.idle.lock().clear();
    }

    /// An idle connection, or a fresh one that connects on first use. A
    /// pooled socket the worker's idle timeout has since closed is the
    /// connection's problem: [`Conn::send`] retries once on a fresh one.
    fn checkout(&self) -> Conn {
        let idle = self.idle.lock().pop();
        idle.unwrap_or_else(|| Conn::new(self.addr(), self.connect_timeout, self.io_timeout))
    }

    fn checkin(&self, conn: Conn) {
        let mut idle = self.idle.lock();
        if conn.is_open() && idle.len() < POOL_CAPACITY {
            idle.push(conn);
        }
    }

    /// Send one request and buffer the whole response. A failure here
    /// means the worker is actually unreachable (a merely stale pooled
    /// socket was already retried) — the caller's problem.
    ///
    /// # Errors
    ///
    /// Connect/transport errors and malformed upstream framing.
    pub fn exchange(&self, request: &[u8]) -> std::io::Result<Response> {
        let mut conn = self.checkout();
        let response = conn.exchange(request)?;
        self.checkin(conn);
        Ok(response)
    }
}

/// Stream one upstream response through to `client` without buffering the
/// body: forward the head (with the `Connection` header rewritten to the
/// client's negotiated state) and then copy the body bytes preserving the
/// upstream framing (`Content-Length` or chunked). An upstream that frames
/// by connection close forces `Connection: close` to the client too.
///
/// Returns the upstream status and whether the client connection must be
/// closed after this response. **No byte is written to `client` until the
/// upstream head has parsed**, so an `Err` from the head phase is safely
/// retryable by the caller.
///
/// # Errors
///
/// Transport errors from either side; `InvalidData` on malformed upstream
/// framing.
pub fn relay<W: Write>(
    pool: &ConnPool,
    request: &[u8],
    client: &mut W,
    client_keep_alive: bool,
) -> std::io::Result<(u16, bool)> {
    let mut conn = pool.checkout();
    let (head, reader) = conn.send(request)?;
    let chunked = head.chunked();
    let content_length = head.content_length();
    // Read-to-close upstream framing forces closing the client side too —
    // there is no other way to delimit the relayed body.
    let until_eof = !chunked && content_length.is_none();
    let keep_client = client_keep_alive && !until_eof;

    let headers: Vec<(&str, &str)> = head
        .headers
        .iter()
        .filter(|(name, _)| name != "connection")
        .map(|(name, value)| (name.as_str(), value.as_str()))
        .collect();
    http::write_head(client, head.status, &headers, keep_client)?;

    if chunked {
        http::copy_chunked(reader, client, true, usize::MAX)?;
    } else if let Some(len) = content_length {
        http::copy_exact(reader, client, len as u64)?;
    } else {
        std::io::copy(reader, client)?;
    }
    client.flush()?;
    if !head.close() {
        pool.checkin(conn);
    }
    Ok((head.status, !keep_client))
}

/// One health probe: `GET /debug/buildinfo` answered 200 with at least
/// `want_models` models loaded means [`WorkerHealth::Healthy`]; a 200 with
/// fewer models means the worker is up but still loading
/// ([`WorkerHealth::Starting`]); anything else is [`WorkerHealth::Down`].
/// `timeout` bounds the connect and each read.
pub fn probe(addr: &str, timeout: Duration, want_models: usize) -> WorkerHealth {
    let request = build_request("GET", "/debug/buildinfo", &[("Connection", "close")], b"");
    match Conn::new(addr, timeout, timeout).exchange(&request) {
        Ok(resp) if resp.status == 200 => {
            let loaded = serde_json::parse_value(&resp.text())
                .ok()
                .and_then(|v| v.get("models").and_then(|m| m.as_u64()))
                .unwrap_or(0) as usize;
            if loaded >= want_models {
                WorkerHealth::Healthy
            } else {
                WorkerHealth::Starting
            }
        }
        _ => WorkerHealth::Down,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// Canned upstream: accepts connections forever, answers each request
    /// on a connection with the next canned response (cycling), honouring
    /// keep-alive.
    fn canned_server(responses: Vec<Vec<u8>>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut next = 0usize;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                while let Ok(Some(_)) = http::read_request(&mut reader) {
                    let resp = &responses[next % responses.len()];
                    next += 1;
                    if stream.write_all(resp).is_err() {
                        break;
                    }
                    let text = String::from_utf8_lossy(resp).to_ascii_lowercase();
                    if text.contains("connection: close") {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn pool_for(addr: &str) -> ConnPool {
        ConnPool::new(
            addr.to_string(),
            Duration::from_secs(2),
            Duration::from_secs(5),
        )
    }

    #[test]
    fn exchange_buffers_content_length_response() {
        let addr = canned_server(vec![
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\n{\"k\":1}".to_vec(),
        ]);
        let pool = pool_for(&addr);
        let resp = pool
            .exchange(&build_request("GET", "/x", &[], b""))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"k\":1}");
        assert_eq!(resp.header("content-type"), Some("application/json"));
        // Second exchange reuses the pooled socket.
        let resp2 = pool
            .exchange(&build_request("GET", "/y", &[], b""))
            .unwrap();
        assert_eq!(resp2.status, 200);
    }

    #[test]
    fn exchange_decodes_chunked_response() {
        let addr = canned_server(vec![
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n".to_vec(),
        ]);
        let pool = pool_for(&addr);
        let resp = pool
            .exchange(&build_request("GET", "/x", &[], b""))
            .unwrap();
        assert_eq!(resp.body, b"hello world");
    }

    #[test]
    fn stale_pooled_socket_is_retried_on_fresh_connection() {
        // First response closes the upstream side *without* advertising it
        // (keep-alive header, then server drops after one request because
        // canned_server cycles). Simulate by a server that closes after
        // every response despite claiming keep-alive.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let _ = http::read_request(&mut BufReader::new(stream.try_clone().unwrap()));
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                );
                // Drop: the pooled socket goes stale.
            }
        });
        let pool = pool_for(&addr);
        let req = build_request("GET", "/", &[], b"");
        assert_eq!(pool.exchange(&req).unwrap().status, 200);
        // The pooled socket is now dead; exchange must transparently retry.
        assert_eq!(pool.exchange(&req).unwrap().status, 200);
    }

    #[test]
    fn relay_preserves_chunked_framing_and_rewrites_connection() {
        let addr = canned_server(vec![
            b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n4\r\nr1,a\r\n4\r\nr2,b\r\n0\r\n\r\n".to_vec(),
        ]);
        let pool = pool_for(&addr);
        let mut client = Vec::new();
        let (status, close) = relay(
            &pool,
            &build_request("GET", "/jobs/1/export", &[], b""),
            &mut client,
            true,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(!close, "chunked framing keeps the client connection open");
        let text = String::from_utf8(client).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        let body_at = text.find("\r\n\r\n").unwrap() + 4;
        let decoded = http::decode_chunked(&text.as_bytes()[body_at..]).unwrap();
        assert_eq!(decoded, b"r1,ar2,b");
    }

    #[test]
    fn relay_forces_close_for_eof_framed_upstream() {
        let addr = canned_server(vec![
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nraw-bytes".to_vec(),
        ]);
        let pool = pool_for(&addr);
        let mut client = Vec::new();
        let (status, close) = relay(
            &pool,
            &build_request("GET", "/raw", &[], b""),
            &mut client,
            true,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(close, "EOF-framed body can only be delimited by close");
        let text = String::from_utf8(client).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("raw-bytes"));
    }

    #[test]
    fn probe_maps_buildinfo_to_health() {
        let timeout = Duration::from_secs(2);
        let healthy = canned_server(vec![
            b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nConnection: close\r\n\r\n{\"models\":2}"
                .to_vec(),
        ]);
        assert_eq!(probe(&healthy, timeout, 2), WorkerHealth::Healthy);
        let loading = canned_server(vec![
            b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nConnection: close\r\n\r\n{\"models\":1}"
                .to_vec(),
        ]);
        assert_eq!(probe(&loading, timeout, 2), WorkerHealth::Starting);
        let erroring = canned_server(vec![
            b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}".to_vec(),
        ]);
        assert_eq!(probe(&erroring, timeout, 1), WorkerHealth::Down);
        assert_eq!(probe("127.0.0.1:1", timeout, 1), WorkerHealth::Down);
    }
}
