//! Server half of the wire layer: the accept loop and the keep-alive
//! connection loop that `sam-serve` and `sam-router` both run. One thread
//! per connection; each connection serves requests until the client sends
//! `Connection: close`, sits idle past the idle timeout, reaches the
//! per-connection request cap, or the process starts shutting down
//! (in-flight requests always finish; their response carries
//! `Connection: close`).

use super::{read_request, Request};
use crate::error::ServeError;
use crate::sync::Lock;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The accepted socket's read timeout, set once per connection: the poll
/// tick while waiting for the next request on an idle keep-alive
/// connection; bounds how long shutdown waits on idle connections.
const IDLE_POLL_TICK: Duration = Duration::from_millis(100);
/// Read timeout once a request has started arriving: how long
/// [`RequestReader`] rides out poll ticks without a byte.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// The accepted socket's write timeout, set once per connection: a peer
/// that takes no byte for this long loses the connection instead of
/// parking its thread (and with it `Acceptor::shutdown`) forever. Per
/// `send`, like the read side: a `send` that times out after queueing part
/// of a large frame reports the part, so a peer that stopped reading
/// mid-response is dropped after two or three of these, not one.
const RESPONSE_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// A running accept loop: one thread accepting on a bound listener, one
/// thread per accepted connection.
pub struct Acceptor {
    addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    thread: Lock<Option<JoinHandle<()>>>,
}

impl Acceptor {
    /// Start accepting on `listener`, running `serve` on its own thread
    /// (named `{name}-conn`) for every connection until `shutting_down` is
    /// set.
    ///
    /// # Errors
    ///
    /// The listener has no local address, or the accept thread cannot be
    /// spawned.
    pub fn spawn<F>(
        listener: TcpListener,
        name: &str,
        shutting_down: Arc<AtomicBool>,
        serve: F,
    ) -> std::io::Result<Acceptor>
    where
        F: Fn(&TcpStream) + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let flag = Arc::clone(&shutting_down);
        let conn_name = format!("{name}-conn");
        let thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&listener, &flag, &conn_name, &Arc::new(serve)))?;
        Ok(Acceptor {
            addr,
            shutting_down,
            thread: Lock::new(Some(thread)),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Set the shutdown flag, stop accepting, and join every connection
    /// thread (each finishes its in-flight request first). Idempotent.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop<F>(
    listener: &TcpListener,
    shutting_down: &AtomicBool,
    conn_name: &str,
    serve: &Arc<F>,
) where
    F: Fn(&TcpStream) + Send + Sync + 'static,
{
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let serve = Arc::clone(serve);
        let spawned = std::thread::Builder::new()
            .name(conn_name.to_string())
            .spawn(move || serve(&stream));
        if let Ok(handle) = spawned {
            // Reap finished handlers so the vec stays bounded on long runs.
            conns.retain(|h| !h.is_finished());
            conns.push(handle);
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// `Read` over an accepted socket whose read timeout stays at
/// [`IDLE_POLL_TICK`] for the connection's life — no `setsockopt` per
/// request. While a request is being read, poll ticks are ridden out until
/// no byte has arrived for [`REQUEST_READ_TIMEOUT`]; between requests a
/// tick's timeout goes back to [`wait_for_request`].
struct RequestReader<'a> {
    stream: &'a TcpStream,
    in_request: bool,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl Read for RequestReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut waited = Duration::ZERO;
        loop {
            match self.stream.read(buf) {
                Err(e) if self.in_request && is_timeout(&e) => {
                    waited += IDLE_POLL_TICK;
                    if waited >= REQUEST_READ_TIMEOUT {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Wait (in short poll ticks, so shutdown is observed promptly) until the
/// next request starts arriving. `false` means close the connection: the
/// client closed, the idle deadline passed, the process is shutting down,
/// or the transport failed. Nothing is written to an idle connection — a
/// client must never find a stale response ahead of its next answer.
fn wait_for_request(
    reader: &mut BufReader<RequestReader>,
    shutting_down: &AtomicBool,
    idle_timeout: Duration,
) -> bool {
    let idle_deadline = Instant::now() + idle_timeout;
    reader.get_mut().in_request = false;
    loop {
        if shutting_down.load(Ordering::SeqCst) {
            return false;
        }
        match reader.fill_buf() {
            Ok([]) => return false, // clean EOF
            Ok(_) => {
                reader.get_mut().in_request = true;
                return true;
            }
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= idle_deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// Serve one connection: loop wait → parse → `handle` until it should close.
///
/// `handle` gets the instant the request started arriving, the parsed
/// request (or the parse error — framing can't be trusted after one, so the
/// connection closes once it is answered), and the connection state the
/// response **must** echo: keep-alive only if the client asked for it, fewer
/// than `max_requests` have been served, and `shutting_down` is unset. It
/// writes the response and returns whether the connection must close
/// regardless (say, a relayed body framed by the upstream's close).
///
/// Socket options are set here, once per connection; a steady-state
/// keep-alive request costs one `recv` and one `send`.
pub fn serve_connection<H>(
    stream: &TcpStream,
    shutting_down: &AtomicBool,
    idle_timeout: Duration,
    max_requests: usize,
    mut handle: H,
) where
    H: FnMut(Instant, Result<Request, ServeError>, bool) -> std::io::Result<bool>,
{
    // A `Content-Length`-framed answer is one write, but a streamed export
    // is still several (head, then chunks); without TCP_NODELAY, Nagle holds
    // the later ones for the client's delayed ACK (~40ms) on long-lived
    // keep-alive connections.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL_TICK));
    let _ = stream.set_write_timeout(Some(RESPONSE_WRITE_TIMEOUT));
    let mut reader = BufReader::new(RequestReader {
        stream,
        in_request: false,
    });
    let mut served = 0usize;
    while wait_for_request(&mut reader, shutting_down, idle_timeout) {
        let started = Instant::now();
        served += 1;
        let (request, keep_alive) = match read_request(&mut reader) {
            Ok(Some(request)) => {
                let keep = request.keep_alive
                    && served < max_requests
                    && !shutting_down.load(Ordering::SeqCst);
                (Ok(request), keep)
            }
            Ok(None) => break, // clean EOF mid-negotiation
            Err(e) => (Err(e), false),
        };
        match handle(started, request, keep_alive) {
            Ok(false) if keep_alive => continue,
            _ => break,
        }
    }
}
