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
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll tick while waiting for the next request on an idle keep-alive
/// connection; bounds how long shutdown waits on idle connections.
const IDLE_POLL_TICK: Duration = Duration::from_millis(100);
/// Read timeout once a request has started arriving.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

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

/// Wait (in short poll ticks, so shutdown is observed promptly) until the
/// next request starts arriving. `false` means close the connection: the
/// client closed, the idle deadline passed, the process is shutting down,
/// or the transport failed. Nothing is written to an idle connection — a
/// client must never find a stale response ahead of its next answer.
fn wait_for_request(
    stream: &TcpStream,
    reader: &mut BufReader<&TcpStream>,
    shutting_down: &AtomicBool,
    idle_timeout: Duration,
) -> bool {
    let idle_deadline = Instant::now() + idle_timeout;
    let _ = stream.set_read_timeout(Some(IDLE_POLL_TICK));
    loop {
        if shutting_down.load(Ordering::SeqCst) {
            return false;
        }
        match reader.fill_buf() {
            Ok([]) => return false, // clean EOF
            Ok(_) => return true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
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
pub fn serve_connection<H>(
    stream: &TcpStream,
    shutting_down: &AtomicBool,
    idle_timeout: Duration,
    max_requests: usize,
    mut handle: H,
) where
    H: FnMut(Instant, Result<Request, ServeError>, bool) -> std::io::Result<bool>,
{
    // Responses are written in several small pieces (status line, headers,
    // chunks); without TCP_NODELAY, Nagle holds each piece for the client's
    // delayed ACK (~40ms) on long-lived keep-alive connections.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    while wait_for_request(stream, &mut reader, shutting_down, idle_timeout) {
        let _ = stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT));
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
