//! The wire layer against hostile or awkward peers: bounded head lines in
//! both directions, chunk-size arithmetic on peer-supplied sizes, the
//! shared connection loop's silent idle expiry, its once-per-connection
//! timeouts, the client's reconnect policy — and the write budget: every
//! response frame is rendered, then written once, with the bytes pinned.

use sam_serve::http::{
    build_request, copy_chunked, decode_chunked, read_body, read_head, read_request,
    serve_connection, write_chunked_headers, write_head, write_json_response, write_response,
    Acceptor, ChunkedWriter, Conn, RespHead, CHUNK_BYTES, MAX_BUFFERED_RESPONSE, MAX_HEADER_BYTES,
    PROMETHEUS_TEXT,
};
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn newline_free_request_line_is_400_and_never_buffered_past_the_limit() {
    let mut raw = Cursor::new(vec![b'A'; 1 << 20]);
    let err = read_request(&mut raw).expect_err("1 MiB without a newline");
    assert_eq!(err.status(), 400, "{err}");
    assert!(
        raw.position() <= MAX_HEADER_BYTES as u64,
        "parser swallowed {} bytes of an unterminated line",
        raw.position()
    );

    // The same budget covers a head made of many small lines.
    let head = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(1 << 14)
    );
    let mut raw = Cursor::new(head.into_bytes());
    assert_eq!(read_request(&mut raw).unwrap_err().status(), 400);
    assert!(raw.position() <= MAX_HEADER_BYTES as u64);
}

#[test]
fn newline_free_response_head_is_invalid_data() {
    for head in [
        vec![b'A'; 1 << 20],
        [&b"HTTP/1.1 200 OK\r\nX-Pad: "[..], &vec![b'a'; 1 << 20]].concat(),
    ] {
        let mut raw = Cursor::new(head);
        let err = read_head(&mut raw).expect_err("unterminated head line");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(raw.position() <= MAX_HEADER_BYTES as u64);
    }
}

fn chunked_head() -> RespHead {
    RespHead {
        status: 200,
        headers: vec![("transfer-encoding".to_string(), "chunked".to_string())],
    }
}

#[test]
fn hostile_chunk_sizes_fail_cleanly_on_the_buffered_path() {
    // A second chunk whose size wraps `usize` when added to the first.
    let wrap = b"5\r\nhello\r\nffffffffffffffff\r\nrest";
    // One chunk just past the cap: refused before any of it is read.
    let over = format!("{:x}\r\n", MAX_BUFFERED_RESPONSE + 1);
    // Not hex at all, and a size too wide for `usize`.
    for raw in [
        &wrap[..],
        over.as_bytes(),
        b"zz\r\n",
        b"1ffffffffffffffff\r\n",
    ] {
        let err = read_body(&mut Cursor::new(raw), &chunked_head()).expect_err("hostile size");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    }

    // The cap is applied before the chunk is copied: nothing reaches `out`.
    let mut out = Vec::new();
    let err = copy_chunked(&mut &b"9\r\n123456789\r\n0\r\n\r\n"[..], &mut out, false, 8)
        .expect_err("9 bytes against a cap of 8");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(out.is_empty() && out.capacity() == 0);
}

#[test]
fn hostile_chunk_sizes_fail_cleanly_on_the_relay_path() {
    // Uncapped, verbatim: the sum still may not wrap.
    let mut out = Vec::new();
    let wrap = b"5\r\nhello\r\nffffffffffffffff\r\nrest";
    let err = copy_chunked(&mut &wrap[..], &mut out, true, usize::MAX).expect_err("wrapping sum");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert_eq!(
        out, b"5\r\nhello\r\nffffffffffffffff\r\n",
        "forwarded so far"
    );

    // A single absurd size is just a truncated stream: `size + 2` is never
    // computed.
    let mut out = Vec::new();
    let err = copy_chunked(
        &mut &b"ffffffffffffffff\r\nshort"[..],
        &mut out,
        true,
        usize::MAX,
    )
    .expect_err("body ends before the chunk does");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");

    // Well-formed streams pass through byte for byte, trailers included.
    let stream = b"4\r\nr1,a\r\n4\r\nr2,b\r\n0\r\nX-Sum: 1\r\n\r\n";
    let mut out = Vec::new();
    copy_chunked(&mut &stream[..], &mut out, true, usize::MAX).unwrap();
    assert_eq!(out, stream);
}

#[test]
fn idle_connection_expires_silently() {
    // The shared loop with a 150 ms idle timeout; every request gets `200 {}`.
    let flag = Arc::new(AtomicBool::new(false));
    let conn_flag = Arc::clone(&flag);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let acceptor = Acceptor::spawn(listener, "wire-test", flag, move |stream| {
        let (mut out, idle) = (stream, Duration::from_millis(150));
        serve_connection(stream, &conn_flag, idle, usize::MAX, |_, request, keep| {
            let status = request.map_or_else(|e| e.status(), |_| 200);
            write_json_response(&mut out, status, "{}", keep).map(|()| false)
        });
    })
    .unwrap();
    let timeout = Duration::from_secs(30);
    let mut conn = Conn::new(acceptor.addr(), timeout, timeout);
    let (head, reader) = conn.send(&build_request("GET", "/", &[], b"")).unwrap();
    assert_eq!(head.status, 200);
    assert_eq!(read_body(reader, &head).unwrap(), b"{}");

    // Idle past the timeout: the loop closes without writing anything.
    let started = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
    assert!(started.elapsed() < Duration::from_secs(5));
    acceptor.shutdown();
}

#[test]
fn conn_redials_a_stale_socket_but_does_not_resend_after_a_timeout() {
    // Request 1 is answered keep-alive and the socket then dropped; request 2
    // (on a new socket, after the client's silent re-dial) is read but
    // never answered.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let seen = Arc::new(AtomicUsize::new(0));
    let server_seen = Arc::clone(&seen);
    std::thread::spawn(move || {
        let mut parked = Vec::new();
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            if !matches!(read_request(&mut reader), Ok(Some(_))) {
                continue;
            }
            if server_seen.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                );
            } else {
                parked.push(stream);
            }
        }
    });
    let mut conn = Conn::new(addr, Duration::from_secs(2), Duration::from_millis(300));
    let request = build_request("GET", "/", &[], b"");
    assert_eq!(conn.exchange(&request).unwrap().body, b"ok");
    assert!(conn.is_open());

    let err = conn
        .exchange(&request)
        .expect_err("second answer never comes");
    assert!(
        matches!(err.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
        "{err}"
    );
    assert!(!conn.is_open(), "a failed exchange drops the socket");
    assert_eq!(
        seen.load(Ordering::SeqCst),
        2,
        "stale socket re-dialled once; the timed-out request was not sent again"
    );
}

#[test]
fn request_head_cut_short_by_eof_is_never_routed() {
    // The shared loop; the handler counts the requests it is asked to route
    // (parse errors are only answered) and says 200 to each.
    let flag = Arc::new(AtomicBool::new(false));
    let conn_flag = Arc::clone(&flag);
    let routed = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&routed);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let acceptor = Acceptor::spawn(listener, "wire-test", flag, move |stream| {
        let (mut out, idle) = (stream, Duration::from_secs(5));
        serve_connection(stream, &conn_flag, idle, usize::MAX, |_, request, keep| {
            let status = match request {
                Ok(_) => {
                    seen.fetch_add(1, Ordering::SeqCst);
                    200
                }
                Err(e) => e.status(),
            };
            write_json_response(&mut out, status, "{}", keep).map(|()| false)
        });
    })
    .unwrap();
    // A client that dies mid-head: the bytes, then EOF on its write half.
    let answer = |head: &[u8]| {
        let mut stream = std::net::TcpStream::connect(acceptor.addr()).unwrap();
        stream.write_all(head).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    for head in [
        &b"POST /admin/drain HTTP/1.1\r\n"[..],
        b"POST /jobs/7/cancel HTTP/1.1\r\nHost: x\r\n",
    ] {
        let response = answer(head);
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert_eq!(
            routed.load(Ordering::SeqCst),
            0,
            "dispatched a cut-off head"
        );
    }
    let response = answer(b"POST /admin/drain HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    assert_eq!(routed.load(Ordering::SeqCst), 1);
    acceptor.shutdown();
}

/// A sink that counts `write` calls — on a bare `TcpStream` each one is a
/// `send`.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

type Emit = fn(&mut CountingWriter) -> std::io::Result<()>;

#[test]
fn every_response_shape_is_one_write_of_the_pinned_bytes() {
    // The bytes are what commit d551f9e (eleven writes per JSON answer)
    // put on the wire, header order included.
    let shapes: [(&str, Emit, &str); 8] = [
        (
            "200 JSON",
            |out| write_json_response(out, 200, "{\"estimate\":42.0}", true),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 17\r\n\
             Connection: keep-alive\r\n\r\n{\"estimate\":42.0}",
        ),
        (
            "503, automatic Retry-After",
            |out| write_json_response(out, 503, "{}", false),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{}",
        ),
        (
            "503, caller's Retry-After",
            |out| {
                let retry = [("retry-after", "7"), ("X-Shard", "1")];
                write_response(out, 503, "application/json", &retry, b"{}", true)
            },
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nretry-after: 7\r\nX-Shard: 1\r\n\
             Connection: keep-alive\r\n\r\n{}",
        ),
        (
            "416 with Content-Range",
            |out| {
                let range = [("Content-Range", "bytes */1234")];
                write_response(
                    out,
                    416,
                    "application/json",
                    &range,
                    b"{\"error\":\"x\"}",
                    true,
                )
            },
            "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Type: application/json\r\n\
             Content-Length: 13\r\nContent-Range: bytes */1234\r\n\
             Connection: keep-alive\r\n\r\n{\"error\":\"x\"}",
        ),
        (
            "Prometheus text",
            |out| write_response(out, 200, PROMETHEUS_TEXT, &[], b"sam_up 1\n", true),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: 9\r\nConnection: keep-alive\r\n\r\nsam_up 1\n",
        ),
        (
            "relayed head",
            |out| {
                let upstream = [
                    ("content-type", "application/json"),
                    ("content-length", "2"),
                ];
                write_head(out, 504, &upstream, false)
            },
            "HTTP/1.1 504 Gateway Timeout\r\ncontent-type: application/json\r\n\
             content-length: 2\r\nConnection: close\r\n\r\n",
        ),
        (
            "chunked head, gzip",
            |out| write_chunked_headers(out, 200, "text/csv", Some("gzip"), None, true),
            "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Encoding: gzip\r\n\
             Vary: Accept-Encoding\r\nTransfer-Encoding: chunked\r\n\
             Connection: keep-alive\r\n\r\n",
        ),
        (
            "chunked head, 206",
            |out| {
                let range = Some("bytes 10-99/100");
                write_chunked_headers(out, 206, "application/x-ndjson", None, range, false)
            },
            "HTTP/1.1 206 Partial Content\r\nContent-Type: application/x-ndjson\r\n\
             Content-Range: bytes 10-99/100\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n",
        ),
    ];
    for (shape, emit, golden) in shapes {
        let mut out = CountingWriter::default();
        emit(&mut out).unwrap();
        assert_eq!(String::from_utf8_lossy(&out.bytes), golden, "{shape}");
        assert_eq!(out.writes, 1, "{shape}: one frame, one write");
    }
}

#[test]
fn chunked_writer_makes_one_write_per_chunk_and_one_for_tail_plus_terminator() {
    let frame = |data: &[u8]| [format!("{:x}\r\n", data.len()).as_bytes(), data, b"\r\n"].concat();
    for (full_chunks, tail) in [(0usize, 5usize), (1, 0), (3, 1), (2, CHUNK_BYTES - 1)] {
        let input: Vec<u8> = (0..full_chunks * CHUNK_BYTES + tail)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut out = CountingWriter::default();
        let mut chunked = ChunkedWriter::new(&mut out);
        // Pieces that straddle every chunk boundary.
        for piece in input.chunks(CHUNK_BYTES / 3 + 7) {
            chunked.write_all(piece).unwrap();
        }
        chunked.finish().unwrap();
        assert_eq!(out.writes, full_chunks + 1, "{full_chunks} chunks + {tail}");

        let mut golden: Vec<u8> = input.chunks(CHUNK_BYTES).flat_map(frame).collect();
        golden.extend_from_slice(b"0\r\n\r\n");
        assert!(
            out.bytes == golden,
            "framing of {full_chunks} chunks + {tail}"
        );
        assert!(decode_chunked(&out.bytes).unwrap() == input);
    }
}

/// The shared loop answering every request `200 {}`, counting the requests
/// that parsed.
fn counting_acceptor(idle: Duration) -> (Acceptor, Arc<AtomicUsize>) {
    let flag = Arc::new(AtomicBool::new(false));
    let conn_flag = Arc::clone(&flag);
    let routed = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&routed);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let acceptor = Acceptor::spawn(listener, "wire-test", flag, move |stream| {
        let mut out = stream;
        serve_connection(stream, &conn_flag, idle, usize::MAX, |_, request, keep| {
            let status = match request {
                Ok(_) => {
                    seen.fetch_add(1, Ordering::SeqCst);
                    200
                }
                Err(e) => e.status(),
            };
            write_json_response(&mut out, status, "{}", keep).map(|()| false)
        });
    })
    .unwrap();
    (acceptor, routed)
}

#[test]
fn trickled_request_rides_out_idle_poll_ticks() {
    // The socket's read timeout stays at the 100 ms idle tick; a request in
    // progress must survive several of them between its pieces.
    let (acceptor, routed) = counting_acceptor(Duration::from_secs(5));
    let pause = Duration::from_millis(350);
    let mut stream = TcpStream::connect(acceptor.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let pieces: [(&[u8], &[u8]); 2] = [
        // A head in two pieces, cut mid-line.
        (b"GET /healthz HTTP/1.1\r\nHo", b"st: x\r\n\r\n"),
        // A body in two pieces.
        (
            b"POST /estimate HTTP/1.1\r\nContent-Length: 10\r\n\r\n01234",
            b"56789",
        ),
    ];
    for (served, (first, second)) in pieces.into_iter().enumerate() {
        stream.write_all(first).unwrap();
        std::thread::sleep(pause);
        assert_eq!(
            routed.load(Ordering::SeqCst),
            served,
            "routed half a request"
        );
        stream.write_all(second).unwrap();
        let head = read_head(&mut reader).unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(read_body(&mut reader, &head).unwrap(), b"{}");
        assert_eq!(routed.load(Ordering::SeqCst), served + 1);
    }
    acceptor.shutdown();
}

#[test]
fn peer_that_never_reads_cannot_hang_shutdown() {
    // One answer far larger than both socket buffers, to a client that
    // sends its request and then never reads.
    let flag = Arc::new(AtomicBool::new(false));
    let conn_flag = Arc::clone(&flag);
    let (entered, handler_entered) = std::sync::mpsc::channel();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let acceptor = Acceptor::spawn(listener, "wire-test", flag, move |stream| {
        let mut out = stream;
        let body = "x".repeat(32 << 20);
        serve_connection(
            stream,
            &conn_flag,
            Duration::from_secs(5),
            1,
            |_, _, keep| {
                let _ = entered.send(());
                write_json_response(&mut out, 200, &body, keep).map(|()| false)
            },
        );
    })
    .unwrap();
    let mut client = TcpStream::connect(acceptor.addr()).unwrap();
    client
        .write_all(&build_request("GET", "/", &[], b""))
        .unwrap();
    handler_entered
        .recv_timeout(Duration::from_secs(10))
        .expect("request reached the handler");

    // The connection thread is now parked in its one `write_all`; shutdown
    // joins it, so it returns only once the 5 s write timeout has fired on
    // a `send` that queued nothing (the third, with loopback's buffers).
    let (done, shutdown_done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        acceptor.shutdown();
        let _ = done.send(());
    });
    shutdown_done
        .recv_timeout(Duration::from_secs(40))
        .expect("shutdown hung behind a client that stopped reading");
    drop(client);
}
