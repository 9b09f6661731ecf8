//! The wire layer against hostile or awkward peers: bounded head lines in
//! both directions, chunk-size arithmetic on peer-supplied sizes, the
//! shared connection loop's silent idle expiry, and the client's
//! reconnect policy.

use sam_serve::http::{
    build_request, copy_chunked, read_body, read_head, read_request, serve_connection,
    write_json_response, Acceptor, Conn, RespHead, MAX_BUFFERED_RESPONSE, MAX_HEADER_BYTES,
};
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::TcpListener;
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
