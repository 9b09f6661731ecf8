//! Shared test support: a keep-alive-capable HTTP client that frames
//! responses by `Content-Length` / chunked transfer encoding (so one
//! connection can carry many requests), and a tiny deterministic model.
#![allow(dead_code)]

use sam_core::{Sam, SamConfig, TrainedSam};
use sam_query::{label_workload, WorkloadGenerator};
use sam_storage::{paper_example, DatabaseStats};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Train a small model on the paper's Figure-3 database. Training is
/// deterministic in `arch_seed`, so two calls with the same seed produce
/// bit-identical models — restart tests rely on this.
pub fn tiny_model(arch_seed: u64) -> TrainedSam {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 7);
    let workload = label_workload(&db, gen.multi_workload(24, 2)).unwrap();
    let config = SamConfig {
        model: sam_ar::ArModelConfig {
            hidden: vec![12],
            seed: arch_seed,
            residual: false,
        },
        train: sam_ar::TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    Sam::fit(db.schema(), &stats, &workload, &config).unwrap()
}

/// One framed HTTP response.
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes. For chunked responses this is the **raw** chunked stream
    /// (size lines and CRLFs included) — decode it with
    /// `sam_serve::http::decode_chunked`.
    pub body: Vec<u8>,
    /// Number of data chunks (0 for non-chunked responses).
    pub chunks: usize,
    /// Largest single chunk observed (0 for non-chunked responses).
    pub max_chunk: usize,
}

impl Response {
    /// Value of the first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the (non-chunked) body as JSON.
    pub fn json(&self) -> Value {
        let text = std::str::from_utf8(&self.body).expect("UTF-8 body");
        serde_json::parse_value(text).expect("JSON body")
    }
}

/// A client connection that can carry many requests (keep-alive).
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect to the server.
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream),
        }
    }

    /// Write raw bytes (for hand-crafted / malformed requests).
    pub fn send_raw(&mut self, raw: &str) {
        self.reader
            .get_mut()
            .write_all(raw.as_bytes())
            .expect("write request");
    }

    /// Send an HTTP/1.1 request without a `Connection` header (keep-alive
    /// by default), plus any extra header lines (no trailing CRLF).
    pub fn send_with(&mut self, method: &str, path: &str, body: &str, extra: &[&str]) {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n",
            body.len()
        );
        for header in extra {
            req.push_str(header);
            req.push_str("\r\n");
        }
        req.push_str("\r\n");
        req.push_str(body);
        self.send_raw(&req);
    }

    /// Send a plain keep-alive request.
    pub fn send(&mut self, method: &str, path: &str, body: &str) {
        self.send_with(method, path, body, &[]);
    }

    /// Send and read the response, panicking if the server closed.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Response {
        self.send(method, path, body);
        self.read_response().expect("server closed the connection")
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end_matches(['\r', '\n']).to_string()),
            Err(e) => panic!("read line: {e}"),
        }
    }

    /// Read one framed response; `None` on clean EOF (server closed).
    pub fn read_response(&mut self) -> Option<Response> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        loop {
            let line = self.read_line().expect("headers cut short");
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let mut body = Vec::new();
        let mut chunks = 0usize;
        let mut max_chunk = 0usize;
        if header("transfer-encoding") == Some("chunked") {
            // Preserve the raw chunked stream so tests can feed it to
            // `decode_chunked` and reason about chunk sizes.
            loop {
                let size_line = self.read_line().expect("chunk size line");
                let size = usize::from_str_radix(&size_line, 16).expect("hex chunk size");
                body.extend_from_slice(size_line.as_bytes());
                body.extend_from_slice(b"\r\n");
                if size == 0 {
                    let terminal = self.read_line().expect("terminal CRLF");
                    assert!(terminal.is_empty(), "bytes after terminal chunk");
                    body.extend_from_slice(b"\r\n");
                    break;
                }
                chunks += 1;
                max_chunk = max_chunk.max(size);
                let mut data = vec![0u8; size];
                self.reader.read_exact(&mut data).expect("chunk data");
                body.extend_from_slice(&data);
                let crlf = self.read_line().expect("chunk terminator");
                assert!(crlf.is_empty(), "chunk data not CRLF-terminated");
                body.extend_from_slice(b"\r\n");
            }
        } else {
            let len: usize = header("content-length")
                .expect("Content-Length or chunked framing")
                .parse()
                .expect("numeric Content-Length");
            body = vec![0u8; len];
            self.reader.read_exact(&mut body).expect("response body");
        }
        Some(Response {
            status,
            headers,
            body,
            chunks,
            max_chunk,
        })
    }
}

/// One-shot request on its own connection (`Connection: close`).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    let mut conn = Conn::open(addr);
    conn.send_with(method, path, body, &["Connection: close"]);
    let response = conn.read_response().expect("response before close");
    (response.status, response.json())
}

/// Poll `GET /jobs/{id}` until the job is done; panic on failure states.
pub fn wait_done(addr: SocketAddr, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, polled) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{polled:?}");
        match polled.get("state").and_then(Value::as_str) {
            Some("done") => return polled,
            Some("running") => {
                assert!(Instant::now() < deadline, "job {id} did not finish in time");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("job {id} reached unexpected state {other:?}: {polled:?}"),
        }
    }
}
