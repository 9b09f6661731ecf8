//! A model file is outside input: `POST /models` hands `load_model` whatever
//! path a client names. Shapes that do not describe a MADE over the file's
//! own schema, or that hold a weight or bias outside `f32`'s finite range,
//! must be refused as `ArError::Invalid` — and by the server as `400` with
//! the serving model untouched — never asserted on by a `Matrix` or handed
//! to a forward kernel.

use sam::ar::{load_model, ArError};
use sam::serve::{ServeConfig, Server};
use serde_json::{json, Value as Json};
use std::net::SocketAddr;

/// Committed v1 checkpoint of the Figure-3 model: layers `16×17`, `17×16`
/// over 17 one-hot inputs, no residual flags set.
const GOOD: &str = include_str!("../crates/ar/tests/fixtures/model_v1.json");

fn field<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(pairs) = doc else {
        panic!("{key}: not an object")
    };
    &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
}

fn items(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Array(items) = doc else {
        panic!("not an array")
    };
    items
}

/// `GOOD` with one structural defect each, labelled.
fn malformed() -> Vec<(&'static str, String)> {
    let edit = |label: &'static str, apply: &dyn Fn(&mut Json)| {
        let mut doc = serde_json::parse_value(GOOD).expect("fixture parses");
        apply(&mut doc);
        (label, doc.to_string())
    };
    // `layers[l][0|1]` is layer `l`'s weight | bias `MatrixDto`.
    let matrix = |doc: &mut Json, layer: usize, part: usize, key: &str, v: Json| {
        let layers = items(field(doc, "layers"));
        *field(&mut items(&mut layers[layer])[part], key) = v;
    };
    let first_value = |doc: &mut Json, layer: usize, part: usize, v: Json| {
        let layers = items(field(doc, "layers"));
        items(field(&mut items(&mut layers[layer])[part], "data"))[0] = v;
    };
    vec![
        edit("rows x cols != data.len()", &|doc| {
            matrix(doc, 0, 0, "rows", json!(15))
        }),
        edit("rows x cols overflows to data.len()", &|doc| {
            matrix(doc, 0, 0, "rows", json!(1u64 << 62));
            matrix(doc, 0, 0, "cols", json!(4));
            matrix(doc, 0, 0, "data", json!([]));
        }),
        edit("layer widths do not chain (layers swapped)", &|doc| {
            items(field(doc, "layers")).swap(0, 1)
        }),
        edit("no layers", &|doc| {
            *field(doc, "layers") = json!([]);
            *field(doc, "residual") = json!([]);
        }),
        edit("residual.len() != layers.len()", &|doc| {
            *field(doc, "residual") = json!([false])
        }),
        edit("residual flag on a non-square layer", &|doc| {
            *field(doc, "residual") = json!([true, false])
        }),
        edit("bias is not 1 x out", &|doc| {
            matrix(doc, 0, 1, "rows", json!(16));
            matrix(doc, 0, 1, "cols", json!(1));
        }),
        edit("last layer is not domain-wide", &|doc| {
            items(field(doc, "layers")).truncate(1);
            *field(doc, "residual") = json!([false]);
        }),
        edit("column of a table the schema lacks", &|doc| {
            *field(&mut items(field(doc, "columns"))[1], "table") = json!(3)
        }),
        // Past f32's range: the reader turns these into ±inf.
        edit("weight of 1e39", &|doc| first_value(doc, 0, 0, json!(1e39))),
        edit("bias of -1e39", &|doc| first_value(doc, 1, 1, json!(-1e39))),
    ]
}

#[test]
fn malformed_model_files_are_invalid_not_panics() {
    load_model(GOOD).expect("the unedited fixture loads");
    for (label, text) in malformed() {
        match load_model(&text) {
            Err(ArError::Invalid(_)) => {}
            Err(other) => panic!("{label}: wrong error kind: {other}"),
            Ok(_) => panic!("{label}: loaded"),
        }
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let response =
        sam::serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange");
    let doc = serde_json::parse_value(&response.text()).unwrap_or(Json::Null);
    (response.status, doc)
}

#[test]
fn server_answers_400_and_keeps_the_incumbent() {
    let dir = std::env::temp_dir().join(format!("sam_model_file_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let load = |addr, text: &str| {
        let path = dir.join("candidate.json");
        std::fs::write(&path, text).unwrap();
        let body = json!({"name": "demo", "path": path.to_str().unwrap()});
        http(addr, "POST", "/models", &body.to_string())
    };
    // No estimate LRU: the second estimate must run the kernel again.
    let server = Server::start(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let (status, loaded) = load(addr, GOOD);
    assert_eq!((status, loaded.get("version")), (200, Some(&json!(1))));

    let estimate = || {
        let body = json!({
            "model": "demo", "samples": 64, "seed": 5,
            "sql": "SELECT COUNT(*) FROM A, B WHERE A.a = 'm'",
        });
        let (status, reply) = http(addr, "POST", "/estimate", &body.to_string());
        assert_eq!(status, 200, "{reply:?}");
        assert_eq!(reply.get("model_version"), Some(&json!(1)));
        reply.get("estimate").and_then(Json::as_f64).unwrap()
    };
    let before = estimate();

    for (label, text) in malformed() {
        let (status, reply) = load(addr, &text);
        assert_eq!(status, 400, "{label}: {reply:?}");
    }

    let (_, models) = http(addr, "GET", "/models", "");
    let listed = models.get("models").and_then(Json::as_array).unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("version"), Some(&json!(1)));
    assert_eq!(estimate().to_bits(), before.to_bits());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
