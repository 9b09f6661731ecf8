//! The route grammar: the one place a request path is read. `sam-serve`
//! and `sam-router` both parse every request with [`Route::parse`] and
//! match on the result; each answers 404 for the routes only the other
//! serves. Operator guides: `docs/SERVING.md`, `docs/OBSERVABILITY.md` and
//! `docs/SHARDING.md`.

use crate::error::ServeError;
use sam_obs::Endpoint;

/// One endpoint of the HTTP surface, with the job id or model name its path
/// carries. The query string is not part of a route: callers split it off
/// with [`split_target`](super::split_target) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route<'a> {
    /// `GET /healthz` — liveness + model count.
    Healthz,
    /// `GET /models` — registered models and versions.
    ListModels,
    /// `POST /models` — load / hot-swap a persisted model from disk.
    LoadModel,
    /// `POST /estimate` — cardinality estimate, computed on the request's thread.
    Estimate,
    /// `POST /generate` — start an async generation job (202).
    Generate,
    /// `POST /train` — start a training job from a streamed workload body
    /// (202).
    Train,
    /// `POST /models/{name}/rollback` — restore the previously promoted
    /// version.
    Rollback(&'a str),
    /// `GET /jobs/{id}` — poll job state / stage / progress (generation and
    /// training).
    Job(u64),
    /// `GET /jobs/{id}/export` — stream a finished relation as chunked
    /// CSV/JSONL, gzip/deflate negotiated.
    Export(u64),
    /// `POST /jobs/{id}/cancel` — request cooperative cancellation.
    Cancel(u64),
    /// `GET /metrics` — counters + latency percentiles.
    Metrics,
    /// `GET /quality` — per-model-version shadow-scored Q-Error drift stats.
    Quality,
    /// `GET /debug/buildinfo` — version, git sha, uptime.
    BuildInfo,
    /// `GET /debug/flight?last=N` — recent request events from the flight
    /// recorder.
    Flight,
    /// `GET /debug/slow` — slow-query log.
    Slow,
    /// `GET /debug/loglevel` — inspect the log level.
    LogLevel,
    /// `PUT /debug/loglevel` — change the log level live.
    SetLogLevel,
    /// `POST /admin/drain` — quiesce a worker for a rebalance (sam-serve).
    Drain,
    /// `POST /admin/resume` — end a drain (sam-serve).
    Resume,
    /// `GET /admin/topology` — slots, health and placements (router).
    Topology,
    /// `POST /admin/join` — add a worker slot and rebalance (router).
    Join,
    /// `POST /admin/leave` — drain a slot and move its models (router).
    Leave,
}

impl<'a> Route<'a> {
    /// Parse a request's method and path (no query string).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a job id that is not a `u64` or an
    /// empty model name, on a path whose method and shape match a route;
    /// [`ServeError::NotFound`] when no route matches.
    pub fn parse(method: &str, path: &'a str) -> Result<Route<'a>, ServeError> {
        Ok(match (method, path) {
            ("GET", "/healthz") => Route::Healthz,
            ("GET", "/models") => Route::ListModels,
            ("POST", "/models") => Route::LoadModel,
            ("POST", "/estimate") => Route::Estimate,
            ("POST", "/generate") => Route::Generate,
            ("POST", "/train") => Route::Train,
            ("GET", "/metrics") => Route::Metrics,
            ("GET", "/quality") => Route::Quality,
            ("GET", "/debug/buildinfo") => Route::BuildInfo,
            ("GET", "/debug/flight") => Route::Flight,
            ("GET", "/debug/slow") => Route::Slow,
            ("GET", "/debug/loglevel") => Route::LogLevel,
            ("PUT", "/debug/loglevel") => Route::SetLogLevel,
            ("POST", "/admin/drain") => Route::Drain,
            ("POST", "/admin/resume") => Route::Resume,
            ("GET", "/admin/topology") => Route::Topology,
            ("POST", "/admin/join") => Route::Join,
            ("POST", "/admin/leave") => Route::Leave,
            _ => return Route::parse_resource(method, path),
        })
    }

    /// The routes whose path carries a parameter. The method and the path's
    /// shape pick the route first, so a bad id or name is a 400 only where a
    /// good one would route.
    fn parse_resource(method: &str, path: &'a str) -> Result<Route<'a>, ServeError> {
        if let Some(rest) = path.strip_prefix("/jobs/") {
            let (id, action) = rest
                .split_once('/')
                .map_or((rest, None), |(id, a)| (id, Some(a)));
            let route: fn(u64) -> Route<'a> = match (method, action) {
                ("GET", None) => Route::Job,
                ("GET", Some("export")) => Route::Export,
                ("POST", Some("cancel")) => Route::Cancel,
                _ => return Err(Route::not_found(path)),
            };
            let bad_id = |_| ServeError::BadRequest(format!("invalid job id '{id}'"));
            return id.parse().map(route).map_err(bad_id);
        }
        let name = path
            .strip_prefix("/models/")
            .and_then(|p| p.strip_suffix("/rollback"));
        match name {
            Some("") if method == "POST" => {
                Err(ServeError::BadRequest("missing model name".into()))
            }
            Some(name) if method == "POST" => Ok(Route::Rollback(name)),
            _ => Err(Route::not_found(path)),
        }
    }

    /// The 404 for a path that no route matches, or that only the other
    /// process serves.
    pub fn not_found(path: &str) -> ServeError {
        ServeError::NotFound(format!("no route for {path}"))
    }

    /// Whether the request may safely be sent twice: every `GET`, an
    /// estimate and a cancel. The router retries only these. No wildcard, so
    /// a new route has to be classified here.
    pub fn idempotent(self) -> bool {
        use Route::*;
        match self {
            Healthz | ListModels | Job(_) | Export(_) | Metrics | Quality | Topology => true,
            BuildInfo | Flight | Slow | LogLevel | Estimate | Cancel(_) => true,
            LoadModel | Generate | Train | Rollback(_) | SetLogLevel => false,
            Drain | Resume | Join | Leave => false,
        }
    }

    /// The flight recorder's label. `POST /train`, rollback and the admin
    /// routes are [`Endpoint::Other`], like a request that fails to parse.
    pub fn endpoint(self) -> Endpoint {
        use Route::*;
        match self {
            Estimate => Endpoint::Estimate,
            Generate => Endpoint::Generate,
            Metrics => Endpoint::Metrics,
            Healthz => Endpoint::Health,
            ListModels | LoadModel => Endpoint::Models,
            Quality => Endpoint::Quality,
            Export(_) => Endpoint::Export,
            Job(_) | Cancel(_) => Endpoint::Jobs,
            BuildInfo | Flight | Slow | LogLevel | SetLogLevel => Endpoint::Debug,
            _ => Endpoint::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// `(method, path template, variant name)` of every variant, read from
    /// its doc line (`` /// `GET /jobs/{id}` — … ``): the variant docs are the
    /// route table, and `tests/docs_check.rs` holds the guides to it.
    fn documented_routes() -> Vec<(&'static str, &'static str, &'static str)> {
        let source = include_str!("route.rs");
        let body = source.split_once("pub enum Route<'a> {").unwrap().1;
        let mut routes = Vec::new();
        let mut doc = None;
        for line in body.split_once("\n}").unwrap().0.lines().map(str::trim) {
            if let Some(text) = line.strip_prefix("/// `") {
                let (method, target) = text.split('`').next().unwrap().split_once(' ').unwrap();
                doc = Some((method, target.split('?').next().unwrap()));
            } else if !line.is_empty() && !line.starts_with("///") {
                let name = line.split(['(', ',']).next().unwrap();
                let (method, template) = doc.take().expect("a `METHOD /path` doc line");
                routes.push((method, template, name));
            }
        }
        routes
    }

    /// A template with `{id}` as 7 and `{name}` as `m`.
    fn example_path(template: &str) -> String {
        template.replace("{id}", "7").replace("{name}", "m")
    }

    fn status(method: &str, path: &str) -> u16 {
        Route::parse(method, path).map_or_else(|e| e.status(), |_| 200)
    }

    #[test]
    fn every_documented_route_parses_to_its_variant() {
        let routes = documented_routes();
        assert_eq!(routes.len(), 22, "{routes:?}");
        for (method, template, name) in routes {
            let path = example_path(template);
            let route = Route::parse(method, &path).unwrap();
            let debug = format!("{route:?}");
            assert_eq!(debug.split('(').next(), Some(name), "{method} {path}");
        }
    }

    #[test]
    fn any_other_method_on_a_template_is_404() {
        let routes = documented_routes();
        for &(method, template, _) in &routes {
            let path = example_path(template);
            for other in ["GET", "POST", "PUT", "DELETE", "HEAD"] {
                let served = routes.iter().any(|&(m, t, _)| (m, t) == (other, template));
                if other != method && !served {
                    assert_eq!(status(other, &path), 404, "{other} {path}");
                }
            }
        }
    }

    /// The router's retry set, plus `PUT /debug/loglevel`.
    #[test]
    fn idempotency_classification() {
        let is_idempotent = |method, path| Route::parse(method, path).is_ok_and(Route::idempotent);
        assert!(is_idempotent("GET", "/jobs/7"));
        assert!(is_idempotent("GET", "/jobs/7/export"));
        assert!(is_idempotent("POST", "/estimate"));
        assert!(is_idempotent("POST", "/jobs/7/cancel"));
        assert!(!is_idempotent("POST", "/generate"));
        assert!(!is_idempotent("POST", "/train"));
        assert!(!is_idempotent("POST", "/models"));
        assert!(!is_idempotent("PUT", "/debug/loglevel"));
    }

    #[test]
    fn the_retry_set_is_every_get_an_estimate_and_a_cancel() {
        for (method, template, _) in documented_routes() {
            let path = example_path(template);
            let want = method == "GET" || path == "/estimate" || path.ends_with("/cancel");
            let route = Route::parse(method, &path).unwrap();
            assert_eq!(route.idempotent(), want, "{method} {path}");
        }
    }

    /// The flight-recorder label by path alone, the server's classifier
    /// before [`Route`]: the oracle for every route's label.
    fn label_by_path(path: &str) -> Endpoint {
        match path {
            "/estimate" => Endpoint::Estimate,
            "/generate" => Endpoint::Generate,
            "/metrics" => Endpoint::Metrics,
            "/healthz" => Endpoint::Health,
            "/models" => Endpoint::Models,
            "/quality" => Endpoint::Quality,
            p if p.ends_with("/export") && p.starts_with("/jobs/") => Endpoint::Export,
            p if p.starts_with("/jobs/") => Endpoint::Jobs,
            p if p.starts_with("/debug/") => Endpoint::Debug,
            _ => Endpoint::Other,
        }
    }

    #[test]
    fn flight_labels_are_the_ones_the_path_gave() {
        for (method, template, _) in documented_routes() {
            let path = example_path(template);
            let route = Route::parse(method, &path).unwrap();
            assert_eq!(route.endpoint(), label_by_path(&path), "{method} {path}");
        }
        for path in ["/train", "/models/m/rollback", "/admin/drain"] {
            assert_eq!(label_by_path(path), Endpoint::Other, "{path}");
        }
    }

    #[test]
    fn bad_parameters_are_400_and_unknown_shapes_404() {
        assert_eq!(status("GET", "/jobs/abc"), 400);
        assert_eq!(status("GET", "/jobs/export"), 400);
        assert_eq!(status("GET", "/jobs/"), 400);
        assert_eq!(status("GET", "/jobs/abc/export"), 400);
        assert_eq!(status("POST", "/jobs/abc/cancel"), 400);
        assert_eq!(status("GET", "/jobs/18446744073709551616"), 400);
        assert_eq!(status("POST", "/models//rollback"), 400);
        assert_eq!(status("POST", "/models/rollback"), 404);
        assert_eq!(status("GET", "/jobs/7/cancel"), 404);
        assert_eq!(status("GET", "/jobs/7/"), 404);
        assert_eq!(status("GET", "/jobs/7/export/x"), 404);
        assert_eq!(status("POST", "/jobs/7"), 404);
        assert_eq!(status("DELETE", "/jobs/abc"), 404);
        assert_eq!(status("GET", "/jobs"), 404);
        assert_eq!(status("GET", "/debug/nope"), 404);
        assert_eq!(status("GET", "/nope"), 404);
        assert_eq!(
            Route::parse("GET", "/jobs/18446744073709551615"),
            Ok(Route::Job(u64::MAX))
        );
        assert_eq!(
            Route::parse("POST", "/models/a/b/rollback"),
            Ok(Route::Rollback("a/b"))
        );
    }

    const METHODS: [&str; 8] = ["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "get", ""];

    /// Path segments: every literal of the grammar, boundary ids (0,
    /// `u64::MAX`, `u64::MAX + 1`), signed and non-numeric ids, and empties.
    const SEGMENTS: [&str; 22] = [
        "jobs",
        "models",
        "export",
        "cancel",
        "rollback",
        "debug",
        "admin",
        "loglevel",
        "flight",
        "healthz",
        "estimate",
        "0",
        "7",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "+7",
        "abc",
        "",
        " ",
        "%2F",
        "é",
    ];

    /// One request line: a random method, except that a filled-in template
    /// keeps its own method half the time.
    fn random_request(
        rng: &mut StdRng,
        routes: &[(&'static str, &'static str, &str)],
    ) -> (&'static str, String) {
        let method = *METHODS.choose(rng).unwrap();
        match rng.gen_range(0..4) {
            // Random bytes, lossily decoded: control bytes, invalid UTF-8,
            // no leading slash.
            0 => {
                let len = rng.gen_range(0..24);
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
                (method, String::from_utf8_lossy(&bytes).into_owned())
            }
            // A template with its placeholders filled from the segments.
            1 => {
                let &(own, template, _) = routes.choose(rng).unwrap();
                let fill = |rng: &mut StdRng| *SEGMENTS.choose(rng).unwrap();
                let path = template
                    .replace("{id}", fill(rng))
                    .replace("{name}", fill(rng));
                (if rng.gen_bool(0.5) { own } else { method }, path)
            }
            // Segments joined by one or two slashes, sometimes with a
            // trailing slash.
            _ => {
                let mut path = String::new();
                for _ in 0..rng.gen_range(0..6) {
                    path.push_str(if rng.gen_bool(0.2) { "//" } else { "/" });
                    path.push_str(SEGMENTS.choose(rng).unwrap());
                }
                if rng.gen_bool(0.2) {
                    path.push('/');
                }
                (method, path)
            }
        }
    }

    /// Whether `path` is `template` with `{id}` one segment that parses to
    /// the route's id and `{name}` the route's name.
    fn fills_template(route: Route<'_>, template: &str, path: &str) -> bool {
        match route {
            Route::Job(id) | Route::Export(id) | Route::Cancel(id) => {
                let Some((head, tail)) = template.split_once("{id}") else {
                    return false;
                };
                path.strip_prefix(head)
                    .and_then(|rest| rest.strip_suffix(tail))
                    .is_some_and(|text| !text.contains('/') && text.parse() == Ok(id))
            }
            Route::Rollback(name) => !name.is_empty() && template.replace("{name}", name) == path,
            _ => template == path,
        }
    }

    /// A seeded sweep over the grammar, in the manner of
    /// `tests/journal_fuzz.rs`: every method against paths built from route
    /// segments, empty segments, `//`, boundary ids and random bytes.
    /// `parse` faces every socket of both processes, so it must never
    /// panic, must answer only 400 or 404 when it rejects a path, and must
    /// accept only what a variant's doc line documents. No fuzzing crate is
    /// vendored, so the stream is fixed by its seed.
    #[test]
    fn fuzz_parse_never_panics_and_accepts_only_documented_shapes() {
        let routes = documented_routes();
        let mut rng = StdRng::seed_from_u64(0x5eed_0046);
        let (mut accepted, mut bad, mut missing) = (0usize, 0usize, 0usize);
        for case in 0..200_000 {
            let (method, path) = random_request(&mut rng, &routes);
            match Route::parse(method, &path) {
                Ok(route) => {
                    accepted += 1;
                    let _ = (route.endpoint(), route.idempotent());
                    assert!(
                        routes
                            .iter()
                            .any(|&(m, t, _)| m == method && fills_template(route, t, &path)),
                        "case {case}: {method} {path:?} parsed to {route:?}, which no doc line documents"
                    );
                }
                Err(e) => match e.status() {
                    400 => bad += 1,
                    404 => missing += 1,
                    other => panic!("case {case}: {method} {path:?} answered {other}: {e}"),
                },
            }
        }
        // The generator must reach all three outcomes, or the sweep proves
        // little.
        assert!(
            accepted > 1_000 && bad > 1_000 && missing > 1_000,
            "accepted {accepted}, 400 {bad}, 404 {missing}"
        );
    }

    #[test]
    fn fuzz_boundary_ids_parse_or_answer_400() {
        for (method, template, _) in documented_routes() {
            if !template.contains("{id}") {
                continue;
            }
            let at = |id: &str| Route::parse(method, &template.replace("{id}", id)).map(|_| ());
            assert_eq!(at("0"), Ok(()), "{method} {template} with id 0");
            let max = "18446744073709551615";
            assert_eq!(at(max), Ok(()), "{method} {template} with u64::MAX");
            for bad in ["18446744073709551616", "-1", "", "abc", "7 "] {
                let status = at(bad).unwrap_err().status();
                assert_eq!(status, 400, "{method} {template} with id {bad:?}");
            }
        }
    }
}
