//! Harness-side spans for the traced run: recorded around the public calls
//! into each layer, kept in memory, written as Chrome trace JSON at exit.
//! Spans inside the program itself are a later change.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One finished span. `parent` indexes the owning recorder's span list.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Request or round number shared by the spans of one unit of work.
    pub id: u64,
    pub tid: u32,
}

/// A single-threaded span recorder; worker threads get their own via
/// [`Tracer::fork`] and hand it back to [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    t0: Instant,
    tid: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A recorder for another thread on the same clock.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            t0: self.t0,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
        self.open.push(self.spans.len());
        self.spans.push(SpanRec {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.iter().rev().nth(1).copied(),
            id,
            tid: self.tid,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("end() without begin()");
        self.spans[index].end_us = self.t0.elapsed().as_secs_f64() * 1e6;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.begin(name, id);
        let out = f(self);
        self.end();
        out
    }

    /// Record a span whose boundaries were observed elsewhere (epoch
    /// boundaries arrive through a callback that cannot borrow the tracer).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        self.spans.push(SpanRec {
            name,
            start_us: us(start),
            end_us: us(end),
            parent: self.open.last().copied(),
            id,
            tid: self.tid,
        });
    }

    /// Merge a forked recorder's spans; its root spans become children of
    /// this recorder's innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total time and self time (duration minus the
    /// part covered by child spans), in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let dur = s.end_us - s.start_us;
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ms += dur / 1e3;
            // Children on other threads may overlap each other, so their sum
            // can exceed the parent; self time is floored at zero.
            row.self_ms += (dur - child).max(0.0) / 1e3;
        }
        table
    }

    /// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                s.id
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// One row of the per-layer self-time table.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin("round", 1);
        t.begin("request", 7);
        t.end();
        let (a, b) = (Instant::now(), Instant::now());
        t.record("epoch", 2, a, b);
        let mut forked = t.fork(1);
        forked.span("request", 8, |_| ());
        t.absorb(forked);
        t.end();
        assert_eq!(t.len(), 4);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!((t.spans[3].parent, t.spans[3].tid), (Some(0), 1));
        let table = t.self_times();
        assert_eq!(table["request"].count, 2);
        let round = table["round"];
        assert!(round.self_ms <= round.total_ms);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 0, |t| t.span("y", 0, |_| ()));
        assert_eq!(t.len(), 0);
    }
}
