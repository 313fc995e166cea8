//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate (the layer is the span name up to its first `.`), kept in memory,
//! and written out when the run ends. Calls shorter than the clock's
//! resolution are recorded as one *batch* span whose `calls` counts the
//! calls it covers and whose `busy_ns` sums their individually timed
//! durations. A layer's self time is its spans' busy time minus the busy
//! time of their direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (or query) identifier shared by the spans of one request.
    pub req: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span that later spans nest under until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            req,
            calls: 1,
            busy_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without an open span");
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Time `f` as a leaf span under the innermost open span. Runs `f`
    /// untimed when tracing is off.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.leaf(name, req, start, end);
        out
    }

    /// Record an already-timed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent: self.stack.last().copied(),
            req,
            calls: 1,
            busy_ns: e.saturating_sub(s),
        });
    }

    /// Record a batch span covering `calls` calls whose summed duration
    /// is `busy_ns`, between `start` and `end`.
    pub fn batch(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
    ) {
        if !self.enabled || calls == 0 {
            return;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent: self.stack.last().copied(),
            req,
            calls,
            busy_ns,
        });
    }

    /// Per-layer span counts and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_busy) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let t = out.entry(layer).or_default();
            t.spans += 1;
            t.self_ns += s.busy_ns.saturating_sub(children);
        }
        out
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq\tcalls\tbusy_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.req, s.calls, s.busy_ns
            )?;
        }
        w.flush()
    }
}
