//! In-memory spans for the traced phase: name, start, end and parent per
//! call, grouped by request id. Written out once the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::json_str;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request (one sampled query, or one write) this call served.
    pub request: u64,
    /// 1-based position in the recorder.
    pub id: u32,
    /// The enclosing span's id; 0 for a root.
    pub parent: u32,
    /// Which layer entry point was called.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. One per thread; [`Spans::merge`] joins them.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder timing from `epoch` (share it across threads).
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`]. Returns its id.
    pub fn open(&mut self, request: u64, parent: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Record `f` as a span under `parent`.
    pub fn record<T>(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Append another recorder's spans, renumbering them.
    pub fn merge(&mut self, other: Spans) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration of spans named `name`, in µs (0 when none).
    pub fn p50_us(&self, name: &str) -> f64 {
        crate::median(&mut self.durations_us(name))
    }

    /// For each request, the longest span named `name`, in µs.
    pub fn per_request_max_us(&self, name: &str) -> Vec<f64> {
        let mut max: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let m = max.entry(s.request).or_default();
            *m = (*m).max(s.duration_ns());
        }
        max.into_values().map(|ns| ns as f64 / 1e3).collect()
    }

    /// Write one JSON object per span to `path`.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.id,
                s.parent,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
