//! In-memory span recorder for traced runs.
//!
//! The benchmark records a span around each call it makes into a layer
//! (`workloads.program`, `sim.run`, `serve.request`, ...). Spans stay in
//! memory while the run measures and are written out once at the end, so
//! writing them costs nothing inside a timed region.

use std::path::Path;
use std::time::Instant;

use capsule_core::output::Json;

/// One closed span: a named interval, the operation it belongs to, and
/// the span that caused it.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Spans of one run, timed against a shared epoch.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Extra JSON documents to write beside the spans (the servers'
    /// own span trees fetched through the `trace` op).
    attachments: Vec<Json>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), attachments: Vec::new() }
    }

    /// Records the already-timed interval `[start, end]`; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span { name, op, parent, start_us: at(start), end_us: at(end) });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = Instant::now();
        self.push(name, op, None, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    /// Keeps `doc` for the output file.
    pub fn attach(&mut self, doc: Json) {
        self.attachments.push(doc);
    }

    /// Mean duration in milliseconds of the spans called `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect();
        crate::stats::mean(&durations)
    }

    /// Mean self time in milliseconds of the spans called `name`: each
    /// span's duration minus the part its direct children cover.
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_us - s.start_us - child_us[i]) / 1e3)
            .collect();
        crate::stats::mean(&selfs)
    }

    /// Writes every span (and attachment) as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = Json::object();
            o.push("id", i as u64)
                .push("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)))
                .push("name", s.name)
                .push("op", s.op)
                .push("start_us", s.start_us)
                .push("end_us", s.end_us);
            spans.push(o);
        }
        let mut root = Json::object();
        root.push("schema", "capsbench-spans/1")
            .push("spans", Json::Array(spans))
            .push("server_traces", Json::Array(self.attachments.clone()));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, root.to_string_compact())
    }
}
