//! In-memory spans, written out when the run ends.
//!
//! A span is a name, a start and end (nanoseconds since the tracer's
//! origin), the index of the span that caused it, and the round id it
//! belongs to. A span's self time is its duration minus the time its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, round: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, round);
        let out = f();
        self.end(span);
        out
    }

    /// Self time per span (duration minus children's durations).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// Total duration and count of the spans named `name`.
    pub fn totals(&self) -> BTreeMap<&str, (u64, u64)> {
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name.as_str()).or_default();
            entry.0 += span.duration_ns();
            entry.1 += 1;
        }
        totals
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                span.name, span.start_ns, span.end_ns, span.round
            )
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        }
        out.flush()
            .map_err(|err| format!("cannot write {}: {err}", path.display()))
    }
}
