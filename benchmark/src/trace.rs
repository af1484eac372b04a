//! The benchmark's own span recorder. Spans are made here, around calls
//! into each layer; nothing inside the program is instrumented. They stay
//! in memory until the pass ends, then go out as one JSON file.

use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. `parent` is the span that caused it; the spans of one
/// request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    /// With recording off, calls are still timed (the caller needs the
    /// durations) but no span is kept: the untraced pass.
    recording: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as a span; returns its result, the span's id (usable as
    /// a later span's parent) and its duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let id = self.spans.len() as u32;
        if self.recording {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                end_ns: (t1 - self.epoch).as_nanos() as u64,
            });
        }
        (out, id, t1 - t0)
    }

    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> Result<(), String> {
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                if k > 0 { ",\n" } else { "" },
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Per root span: `(duration, duration of its direct children)`, ns. A
/// span's self time is the first minus the second.
pub fn roots_with_children(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == ROOT)
        .map(|s| (s.duration_ns(), children[s.id as usize]))
        .collect()
}

/// Name of the per-request root span.
pub const ROOT: &str = "serve.handle_line";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(0, None, ROOT, 0, 100),
            span(1, Some(0), "serve.proto_parse", 100, 130),
            span(2, Some(0), "serve.cache_lookup", 130, 150),
            span(3, Some(2), "ir.frontend", 150, 160), // grandchild: not the root's
            span(4, None, "ir.run_parallel", 160, 400), // detached measurement
        ];
        assert_eq!(roots_with_children(&spans), vec![(100, 50)]);
    }

    #[test]
    fn an_untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, _, d) = t.span("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(t.spans.is_empty());
    }
}
