//! Spans recorded around the benchmark's calls into each layer: name,
//! start, end and the span that caused it. They are kept in memory and
//! written out once, when the traced run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the tracer's list, which children name as `parent`.
    pub id: usize,
    /// Layer call, e.g. `pd.place`.
    pub name: String,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch.
    pub end_us: f64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Thread-safe in-memory span collector.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id, to parent the spans it records.
    pub fn span<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> T) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("tracer poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                name: name.to_owned(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent,
            });
            id
        };
        let out = f(id);
        let end = self.now_us();
        self.spans.lock().expect("tracer poisoned")[id].end_us = end;
        out
    }

    /// Durations in ms of every finished span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer poisoned")
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
            .map(Span::ms)
            .collect()
    }

    /// Duration in ms of span `id`.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans.lock().expect("tracer poisoned")[id].ms()
    }

    /// Every span as one JSON document, `{"spans": [...]}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut out = String::from("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
                s.id, s.name, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time_their_bodies() {
        let t = Tracer::new();
        t.span("outer", None, |outer| {
            t.span("inner", Some(outer), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let inner = t.durations("inner");
        assert_eq!(inner.len(), 1);
        assert!(inner[0] >= 2.0);
        assert!(t.duration(0) >= inner[0]);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }
}
