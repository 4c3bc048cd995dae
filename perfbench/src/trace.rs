//! Spans recorded by the traced run around the benchmark's own calls into
//! each layer. Spans stay in memory while the run works and are written
//! out as JSONL when it ends.
//!
//! A span's *self time* is its duration minus the part of it that its
//! child spans cover (children may overlap when a parent fans out to
//! worker threads, so coverage is the union of the child intervals).

use sga_utils::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (its index in the trace).
pub type SpanId = usize;

struct Span {
    name: &'static str,
    /// What the span worked on: a unit name, a round number, or "".
    label: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// An in-memory span recorder shared by every thread of one traced run.
pub struct Trace {
    run_id: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty trace; `run_id` tags every span written out.
    pub fn new(run_id: String) -> Trace {
        Trace {
            run_id,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a new span named `name` under `parent`; `f` gets the
    /// new span's id so its own calls can nest under it.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        label: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("trace lock poisoned");
            let start = self.epoch.elapsed();
            spans.push(Span {
                name,
                label: label.to_string(),
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.epoch.elapsed();
        self.spans.lock().expect("trace lock poisoned")[id].end = end;
        out
    }

    /// Wall duration of one span.
    pub fn duration(&self, id: SpanId) -> Duration {
        let spans = self.spans.lock().expect("trace lock poisoned");
        spans[id].end - spans[id].start
    }

    /// Self time of every span, in span order.
    fn self_times(spans: &[Span]) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("trace lock poisoned");
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, t) in spans.iter().zip(Self::self_times(&spans)) {
            *out.entry(s.name).or_default() += t.as_secs_f64() * 1e3;
        }
        out
    }

    /// Writes one JSON object per span (name, label, start, end, parent,
    /// self time, run id) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("trace lock poisoned");
        let mut text = String::new();
        for (id, (s, t)) in spans.iter().zip(Self::self_times(&spans)).enumerate() {
            let parent = s.parent.map_or(Json::Null, Json::from);
            let line = Json::obj()
                .with("run", self.run_id.as_str())
                .with("id", id)
                .with("parent", parent)
                .with("name", s.name)
                .with("label", s.label.as_str())
                .with("start_us", s.start.as_micros() as f64)
                .with("end_us", s.end.as_micros() as f64)
                .with("self_us", t.as_micros() as f64);
            text.push_str(&line.to_compact());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            label: String::new(),
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    /// Overlapping children (a parent that fanned out to threads) cover
    /// the union of their intervals, never more than the parent.
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            span(Some(0), 90, 120),
        ];
        let ms: Vec<u128> = Trace::self_times(&spans)
            .iter()
            .map(Duration::as_millis)
            .collect();
        assert_eq!(ms, [40, 30, 30, 30]);
    }
}
