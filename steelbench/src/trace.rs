//! The span recorder behind the traced run.
//!
//! A span has a name, a start and an end on one process-wide epoch, a
//! parent and a run id. Spans are kept in memory and written once, at
//! the end of the run, as one JSON document; nothing is written while
//! anything is being measured. A span's self time is its duration minus
//! the time its children cover (the union of their intervals, so
//! children that ran in parallel are not counted twice).

use crate::clock::Stopwatch;
use crate::report::json_string;
use std::fmt::Write as _;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran (`layer.call[detail]`).
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Run `f` on the current thread and time it against `epoch`; the
    /// recorder sets the parent when the span is handed back to it.
    pub fn timed_on<R>(
        epoch: Stopwatch,
        name: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, Span) {
        let start_ns = epoch.elapsed_nanos();
        let r = f();
        let span = Span {
            name: name.into(),
            start_ns,
            end_ns: epoch.elapsed_nanos(),
            parent: None,
        };
        (r, span)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The in-memory recorder.
pub struct Tracer {
    run: u64,
    epoch: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder for run `run`.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            epoch: Stopwatch::started(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The epoch worker threads time their tasks against.
    pub fn shared_epoch(&self) -> Stopwatch {
        self.epoch
    }

    /// Run `f` inside a span; returns its result and duration (s).
    pub fn in_span<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed_nanos();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.epoch.elapsed_nanos();
        self.spans[idx].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Record spans timed on worker threads as children of the span
    /// that is open now.
    pub fn record_tasks(&mut self, tasks: &[Span]) {
        let parent = self.open.last().copied();
        self.spans.extend(tasks.iter().map(|t| Span {
            parent,
            ..t.clone()
        }));
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, nanoseconds, index-aligned with the
    /// spans.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| (s.end_ns - s.start_ns).saturating_sub(union_len(kids)))
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn spans_json(&self) -> String {
        let self_ns = self.self_times();
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"run\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {own}}}",
                self.run,
                json_string(&s.name),
                s.start_ns,
                s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(7);
        t.spans = vec![
            Span {
                name: "root".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a".into(),
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
            },
            Span {
                name: "b".into(),
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "c".into(),
                start_ns: 80,
                end_ns: 90,
                parent: Some(0),
            },
        ];
        assert_eq!(t.self_times(), vec![40, 40, 30, 10]);
        assert!(t.spans_json().contains("\"run\": 7"));
    }
}
