//! The traced mode's span recorder and aggregator.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions and kept in memory; [`Recorder::write_tsv`]
//! writes them once when the run ends. A span's *self time* is its
//! duration minus the part of it that its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `refine.refine` or `net.edit`.
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log. Every thread keeps its own recorder with a
/// shared origin; [`Recorder::absorb`] merges them when the threads end.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty log whose times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span starting now; [`Self::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        })
    }

    /// Ends a span opened with [`Self::open`], returning its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.secs()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span, returning its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as tab-separated text, one per line.
    ///
    /// # Errors
    ///
    /// The file system's.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\trequest\tname\tstart_s\tend_s\tself_s\n");
        for (i, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            // invariant: writing into a String cannot fail.
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}\t{own:.9}",
                s.request, s.name, s.start, s.end
            )
            .expect("formatting into a String");
        }
        std::fs::write(path, out)
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self times of every span named `name`, in seconds.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self_times(&self.spans))
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }
}

/// Each span's duration minus the union of its children's intervals,
/// clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.secs() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("flow", 0.0, 10.0, None),
            span("phase", 1.0, 4.0, Some(0)),
            span("phase", 3.0, 6.0, Some(0)), // overlaps its sibling by 1 s
            span("inner", 1.5, 2.5, Some(1)),
            span("late", 9.0, 12.0, Some(0)), // runs past its parent's end
        ];
        let own = self_times(&spans);
        let expect = [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0];
        for (got, want) in own.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{own:?}");
        }
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin);
        main.push(span("net.edit", 0.0, 2.0, None));
        let mut client = Recorder::new(origin);
        let edit = client.push(span("net.edit", 5.0, 9.0, None));
        client.push(span("service.commit", 6.0, 8.0, Some(edit)));
        main.absorb(client);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times_of("net.edit"), vec![2.0, 2.0]);
        assert_eq!(main.durations("net.edit"), vec![2.0, 4.0]);
        assert_eq!(main.self_times_of("service.commit"), vec![2.0]);
    }

    #[test]
    fn open_close_and_time_nest() {
        let mut rec = Recorder::new(Instant::now());
        let outer = rec.open("outer", None, 7);
        let v = rec.time("inner", Some(outer), 7, || 41 + 1);
        rec.close(outer);
        assert_eq!(v, 42);
        let s = rec.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(s[1].request, 7);
    }
}
