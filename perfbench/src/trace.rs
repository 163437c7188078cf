//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the instance the span belongs to.
    pub instance: usize,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        instance: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            instance,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends, so children can name it as
    /// their parent before it finishes.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, instance: usize) -> usize {
        let now = Instant::now();
        self.span(name, now, now, parent, instance)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"instance\":{}}}",
                s.name, s.start_us, s.end_us, s.instance
            );
        }
        out.push(']');
        out
    }
}
