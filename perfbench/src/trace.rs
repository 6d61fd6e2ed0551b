//! In-memory span recorder for the traced run. Spans are opened and
//! closed by the benchmark around its calls into the program's public
//! functions; nothing inside the program is instrumented.

use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed duration of every span called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Summed duration of the spans that have no child span: the time
    /// spent inside the program's public calls.
    pub fn leaf_us(&self) -> f64 {
        let mut is_parent = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            is_parent[p] = true;
        }
        self.spans
            .iter()
            .zip(is_parent)
            .filter(|(_, parent)| !parent)
            .map(|(s, _)| s)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }
}
