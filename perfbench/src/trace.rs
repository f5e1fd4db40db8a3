//! In-memory span recording for the traced run.
//!
//! The benchmark brackets each call it makes into a library crate with a
//! span (name, start, end, parent, run id). Spans stay in memory until the
//! run ends. Calls made once per 2 ms guest quantum are too fine for a span
//! each: their host time is summed into the enclosing span's counters, keyed
//! by the same layer names spans use.
//!
//! A span's self time is its duration minus the time its children cover
//! (the union of the child intervals, clipped to the span) minus its
//! counters. Summed over every span of one run, self times add up to the
//! root span's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `migrate.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
    /// Which timed iteration of the run the span belongs to.
    pub run: u32,
    /// Host time of per-quantum calls made inside this span, by name.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            counters: BTreeMap::new(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Adds `ns` of host time spent in `name` to the innermost open span.
    pub fn add(&mut self, name: &'static str, ns: u64) {
        if let Some(&top) = self.open.last() {
            *self.spans[top].counters.entry(name).or_insert(0) += ns;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut o = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                o,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}, \"counters\": {{{counters}}}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        o
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut iv: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let counted: u64 = s.counters.values().sum();
            s.duration_ns().saturating_sub(covered + counted)
        })
        .collect()
}

/// Self time by name over the spans of run `run`: each span's self time
/// goes to its own name and each counter to the counter's name.
pub fn self_time_by_name(spans: &[Span], run: u32) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.run != run {
            continue;
        }
        *out.entry(s.name).or_insert(0) += own;
        for (&k, &v) in &s.counters {
            *out.entry(k).or_insert(0) += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let mut root = span("bench.run", 0, 100, None);
        root.counters.insert("jheap.advance", 5);
        let spans = vec![
            root,
            // Two overlapping children of the root cover 10..50 together.
            span("migrate.step", 10, 40, Some(0)),
            span("migrate.digest", 30, 50, Some(0)),
            // A grandchild inside the first child, and one reaching past
            // its parent's end (clipped to the parent).
            span("simkit.prom_export", 15, 20, Some(1)),
            span("core.run", 35, 45, Some(1)),
            // A child outside its parent's interval covers nothing.
            span("cluster.evacuate", 60, 70, Some(2)),
            span("core.run", 70, 90, Some(0)),
        ];
        let own = self_times(&spans);
        // Root: 100 minus the union of 10..50 and 70..90, minus 5 counted.
        assert_eq!(own[0], 100 - 60 - 5);
        // migrate.step 10..40: children cover 15..20 and 35..40.
        assert_eq!(own[1], 30 - 5 - 5);
        // migrate.digest 30..50: its child lies outside it.
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 5);
        assert_eq!(own[4], 10);
        assert_eq!(own[5], 10);
        assert_eq!(own[6], 20);
    }

    #[test]
    fn self_times_of_a_properly_nested_tree_sum_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.run");
        for _ in 0..3 {
            let a = t.enter("core.run");
            t.add("jheap.advance", 1);
            let b = t.enter("migrate.step");
            t.exit(b);
            t.exit(a);
        }
        t.exit(root);
        let total: u64 = self_time_by_name(t.spans(), 0).values().sum();
        assert_eq!(total, t.spans()[0].duration_ns());
        assert_eq!(self_time_by_name(t.spans(), 0)["jheap.advance"], 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("bench.run");
        t.add("jheap.advance", 7);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
