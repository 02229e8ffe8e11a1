//! The benchmark's span recorder. Spans are taken from outside, around
//! calls into a layer's public functions; nothing here reaches into a
//! crate under test. They stay in memory until the pass ends, then go to
//! `benchmark/out/trace.json`.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which part of the traced pass recorded it (`fresh_data`, `warm`, …).
    pub pass: &'static str,
    /// The layer function the span surrounds, e.g. `runtime.run_wavefront`.
    pub name: &'static str,
    /// The design the call ran on, e.g. `e1_n24`.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    pass: &'static str,
    tag: &'static str,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: "",
            tag: "",
            op: 0,
        }
    }

    /// Label the spans that follow with a pass and a design.
    pub fn context(&mut self, pass: &'static str, tag: &'static str) {
        self.pass = pass;
        self.tag = tag;
    }

    /// Start the next operation: spans recorded from here share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            pass: self.pass,
            name,
            tag: self.tag,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is charged to
        // the parent and not to this span.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span whose clock readings were taken elsewhere (the
    /// open-loop senders time requests on their own threads).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, op: u64) {
        self.spans.push(Span {
            pass: self.pass,
            name,
            tag: self.tag,
            start_ns,
            end_ns,
            parent: None,
            op,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in nanoseconds of the spans matching
    /// `(pass, name, tag)`, in recording order.
    pub fn self_ns(&self, pass: &str, name: &str, tag: &str) -> Vec<u64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.pass == pass && s.name == name && s.tag == tag)
            .map(|(_, ns)| ns)
            .collect()
    }

    /// Whole durations in nanoseconds of the spans named `name` in
    /// `pass`, on design `tag` or on any, in recording order.
    pub fn durations_ns(&self, pass: &str, name: &str, tag: Option<&str>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::duration_ns)
            .collect()
    }

    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("{\"schema\":\"systolic-benchmark-trace-v1\",\"spans\":[\n");
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"pass\":\"{}\",\"name\":\"{}\",\"tag\":\"{}\",\"op\":{},\
                 \"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.pass, s.name, s.tag, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// A span's self time is its duration minus the part its child spans
/// cover. Children of one parent never overlap here (one thread, strict
/// nesting), so the part covered is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p as usize] = selfs[p as usize].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            pass: "p",
            name,
            tag: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("simulate", 0, 100, None),
            span("module", 5, 15, Some(0)),
            span("run", 20, 90, Some(0)),
            span("gather", 30, 50, Some(2)),
        ];
        // simulate: 100 - 10 - 70; run: 70 - 20; leaves keep their own.
        assert_eq!(self_times_ns(&spans), vec![20, 10, 50, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn begin_and_end_nest_and_carry_the_operation_id() {
        let mut tr = Tracer::new();
        tr.context("warm", "e1_n24");
        tr.next_op();
        let outer = tr.begin("interp.simulate");
        let inner = tr.begin("interp.module");
        tr.end(inner);
        tr.end(outer);
        tr.next_op();
        let lone = tr.begin("interp.simulate");
        tr.end(lone);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!((s[0].parent, s[2].parent), (None, None));
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(tr.self_ns("warm", "interp.simulate", "e1_n24").len(), 2);
        assert!(tr.self_ns("warm", "interp.simulate", "other").is_empty());
        // The outer span's whole duration includes its child.
        let whole = tr.durations_ns("warm", "interp.simulate", None);
        assert_eq!(whole.len(), 2);
        assert!(whole[0] >= tr.self_ns("warm", "interp.simulate", "e1_n24")[0]);
        let json = tr.to_json();
        assert!(json.contains("\"name\":\"interp.module\"") && json.ends_with("]}\n"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tr = Tracer::new();
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}
