//! In-memory span recorder of the traced run.
//!
//! The benchmark records one span around each call it makes into a product
//! module — `{name, start_ns, end_ns, parent, workload}` — plus the counts
//! it reads at the same boundary, keeps them in memory, and writes them out
//! once when the run ends.  A span's self time is its duration minus the
//! part of that interval its child spans cover.  A plain run carries a
//! disabled recorder: `span` then only calls the closure, so end-to-end
//! metrics are never taken with tracing on.

use serde::json::JsonWriter;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    counts: Vec<(&'static str, u64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording off or on between spans (open spans stay open).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result together with the span's duration in
    /// seconds (measured even when recording is off, so callers time a
    /// call the same way in both kinds of run).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.enabled {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            counts: Vec::new(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        let secs = (end_ns - self.spans[index].start_ns) as f64 * 1e-9;
        (out, secs)
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        if let Some(&index) = self.stack.last() {
            self.spans[index].counts.push((key, value));
        }
    }

    /// Records a span that ran on another thread, from the clock readings
    /// taken there, as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent: self.stack.last().copied(),
            counts: Vec::new(),
        });
    }

    /// Nanoseconds of each span that its direct children cover.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.end_ns - span.start_ns;
            }
        }
        covered
    }

    /// The share of the `parent`-named spans' time that their direct
    /// children cover: over all of them together, and in the worst single
    /// one (a pass the scheduler interrupted between two clock readings).
    /// Both are 1.0 when there are no such spans.
    pub fn child_cover(&self, parent: &str) -> (f64, f64) {
        let (mut total, mut total_covered, mut worst) = (0u64, 0u64, 1.0f64);
        for (span, &c) in self.spans.iter().zip(&self.covered()) {
            let duration = span.end_ns - span.start_ns;
            if span.name == parent && duration > 0 {
                total += duration;
                total_covered += c;
                worst = worst.min(c as f64 / duration as f64);
            }
        }
        if total == 0 {
            return (1.0, 1.0);
        }
        (total_covered as f64 / total as f64, worst)
    }

    /// Per span name: the number of spans, their total seconds and their
    /// self seconds (duration minus what the direct children cover),
    /// largest self time first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_name: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, &c) in self.spans.iter().zip(&self.covered()) {
            let duration = span.end_ns - span.start_ns;
            // Children recorded on another thread can outlast the parent.
            let own = duration.saturating_sub(c);
            let at = match by_name.iter().position(|row| row.0 == span.name) {
                Some(at) => at,
                None => {
                    by_name.push((span.name, 0, 0.0, 0.0));
                    by_name.len() - 1
                }
            };
            by_name[at].1 += 1;
            by_name[at].2 += duration as f64 * 1e-9;
            by_name[at].3 += own as f64 * 1e-9;
        }
        by_name.sort_by(|a, b| b.3.total_cmp(&a.3));
        by_name
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload");
        w.string(workload);
        w.key("spans");
        w.begin_array();
        for span in &self.spans {
            w.begin_object();
            w.key("name");
            w.string(span.name);
            w.key("start_ns");
            w.unsigned(span.start_ns.into());
            w.key("end_ns");
            w.unsigned(span.end_ns.into());
            w.key("parent");
            match span.parent {
                Some(p) => w.unsigned(p as u128),
                None => w.null(),
            }
            w.key("workload");
            w.string(workload);
            if !span.counts.is_empty() {
                w.key("counts");
                w.begin_object();
                for (key, value) in &span.counts {
                    w.key(key);
                    w.unsigned((*value).into());
                }
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_are_accounted() {
        let mut t = Tracer::new(true);
        t.span("run", |t| {
            t.span("pass", |t| {
                t.span("engine.classify_trace", |t| {
                    t.count("packets", 512);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[1].parent, Some(0));
        let (all, worst) = t.child_cover("pass");
        assert!(all > 0.9 && worst > 0.9);
        // The sleep is the innermost span's own time; the outer two only
        // wrap it.
        let own = t.self_times();
        assert_eq!((own[0].0, own[0].1), ("engine.classify_trace", 1));
        assert!(own[0].3 >= 2e-3 && own[0].2 == own[0].3);
        let run = own.iter().find(|row| row.0 == "run").unwrap();
        assert!(run.2 >= own[0].2 && run.3 < 1e-3);
        assert_eq!(t.child_cover("absent"), (1.0, 1.0));
        let doc = serde::json::parse(&t.to_json("w")).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[2]
                .get("counts")
                .and_then(|c| c.get("packets"))
                .and_then(|p| p.as_u64()),
            Some(512)
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (out, secs) = t.span("run", |t| {
            t.count("packets", 1);
            7
        });
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty());
    }
}
