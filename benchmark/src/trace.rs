//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: one clock pair per stage per burst. Spans are kept in
//! memory and written out when the run ends. With tracing off every call
//! here is one predictable branch.

use crate::host::now_ns;
use std::io::Write;

pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// The burst both belong to: spans of one burst share it.
    pub burst: u32,
}

#[derive(Default)]
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
    bursts: u32,
}

impl Tracer {
    /// Open a burst's root span.
    #[inline]
    pub fn burst(&mut self) -> u32 {
        if !self.on {
            return NONE;
        }
        self.bursts += 1;
        self.push("burst", NONE, self.bursts - 1)
    }

    /// Open a stage span under `parent`.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if parent == NONE {
            return NONE;
        }
        let burst = self.spans[parent as usize].burst;
        self.push(name, parent, burst)
    }

    #[inline]
    pub fn close(&mut self, id: u32) {
        if id != NONE {
            self.spans[id as usize].end = now_ns();
        }
    }

    fn push(&mut self, name: &'static str, parent: u32, burst: u32) -> u32 {
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            burst,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Totals {
    /// (name, spans, total duration ns, total self time ns), sorted by name.
    pub rows: Vec<(&'static str, u64, u64, u64)>,
}

impl Totals {
    pub fn self_ns(&self, name: &str) -> u64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0, |r| r.3)
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0, |r| r.2)
    }
}

/// A span's self time is its duration minus the part its children cover.
/// Children of one parent never overlap here (one thread records them),
/// so that part is the sum of their durations.
pub fn totals(spans: &[Span]) -> Totals {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != NONE {
            let p = &mut self_ns[s.parent as usize];
            *p = p.saturating_sub(s.end - s.start);
        }
    }
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => r,
            None => {
                rows.push((s.name, 0, 0, 0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.end - s.start;
        row.3 += own;
    }
    rows.sort_by_key(|r| r.0);
    Totals { rows }
}

/// Write the spans as JSON: a name table, then one
/// `[name, start_ns, end_ns, parent, burst]` row per span (parent −1 for
/// a root).
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut names: Vec<&str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"unit\":\"ns\",\"names\":[{}],", quoted.join(","))?;
    writeln!(
        w,
        "\"columns\":[\"name\",\"start\",\"end\",\"parent\",\"burst\"],"
    )?;
    writeln!(w, "\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let n = names.iter().position(|x| *x == s.name).unwrap_or(0);
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(w, "[{n},{},{},{parent},{}]{sep}", s.start, s.end, s.burst)?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, burst: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            burst,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("burst", 0, 100, NONE, 0),
            span("core.ingress", 5, 25, 0, 0),
            span("core.receive", 25, 85, 0, 0),
            span("burst", 100, 160, NONE, 1),
            span("core.receive", 110, 150, 3, 1),
        ];
        let t = totals(&spans);
        assert_eq!(
            t.rows,
            vec![
                ("burst", 2, 160, 40),
                ("core.ingress", 1, 20, 20),
                ("core.receive", 2, 100, 100),
            ]
        );
        assert_eq!(t.self_ns("burst"), 40);
        assert_eq!(t.total_ns("core.receive"), 100);
        assert_eq!(t.self_ns("absent"), 0);
        // Self times add up to the root spans' durations.
        let all: u64 = t.rows.iter().map(|r| r.3).sum();
        assert_eq!(all, t.total_ns("burst"));
    }

    #[test]
    fn tracer_off_records_nothing_and_on_links_parents() {
        let mut off = Tracer::default();
        let b = off.burst();
        let s = off.open("x", b);
        off.close(s);
        off.close(b);
        assert!(off.spans.is_empty());

        let mut on = Tracer {
            on: true,
            ..Tracer::default()
        };
        for _ in 0..2 {
            let b = on.burst();
            let s = on.open("core.receive", b);
            on.close(s);
            on.close(b);
        }
        assert_eq!(on.spans.len(), 4);
        assert_eq!((on.spans[3].parent, on.spans[3].burst), (2, 1));
        assert!(on.spans.iter().all(|s| s.end >= s.start));
        assert_eq!(totals(&on.spans).rows.len(), 2);
    }
}
