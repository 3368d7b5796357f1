//! The benchmark's own spans, recorded around its calls into the product.
//!
//! Durations come from the monotonic clock of the process that ran the
//! call; start stamps come from the wall clock, which every process on the
//! host shares, so a child's spans can be laid beside the driver's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// The cycle, pass or request the span belongs to.
    pub op: u64,
    pub pid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// An open span: always a stopwatch, a record only when tracing is on.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
    started: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    pid: u32,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `lane` keeps ids apart when several threads each own a tracer.
    pub fn new(on: bool, lane: u64) -> Tracer {
        Tracer {
            on,
            pid: std::process::id(),
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, op: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            id,
            parent,
            op,
            start_ns: if self.on { wall_ns() } else { 0 },
            started: Instant::now(),
        }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.started.elapsed();
        if self.on {
            self.spans.push(Span {
                name: open.name.to_owned(),
                id: open.id,
                parent: open.parent,
                op: open.op,
                pid: self.pid,
                start_ns: open.start_ns,
                end_ns: open.start_ns + elapsed.as_nanos() as u64,
            });
        }
        elapsed
    }

    /// Record a span another process measured (`name`, wall start, length).
    pub fn adopt(
        &mut self,
        name: &str,
        pid: u32,
        parent: u64,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name: name.to_owned(),
            id,
            parent,
            op,
            pid,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"pid\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.op, s.pid, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span id: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(reach, s.end_ns);
                    let b = b.clamp(reach, s.end_ns);
                    covered += b - a;
                    reach = reach.max(b);
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Total self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let by_id = self_times(spans);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += by_id[&s.id] as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name: format!("s{id}"),
            id,
            parent,
            op: 0,
            pid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2 by ten and runs past the parent's end.
            span(3, 1, 30, 120),
            span(4, 2, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 60);
        assert_eq!(st[&2], 30 - 5);
        assert_eq!(st[&3], 90);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn an_untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, 0);
        let o = t.begin("x", 0, 0);
        let _ = t.end(o);
        t.adopt("y", 2, 0, 0, 5, 5);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true, 3);
        let o = t.begin("x", 0, 7);
        let parent = o.id();
        t.adopt("y", 2, parent, 7, 5, 5);
        let _ = t.end(o);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, parent);
        assert!(parent > 3 << 40);
    }
}
