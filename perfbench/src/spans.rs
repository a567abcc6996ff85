//! The traced run's span log: spans kept in memory and written out at exit.
//!
//! A span records a name, its start and end, its parent and the op it
//! belongs to. Spans around re-driven calls are children of the span whose
//! work they explain even when they run after it (the runner's internals
//! cannot be spanned from outside), so a layer's self time is its duration
//! minus the durations of its children.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
    /// Work items the span covers (devices, pairs, calls, repeats), so a
    /// per-item cost is `duration / units`.
    pub units: u64,
}

impl SpanRecord {
    pub fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64, units: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            units: units.max(1),
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` under a span and returns its result with the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.begin(name, parent, op, units);
        let out = f();
        self.end(id);
        (id, out)
    }

    #[cfg(test)]
    pub fn get(&self, id: SpanId) -> &SpanRecord {
        &self.spans[id.0]
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Sum of the durations of every span's direct children, indexed like
    /// [`SpanLog::spans`].
    pub fn child_durations_us(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                sums[parent.0] += span.duration_us();
            }
        }
        sums
    }

    /// Duration of the direct child named `name` of each span (summed when
    /// there are several), indexed like [`SpanLog::spans`].
    pub fn child_named_us(&self, name: &str) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for span in self.spans.iter().filter(|s| s.name == name) {
            if let Some(parent) = span.parent {
                sums[parent.0] += span.duration_us();
            }
        }
        sums
    }

    /// Per-unit durations (µs) of every span named `name`.
    pub fn per_unit_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() / s.units as f64)
            .collect()
    }

    /// Self times (duration minus direct children, µs) of spans named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let children = self.child_durations_us();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_us() - children[i])
            .collect()
    }

    /// Writes the spans as tab-separated lines (`op name start_ns end_ns
    /// parent units`, parent -1 for roots), at most `limit` of them.
    pub fn write_tsv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent\tunits")?;
        for span in self.spans.iter().take(limit) {
            let parent = span.parent.map_or(-1, |p| p.0 as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.op, span.name, span.start_ns, span.end_ns, parent, span.units
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new();
        let root = log.begin("op", None, 0, 1);
        let (child, ()) = log.time("child", Some(root), 0, 4, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, ()) = log.time("grandchild", Some(child), 0, 1, || {});
        log.end(root);
        let root_us = log.get(root).duration_us();
        let child_us = log.get(child).duration_us();
        assert!(child_us >= 2000.0);
        let root_self = log.self_us("op")[0];
        assert!((root_self - (root_us - child_us)).abs() < 1e-6);
        assert!((log.per_unit_us("child")[0] - child_us / 4.0).abs() < 1e-6);
        assert_eq!(log.child_named_us("child")[root.0], child_us);
    }
}
