//! Lap-style span recorder for the traced replays.
//!
//! A replay calls [`Tracer::lap`] right after each call into a layer:
//! the wall time since the previous lap is charged to that span. Code
//! between two layer calls (the replay's own loop) is charged by a lap
//! to the enclosing phase's span, so the spans partition the replay's
//! wall time and each span's total *is* its self time. One clock read
//! per boundary keeps the recorder's own cost low enough to trace a
//! 100k-client fleet call by call.
//!
//! [`Tracer::skip`] discards the interval instead (work the benchmark
//! does for itself, such as generating traffic), and that time is left
//! out of the replay's total.

use std::time::Instant;

/// Per-span accumulators over a fixed name table.
pub struct Tracer {
    names: &'static [&'static str],
    ns: Vec<u64>,
    calls: Vec<u64>,
    mark: Instant,
    start: Instant,
    skipped_ns: u64,
}

/// One row of a trace: a span's self time and call count.
#[derive(Clone, Debug)]
pub struct SpanRow {
    /// Span name (`crate.module.operation`).
    pub name: &'static str,
    /// Self time, seconds.
    pub self_s: f64,
    /// Laps charged to the span.
    pub calls: u64,
}

impl Tracer {
    /// A recorder for the spans in `names`; the clock starts now.
    pub fn new(names: &'static [&'static str]) -> Tracer {
        let now = Instant::now();
        Tracer {
            names,
            ns: vec![0; names.len()],
            calls: vec![0; names.len()],
            mark: now,
            start: now,
            skipped_ns: 0,
        }
    }

    /// Charge the time since the previous lap to span `id`.
    #[inline]
    pub fn lap(&mut self, id: usize) {
        let now = Instant::now();
        let d = now.duration_since(self.mark).as_nanos() as u64;
        if let (Some(ns), Some(calls)) = (self.ns.get_mut(id), self.calls.get_mut(id)) {
            *ns += d;
            *calls += 1;
        }
        self.mark = now;
    }

    /// Drop the time since the previous lap from the trace.
    pub fn skip(&mut self) {
        let now = Instant::now();
        self.skipped_ns += now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
    }

    /// Self time charged to span `id` so far, seconds.
    pub fn span_s(&self, id: usize) -> f64 {
        self.ns.get(id).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Wall time since the recorder started, minus skipped intervals.
    pub fn total_s(&self) -> f64 {
        let wall = self.start.elapsed().as_nanos() as u64;
        wall.saturating_sub(self.skipped_ns) as f64 / 1e9
    }

    /// Every span, in table order.
    pub fn rows(&self) -> Vec<SpanRow> {
        self.names
            .iter()
            .zip(self.ns.iter().zip(&self.calls))
            .map(|(&name, (&ns, &calls))| SpanRow { name, self_s: ns as f64 / 1e9, calls })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_wall_clock() {
        const NAMES: &[&str] = &["a", "b"];
        let mut t = Tracer::new(NAMES);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.lap(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.skip();
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.lap(1);
        let rows = t.rows();
        let charged: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!(rows[0].self_s >= 0.005 && rows[1].self_s >= 0.005);
        assert_eq!((rows[0].calls, rows[1].calls), (1, 1));
        // Everything not skipped was charged to a span.
        assert!((t.total_s() - charged).abs() < 0.002, "{} vs {charged}", t.total_s());
    }
}
