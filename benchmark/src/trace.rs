//! In-memory spans recorded around the calls into each layer, and the interval
//! arithmetic that turns them into per-layer times.
//!
//! Spans are kept in memory and written out when the run ends.  A layer's self
//! time is its span minus the *union* of its children's intervals, so two
//! detector calls in flight on two lanes are counted once, not twice.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of the span that caused another; 0 means "no parent".
pub type SpanId = u32;

/// One recorded span.  `count` is what the span processed (frames of a
/// detector call, calls folded into a per-stage span, frames of a sim run).
/// `busy_ns` equals the span's length except for folded spans, where it is
/// the summed length of the `count` calls the span covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Iteration of the run the span belongs to.
    pub rep: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub busy_ns: u64,
}

/// Span recorder shared by every decorator of a traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    /// Bumped by every PICK call; per-frame decorators start a new folded
    /// span when it has moved since their last call, i.e. once per stage.
    stage_epoch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            stage_epoch: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve an id for a span whose children are recorded before it ends.
    pub fn reserve(&self) -> SpanId {
        // Relaxed: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn bump_stage_epoch(&self) {
        // Relaxed: a folding hint read on the same (coordinator) thread.
        self.stage_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn stage_epoch(&self) -> u64 {
        self.stage_epoch.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A poisoned lock is recovered: the only update is a `Vec::push`,
        // which leaves the vector valid at every step, and `record` runs in
        // decorators' `Drop`, which must not panic.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        self.lock().push(span);
    }

    /// Record a finished, unfolded span under a fresh id and return the id.
    pub fn push(
        &self,
        at: At,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        let id = self.reserve();
        self.record(Span {
            id,
            parent: at.parent,
            rep: at.rep,
            name,
            start_ns,
            end_ns,
            count,
            busy_ns: end_ns - start_ns,
        });
        id
    }

    /// A copy of the spans of iteration `rep`.
    pub fn spans_of(&self, rep: u32) -> Vec<Span> {
        self.lock()
            .iter()
            .filter(|s| s.rep == rep)
            .cloned()
            .collect()
    }

    /// Write spans as one JSON object per line: iteration 0 in full, later
    /// iterations down to the children of their root span.  A full
    /// `bdd1k_multi` run records some 200 000 spans; writing them all would
    /// put tens of megabytes of dirty pages in the way of the next run's
    /// fsyncs.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.lock();
        let roots: std::collections::HashSet<SpanId> = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.id)
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for span in spans
            .iter()
            .filter(|s| s.rep == 0 || s.parent == 0 || roots.contains(&s.parent))
        {
            let line = Json::obj([
                ("id", Json::Num(f64::from(span.id))),
                ("parent", Json::Num(f64::from(span.parent))),
                ("rep", Json::Num(f64::from(span.rep))),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("count", Json::Num(span.count as f64)),
                ("busy_ns", Json::Num(span.busy_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

/// Where a new span hangs: its parent and the iteration it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct At {
    pub parent: SpanId,
    pub rep: u32,
}

/// A tracer plus the position new spans are recorded at; `None` everywhere
/// means "untraced".
#[derive(Clone, Copy)]
pub struct Probe<'t> {
    pub tracer: &'t Tracer,
    pub at: At,
}

impl<'t> Probe<'t> {
    /// The same tracer, recording under `parent`.
    pub fn under(self, parent: SpanId) -> Probe<'t> {
        Probe {
            tracer: self.tracer,
            at: At {
                parent,
                rep: self.at.rep,
            },
        }
    }
}

/// Total length covered by at least one of `intervals` (`(start, end)`
/// pairs, in any order, possibly overlapping).
pub fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        match current {
            Some((_, cur_end)) if start <= cur_end => {
                if end > cur_end {
                    current = current.map(|(s, _)| (s, end));
                }
            }
            _ => {
                if let Some((s, e)) = current {
                    covered += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    covered
}

/// Self time of a span: its length minus the part of it that `children`
/// cover.  Children are clipped to the parent and overlapping children are
/// counted once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .collect();
    (parent.1 - parent.0).saturating_sub(union_ns(&clipped))
}

/// Aggregates over the spans of one iteration, by span name.
pub struct SpanStats<'s>(pub &'s [Span]);

impl SpanStats<'_> {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.0.iter().filter(move |s| s.name == name)
    }

    /// Number of spans called `name`.
    pub fn spans(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Summed `count` of the spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Summed busy time, in seconds, of the spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.busy_ns).sum::<u64>() as f64 / 1e9
    }

    /// The intervals of the spans called `name`.
    pub fn intervals(&self, name: &str) -> Vec<(u64, u64)> {
        self.named(name).map(|s| (s.start_ns, s.end_ns)).collect()
    }

    /// Wall time, in seconds, covered by at least one span called `name`.
    pub fn union_s(&self, name: &str) -> f64 {
        union_ns(&self.intervals(name)) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[(0, 10)]), 10);
        // Two lanes in flight at once: 0..10 and 5..15 cover 15, not 20.
        assert_eq!(union_ns(&[(5, 15), (0, 10)]), 15);
        // Disjoint, nested, touching and empty intervals.
        assert_eq!(
            union_ns(&[(0, 10), (2, 3), (10, 12), (20, 25), (30, 30)]),
            17
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children on two lanes overlap in 20..30.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (20, 50)]), 60);
        // Serial children simply add up.
        assert_eq!(self_time_ns((0, 100), &[(0, 25), (50, 75)]), 50);
        // A child reaching outside the parent is clipped, not credited.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        // Children covering everything leave no self time.
        assert_eq!(self_time_ns((0, 10), &[(0, 6), (4, 10)]), 0);
        assert_eq!(self_time_ns((0, 10), &[]), 10);
    }

    #[test]
    fn tracer_records_parents_reps_and_folds() {
        let tracer = Tracer::new();
        let run = tracer.reserve();
        let child = tracer.push(
            At {
                parent: run,
                rep: 3,
            },
            "exsample-detect.call",
            5,
            9,
            16,
        );
        tracer.record(Span {
            id: tracer.reserve(),
            parent: run,
            rep: 3,
            name: "exsample-track.observe",
            start_ns: 10,
            end_ns: 50,
            count: 16,
            busy_ns: 8,
        });
        tracer.record(Span {
            id: run,
            parent: 0,
            rep: 3,
            name: "exsample-engine.run",
            start_ns: 0,
            end_ns: 60,
            count: 1,
            busy_ns: 60,
        });
        tracer.push(At { parent: 0, rep: 4 }, "exsample-detect.call", 70, 80, 2);
        assert_ne!(child, run);
        let spans = tracer.spans_of(3);
        assert_eq!(spans.len(), 3);
        let stats = SpanStats(&spans);
        assert_eq!(stats.spans("exsample-detect.call"), 1);
        assert_eq!(stats.count("exsample-detect.call"), 16);
        assert_eq!(stats.busy_s("exsample-track.observe"), 8e-9);
        assert_eq!(stats.union_s("exsample-engine.run"), 60e-9);
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let tracer = Tracer::new();
        tracer.push(At { parent: 0, rep: 0 }, "exsample-core.pick", 1, 4, 16);
        let dir = std::env::temp_dir().join(format!("exsample-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        assert_eq!(tracer.write_jsonl(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let line = Json::parse(text.trim_end()).unwrap();
        assert_eq!(
            line.get("name").and_then(Json::as_str),
            Some("exsample-core.pick")
        );
        assert_eq!(line.get("end_ns").and_then(Json::as_f64), Some(4.0));
        assert_eq!(line.get("count").and_then(Json::as_f64), Some(16.0));
    }
}
