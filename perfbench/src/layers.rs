//! Traced-run instrumentation that lives entirely on the benchmark side: an in-memory span
//! recorder and a timing [`MemoryBackend`] decorator.

use mess_types::{Completion, Cycle, IssueOutcome, MemoryBackend, MemoryStats, Request};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A cheap tick source for timing individual backend calls, which last only tens to
/// hundreds of nanoseconds: the time-stamp counter on x86-64 (a pair of reads costs less
/// than half of an `Instant` pair), `Instant` nanoseconds elsewhere.
mod ticks {
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn now() -> u64 {
        // SAFETY: `rdtsc` has no preconditions and every x86-64 CPU implements it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    pub fn now() -> u64 {
        static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        EPOCH
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_nanos() as u64
    }
}

/// Nanoseconds per tick of [`ticks::now`], measured once against `Instant` over 20 ms.
pub fn ns_per_tick() -> f64 {
    static CALIBRATION: OnceLock<f64> = OnceLock::new();
    *CALIBRATION.get_or_init(|| {
        let (instant, tick) = (Instant::now(), ticks::now());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let elapsed_ticks = ticks::now().saturating_sub(tick).max(1);
        instant.elapsed().as_nanos() as f64 / elapsed_ticks as f64
    })
}

/// One finished span: a timed call into a layer, with the span that caused it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (1-based).
    pub id: u64,
    /// The causing span, 0 for a root.
    pub parent: u64,
    /// The workload run or request this span belongs to.
    pub run: u64,
    /// Layer-qualified name (`bench.characterize`, `cpu.engine`, ...).
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans in memory; written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `body` inside a span named `name`; `body` receives the new span's id so that
    /// nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        run: u64,
        body: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let result = body(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(SpanRecord {
                id,
                parent,
                run,
                name,
                start,
                end,
            });
        result
    }

    /// Every span recorded so far, ordered by id.
    pub fn finish(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total seconds of the spans called `name`.
pub fn total(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRecord::secs)
        .sum()
}

/// Seconds of `span` that none of its children covers (its self time).
pub fn self_time(spans: &[SpanRecord], span: &SpanRecord) -> f64 {
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = span.start;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    span.secs() - covered
}

/// Writes the spans as NDJSON, one object per line.
pub fn write_ndjson(spans: &[SpanRecord], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            s.id, s.parent, s.run, s.name, s.start, s.end
        )?;
    }
    Ok(())
}

/// Host-time and request totals of every backend instance attributed to one slot.
#[derive(Debug, Default)]
pub struct BackendTotals {
    backend_ticks: AtomicU64,
    lifetime_ns: AtomicU64,
    accepted: AtomicU64,
    issue_calls: AtomicU64,
    rejected: AtomicU64,
    row_hits: AtomicU64,
    row_accesses: AtomicU64,
}

/// A plain snapshot of [`BackendTotals`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendSums {
    /// Host seconds inside backend calls.
    pub backend_s: f64,
    /// Host seconds from backend construction to drop (≈ the engine run driving it).
    pub lifetime_s: f64,
    /// Requests the backends accepted.
    pub accepted: u64,
    /// Non-empty `issue` calls.
    pub issue_calls: u64,
    /// Rejections the backends recorded (`MemoryStats::rejected`).
    pub rejected: u64,
    /// Row-buffer hits (simulated).
    pub row_hits: u64,
    /// Row-buffer classified accesses (simulated).
    pub row_accesses: u64,
}

impl BackendTotals {
    /// The totals so far.
    pub fn sums(&self) -> BackendSums {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        BackendSums {
            backend_s: get(&self.backend_ticks) as f64 * ns_per_tick() * 1e-9,
            lifetime_s: get(&self.lifetime_ns) as f64 * 1e-9,
            accepted: get(&self.accepted),
            issue_calls: get(&self.issue_calls),
            rejected: get(&self.rejected),
            row_hits: get(&self.row_hits),
            row_accesses: get(&self.row_accesses),
        }
    }
}

/// A [`MemoryBackend`] decorator that times every call into the wrapped model and folds
/// its totals into `totals` when dropped. Results are untouched: it only forwards.
pub struct Timed<'a, B: MemoryBackend> {
    inner: B,
    totals: &'a BackendTotals,
    born: Instant,
    backend_ticks: Cell<u64>,
    accepted: u64,
    issue_calls: u64,
}

impl<'a, B: MemoryBackend> Timed<'a, B> {
    /// Wraps `inner`, attributing its host time to `totals`.
    pub fn new(inner: B, totals: &'a BackendTotals) -> Self {
        Timed {
            inner,
            totals,
            born: Instant::now(),
            backend_ticks: Cell::new(0),
            accepted: 0,
            issue_calls: 0,
        }
    }

    #[inline]
    fn timed<R>(&mut self, call: impl FnOnce(&mut B) -> R) -> R {
        let start = ticks::now();
        let result = call(&mut self.inner);
        self.charge(start);
        result
    }

    #[inline]
    fn charge(&self, start: u64) {
        let spent = ticks::now().saturating_sub(start);
        self.backend_ticks.set(self.backend_ticks.get() + spent);
    }
}

impl<B: MemoryBackend> Drop for Timed<'_, B> {
    fn drop(&mut self) {
        let stats = self.inner.stats();
        let t = self.totals;
        let add = |a: &AtomicU64, v: u64| {
            a.fetch_add(v, Ordering::Relaxed);
        };
        add(&t.backend_ticks, self.backend_ticks.get());
        add(&t.lifetime_ns, self.born.elapsed().as_nanos() as u64);
        add(&t.accepted, self.accepted);
        add(&t.issue_calls, self.issue_calls);
        add(&t.rejected, stats.rejected);
        add(&t.row_hits, stats.row_buffer.hits);
        add(&t.row_accesses, stats.row_buffer.total());
    }
}

impl<B: MemoryBackend> MemoryBackend for Timed<'_, B> {
    fn tick(&mut self, now: Cycle) {
        self.timed(|b| b.tick(now))
    }

    fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
        let outcome = self.timed(|b| b.issue(batch));
        if !batch.is_empty() {
            self.issue_calls += 1;
        }
        self.accepted += outcome.accepted as u64;
        outcome
    }

    fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
        self.timed(|b| b.drain_completed(out))
    }

    fn next_event(&self) -> Option<Cycle> {
        let start = ticks::now();
        let next = self.inner.next_event();
        self.charge(start);
        next
    }

    fn pending(&self) -> usize {
        let start = ticks::now();
        let pending = self.inner.pending();
        self.charge(start);
        pending
    }

    fn stats(&self) -> MemoryStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, end| SpanRecord {
            id,
            parent,
            run: 0,
            name: "x",
            start,
            end,
        };
        let spans = vec![
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 1, 3.0, 5.0),
            span(4, 1, 8.0, 12.0),
        ];
        assert!((self_time(&spans, &spans[0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn spans_record_their_parent_and_run() {
        let tracer = Tracer::new();
        let (outer, inner) = tracer.span("a", 0, 7, |id| (id, tracer.span("b", id, 7, |id| id)));
        let spans = tracer.finish();
        assert_eq!(spans[0].id, outer);
        assert_eq!(spans[1].parent, outer);
        assert_eq!(spans[1].id, inner);
        assert!(spans.iter().all(|s| s.run == 7));
    }
}
