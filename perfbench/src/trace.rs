//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] that is off hands out inert guards, so untraced passes
//! pay one branch per boundary. When on, each closed span lands in a
//! vector under a mutex; nothing is written until [`Tracer::write`] at
//! the end of the run. Spans nest through a per-thread stack, and a
//! span opened on another thread names its parent explicitly with
//! [`Tracer::span_under`]. Every span carries the id of the episode
//! whose root span it descends from.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (1-based).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Id of the episode's root span.
    pub episode: u64,
    /// Layer boundary name, e.g. `system.run_for`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work counted at the boundary (instructions, simulated ns, ...).
    pub work: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Identity of an open span, for opening children on other threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    id: u64,
    episode: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder for one pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens the root span of a new episode.
    pub fn episode(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None, true)
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard::inert(self);
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.open(name, parent, false)
    }

    /// Opens a span under `parent`, typically a span of another thread.
    pub fn span_under(&self, parent: Option<Ctx>, name: &'static str) -> Guard<'_> {
        self.open(name, parent, false)
    }

    fn open(&self, name: &'static str, parent: Option<Ctx>, root: bool) -> Guard<'_> {
        if !self.on {
            return Guard::inert(self);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let episode = match (root, parent) {
            (false, Some(p)) => p.episode,
            _ => id,
        };
        let ctx = Ctx { id, episode };
        STACK.with(|s| s.borrow_mut().push(ctx));
        Guard {
            tracer: self,
            open: Some(Open {
                ctx,
                parent: if root { 0 } else { parent.map_or(0, |p| p.id) },
                name,
                start: Instant::now(),
                work: 0,
            }),
        }
    }

    fn close(&self, open: &Open) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|c| c.id == open.ctx.id) {
                s.remove(pos);
            }
        });
        let rec = SpanRec {
            id: open.ctx.id,
            parent: open.parent,
            episode: open.ctx.episode,
            name: open.name,
            start_ns: ns_between(self.origin, open.start),
            end_ns: ns_between(self.origin, end),
            work: open.work,
        };
        self.spans.lock().expect("span list lock").push(rec);
    }

    /// Every closed span, in id order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"episode\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.id, s.parent, s.episode, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

struct Open {
    ctx: Ctx,
    parent: u64,
    name: &'static str,
    start: Instant,
    work: u64,
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<Open>,
}

impl<'a> Guard<'a> {
    fn inert(tracer: &'a Tracer) -> Self {
        Guard { tracer, open: None }
    }

    /// This span's identity (`None` when tracing is off).
    pub fn ctx(&self) -> Option<Ctx> {
        self.open.as_ref().map(|o| o.ctx)
    }

    /// Adds `n` to the work counted at this boundary.
    pub fn work(&mut self, n: u64) {
        if let Some(o) = &mut self.open {
            o.work += n;
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.tracer.close(&open);
        }
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Returned in the
/// order of `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.dur_ns();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| b > a)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in clipped {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One row of the self-time table: all spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name, largest self time first.
pub fn self_time_table(spans: &[SpanRec]) -> Vec<Row> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_insert(Row {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
    }
    let mut rows: Vec<Row> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Renders the self-time table as aligned text.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<32} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<32} {:>8} {:>12.3} {:>12.3}\n",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            episode: 1,
            name: "s",
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..50 (a
        // union of 40) and a grandchild that must not count twice.
        let spans = [
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 40),
            rec(3, 1, 30, 50),
            rec(4, 2, 15, 25),
            rec(5, 1, 90, 130), // runs past its parent: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 40]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times(&[rec(1, 0, 5, 9)]), vec![4]);
    }

    #[test]
    fn nested_guards_record_parents_episodes_and_work() {
        let tracer = Tracer::new(true);
        {
            let ep = tracer.episode("episode");
            {
                let mut g = tracer.span("layer");
                g.work(7);
                let _inner = tracer.span("inner");
            }
            let ctx = ep.ctx();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = tracer.span_under(ctx, "remote");
                });
            });
        }
        let spans = tracer.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let ep = by_name("episode");
        assert_eq!(ep.parent, 0);
        assert_eq!(by_name("layer").parent, ep.id);
        assert_eq!(by_name("layer").work, 7);
        assert_eq!(by_name("inner").parent, by_name("layer").id);
        assert_eq!(by_name("remote").parent, ep.id);
        assert!(spans.iter().all(|s| s.episode == ep.id));
        let table = self_time_table(&spans);
        assert_eq!(table.len(), 4);
        assert_eq!(table.iter().map(|r| r.count).sum::<usize>(), 4);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let ep = tracer.episode("episode");
            assert!(ep.ctx().is_none());
            let _g = tracer.span("layer");
        }
        assert!(tracer.spans().is_empty());
    }
}
