//! In-memory spans for the traced run. Each thread (pool task) records
//! into its own [`Trace`]; task traces are grafted under the span that
//! spawned them with [`Trace::absorb`]. Times are nanoseconds since one
//! process-wide epoch, so spans of different threads share a time axis.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer or container name (`logic.partition`, `pass`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (equals `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Index of the circuit the span works on (`u32::MAX`: none).
    pub circuit: u32,
    /// Recording thread: 0 for the main thread, `1 + worker task` else.
    pub thread: u32,
}

impl Span {
    /// Duration in ns.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span recorder for one thread.
#[derive(Debug, Default)]
pub struct Trace {
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    circuit: u32,
    thread: u32,
    /// A disabled recorder keeps nothing (the untraced replica passes).
    enabled: bool,
}

impl Trace {
    /// An empty recorder for `thread` (see [`Span::thread`]).
    pub fn new(thread: u32) -> Trace {
        Trace {
            circuit: u32::MAX,
            thread,
            enabled: true,
            ..Trace::default()
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Trace {
        Trace::default()
    }

    /// Sets the circuit id stamped on spans opened from now on.
    pub fn set_circuit(&mut self, circuit: u32) {
        self.circuit = circuit;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Trace::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let t = now_ns();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent: self.open.last().copied(),
            circuit: self.circuit,
            thread: self.thread,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = now_ns();
    }

    /// Records `f` as one span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Moves every span of `other` (a finished task trace) into this one,
    /// hanging its root spans under `parent`.
    pub fn absorb(&mut self, other: Trace, parent: usize) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// Spans as tab-separated lines: index, parent, thread, circuit,
    /// name, start ns, end ns, self ns.
    pub fn to_tsv(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out =
            String::from("id\tparent\tthread\tcircuit\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread, s.circuit, s.name, s.start, s.end, selfs[i]
            );
        }
        out
    }
}

/// Total length of the union of `intervals` (half-open `[start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (tasks on
/// parallel workers) or stick out of the parent; only the covered part
/// of the parent's own interval is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| s.len() - union_len(c))
        .collect()
}

/// Share of `[start, end)` during which at least one span accepted by
/// `keep` was running, on any thread.
pub fn coverage(spans: &[Span], start: u64, end: u64, keep: impl Fn(&Span) -> bool) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| (s.start.max(start), s.end.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    if end <= start {
        return 0.0;
    }
    union_len(&mut iv) as f64 / (end - start) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            circuit: 0,
            thread: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_touching_intervals() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (15, 20), (30, 31)]), 21);
        assert_eq!(union_len(&mut [(4, 6), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) holds a [10,40) and b [50,60); a holds c [20,30).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        // The grandchild is already inside `a`: root loses 30 + 10 only.
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // Two pool tasks on different workers overlap in [30,50); one
        // sticks out past the parent's end.
        let spans = [
            span("pool", 0, 100, None),
            span("task", 10, 50, Some(0)),
            span("task", 30, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 90]);
    }

    #[test]
    fn absorb_regrafts_task_roots_under_the_spawning_span() {
        let mut main = Trace::new(0);
        let pool = main.begin("pool");
        let mut task = Trace::new(1);
        let t = task.begin("task");
        task.leaf("leaf", || ());
        task.end(t);
        main.absorb(task, pool);
        main.end(pool);
        let parents: Vec<_> = main.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(main.to_tsv().lines().count() == 4);
        let mut off = Trace::off();
        let id = off.begin("x");
        off.leaf("y", || ());
        off.end(id);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn coverage_is_the_union_share_across_threads() {
        let spans = [
            span("x", 0, 40, None),
            span("y", 20, 60, None),
            span("z", 0, 100, None),
        ];
        let c = coverage(&spans, 0, 100, |s| s.name != "z");
        assert!((c - 0.6).abs() < 1e-12);
    }
}
