//! In-memory spans recorded around calls into the program's layers, and
//! the arithmetic over them: self time and the layer-sum reconciliation.
//!
//! Spans of one operation share an `id` (a submit's `(epoch, user)`), and
//! a span names its parent by the parent's span name, so spans recorded on
//! different threads — the client's and the server connection's — join
//! into one tree after the run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `client.submit`.
    pub name: &'static str,
    /// Shared by every span of one operation.
    pub id: u64,
    /// Name of the span with the same `id` that caused this one.
    pub parent: Option<&'static str>,
    /// Start, in ns since the trace origin.
    pub start: u64,
    /// End, in ns since the trace origin.
    pub end: u64,
}

impl Span {
    /// Length of the interval in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread span buffer; every recorder of one run shares the origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty buffer measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records one span.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start: ns(start),
            end: ns(end),
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans resolved into a forest.
#[derive(Debug)]
pub struct Tree<'a> {
    spans: &'a [Span],
    children: Vec<Vec<usize>>,
}

impl<'a> Tree<'a> {
    /// Links every span to its parent.
    ///
    /// # Errors
    /// Two spans with the same name and id, or a span whose parent was
    /// never recorded: both mean the instrumentation is wrong.
    pub fn build(spans: &'a [Span]) -> Result<Self, String> {
        let mut index: HashMap<(&str, u64), usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            if index.insert((s.name, s.id), i).is_some() {
                return Err(format!("duplicate span {} for id {:#x}", s.name, s.id));
            }
        }
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(parent) = s.parent {
                let &p = index.get(&(parent, s.id)).ok_or_else(|| {
                    format!("span {} for id {:#x} has no parent {parent}", s.name, s.id)
                })?;
                children[p].push(i);
            }
        }
        Ok(Tree { spans, children })
    }

    /// A span's duration minus the part of its interval its children
    /// cover (children are clipped to it; overlaps count once).
    #[cfg(test)]
    pub fn self_time(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        self.clipped_self(i, s.start, s.end)
    }

    fn clipped_self(&self, i: usize, lo: u64, hi: u64) -> u64 {
        let s = &self.spans[i];
        let (a, b) = (s.start.max(lo), s.end.min(hi));
        if a >= b {
            return 0;
        }
        let mut kids: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| (self.spans[c].start.max(a), self.spans[c].end.min(b)))
            .collect();
        (b - a) - union_len(&mut kids)
    }

    /// Sum of the self times of every descendant of `i`, each clipped to
    /// the window its ancestors leave it: the time the layers below `i`
    /// account for.
    pub fn attributed(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        self.children[i]
            .iter()
            .map(|&c| self.subtree(c, s.start, s.end))
            .sum()
    }

    fn subtree(&self, i: usize, lo: u64, hi: u64) -> u64 {
        let s = &self.spans[i];
        let (a, b) = (s.start.max(lo), s.end.min(hi));
        if a >= b {
            return 0;
        }
        self.clipped_self(i, a, b)
            + self.children[i]
                .iter()
                .map(|&c| self.subtree(c, a, b))
                .sum::<u64>()
    }
}

/// Total length of a set of intervals, overlaps counted once. Empty or
/// inverted intervals count zero. Sorts `intervals` in place.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The layer-sum reconciliation over every root span named `root`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconciliation {
    /// Root spans reconciled.
    pub roots: u64,
    /// Summed root durations, ns.
    pub root_ns: u64,
    /// Summed descendant self time, ns.
    pub attributed_ns: u64,
}

impl Reconciliation {
    /// Share of root time no child layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        1.0 - self.attributed_ns as f64 / self.root_ns as f64
    }
}

/// Reconciles every root named `root`.
///
/// # Errors
/// When the layers under one root add up to more than the root itself —
/// sibling spans overlap, which only broken instrumentation produces.
pub fn reconcile(tree: &Tree<'_>, root: &str) -> Result<Reconciliation, String> {
    let mut r = Reconciliation {
        roots: 0,
        root_ns: 0,
        attributed_ns: 0,
    };
    for (i, s) in tree.spans.iter().enumerate() {
        if s.name != root || s.parent.is_some() {
            continue;
        }
        let attributed = tree.attributed(i);
        if attributed > s.duration() {
            return Err(format!(
                "layer sum {attributed} ns exceeds the {root} span of {} ns (id {:#x})",
                s.duration(),
                s.id
            ));
        }
        r.roots += 1;
        r.root_ns += s.duration();
        r.attributed_ns += attributed;
    }
    Ok(r)
}

/// Writes the spans as CSV: `name,id,parent,start_ns,end_ns`.
///
/// # Errors
/// I/O failures.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(48 * spans.len() + 32);
    out.push_str("name,id,parent,start_ns,end_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            s.name,
            s.id,
            s.parent.unwrap_or(""),
            s.start,
            s.end
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(&mut [(4, 4), (9, 2)]), 0);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn nested_children_leave_the_gaps_as_self_time() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some("root"), 10, 40),
            span("b", Some("root"), 50, 90),
            span("c", Some("b"), 60, 70),
        ];
        let tree = Tree::build(&spans).unwrap();
        let selfs: Vec<u64> = (0..4).map(|i| tree.self_time(i)).collect();
        assert_eq!(selfs, [30, 30, 30, 10]);
        assert_eq!(tree.attributed(0), 70);
        let r = reconcile(&tree, "root").unwrap();
        assert_eq!((r.roots, r.root_ns, r.attributed_ns), (1, 100, 70));
        assert!((r.unattributed_share() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_in_self_time() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some("root"), 10, 60),
            span("b", Some("root"), 40, 80),
        ];
        let tree = Tree::build(&spans).unwrap();
        assert_eq!(tree.self_time(0), 30);
    }

    #[test]
    fn overlapping_siblings_that_exceed_the_root_fail_reconciliation() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some("root"), 0, 60),
            span("b", Some("root"), 30, 100),
        ];
        let tree = Tree::build(&spans).unwrap();
        assert_eq!(tree.attributed(0), 130);
        assert!(reconcile(&tree, "root").is_err());
    }

    #[test]
    fn children_outside_their_parent_are_clipped() {
        // A server-side span can start a hair before the client's clock
        // read that opens its parent; only the overlap is attributed.
        let spans = [
            span("root", None, 0, 100),
            span("wait", Some("root"), 50, 100),
            span("server", Some("wait"), 45, 90),
        ];
        let tree = Tree::build(&spans).unwrap();
        assert_eq!(tree.self_time(1), 10);
        assert_eq!(tree.self_time(2), 45);
        assert_eq!(tree.attributed(0), 50);
        let r = reconcile(&tree, "root").unwrap();
        assert_eq!(r.attributed_ns, 50);
    }

    #[test]
    fn orphans_and_duplicates_are_instrumentation_errors() {
        assert!(Tree::build(&[span("a", Some("missing"), 0, 1)]).is_err());
        assert!(Tree::build(&[span("a", None, 0, 1), span("a", None, 2, 3)]).is_err());
    }
}
