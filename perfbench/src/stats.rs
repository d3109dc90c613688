//! Order statistics and the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a timing sample: the highest percentile that still has
/// at least ten samples beyond it. For `n` samples that is the order
/// statistic with exactly ten larger samples, at percentile
/// `100·(n−10)/n`. Returns `(value, percentile)`, or `None` when fewer
/// than 11 samples exist (no percentile has ten beyond it).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let s = sorted(xs);
    let n = s.len();
    (n > BEYOND).then(|| (s[n - BEYOND - 1], 100.0 * (n - BEYOND) as f64 / n as f64))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One recorded span: a named interval on the benchmark thread and the
/// span that was open when it began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans around the benchmark's calls into each layer. Disabled
/// recorders keep nothing, so the untraced intervals pay two branches.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when recording is off).
#[must_use = "close the span with Spans::exit"]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children count once, and child
/// time outside the parent's interval is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let par = &spans[p];
            let (a, b) = (s.start_ns.max(par.start_ns), s.end_ns.min(par.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals of a span list: `(count, total ns, self ns)`.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span("interval", None, 0, 100),
            span("exec", Some(0), 10, 30),
            span("check", Some(0), 20, 50), // overlaps `exec` by 10
            span("inner", Some(1), 12, 18), // grandchild: only `exec` loses it
            span("late", Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 6, 30]);
        let l = ledger(&spans);
        assert_eq!(l["interval"], (1, 100, 50));
        assert_eq!(l["exec"], (1, 20, 14));
    }

    #[test]
    fn recorder_nests_and_stays_empty_when_disabled() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans().iter().all(|x| x.end_ns >= x.start_ns));
        let mut off = Spans::new(false);
        let o = off.enter("outer");
        off.exit(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn tail_is_the_order_statistic_with_ten_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((1.0, 100.0 / 11.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
