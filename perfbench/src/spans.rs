//! The benchmark's own spans: one around every call it makes into a
//! layer, kept in memory and written out when the run ends. Nothing
//! inside the program is instrumented; a distributed call's compute
//! time is read from the run's own trace.

use distconv_trace::{RunTrace, SpanKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Which layer the call went into (`serve`, `core`, `conv`, …).
    pub layer: &'static str,
    /// The call, e.g. `run_network/expand`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or batch identifier (0 when the call serves none).
    pub id: u64,
}

/// In-memory span store. A disabled recorder still times calls but
/// keeps nothing, so traced and untraced runs share one code path.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span over `[start, end]`; returns its index (`None`
    /// when disabled).
    pub fn push(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as one call into `layer`; returns its result, its wall
    /// time and the span index.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration, Option<usize>) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let idx = self.push(layer, name, start, end, parent, id);
        (r, end - start, idx)
    }

    /// Open a span whose end is not known yet; close it with
    /// [`Recorder::close`].
    pub fn open(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.push(layer, name, now, now, parent, 0)
    }

    /// End an open span now.
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            let now = self.ns(Instant::now());
            self.spans[i].end_ns = now;
        }
    }

    /// Add a simulated run's compute sections as one `conv` child of
    /// `parent`, as long as their sum. On the event backend one rank
    /// runs at a time, so the sections never overlap and the sum is
    /// the time the parent spent in local kernels. Receive waits are
    /// not added: a parked rank's wait covers other ranks' work.
    pub fn add_compute_child(&mut self, parent: Option<usize>, trace: &RunTrace) {
        let Some(p) = parent else { return };
        let (start, end) = (self.spans[p].start_ns, self.spans[p].end_ns);
        let (sections, ns) = trace
            .per_rank
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.kind == SpanKind::Compute)
            .fold((0u64, 0u64), |(n, t), e| (n + 1, t + e.dur_ns));
        self.spans.push(Span {
            layer: "conv",
            name: format!("compute/{sections}-sections"),
            start_ns: start,
            end_ns: (start + ns).min(end),
            parent: Some(p),
            id: self.spans[p].id,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in milliseconds: each span's
    /// duration minus the part of it its children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            *out.entry(s.layer).or_insert(0.0) += own.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"i\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}{}",
                sp.layer,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.id,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
            s.push('\n');
        }
        s.push(']');
        s
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = cur {
                    total += cb - ca;
                }
                cur = Some((a, b));
            }
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)], 0, 100), 20);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut r = Recorder::new(true);
        let t0 = r.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = r.push("core", "call", at(0), at(100), None, 1);
        r.push("conv", "a", at(10), at(40), parent, 1);
        r.push("conv", "b", at(30), at(50), parent, 1);
        let by = r.self_ms_by_layer();
        assert_eq!(by["core"], 60.0);
        // Siblings may overlap; each keeps its own self time.
        assert_eq!(by["conv"], 50.0);
        assert!(Recorder::new(false)
            .push("core", "x", at(0), at(1), None, 0)
            .is_none());
    }
}
