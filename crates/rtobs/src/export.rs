//! Text exporters: Prometheus-style exposition, a human-readable
//! report, a rendered flight-recorder trace, and the cold-path span
//! reconstructor ([`SpanForest`]) that stitches journal entries into
//! causal trees with per-hop queue-wait/run splits and deadline-budget
//! accounting. All of these are cold read paths and may allocate
//! freely.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{Event, EventKind, Observer, SpanCtx};

impl Observer {
    /// Prometheus-style exposition of every registered metric.
    ///
    /// Counters export as `name value`; gauges as `name` plus
    /// `name_hwm`; histograms as `name_count`, `name_sum`,
    /// `name{quantile="0.5"|"0.99"}`, and `name_max`.
    pub fn metrics_text(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        self.registry().for_each(
            |name, v| {
                let _ = writeln!(counters, "# TYPE {name} counter\n{name} {v}");
            },
            |name, v, hwm| {
                let _ = writeln!(gauges, "# TYPE {name} gauge\n{name} {v}\n{name}_hwm {hwm}");
            },
            |name, s| {
                let _ = writeln!(
                    hists,
                    "# TYPE {name} summary\n\
                     {name}_count {}\n\
                     {name}_sum {}\n\
                     {name}{{quantile=\"0.5\"}} {}\n\
                     {name}{{quantile=\"0.99\"}} {}\n\
                     {name}_max {}",
                    s.count, s.sum, s.p50, s.p99, s.max
                );
            },
        );
        let mut out = counters;
        out.push_str(&gauges);
        out.push_str(&hists);
        let _ = writeln!(
            out,
            "# TYPE rtobs_journal_recorded counter\nrtobs_journal_recorded {}",
            self.journal().recorded()
        );
        let _ = writeln!(
            out,
            "# TYPE rtobs_journal_dropped counter\nrtobs_journal_dropped {}",
            self.journal().dropped()
        );
        out
    }

    /// Human-readable summary of every registered metric — the
    /// replacement for the old ad-hoc `memory_report` string.
    pub fn report(&self) -> String {
        let mut out = String::from("== observer report ==\n");
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        self.registry().for_each(
            |name, v| {
                let _ = writeln!(counters, "  {name:<44} {v}");
            },
            |name, v, hwm| {
                let _ = writeln!(gauges, "  {name:<44} {v} (hwm {hwm})");
            },
            |name, s| {
                let _ = writeln!(
                    hists,
                    "  {name:<44} n={} p50={}ns p99={}ns max={}ns mean={}ns",
                    s.count,
                    s.p50,
                    s.p99,
                    s.max,
                    s.mean()
                );
            },
        );
        if !counters.is_empty() {
            out.push_str("counters:\n");
            out.push_str(&counters);
        }
        if !gauges.is_empty() {
            out.push_str("gauges:\n");
            out.push_str(&gauges);
        }
        if !hists.is_empty() {
            out.push_str("histograms:\n");
            out.push_str(&hists);
        }
        let _ = writeln!(
            out,
            "journal: {} recorded, {} dropped, capacity {}",
            self.journal().recorded(),
            self.journal().dropped(),
            self.journal().capacity()
        );
        out
    }

    /// Renders the newest `n` flight-recorder events in strict
    /// sequence-number order (oldest first), prefixed by a header
    /// stating how much of the record survives: total recorded, how
    /// many are shown, and the drop count. A lapped ring therefore
    /// never interleaves old and new entries, and a seq gap between
    /// adjacent lines is called out explicitly.
    pub fn trace_text(&self, n: usize) -> String {
        let events = self.events(); // snapshot() sorts by seq
        let skip = events.len().saturating_sub(n);
        let shown = &events[skip..];
        let mut out = format!(
            "== trace tail: showing {} of {} recorded ({} dropped) ==\n",
            shown.len(),
            self.journal().recorded(),
            self.journal().dropped()
        );
        let mut prev_seq: Option<u64> = None;
        for e in shown {
            if let Some(p) = prev_seq {
                if e.seq > p + 1 {
                    let _ = writeln!(out, "  ... {} event(s) overwritten ...", e.seq - p - 1);
                }
            }
            prev_seq = Some(e.seq);
            // Scope events carry a raw region index, not an entity id.
            let subject = match e.kind {
                EventKind::ScopeEnter | EventKind::ScopeExit | EventKind::ScopeReclaim => {
                    format!("region:{}", e.subject)
                }
                _ => self.entity_name(e.subject),
            };
            let payload = match e.kind {
                EventKind::PortDequeue | EventKind::GiopReply => format!("{}ns", e.payload),
                EventKind::SpanEnd => format!("left={}ns", fmt_budget(e.payload as i64)),
                _ => e.payload.to_string(),
            };
            let span = if e.span != 0 {
                let s = SpanCtx::unpack(e.span);
                format!("  T{:08x}/S{}<-{}", s.trace_id, s.span_id, s.parent)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "[{:>12}ns] #{:<6} {:<16} {:<28} {payload}{span}",
                e.t_ns,
                e.seq,
                e.kind.label(),
                subject
            );
        }
        out
    }
}

/// Budget word → human string: `i64::MIN` is "no deadline".
fn fmt_budget(b: i64) -> String {
    if b == i64::MIN {
        "-".to_string()
    } else {
        b.to_string()
    }
}

/// Nanoseconds → compact human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One reconstructed hop of a trace.
///
/// Fields are optional because the flight recorder is a lossy ring: a
/// span may surface with only its end event (enqueue overwritten) or
/// only its admission (still in flight).
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Index into [`SpanForest::sources`] — which journal this hop was
    /// recorded in (client process vs. server process, say).
    pub source: usize,
    /// The trace this hop belongs to.
    pub trace_id: u32,
    /// This hop's span id.
    pub span_id: u16,
    /// The causing hop's span id (`0` = root).
    pub parent: u16,
    /// Entity the hop ran at (port, operation, link), if known.
    pub entity: String,
    /// Admission time (local to `source`'s epoch), if recorded.
    pub start_ns: Option<u64>,
    /// Queue wait before a worker picked the hop up; `None` for
    /// sync-dispatched hops (wait ~0) or if the event was lost.
    pub wait_ns: Option<u64>,
    /// Completion time (local to `source`'s epoch), if recorded.
    pub end_ns: Option<u64>,
    /// Deadline budget left at completion (negative = overrun);
    /// `None` if unfinished or the span carried no deadline.
    pub budget_left_ns: Option<i64>,
    /// Budget granted to a remote peer, if this hop crossed a link.
    pub remote_budget_ns: Option<u64>,
    /// Fault events (retries, sheds, drops, panics, deadline misses)
    /// attributed to this hop, plus its remote hand-offs. The hop's own
    /// lifecycle is structure, not notes.
    pub notes: Vec<String>,
    /// Indexes of child hops within the forest.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// Total observed duration: end − start when both are known.
    pub fn duration_ns(&self) -> Option<u64> {
        match (self.start_ns, self.end_ns) {
            (Some(s), Some(e)) => Some(e.saturating_sub(s)),
            _ => None,
        }
    }

    /// Handler-run share of the duration (duration minus queue wait).
    pub fn run_ns(&self) -> Option<u64> {
        self.duration_ns()
            .map(|d| d.saturating_sub(self.wait_ns.unwrap_or(0)))
    }

    /// Whether this hop finished past its deadline.
    pub fn overrun(&self) -> bool {
        matches!(self.budget_left_ns, Some(b) if b < 0)
    }
}

/// A forest of reconstructed spans, stitched from one or more journals
/// (cold path — the hot path only ever appends journal words).
///
/// Multi-journal stitching keys spans by `(source, trace_id, span_id)`
/// and resolves parents same-source first, then across sources sharing
/// the `trace_id` — which is exactly how a client-side ORB span links
/// to the server-side handler span it caused.
#[derive(Debug, Default)]
pub struct SpanForest {
    /// Human labels for the stitched journals ("client", "server", …).
    pub sources: Vec<String>,
    nodes: Vec<SpanNode>,
    /// Root node indexes, in first-seen order.
    roots: Vec<usize>,
}

impl SpanForest {
    /// Builds the forest from a single observer's journal.
    pub fn from_observer(obs: &Observer) -> SpanForest {
        SpanForest::from_journals(&[("local", obs)])
    }

    /// Builds the forest by stitching several observers' journals, each
    /// labelled with a node name. Timestamps stay local to each source
    /// (epochs are never compared across sources); causality comes from
    /// the `(trace_id, parent)` links carried on the wire.
    pub fn from_journals(parts: &[(&str, &Observer)]) -> SpanForest {
        let mut forest = SpanForest::default();
        let mut index: HashMap<(usize, u32, u16), usize> = HashMap::new();

        for (source, (label, obs)) in parts.iter().enumerate() {
            forest.sources.push((*label).to_string());
            for e in obs.events() {
                if e.span == 0 {
                    continue;
                }
                let ctx = SpanCtx::unpack(e.span);
                let idx = *index
                    .entry((source, ctx.trace_id, ctx.span_id))
                    .or_insert_with(|| {
                        forest.nodes.push(SpanNode {
                            source,
                            trace_id: ctx.trace_id,
                            span_id: ctx.span_id,
                            parent: ctx.parent,
                            entity: String::new(),
                            start_ns: None,
                            wait_ns: None,
                            end_ns: None,
                            budget_left_ns: None,
                            remote_budget_ns: None,
                            notes: Vec::new(),
                            children: Vec::new(),
                        });
                        forest.nodes.len() - 1
                    });
                forest.apply(idx, &e, obs);
            }
        }

        forest.link(&index);
        forest
    }

    fn apply(&mut self, idx: usize, e: &Event, obs: &Observer) {
        let node = &mut self.nodes[idx];
        match e.kind {
            EventKind::PortEnqueue | EventKind::GiopRequest => {
                node.start_ns = Some(e.t_ns);
                node.entity = obs.entity_name(e.subject);
            }
            EventKind::PortDequeue => node.wait_ns = Some(e.payload),
            EventKind::SpanEnd => {
                node.end_ns = Some(e.t_ns);
                if node.entity.is_empty() {
                    node.entity = obs.entity_name(e.subject);
                }
                let left = e.payload as i64;
                if left != i64::MIN {
                    node.budget_left_ns = Some(left);
                }
            }
            EventKind::SpanRemoteSend => {
                node.remote_budget_ns = Some(e.payload);
                node.notes
                    .push(format!("sent remote, granted {}", fmt_ns(e.payload)));
            }
            EventKind::SpanRemoteRecv => {
                if node.entity.is_empty() {
                    node.entity = obs.entity_name(e.subject);
                }
                node.start_ns.get_or_insert(e.t_ns);
                node.notes
                    .push(format!("adopted remote, budget {}", fmt_ns(e.payload)));
            }
            // Lifecycle edges already shaped the node (or belong to a
            // scope or pool, not to the hop).
            EventKind::HandlerStart
            | EventKind::GiopReply
            | EventKind::ScopeEnter
            | EventKind::ScopeExit
            | EventKind::ScopeReclaim
            | EventKind::PoolAcquire
            | EventKind::PoolRelease => {}
            // Any other event stamped with this span context becomes an
            // annotation: this is how fault-layer retries and sheds stay
            // attributable to the invocation that suffered them.
            other => node
                .notes
                .push(format!("{} @{}", other.label(), obs.entity_name(e.subject))),
        }
    }

    /// Resolves parent links: same source first, then any source
    /// sharing the trace id (the cross-process case).
    fn link(&mut self, index: &HashMap<(usize, u32, u16), usize>) {
        let n = self.nodes.len();
        for i in 0..n {
            let (source, trace, parent) = (
                self.nodes[i].source,
                self.nodes[i].trace_id,
                self.nodes[i].parent,
            );
            let parent_idx = if parent == 0 {
                None
            } else if let Some(&p) = index.get(&(source, trace, parent)) {
                Some(p)
            } else {
                (0..self.sources.len())
                    .filter(|&s| s != source)
                    .find_map(|s| index.get(&(s, trace, parent)).copied())
            };
            match parent_idx {
                Some(p) if p != i => self.nodes[p].children.push(i),
                _ => self.roots.push(i),
            }
        }
    }

    /// The reconstructed hops.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Whether no traced activity was found.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Trace ids that contain at least one overrun hop.
    pub fn overrun_traces(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .nodes
            .iter()
            .filter(|n| n.overrun())
            .map(|n| n.trace_id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Critical path of one trace: the root-to-leaf chain maximizing
    /// cumulative observed duration. Returns node indexes, root first.
    pub fn critical_path(&self, trace_id: u32) -> Vec<usize> {
        let mut best: (u64, Vec<usize>) = (0, Vec::new());
        for &r in &self.roots {
            if self.nodes[r].trace_id != trace_id {
                continue;
            }
            let mut path = Vec::new();
            self.walk_critical(r, 0, &mut path, &mut best);
        }
        best.1
    }

    fn walk_critical(
        &self,
        i: usize,
        cost: u64,
        path: &mut Vec<usize>,
        best: &mut (u64, Vec<usize>),
    ) {
        path.push(i);
        let cost = cost + self.nodes[i].duration_ns().unwrap_or(0);
        if self.nodes[i].children.is_empty() {
            if cost >= best.0 {
                *best = (cost, path.clone());
            }
        } else {
            for &c in &self.nodes[i].children {
                self.walk_critical(c, cost, path, best);
            }
        }
        path.pop();
    }

    /// Time a hop spent in its own handler: observed duration minus the
    /// durations of its child hops. With synchronous dispatch a parent's
    /// duration *contains* its children's, so raw duration would always
    /// blame the outermost hop; self time isolates each hop's share.
    /// (Durations are clock-free intervals, so subtracting a remote
    /// child's duration from a local parent's is sound.)
    pub fn self_ns(&self, i: usize) -> u64 {
        let d = self.nodes[i].duration_ns().unwrap_or(0);
        let kids: u64 = self.nodes[i]
            .children
            .iter()
            .map(|&c| self.nodes[c].duration_ns().unwrap_or(0))
            .sum();
        d.saturating_sub(kids)
    }

    /// On the critical path of `trace_id`, the hop that consumed the
    /// largest share of the trace's time (by [`SpanForest::self_ns`]) —
    /// the first place to look when the trace overran its deadline.
    pub fn dominant_hop(&self, trace_id: u32) -> Option<usize> {
        self.critical_path(trace_id)
            .into_iter()
            .max_by_key(|&i| self.self_ns(i))
    }

    /// Renders the forest as an indented human-readable tree, one
    /// trace at a time, with per-hop wait/run splits, budget remaining
    /// and an `OVERRUN` flag naming the dominant hop.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "== span forest: no traced activity ==\n".to_string();
        }
        let mut traces: Vec<u32> = self.roots.iter().map(|&r| self.nodes[r].trace_id).collect();
        traces.dedup();
        let mut out = format!(
            "== span forest: {} span(s) across {} source(s) ==\n",
            self.nodes.len(),
            self.sources.len()
        );
        let mut seen: Vec<u32> = Vec::new();
        for t in traces {
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            self.render_trace_into(t, &mut out);
        }
        out
    }

    /// Renders one trace's tree in the same format as
    /// [`SpanForest::render`] — the per-trace view for logs that only
    /// care about a single invocation.
    pub fn render_trace(&self, trace_id: u32) -> String {
        if !self
            .roots
            .iter()
            .any(|&r| self.nodes[r].trace_id == trace_id)
        {
            return format!("trace {trace_id:08x}: no spans recorded\n");
        }
        let mut out = String::new();
        self.render_trace_into(trace_id, &mut out);
        out
    }

    fn render_trace_into(&self, t: u32, out: &mut String) {
        let overrun = self.overrun_traces().contains(&t);
        let _ = write!(out, "trace {t:08x}");
        if overrun {
            if let Some(d) = self.dominant_hop(t) {
                let n = &self.nodes[d];
                let _ = write!(
                    out,
                    " OVERRUN — dominant hop {} [{}] ({})",
                    n.entity,
                    self.sources[n.source],
                    fmt_ns(self.self_ns(d))
                );
            } else {
                let _ = write!(out, " OVERRUN");
            }
        }
        out.push('\n');
        for &r in &self.roots {
            if self.nodes[r].trace_id == t {
                self.render_node(r, 1, out);
            }
        }
    }

    fn render_node(&self, i: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[i];
        let indent = "  ".repeat(depth);
        let entity = if n.entity.is_empty() { "?" } else { &n.entity };
        let _ = write!(
            out,
            "{indent}{entity} [{}] span {}",
            self.sources[n.source], n.span_id
        );
        if let Some(w) = n.wait_ns {
            let _ = write!(out, " wait={}", fmt_ns(w));
        }
        if let Some(r) = n.run_ns() {
            let _ = write!(out, " run={}", fmt_ns(r));
        }
        if let Some(b) = n.budget_left_ns {
            if b < 0 {
                let _ = write!(out, " left=-{} OVERRUN", fmt_ns(b.unsigned_abs()));
            } else {
                let _ = write!(out, " left={}", fmt_ns(b as u64));
            }
        }
        for note in &n.notes {
            let _ = write!(out, " ({note})");
        }
        out.push('\n');
        for &c in &n.children {
            self.render_node(c, depth + 1, out);
        }
    }

    /// Emits chrome-trace (`traceEvents`) JSON: one complete event per
    /// finished hop, `pid` = source, `tid` = trace id, timestamps in
    /// microseconds local to each source's epoch.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for n in &self.nodes {
            let (Some(start), Some(dur)) = (n.start_ns, n.duration_ns()) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\
                 \"wait_ns\":{},\"budget_left_ns\":{}}}}}",
                json_string(if n.entity.is_empty() { "?" } else { &n.entity }),
                start / 1_000,
                (dur / 1_000).max(1),
                n.source,
                n.trace_id,
                n.trace_id,
                n.span_id,
                n.parent,
                n.wait_ns.unwrap_or(0),
                n.budget_left_ns.unwrap_or(0),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, Observer};

    #[test]
    fn metrics_text_has_all_kinds() {
        let obs = Observer::new();
        let c = obs.counter("demo_total");
        obs.add(c, 7);
        let g = obs.gauge("demo_depth");
        obs.gauge_add(g, 3);
        let h = obs.histogram("demo_lat_ns");
        obs.observe(h, 1000);
        obs.observe(h, 2000);
        let text = obs.metrics_text();
        assert!(text.contains("demo_total 7"));
        assert!(text.contains("demo_depth 3"));
        assert!(text.contains("demo_depth_hwm 3"));
        assert!(text.contains("demo_lat_ns_count 2"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("rtobs_journal_recorded"));
    }

    #[test]
    fn trace_renders_entity_names() {
        let obs = Observer::new();
        let port = obs.register_entity("station.acq.readings");
        obs.record(EventKind::PortEnqueue, port, 5);
        obs.record(EventKind::PortDequeue, port, 1234);
        let trace = obs.trace_text(10);
        assert!(trace.contains("port.enqueue"));
        assert!(trace.contains("station.acq.readings"));
        assert!(trace.contains("1234ns"));
    }

    #[test]
    fn report_mentions_journal() {
        let obs = Observer::new();
        assert!(obs.report().contains("journal:"));
    }

    #[test]
    fn trace_text_header_counts_shown_and_dropped() {
        let obs = Observer::new();
        let port = obs.register_entity("p.in");
        for i in 0..5 {
            obs.record(EventKind::PortEnqueue, port, i);
        }
        let trace = obs.trace_text(3);
        assert!(
            trace.starts_with("== trace tail: showing 3 of 5 recorded (0 dropped) =="),
            "got header: {}",
            trace.lines().next().unwrap_or("")
        );
    }

    #[test]
    fn trace_text_is_strictly_seq_ordered_after_lap() {
        // A tiny journal lapped several times: the rendered tail must
        // come out in strictly increasing seq order, never interleaved
        // ring order.
        let obs = Observer::with_capacity(8, 8, 8, 8);
        let port = obs.register_entity("p.in");
        for i in 0..37 {
            obs.record(EventKind::PortEnqueue, port, i);
        }
        let trace = obs.trace_text(100);
        let seqs: Vec<u64> = trace
            .lines()
            .filter_map(|l| l.split('#').nth(1))
            .filter_map(|r| r.split_whitespace().next())
            .filter_map(|s| s.parse().ok())
            .collect();
        assert_eq!(seqs.len(), 8, "full ring rendered");
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "seq order violated: {seqs:?}");
        }
        assert!(trace.contains("of 37 recorded"));
    }

    #[test]
    fn span_forest_builds_tree_with_budget_accounting() {
        let obs = Observer::new();
        let port_a = obs.register_entity("a.in");
        let port_b = obs.register_entity("b.in");

        let root = obs.new_trace(Some(1_000_000));
        obs.record_span(EventKind::PortEnqueue, port_a, 20, root);
        obs.record_span(EventKind::HandlerStart, port_a, 20, root);
        let child = obs.child_span(root);
        obs.record_span(EventKind::PortEnqueue, port_b, 20, child);
        obs.record_span(EventKind::PortDequeue, port_b, 250, child);
        obs.record_span(EventKind::HandlerStart, port_b, 20, child);
        obs.record_span(EventKind::SpanEnd, port_b, 400_000u64, child);
        // Root overruns its budget.
        obs.record_span(EventKind::SpanEnd, port_a, (-5_000i64) as u64, root);

        let forest = crate::SpanForest::from_observer(&obs);
        assert_eq!(forest.nodes().len(), 2);
        let rn = forest
            .nodes()
            .iter()
            .find(|n| n.span_id == root.span_id)
            .unwrap();
        let cn = forest
            .nodes()
            .iter()
            .find(|n| n.span_id == child.span_id)
            .unwrap();
        assert!(rn.overrun());
        assert!(!cn.overrun());
        assert_eq!(cn.parent, root.span_id);
        assert_eq!(cn.wait_ns, Some(250));
        assert_eq!(cn.entity, "b.in");
        assert!(
            rn.notes.is_empty() && cn.notes.is_empty(),
            "lifecycle edges are not notes"
        );
        assert_eq!(forest.overrun_traces(), vec![root.trace_id]);
        let path = forest.critical_path(root.trace_id);
        assert_eq!(path.len(), 2, "root -> child critical path");

        let tree = forest.render();
        assert!(tree.contains("OVERRUN"), "tree flags the overrun:\n{tree}");
        assert!(tree.contains("a.in"));
        assert!(tree.contains("b.in"));
        assert!(tree.contains("wait=250ns"));

        let json = forest.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn span_forest_stitches_across_journals() {
        // Client and server observers with different epochs; the server
        // hop adopts the client span id as its parent — the stitched
        // forest must parent it under the client node.
        let client = Observer::new();
        let server = Observer::new();
        let op = client.register_entity("giop:echo");
        let poa = server.register_entity("ThePoa.Incoming");

        let root = client.new_trace(Some(2_000_000));
        client.record_at(EventKind::GiopRequest, op, 1, client.now_ns(), root);
        client.record_span(EventKind::SpanRemoteSend, op, 1_500_000, root);

        let adopted = server.adopt_remote(root.trace_id, root.span_id, 1_500_000);
        server.record_span(EventKind::SpanRemoteRecv, poa, 1_500_000, adopted);
        server.record_span(EventKind::SpanEnd, poa, 900_000u64, adopted);

        client.record_span(EventKind::SpanEnd, op, 300_000u64, root);

        let forest = crate::SpanForest::from_journals(&[("client", &client), ("server", &server)]);
        assert_eq!(forest.nodes().len(), 2);
        let rn = forest
            .nodes()
            .iter()
            .position(|n| n.span_id == root.span_id)
            .unwrap();
        let sn = forest
            .nodes()
            .iter()
            .find(|n| n.span_id == adopted.span_id)
            .unwrap();
        assert_eq!(sn.parent, root.span_id, "server hop parents to client span");
        let client_root = &forest.nodes()[rn];
        assert_eq!(
            client_root.entity, "giop:echo",
            "GIOP request names the root"
        );
        assert!(client_root.duration_ns().is_some(), "request to end timed");
        assert!(
            forest.nodes()[rn].children.contains(
                &forest
                    .nodes()
                    .iter()
                    .position(|n| n.span_id == adopted.span_id)
                    .unwrap()
            ),
            "cross-source link resolved"
        );
        let tree = forest.render();
        assert!(tree.contains("[client]"));
        assert!(tree.contains("[server]"));
    }
}
