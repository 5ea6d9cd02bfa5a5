//! Spans recorded by the benchmark's own code around its calls into
//! each layer: a preallocated stamp table filled during the run, spans
//! assembled from it afterwards, a per-layer self-time table and a
//! Chrome-trace export. Nothing here allocates while ops are in flight.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;
use crate::pacer::now_ns;
use crate::stats::{median, percentile};

/// Row value carried by an op that is not being traced.
pub const UNTRACED: u32 = u32::MAX;

/// One row per traced op, one column per stamp point. Any thread may
/// stamp any cell; a cell still 0 was never reached.
pub struct Stamps {
    cols: usize,
    cells: Vec<AtomicU64>,
}

impl Stamps {
    pub fn new(rows: usize, cols: usize) -> Stamps {
        Stamps {
            cols,
            cells: (0..rows * cols).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn rows(&self) -> usize {
        self.cells.len() / self.cols
    }

    /// Stamps `col` of `row` with the current time. Rows beyond the
    /// table (and [`UNTRACED`]) are ignored, so callers need no branch.
    pub fn stamp(&self, row: u32, col: usize) {
        debug_assert!(col < self.cols);
        if let Some(cell) = self.cells.get(row as usize * self.cols + col) {
            // Relaxed: read back only after the stamping threads are done.
            cell.store(now_ns(), Ordering::Relaxed);
        }
    }

    /// One stamp; 0 if it was never reached.
    pub fn get(&self, row: usize, col: usize) -> u64 {
        self.cells[row * self.cols + col].load(Ordering::Relaxed)
    }

    /// The row's stamps, or `None` if any column was never reached.
    pub fn row(&self, row: usize) -> Option<Vec<u64>> {
        let cells = &self.cells[row * self.cols..(row + 1) * self.cols];
        let v: Vec<u64> = cells.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        v.iter().all(|&t| t != 0).then_some(v)
    }
}

/// One span: a named interval of one op, caused by `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same [`SpanSet`].
    pub parent: Option<usize>,
    /// Display lane (Chrome `tid`): 0 = caller, 1.. = other threads.
    pub lane: u32,
}

/// Per-name aggregate of a [`SpanSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub p50_ns: f64,
    pub self_p50_ns: f64,
    /// This name's share of all self time (the shares sum to 1).
    pub self_share: f64,
}

#[derive(Debug, Default)]
pub struct SpanSet {
    pub spans: Vec<Span>,
}

impl SpanSet {
    /// Adds a span and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            lane,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of it its
    /// child spans cover (overlapping children counted once, children
    /// clipped to the parent).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut edge) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    if b > edge {
                        covered += b - a.max(edge);
                        edge = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Median duration of the spans called `name`, in ns.
    pub fn p50_ns(&self, name: &str) -> Option<f64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if d.is_empty() {
            return None;
        }
        d.sort_unstable();
        Some(percentile(&d, 50.0) as f64)
    }

    /// The per-layer table, in order of first appearance.
    pub fn table(&self) -> Vec<LayerRow> {
        let selfs = self.self_times();
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                Default::default()
            });
            e.0.push((s.end_ns - s.start_ns) as f64);
            e.1.push(*own as f64);
        }
        let total: f64 = selfs.iter().map(|&x| x as f64).sum::<f64>().max(1.0);
        order
            .into_iter()
            .map(|name| {
                let (durs, owns) = &by_name[name];
                LayerRow {
                    name,
                    count: durs.len(),
                    p50_ns: median(durs),
                    self_p50_ns: median(owns),
                    self_share: owns.iter().sum::<f64>() / total,
                }
            })
            .collect()
    }

    /// Prints the self-time table under `title`.
    pub fn print_table(&self, title: &str) {
        println!("# self-time table: {title} (self = span minus what its children cover)");
        println!(
            "# {:<28} {:>8} {:>12} {:>12} {:>8}",
            "span", "count", "p50_us", "self_p50_us", "share"
        );
        for r in self.table() {
            println!(
                "# {:<28} {:>8} {:>12.3} {:>12.3} {:>7.1}%",
                r.name,
                r.count,
                r.p50_ns / 1e3,
                r.self_p50_ns / 1e3,
                r.self_share * 100.0
            );
        }
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) document of the first
    /// `max_ops` ops: complete events, µs timestamps, op id and parent
    /// span in `args`.
    pub fn chrome_json(&self, max_ops: u64) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op < max_ops)
            .map(|(i, s)| {
                let mut args = vec![("op", Json::Num(s.op as f64)), ("id", Json::Num(i as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Num(p as f64)));
                }
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::Str("ns".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let mut set = SpanSet::default();
        let root = set.push("root", 0, 100, 200, None, 0);
        let a = set.push("a", 0, 110, 150, Some(root), 0);
        set.push("b", 0, 140, 170, Some(root), 0); // overlaps a by 10
        set.push("late", 0, 190, 260, Some(root), 1); // sticks out by 60
        set.push("leaf", 0, 120, 130, Some(a), 0);
        let own = set.self_times();
        // root: 100 − (110..170 = 60) − (190..200 = 10) = 30
        assert_eq!(own, vec![30, 30, 30, 70, 10]);
    }

    #[test]
    fn table_shares_sum_to_one_and_keep_first_seen_order() {
        let mut set = SpanSet::default();
        for op in 0..10u64 {
            let t = op * 1000;
            let call = set.push("core.send_call", op, t, t + 100, None, 0);
            set.push("handler", op, t + 30, t + 70, Some(call), 0);
        }
        let rows = set.table();
        assert_eq!(rows[0].name, "core.send_call");
        assert_eq!(rows[1].name, "handler");
        assert_eq!(rows[0].self_p50_ns, 60.0);
        assert_eq!(rows[1].self_p50_ns, 40.0);
        assert_eq!(rows[0].p50_ns, 100.0);
        let total: f64 = rows.iter().map(|r| r.self_share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(set.p50_ns("handler"), Some(40.0));
        assert_eq!(set.p50_ns("nope"), None);
    }

    #[test]
    fn stamps_ignore_untraced_and_out_of_range_rows() {
        let st = Stamps::new(2, 3);
        st.stamp(UNTRACED, 0);
        st.stamp(2, 0);
        st.stamp(0, 0);
        st.stamp(0, 1);
        assert_eq!(st.row(0), None, "column 2 never reached");
        st.stamp(0, 2);
        let r = st.row(0).unwrap();
        assert!(r[0] <= r[1] && r[1] <= r[2] && r[0] > 0);
        assert_eq!(st.row(1), None);
    }

    #[test]
    fn chrome_export_limits_ops_and_parses_back() {
        let mut set = SpanSet::default();
        for op in 0..5u64 {
            let p = set.push("outer", op, op * 10, op * 10 + 8, None, 0);
            set.push("inner", op, op * 10 + 2, op * 10 + 4, Some(p), 1);
        }
        let doc = crate::json::parse(&set.chrome_json(2).render()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
