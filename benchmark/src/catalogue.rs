//! Every metric the benchmark reports, by name and unit. `BENCHMARK.json`
//! at the repository root lists the same names; a test keeps them equal.

/// A metric's name, its unit and which way is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system would see; every untraced run reports all
/// of them.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("latency_p50_us", "us", "lower"),
    def("throughput_ops_s", "ops/s", "higher"),
    def("cpu_us_per_op", "us", "lower"),
    def("allocs_per_op", "count", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Single layers; every traced run reports all of them. Layers are the
/// crates; `bench` holds the harness's own health numbers.
pub const PER_LAYER: &[MetricDef] = &[
    def("rtxml.parse_us", "us", "lower"),
    def("core.parse_validate_us", "us", "lower"),
    def("core.build_start_us", "us", "lower"),
    def("core.pool_get_ns", "ns", "lower"),
    def("core.sync_deliver_ns", "ns", "lower"),
    def("core.async_send_ns", "ns", "lower"),
    def("core.shed_refusal_ns", "ns", "lower"),
    def("core.shed_low_share", "ratio", "lower"),
    def("core.shed_high_share", "ratio", "lower"),
    def("core.remote_send_us", "us", "lower"),
    def("core.remote_ingress_us", "us", "lower"),
    def("rtmem.scope_lease_ns", "ns", "lower"),
    def("rtmem.enter_ns", "ns", "lower"),
    def("rtsched.fifo_push_pop_ns", "ns", "lower"),
    def("rtsched.push_bounded_refuse_ns", "ns", "lower"),
    def("rtsched.pool_execute_us", "us", "lower"),
    def("rtsched.handoff_us", "us", "lower"),
    def("rtsched.parks_per_op", "count", "lower"),
    def("rtsched.spins_per_op", "count", "lower"),
    def("rtplatform.ring_push_pop_ns", "ns", "lower"),
    def("rtplatform.gate_wake_us", "us", "lower"),
    def("rtplatform.seg_lease_ns", "ns", "lower"),
    def("rtplatform.chain_build_64k_ns", "ns", "lower"),
    def("rtplatform.reassemble_64k_ns", "ns", "lower"),
    def("rtobs.record_ns", "ns", "lower"),
    def("rtobs.counter_inc_ns", "ns", "lower"),
    def("rtobs.tax_share", "ratio", "lower"),
    def("rtcorba.encode_req_64_ns", "ns", "lower"),
    def("rtcorba.encode_req_64k_ns", "ns", "lower"),
    def("rtcorba.decode_view_64_ns", "ns", "lower"),
    def("rtcorba.decode_view_64k_ns", "ns", "lower"),
    def("rtcorba.dispatch_view_ns", "ns", "lower"),
    def("rtcorba.server_ingress_us", "us", "lower"),
    def("rtcorba.servant_us", "us", "lower"),
    def("rtcorba.server_egress_us", "us", "lower"),
    def("rtcorba.client_pipeline_us", "us", "lower"),
    def("rtcorba.zen_rtt_us", "us", "lower"),
    def("bench.latency_p99_us", "us", "lower"),
    def("bench.gen_lag_p99_us", "us", "lower"),
    def("bench.trace_coverage", "ratio", "higher"),
    def("bench.trace_overhead_share", "ratio", "lower"),
    def("bench.split_latency_p50_us", "us", "lower"),
    def("bench.split_throughput_ops_s", "ops/s", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::report;
    use crate::workloads::NAMES;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for w in NAMES {
            assert!(well_formed(w), "{w}");
            assert!(seen.insert(w), "{w} collides with another name");
        }
    }

    /// `BENCHMARK.json` names exactly this catalogue and these workloads.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    assert_eq!(m.get("bound").is_some(), with_bound);
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end", true), ours(END_TO_END));
        assert_eq!(listed("per_layer", false), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, NAMES);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert_eq!(seconds, crate::RUN_SECONDS);
    }

    /// The bounds in `BENCHMARK.json` are the ones the committed
    /// calibration (`calibration.json`, a `noise.json` of `--calibrate`)
    /// gives by the one rule in `report`.
    #[test]
    fn benchmark_json_bounds_come_from_the_calibration() {
        let read = |path: &str| {
            json::parse(&std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}")))
                .unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let doc = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let calibration = read(concat!(env!("CARGO_MANIFEST_DIR"), "/calibration.json"));
        let pairs = report::read_noise_pairs(&calibration).expect("calibration.json reads back");
        let bounds = report::metric_bounds(
            pairs
                .into_iter()
                .map(|(metric, range, iqr)| (metric, report::bound_for(range, iqr))),
        );
        let listed = doc.get("end_to_end").and_then(Json::as_arr).expect("list");
        assert_eq!(listed.len(), bounds.len(), "every metric was calibrated");
        for m in listed {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(bound, bounds[name], "{name}");
            assert!(bound <= report::LARGEST_BOUND, "{name}");
        }
    }
}
