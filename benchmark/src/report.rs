//! Run reports: the result line, `results.json` (with its reader) and
//! the noise calibration written to `noise.json`, from which the bounds
//! in `BENCHMARK.json` are taken.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::median;

/// What one run of one workload reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Prints every metric as `workload metric value unit`.
    pub fn print_lines(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{} {name} {value} {unit}", self.workload);
        }
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.clone())),
                ]),
            )
        }))
    }

    /// The object a single run prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// Reads a result line back (metrics come back in name order).
    pub fn from_result_line(workload: &str, traced: bool, doc: &Json) -> Option<Report> {
        let Json::Obj(metrics) = doc.get("metrics")? else {
            return None;
        };
        Some(Report {
            workload: workload.to_string(),
            traced,
            correct: doc.get("correct")?.as_bool()?,
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Some((
                        name.clone(),
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }
}

/// The document written to `results.json`.
pub fn results_json(seed: u64, seconds: f64, reports: &[Report]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "runs",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        let Json::Obj(mut run) = r.result_line() else {
                            unreachable!("a result line is an object");
                        };
                        run.insert("workload".into(), Json::Str(r.workload.clone()));
                        run.insert("traced".into(), Json::Bool(r.traced));
                        Json::Obj(run)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Reads `results.json` back: `(seed, seconds, reports)`.
#[cfg(test)]
pub fn read_results(doc: &Json) -> Option<(u64, f64, Vec<Report>)> {
    let runs = doc
        .get("runs")?
        .as_arr()?
        .iter()
        .map(|run| {
            Report::from_result_line(
                run.get("workload")?.as_str()?,
                run.get("traced")?.as_bool()?,
                run,
            )
        })
        .collect::<Option<_>>()?;
    Some((
        doc.get("seed")?.as_f64()? as u64,
        doc.get("seconds")?.as_f64()?,
        runs,
    ))
}

/// Run-to-run spread of one (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Noise {
    pub metric: String,
    pub workload: String,
    pub unit: String,
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// (q3 − q1) ÷ median — what the driver holds against the bound.
    pub iqr_share: f64,
    /// (max − min) ÷ median.
    pub range_share: f64,
    /// The bound this pair needs, by [`bound_for`].
    pub bound: f64,
}

/// The driver accepts no bound above this.
pub const LARGEST_BOUND: f64 = 0.25;

/// The one rule a bound comes from: max(5 %, 1.5 × (max − min) ÷ median,
/// 3 × (q3 − q1) ÷ median), rounded up to a whole per cent and held to
/// the [`LARGEST_BOUND`] the driver accepts. The first two terms are the
/// issue's; the third is the driver's, which accepts a benchmark whose
/// quartile spread stays within the bound and asks for a third of it.
/// Where the cap bites, the bound is less than three spreads wide, and a
/// pair whose quartile spread alone exceeds it cannot be gated at all
/// ([`print_noise`] says so).
pub fn bound_for(range_share: f64, iqr_share: f64) -> f64 {
    let need = 0.05f64.max(1.5 * range_share).max(3.0 * iqr_share);
    // Rounded to a hundredth of a per cent first, so that 3 × 0.03 is 9 %.
    let whole = ((need * 1e4).round() / 100.0).ceil() / 100.0;
    whole.min(LARGEST_BOUND)
}

/// The bound `BENCHMARK.json` stores for each end-to-end metric — it
/// holds one per metric, not one per (metric, workload) pair: the
/// largest any of the metric's pairs needs. `setup_s` gets at least the
/// largest of the others: the driver wants it widest.
pub fn metric_bounds(pairs: impl IntoIterator<Item = (String, f64)>) -> BTreeMap<String, f64> {
    let mut bounds: BTreeMap<String, f64> = BTreeMap::new();
    for (metric, bound) in pairs {
        let b = bounds.entry(metric).or_insert(0.0);
        *b = b.max(bound);
    }
    let widest = bounds.values().copied().fold(0.0, f64::max);
    if let Some(setup) = bounds.get_mut("setup_s") {
        *setup = widest;
    }
    bounds
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive): position `k·(n+1)/4` in the sorted values, interpolated.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    (at(1), at(3))
}

/// Spread of every end-to-end (metric, workload) pair over the untraced
/// reports of a calibration.
pub fn noise(reports: &[Report]) -> Vec<Noise> {
    let mut series: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    for r in reports.iter().filter(|r| !r.traced) {
        for (name, value, unit) in &r.metrics {
            series
                .entry((name.clone(), r.workload.clone()))
                .or_insert_with(|| (unit.clone(), Vec::new()))
                .1
                .push(*value);
        }
    }
    series
        .into_iter()
        .map(|((metric, workload), (unit, values))| {
            let med = median(&values);
            let (q1, q3) = if values.len() >= 2 {
                quartiles(&values)
            } else {
                (med, med)
            };
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let scale = med.abs().max(f64::MIN_POSITIVE);
            let iqr_share = (q3 - q1) / scale;
            let range_share = (hi - lo) / scale;
            let bound = bound_for(range_share, iqr_share);
            Noise {
                metric,
                workload,
                unit,
                runs: values.len(),
                median: med,
                q1,
                q3,
                iqr_share,
                range_share,
                bound,
            }
        })
        .collect()
}

fn pair_bounds(noise: &[Noise]) -> impl Iterator<Item = (String, f64)> + '_ {
    noise.iter().map(|n| (n.metric.clone(), n.bound))
}

pub fn print_noise(noise: &[Noise]) {
    println!(
        "# {:<18} {:<16} {:>5} {:>14} {:>8} {:>8} {:>6}",
        "metric", "workload", "runs", "median", "iqr", "range", "bound"
    );
    for n in noise {
        println!(
            "# {:<18} {:<16} {:>5} {:>14.4} {:>7.1}% {:>7.1}% {:>5.0}%",
            n.metric,
            n.workload,
            n.runs,
            n.median,
            n.iqr_share * 100.0,
            n.range_share * 100.0,
            n.bound * 100.0
        );
    }
    for n in noise.iter().filter(|n| n.iqr_share > LARGEST_BOUND) {
        println!(
            "# {} on {} spreads by more than the largest bound: it cannot be an end-to-end metric",
            n.metric, n.workload
        );
    }
    for (metric, bound) in metric_bounds(pair_bounds(noise)) {
        println!("# bound of {metric}: {:.0}%", bound * 100.0);
    }
}

/// Reads the pairs of a `noise.json` back: `(metric, range share, IQR
/// share)` each.
#[cfg(test)]
pub fn read_noise_pairs(doc: &Json) -> Option<Vec<(String, f64, f64)>> {
    doc.get("pairs")?
        .as_arr()?
        .iter()
        .map(|p| {
            Some((
                p.get("metric")?.as_str()?.to_string(),
                p.get("range_share")?.as_f64()?,
                p.get("iqr_share")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn noise_json(seed: u64, rounds: usize, noise: &[Noise]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("rounds", Json::Num(rounds as f64)),
        (
            "bounds",
            Json::obj(
                metric_bounds(pair_bounds(noise))
                    .into_iter()
                    .map(|(metric, bound)| (metric, Json::Num(bound))),
            ),
        ),
        (
            "pairs",
            Json::Arr(
                noise
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("metric", Json::Str(n.metric.clone())),
                            ("workload", Json::Str(n.workload.clone())),
                            ("unit", Json::Str(n.unit.clone())),
                            ("runs", Json::Num(n.runs as f64)),
                            ("median", Json::Num(n.median)),
                            ("q1", Json::Num(n.q1)),
                            ("q3", Json::Num(n.q3)),
                            ("iqr_share", Json::Num(n.iqr_share)),
                            ("range_share", Json::Num(n.range_share)),
                            ("bound", Json::Num(n.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample(workload: &str, traced: bool, latency: f64) -> Report {
        Report {
            workload: workload.into(),
            traced,
            correct: true,
            attempted: 120_000,
            failed: 0,
            metrics: vec![
                ("latency_p50_us".into(), latency, "us".into()),
                ("setup_s".into(), 0.004_312_5, "s".into()),
            ],
        }
    }

    #[test]
    fn results_json_round_trips_through_the_reader() {
        let reports = vec![
            sample("local_sync", false, 1.2034),
            sample("orb_echo_64", true, 118.75),
        ];
        let text = results_json(3, 12.0, &reports).render();
        let (seed, seconds, back) = read_results(&json::parse(&text).unwrap()).unwrap();
        assert_eq!((seed, seconds), (3, 12.0));
        assert_eq!(back, reports);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = sample("local_sync", false, 1.5).result_line();
        let Json::Obj(map) = &line else {
            panic!("an object");
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let text = line.render();
        assert!(text.contains("\"attempted\": 120000"), "{text}");
        assert!(text.contains("\"value\": 0.0043125"), "all digits: {text}");
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn noise_bound_follows_the_rule() {
        let runs: Vec<Report> = [100.0, 101.0, 99.0, 100.0, 104.0]
            .iter()
            .map(|&l| sample("local_sync", false, l))
            .chain([sample("local_sync", true, 500.0)])
            .collect();
        let n = noise(&runs);
        let lat = n.iter().find(|n| n.metric == "latency_p50_us").unwrap();
        assert_eq!((lat.runs, lat.median), (5, 100.0));
        assert!((lat.range_share - 0.05).abs() < 1e-12);
        // 1.5 × 5 % = 7.5 %; 3 × IQR (3/100) = 9 % wins.
        assert_eq!((lat.q1, lat.q3), (99.5, 102.5));
        assert_eq!(lat.bound, 0.09);
        let setup = n.iter().find(|n| n.metric == "setup_s").unwrap();
        assert_eq!(setup.bound, 0.05, "a still metric gets the floor");
        // One bound per metric: the widest pair's, and set-up the widest.
        let mut pairs = n.clone();
        pairs.push(Noise {
            workload: "orb_echo_64".into(),
            bound: 0.12,
            ..lat.clone()
        });
        let bounds = metric_bounds(pair_bounds(&pairs));
        assert_eq!(bounds["latency_p50_us"], 0.12);
        assert_eq!(bounds["setup_s"], 0.12);
        assert_eq!(bound_for(0.1, 0.01), 0.15);
        assert_eq!(
            bound_for(0.2, 0.01),
            LARGEST_BOUND,
            "held to the driver's cap"
        );
    }
}
