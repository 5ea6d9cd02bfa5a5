//! The repository's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! compadres-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! compadres-benchmark [--seed N] [--trace 1] [--quick] [--calibrate N] the whole set
//! ```

mod catalogue;
mod cpus;
mod json;
mod meter;
mod pacer;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use catalogue::{MetricDef, END_TO_END, PER_LAYER};
use pacer::now_ns;
use report::Report;
use workloads::orb_echo::Size;
use workloads::{
    local_async, local_overload, local_sync, orb_echo, remote_oneway, EndToEnd, Plan, Traced, NAMES,
};

#[global_allocator]
static ALLOC: meter::CountingAlloc = meter::CountingAlloc;

/// Seconds one run measures unless told otherwise; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: f64 = 15.0;
/// `--quick`: one second per phase, a smoke test of every check.
const QUICK_SECONDS: f64 = 2.4;
/// Fresh processes an untraced run sets the assembly up in before each
/// of its rounds, for `setup_s`.
const SETUPS_PER_ROUND: usize = 2;

/// Where the whole set writes `results.json` and `noise.json`, and a
/// traced run its Chrome traces: `out/` beside `Cargo.toml`.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Not for users: an untraced run re-executes itself with this flag
    /// for each repetition of `setup_s`. The child sets the workload's
    /// assembly up, prints how long after the start of `main` it was
    /// ready, in ns, and exits.
    setup_only: bool,
    calibrate: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: compadres-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      [--quick] [--calibrate [N]]\n\
         workloads: {}",
        NAMES.join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        setup_only: false,
        calibrate: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                let known = NAMES.iter().find(|n| **n == w);
                args.workload = Some(known.ok_or_else(|| format!("unknown workload {w:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=120.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0.5 and 120".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--quick" => args.seconds = QUICK_SECONDS,
            "--calibrate" => {
                let n = match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let n = v.parse().map_err(|e| format!("--calibrate: {e}"))?;
                        it.next();
                        n
                    }
                    _ => 5,
                };
                args.calibrate = Some(n);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Sets an assembly up — parse, validate, build, start, connect, first
/// verified op — and, unless only the set-up is wanted, runs the
/// workload on it. Returns the harness-clock time at which the set-up
/// was complete, and the run's result.
fn measured<R>(
    setup: impl FnOnce() -> R,
    run: impl FnOnce(&mut R) -> EndToEnd,
    setup_only: bool,
) -> (u64, Option<EndToEnd>) {
    let mut rig = setup();
    let ready_ns = now_ns();
    (ready_ns, (!setup_only).then(|| run(&mut rig)))
}

fn end_to_end(
    workload: &str,
    plan: &Plan,
    setup_only: bool,
    between_rounds: &mut dyn FnMut(),
) -> (u64, Option<EndToEnd>) {
    let seed = plan.seed;
    let slice = plan.paced_s.max(plan.warm_s);
    match workload {
        "local_sync" => measured(
            || local_sync::setup(seed, 0),
            |rig| local_sync::run(rig, plan, between_rounds),
            setup_only,
        ),
        "local_async" => {
            let ops = local_async::paced_ops(slice);
            measured(
                || local_async::setup(seed, ops, 0),
                |rig| local_async::run(rig, plan, between_rounds),
                setup_only,
            )
        }
        "local_overload" => {
            let ops = local_overload::high_ops(local_overload::pass_s(plan));
            measured(
                || local_overload::setup(seed, ops, 0),
                |rig| local_overload::run(rig, plan, between_rounds),
                setup_only,
            )
        }
        "remote_oneway" => {
            let ops = remote_oneway::paced_ops(slice);
            measured(
                || remote_oneway::setup(seed, ops, 0),
                |rig| remote_oneway::run(rig, plan, between_rounds),
                setup_only,
            )
        }
        orb => {
            let size = Size::of(orb);
            measured(
                || orb_echo::setup(seed, size, 0),
                |rig| orb_echo::run(rig, plan, between_rounds),
                setup_only,
            )
        }
    }
}

/// One repetition for `setup_s`: the time from the first line of `main`
/// to the first verified op in a fresh child process, in seconds.
/// A fresh process, because a second set-up in one process is not the
/// first: the allocator has the first one's memory to hand out again
/// (or has just returned it to the kernel), the dropped assembly's
/// threads are still winding down, and the figure then depends on how
/// long ago the last one was dropped.
fn cold_setup_s(args: &Args, workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(&exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--setup-only")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a set-up of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let ns: u64 = stdout
        .trim()
        .parse()
        .map_err(|e| format!("set-up of {workload} printed {stdout:?}: {e}"))?;
    Ok(ns as f64 / 1e9)
}

/// One traced pass of `workload` lasting about `secs`, with a stamp
/// table sized for the ops half of which it will trace.
fn traced_pass(workload: &str, seed: u64, secs: f64) -> Traced {
    let rows = |hz: u64| (secs * hz as f64 / 2.0) as usize + 256;
    match workload {
        "local_sync" => {
            let mut rig = local_sync::setup(seed, 40_000);
            local_sync::trace(&mut rig, secs)
        }
        "local_async" => {
            let ops = local_async::paced_ops(secs);
            let mut rig = local_async::setup(seed, ops, rows(local_async::PACED_HZ));
            local_async::trace(&mut rig, secs)
        }
        "local_overload" => {
            let ops = local_overload::high_ops(secs);
            let mut rig = local_overload::setup(seed, ops, ops / 2 + 256);
            local_overload::trace(&mut rig, secs)
        }
        "remote_oneway" => {
            let ops = remote_oneway::paced_ops(secs);
            let mut rig = remote_oneway::setup(seed, ops, rows(remote_oneway::PACED_HZ));
            remote_oneway::trace(&mut rig, secs)
        }
        orb => {
            let size = Size::of(orb);
            let mut rig = orb_echo::setup(seed, size, rows(size.paced_hz()));
            orb_echo::trace(&mut rig, secs)
        }
    }
}

fn print_checks(checks: &[(&'static str, bool)]) -> bool {
    for (what, ok) in checks {
        println!("# check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    checks.iter().all(|(_, ok)| *ok)
}

/// Pairs `defs` with `values`; a metric without a value is a bug in the
/// harness and fails the run.
fn collect(
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(String, f64, String)>, String> {
    defs.iter()
        .map(|d| match values.get(d.name) {
            Some(v) if v.is_finite() => Ok((d.name.to_string(), *v, d.unit.to_string())),
            Some(v) => Err(format!("{} is not a finite number ({v})", d.name)),
            None => Err(format!("{} was not measured", d.name)),
        })
        .collect()
}

/// One untraced run of one workload: the end-to-end metrics.
fn untraced(args: &Args, workload: &str) -> Result<Report, String> {
    let plan = Plan::for_seconds(args.seed, args.seconds);
    let (started_ns, stolen0) = (now_ns(), meter::stolen_s());
    let mut setups = Vec::with_capacity(plan.rounds * SETUPS_PER_ROUND);
    let mut setup_error = None;
    let (_, e2e) = end_to_end(workload, &plan, false, &mut || {
        for _ in 0..SETUPS_PER_ROUND {
            match cold_setup_s(args, workload) {
                Ok(secs) => setups.push(secs),
                Err(e) => setup_error = Some(e),
            }
        }
    });
    if let Some(e) = setup_error {
        return Err(e);
    }
    // Read beside every figure: on a quiet host this is a fraction of a
    // per cent; at several per cent the run measured the host.
    println!(
        "# note: the host stole {:.2} s of CPU time from this machine during the {:.1} s of the run",
        meter::stolen_s() - stolen0,
        (now_ns() - started_ns) as f64 / 1e9
    );
    let e2e = e2e.expect("the workload ran");
    let peak_rss_mb = meter::peak_rss_mib();
    let correct = print_checks(&e2e.checks);
    // The quietest window is what is reported (see `stats`); the median
    // window and every window are printed beside it, because a change
    // that slows only some windows shows there and nowhere else.
    let lat = &e2e.latency;
    let p50s: Vec<String> = lat.p50s.iter().map(|p| format!("{:.1}", p / 1e3)).collect();
    println!(
        "# note: latency p50 over {} windows, {} samples: best {:.3} us, median {:.3} us; each: {}",
        lat.p50s.len(),
        lat.samples,
        lat.p50 / 1e3,
        lat.median_p50 / 1e3,
        p50s.join(" ")
    );
    println!(
        "# note: latency p99 {:.3} us{} (too unsteady to be an end-to-end metric; a traced run \
         reports bench.latency_p99_us)",
        lat.p99 / 1e3,
        if lat.p99_supported {
            ""
        } else {
            ", from windows of under 1000 samples"
        }
    );
    e2e.saturation.note();
    e2e.cpu.note();
    // Spread over the whole run, so their median sees what the run saw.
    let setup_s = stats::median(&setups);
    let listed: Vec<String> = setups.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    println!(
        "# note: set-up in {} fresh processes: median {:.3} ms; each: {}",
        setups.len(),
        setup_s * 1e3,
        listed.join(" ")
    );
    println!(
        "# note: rtsched queues parked {:.4} and spun {:.4} times per op",
        e2e.transitions_per_op.0, e2e.transitions_per_op.1
    );
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("latency_p50_us", lat.p50 / 1e3),
        ("throughput_ops_s", e2e.saturation.rate_per_s()),
        ("cpu_us_per_op", e2e.cpu.us_per_op()),
        ("allocs_per_op", e2e.saturation.allocs_per_op()),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    Ok(Report {
        workload: workload.to_string(),
        traced: false,
        correct: correct && e2e.failed == 0,
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics: collect(END_TO_END, &values)?,
    })
}

/// Seconds a split pass measures: two rounds.
const SPLIT_SECONDS: f64 = 2.0;

/// A short untraced pass of `workload` with every generator thread on a
/// CPU of its own (see `cpus`): the cross-CPU regime the gated runs
/// leave out because it does not repeat on the reference box.
fn split_pass(args: &Args, workload: &str) -> Result<EndToEnd, String> {
    cpus::split_generators(true);
    let plan = Plan::for_seconds(args.seed, SPLIT_SECONDS);
    let (_, e2e) = end_to_end(workload, &plan, false, &mut || {});
    cpus::split_generators(false);
    let e2e = e2e.expect("the workload ran");
    if e2e.failed > 0 || !e2e.checks.iter().all(|(_, ok)| *ok) {
        println!("# split pass of {workload}:");
        print_checks(&e2e.checks);
        return Err(format!("the split pass of {workload} failed its checks"));
    }
    Ok(e2e)
}

/// The workload whose traced pass measures each per-layer metric that
/// comes from a pass and not from a micro-probe (`rtsched.*_per_op` and
/// `bench.*` are measured by every workload for itself).
const ORB_HOME: &str = "orb_echo_64";
const HOMES: [(&str, &[&str]); 5] = [
    ("local_sync", &["rtobs.tax_share"]),
    ("local_async", &["rtsched.handoff_us"]),
    (
        "local_overload",
        &["core.shed_low_share", "core.shed_high_share"],
    ),
    (
        "remote_oneway",
        &["core.remote_send_us", "core.remote_ingress_us"],
    ),
    (
        ORB_HOME,
        &[
            "rtcorba.server_ingress_us",
            "rtcorba.servant_us",
            "rtcorba.server_egress_us",
            "rtcorba.client_pipeline_us",
            "rtcorba.zen_rtt_us",
        ],
    ),
];

/// The traced run of the `selected` workloads, in this process: the
/// micro-probes once, then one traced pass per workload, each run once.
/// Every selected workload reports every per-layer metric: its own
/// pass's, the probes', and, for the spans its path does not touch, the
/// figure of the span's home workload (a short *reference pass* when
/// that workload is not selected itself), which the printed notes name.
fn traced(args: &Args, selected: &[&'static str]) -> Result<Vec<Report>, String> {
    let probes = probes::run(args.seconds * 0.2);
    // Both ORB sizes measure the ORB spans: a selected one stands in for
    // their home.
    let orb_home = selected
        .iter()
        .copied()
        .find(|w| w.starts_with("orb_"))
        .unwrap_or(ORB_HOME);
    let home_of = |home: &'static str, workload: &'static str| match home {
        ORB_HOME if workload.starts_with("orb_") => workload,
        ORB_HOME => orb_home,
        _ => home,
    };
    let mut passes: BTreeMap<&str, Traced> = BTreeMap::new();
    let homes = HOMES.iter().map(|(home, _)| home_of(home, ""));
    for workload in homes.chain(selected.iter().copied()) {
        if !passes.contains_key(workload) {
            let share = if selected.contains(&workload) {
                0.4
            } else {
                0.1
            };
            let pass = traced_pass(workload, args.seed, args.seconds * share);
            passes.insert(workload, pass);
        }
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut reports = Vec::with_capacity(selected.len());
    for &workload in selected {
        let own = &passes[workload];
        let mut values = probes.clone();
        for (home, names) in HOMES {
            let home = home_of(home, workload);
            if home == workload {
                continue;
            }
            let pass = &passes[home];
            if !pass.checks.iter().all(|(_, ok)| *ok) {
                println!("# reference pass of {home}:");
                print_checks(&pass.checks);
                return Err(format!("the reference pass of {home} failed its checks"));
            }
            println!(
                "# note: {workload} does not run these spans; from the pass of {home}: {}",
                names.join(" ")
            );
            values.extend(names.iter().filter_map(|n| pass.layer.get_key_value(n)));
        }
        values.extend(own.layer.iter().map(|(name, v)| (*name, *v)));
        let split = split_pass(args, workload)?;
        values.insert("bench.split_latency_p50_us", split.latency.p50 / 1e3);
        values.insert(
            "bench.split_throughput_ops_s",
            split.saturation.rate_per_s(),
        );
        let correct = print_checks(&own.checks);
        own.spans.print_table(workload);
        let path = Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
        std::fs::write(&path, own.spans.chrome_json(2_000).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
        reports.push(Report {
            workload: workload.to_string(),
            traced: true,
            correct: correct && own.failed == 0,
            attempted: own.attempted,
            failed: own.failed,
            metrics: collect(PER_LAYER, &values)?,
        });
    }
    Ok(reports)
}

/// Runs `workload` untraced in a fresh child process (so set-up time,
/// peak RSS and the allocation counts are its own) and parses its
/// result line.
fn child(args: &Args, workload: &str, seed: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Report::from_result_line(workload, false, &doc)
        .ok_or_else(|| format!("{workload}: malformed result line"))
}

/// Prints what is wrong with `report`, if anything is.
fn passed(report: &Report) -> bool {
    let mut ok = report.correct;
    if !ok {
        println!("# {}: FAILED its correctness checks", report.workload);
    }
    if let Some(cov) = report.value("bench.trace_coverage") {
        if !(0.9..=1.1).contains(&cov) {
            println!(
                "# {}: bench.trace_coverage {cov:.3} is outside 0.9-1.1",
                report.workload
            );
            ok = false;
        }
    }
    ok
}

/// Every workload untraced with `seed`, one child process each.
fn run_set(args: &Args, seed: u64) -> Result<Vec<Report>, String> {
    NAMES.iter().map(|w| child(args, w, seed)).collect()
}

fn write_json(name: &str, doc: &json::Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(())
}

fn whole_set(args: &Args) -> Result<bool, String> {
    let t0 = now_ns();
    // Not `all`: every failing report is to be printed.
    let all_passed = |reports: &[Report]| reports.iter().filter(|r| !passed(r)).count() == 0;
    let ok;
    if let Some(rounds) = args.calibrate {
        // Workloads interleaved (w1..w6, w1..w6, …) so slow drift of the
        // box lands in every pair's spread, not between pairs; a seed
        // per round, as the driver runs it.
        let mut all = Vec::new();
        for round in 0..rounds {
            println!("# calibration round {} of {rounds}", round + 1);
            all.extend(run_set(args, args.seed + round as u64)?);
        }
        ok = all_passed(&all);
        let noise = report::noise(&all);
        report::print_noise(&noise);
        write_json("noise.json", &report::noise_json(args.seed, rounds, &noise))?;
    } else {
        let mut reports = run_set(args, args.seed)?;
        if args.trace {
            cpus::enter_system();
            cpus::favour_this_process();
            for report in traced(args, &NAMES)? {
                report.print_lines();
                reports.push(report);
            }
        }
        ok = all_passed(&reports);
        write_json(
            "results.json",
            &report::results_json(args.seed, args.seconds, &reports),
        )?;
    }
    println!("# total wall time {:.1} s", (now_ns() - t0) as f64 / 1e9);
    Ok(ok)
}

fn main() -> ExitCode {
    now_ns(); // start the harness clock
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.workload.is_some() {
        // Pin before anything is built: every thread spawned from here
        // on inherits the placement (see `cpus`).
        cpus::enter_system();
        cpus::favour_this_process();
    }
    let outcome = match args.workload {
        Some(workload) if args.setup_only => {
            let plan = Plan::for_seconds(args.seed, args.seconds);
            let (ready_ns, _) = end_to_end(workload, &plan, true, &mut || {});
            println!("{ready_ns}");
            Ok(true)
        }
        Some(workload) => {
            println!("# placement: {}", cpus::describe());
            let report = if args.trace {
                traced(&args, &[workload]).map(|mut reports| reports.remove(0))
            } else {
                untraced(&args, workload)
            };
            report.map(|report| {
                report.print_lines();
                // The contract's last line: exactly these four keys.
                println!("{}", report.result_line().render());
                true
            })
        }
        None if args.setup_only => Err("--setup-only needs --workload".into()),
        None => whole_set(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "orb_echo_64k",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some("orb_echo_64k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let d = args(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, RUN_SECONDS, false));
        assert_eq!(d.workload, None, "no workload: the whole set");
        assert_eq!(args(&["--calibrate"]).unwrap().calibrate, Some(5));
        assert_eq!(
            args(&["--calibrate", "3", "--seed", "9"])
                .unwrap()
                .calibrate,
            Some(3)
        );
        assert_eq!(args(&["--quick"]).unwrap().seconds, QUICK_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--traced"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_set_up_alone_does_not_run_the_workload() {
        let result = || EndToEnd {
            attempted: 1,
            failed: 0,
            checks: Vec::new(),
            latency: stats::LatencySummary::over(&[stats::window_latency(&mut [1u64])]),
            saturation: workloads::Saturation::default(),
            cpu: workloads::SystemCpu::default(),
            transitions_per_op: (0.0, 0.0),
        };
        let before = now_ns();
        let (ready_ns, ran) = measured(|| 7u32, |_| unreachable!("set-up only"), true);
        assert!(ready_ns >= before && ran.is_none());
        let (_, ran) = measured(
            || 7u32,
            |rig| {
                assert_eq!(*rig, 7, "the run gets the assembly that was set up");
                result()
            },
            false,
        );
        assert_eq!(ran.map(|r| r.attempted), Some(1));
        assert!(args(&["--setup-only"]).unwrap().setup_only);
    }
}
