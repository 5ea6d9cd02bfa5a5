//! rtcheck CLI: differential conformance sweeps and linearizability
//! sweeps, either over a deterministic seed range (tier 1) or
//! time-boxed over random seeds (tier 2). Every failure prints the
//! reproducing seed.
//!
//! ```text
//! rtcheck diff   --seed 1000 --cases 10000    # seeds 1000..11000
//! rtcheck diff   --seed 42 --sweep-secs 60    # randomized, 60 s box
//! rtcheck lin    --seed 7 --rounds 100        # ring/buffer/fifo/pool/segpool
//! rtcheck lin    --seed 7 --sweep-secs 60
//! rtcheck member --seed 0 --cases 500         # membership/failover spec
//! rtcheck shard  --seed 0 --cases 500         # shard-map properties
//! ```

use std::time::{Duration, Instant};

use rtcheck::lin;
use rtcheck::record;
use rtcheck::spec::{BoundedFifoSpec, PriorityFifoSpec};
use rtplatform::rng::SplitMix64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut seed: u64 = 0xC0FFEE;
    let mut cases: u64 = 2_000;
    let mut rounds: u64 = 50;
    let mut sweep_secs: Option<u64> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "diff" | "lin" | "member" | "shard" => cmd = Some(a.clone()),
            "--seed" => seed = parse(it.next(), "--seed"),
            "--cases" => cases = parse(it.next(), "--cases"),
            "--rounds" => rounds = parse(it.next(), "--rounds"),
            "--sweep-secs" => sweep_secs = Some(parse(it.next(), "--sweep-secs")),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    match cmd.as_deref() {
        Some("diff") => diff(seed, cases, sweep_secs),
        Some("lin") => lin_sweep(seed, rounds, sweep_secs),
        Some("member") => seeded_sweep(
            "member",
            "membership histories checked (simulated legal + mutated illegal)",
            rtcheck::membership::check_seed,
            seed,
            cases,
            sweep_secs,
        ),
        Some("shard") => seeded_sweep(
            "shard",
            "shard-map rounds checked (routing, coverage, minimal movement)",
            rtcheck::shardmap::check_seed,
            seed,
            cases,
            sweep_secs,
        ),
        _ => usage("expected a command: diff | lin | member | shard"),
    }
}

fn parse(v: Option<&String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn usage(msg: &str) -> ! {
    eprintln!("rtcheck: {msg}");
    eprintln!("usage: rtcheck diff   [--seed S] [--cases N | --sweep-secs T]");
    eprintln!("       rtcheck lin    [--seed S] [--rounds N | --sweep-secs T]");
    eprintln!("       rtcheck member [--seed S] [--cases N | --sweep-secs T]");
    eprintln!("       rtcheck shard  [--seed S] [--cases N | --sweep-secs T]");
    std::process::exit(2);
}

/// Differential conformance: generated assemblies through validator,
/// oracle, compiler renders and the write/parse round trip.
fn diff(seed: u64, cases: u64, sweep_secs: Option<u64>) {
    let started = Instant::now();
    let mut checked: u64 = 0;
    let mut accepted: u64 = 0;
    let mut derive = SplitMix64::new(seed);
    loop {
        let case_seed = match sweep_secs {
            None if checked == cases => break,
            None => seed + checked,
            Some(secs) if started.elapsed() >= Duration::from_secs(secs) => break,
            Some(_) => derive.next_u64(),
        };
        match rtcheck::diff::run_seed(case_seed) {
            Ok(true) => accepted += 1,
            Ok(false) => {}
            Err(counterexample) => {
                eprintln!("{counterexample}");
                std::process::exit(1);
            }
        }
        checked += 1;
    }
    println!(
        "rtcheck diff: {checked} assemblies checked ({accepted} accepted, {} rejected) in {:?}, 0 disagreements",
        checked - accepted,
        started.elapsed()
    );
}

/// Linearizability: record short concurrent workloads on the real
/// structures, check each against its sequential spec.
fn lin_sweep(seed: u64, rounds: u64, sweep_secs: Option<u64>) {
    let started = Instant::now();
    let mut checked: u64 = 0;
    let mut derive = SplitMix64::new(seed);
    loop {
        let round_seed = match sweep_secs {
            None if checked == rounds => break,
            None => seed + checked,
            Some(secs) if started.elapsed() >= Duration::from_secs(secs) => break,
            Some(_) => derive.next_u64(),
        };
        lin_round(round_seed);
        checked += 1;
    }
    println!(
        "rtcheck lin: {checked} rounds (ring, buffer, fifo, pool, segpool) in {:?}, all linearizable",
        started.elapsed()
    );
}

/// Generic seeded sweep over a `check_seed` property: deterministic
/// seed range or time-boxed random seeds, failure prints the
/// reproducing seed and exits non-zero.
fn seeded_sweep(
    name: &str,
    what: &str,
    check: fn(u64) -> Result<(), String>,
    seed: u64,
    cases: u64,
    sweep_secs: Option<u64>,
) {
    let started = Instant::now();
    let mut checked: u64 = 0;
    let mut derive = SplitMix64::new(seed);
    loop {
        let case_seed = match sweep_secs {
            None if checked == cases => break,
            None => seed + checked,
            Some(secs) if started.elapsed() >= Duration::from_secs(secs) => break,
            Some(_) => derive.next_u64(),
        };
        if let Err(msg) = check(case_seed) {
            eprintln!("rtcheck {name}: {msg}");
            eprintln!(
                "reproduce: cargo run --release -p rtcheck -- {name} --seed {case_seed} --cases 1"
            );
            std::process::exit(1);
        }
        checked += 1;
    }
    println!(
        "rtcheck {name}: {checked} {what} in {:?}, 0 violations",
        started.elapsed()
    );
}

fn lin_round(seed: u64) {
    let ring = record::ring_history(seed, 3, 6, 4);
    verify(seed, "MpmcRing", &BoundedFifoSpec { capacity: 4 }, &ring);
    let fifo = record::fifo_history(seed, 3, 6);
    verify(seed, "PriorityFifo", &PriorityFifoSpec, &fifo);
    let (pool_spec, pool) = record::pool_history(seed, 3, 8, 3);
    verify(seed, "ScopePool", &pool_spec, &pool);
    let (seg_spec, segpool) = record::segpool_history(seed, 3, 8, 3);
    verify(seed, "SegPool", &seg_spec, &segpool);
}

fn verify<S: lin::Spec>(
    seed: u64,
    name: &str,
    spec: &S,
    history: &[rtcheck::history::CompleteOp<S::Op, S::Ret>],
) where
    S::Op: std::fmt::Debug,
    S::Ret: std::fmt::Debug,
{
    if !lin::check(spec, history) {
        eprintln!("rtcheck: {name} history is NOT linearizable (seed {seed})");
        let mut sorted: Vec<_> = history.iter().collect();
        sorted.sort_by_key(|e| e.invoked);
        for e in sorted {
            eprintln!(
                "  [{:>3},{:>3}] {:?} -> {:?}",
                e.invoked, e.returned, e.op, e.ret
            );
        }
        eprintln!("reproduce: cargo run --release -p rtcheck -- lin --seed {seed} --rounds 1");
        std::process::exit(1);
    }
}
