//! Regenerates paper **Fig. 11**: round-trip latency of the hand-coded
//! ZenOrb (RTZen stand-in) versus the component-assembled Compadres ORB,
//! for message sizes 32–1024 bytes over loopback TCP (the paper's setup
//! is "single machine connected via loopback network").
//!
//! Run with `--quick` for a reduced observation count.

use std::sync::Arc;

use compadres_bench::us;
use rtcorba::{corb, zen};
use rtsched::{LatencySummary, SteadyState};

const SIZES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let protocol = if quick {
        SteadyState::quick()
    } else {
        SteadyState::paper()
    };

    println!("Fig. 11: Comparison of round-trip times of RTZen (ZenOrb stand-in)");
    println!("with the Compadres ORB for different message sizes, single host");
    println!(
        "({} observations per point, {} warm-up, transport: TCP loopback)",
        protocol.observations, protocol.warmup
    );
    println!();
    println!(
        "{:<10}{:<14}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "Size (B)", "ORB", "Median(us)", "Min(us)", "Max(us)", "Jitter(us)", "p99-min(us)"
    );

    let mut zen_jitters: Vec<f64> = Vec::new();
    let mut compadres_jitters: Vec<f64> = Vec::new();
    let mut zen_medians: Vec<f64> = Vec::new();
    let mut compadres_medians: Vec<f64> = Vec::new();

    for size in SIZES {
        let payload = vec![0xABu8; size];

        // --- ZenOrb (hand-coded baseline, the RTZen stand-in) ---
        let (_zen_server, zen_client) = zen::loopback_echo_pair().expect("zen pair");
        let zen_summary = protocol.run_timed_result(&zen_client, &payload);

        // --- Compadres ORB ---
        let (_corb_server, corb_client) = corb::loopback_echo_pair().expect("corb pair");
        let compadres_summary = protocol.run_timed_result(&corb_client, &payload);

        for (name, s) in [
            ("RTZen (Zen)", &zen_summary),
            ("Compadres", &compadres_summary),
        ] {
            println!(
                "{:<10}{:<14}{:>12}{:>12}{:>12}{:>12}{:>12}",
                size,
                name,
                us(s.median),
                us(s.min),
                us(s.max),
                us(s.jitter()),
                us(s.p99 - s.min)
            );
        }
        zen_medians.push(zen_summary.median.as_nanos() as f64 / 1_000.0);
        compadres_medians.push(compadres_summary.median.as_nanos() as f64 / 1_000.0);
        zen_jitters.push((zen_summary.p99 - zen_summary.min).as_nanos() as f64 / 1_000.0);
        compadres_jitters
            .push((compadres_summary.p99 - compadres_summary.min).as_nanos() as f64 / 1_000.0);
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!(
        "Overall p99 spread (robust jitter): ZenOrb {:.1} us, Compadres ORB {:.1} us",
        avg(&zen_jitters),
        avg(&compadres_jitters)
    );
    println!(
        "Overall median: ZenOrb {:.1} us, Compadres ORB {:.1} us (overhead {:.1}%)",
        avg(&zen_medians),
        avg(&compadres_medians),
        100.0 * (avg(&compadres_medians) - avg(&zen_medians)) / avg(&zen_medians)
    );
    println!();
    println!("Paper reference (§3.3): RTZen jitter 230 us, Compadres ORB jitter 300 us;");
    println!("expected shape: both ORBs highly predictable, latency growing with message");
    println!("size, the Compadres ORB slightly slower with slightly larger jitter (SMMs).");
    println!("Note: raw max/jitter on a non-real-time host is set by isolated OS scheduler");
    println!("spikes landing on either ORB at random; the p99 spread is the robust metric.");
}

/// Helper extension: run the paper protocol over one ORB client.
trait InvokeTimed {
    fn invoke_once(&self, payload: &[u8]);
}

impl InvokeTimed for zen::ZenClient {
    fn invoke_once(&self, payload: &[u8]) {
        let reply = self.invoke(b"echo", "echo", payload).expect("zen invoke");
        assert_eq!(reply.len(), payload.len());
    }
}

impl InvokeTimed for corb::CompadresClient {
    fn invoke_once(&self, payload: &[u8]) {
        let reply = self
            .invoke(b"echo", "echo", payload)
            .expect("compadres invoke");
        assert_eq!(reply.len(), payload.len());
    }
}

trait ProtocolExt {
    fn run_timed_result(&self, client: &dyn InvokeTimed, payload: &[u8]) -> LatencySummary;
}

impl ProtocolExt for SteadyState {
    fn run_timed_result(&self, client: &dyn InvokeTimed, payload: &[u8]) -> LatencySummary {
        let payload: Arc<[u8]> = Arc::from(payload);
        self.run_timed(|| client.invoke_once(&payload)).summary()
    }
}
