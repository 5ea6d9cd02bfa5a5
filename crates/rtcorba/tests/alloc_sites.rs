//! Where do the N heap allocations of one ORB echo come from?
//!
//! ```text
//! cargo test -p rtcorba --test alloc_sites -- --ignored --nocapture
//! SZ=65536 cargo test -p rtcorba --test alloc_sites -- --ignored --nocapture
//! ```
//!
//! prints `count/request  site` for every call site that allocated
//! while the loopback echo loop ran, largest first. A site is the first
//! few workspace frames (`rtcorba`, `compadres_core`, `rt*`) of the
//! allocation's backtrace, innermost first; the test profile does not
//! inline, so the frames are the source's. Tier 1 only compiles this
//! file — `steady_state_allocs.rs` is the guard, this is the map.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Workspace frames that name one site.
const FRAMES: usize = 3;
const CRATES: [&str; 6] = [
    "rtcorba::",
    "compadres_core::",
    "rtmem::",
    "rtplatform::",
    "rtsched::",
    "rtobs::",
];

static ARMED: AtomicBool = AtomicBool::new(false);
static SITES: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);

thread_local! {
    /// Set while this thread is recording an allocation: capturing and
    /// formatting a backtrace allocates, and must not record itself.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

struct SiteCounting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping around it only reads the stack.
unsafe impl GlobalAlloc for SiteCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: SiteCounting = SiteCounting;

fn record() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: a thread on its way out may allocate after its
    // thread-locals are gone.
    let _ = RECORDING.try_with(|recording| {
        if recording.replace(true) {
            return;
        }
        let site = site_of(&Backtrace::force_capture().to_string());
        if let Ok(mut sites) = SITES.lock() {
            *sites
                .get_or_insert_with(HashMap::new)
                .entry(site)
                .or_default() += 1;
        }
        recording.set(false);
    });
}

/// The first [`FRAMES`] workspace frames of a rendered backtrace, as
/// `function (file:line) <- caller (file:line) <- …`.
fn site_of(backtrace: &str) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut lines = backtrace.lines().peekable();
    while let Some(line) = lines.next() {
        // "  12: path::to::function" then, optionally, "      at file:line:col".
        let Some((_, symbol)) = line.trim_start().split_once(": ") else {
            continue;
        };
        let at = lines
            .next_if(|next| next.trim_start().starts_with("at "))
            .map(|next| next.trim_start().trim_start_matches("at "));
        if symbol.contains("alloc_sites::") || !CRATES.iter().any(|c| symbol.contains(c)) {
            continue;
        }
        let place = at.map_or(String::new(), |at| {
            // Keep "crate/src/file.rs:line", drop the column.
            let short = at.rsplit_once("/crates/").map_or(at, |(_, tail)| tail);
            let short = short.rsplit_once(':').map_or(short, |(head, _)| head);
            format!(" ({short})")
        });
        frames.push(format!("{symbol}{place}"));
        if frames.len() == FRAMES {
            break;
        }
    }
    if frames.is_empty() {
        "(no workspace frame)".to_string()
    } else {
        frames.join("\n            <- ")
    }
}

#[test]
#[ignore = "a map, not a guard: run by hand with --ignored --nocapture"]
fn print_allocation_sites_of_one_echo() {
    const WARM_UP: usize = 100;
    const REQUESTS: usize = 200;
    let size: usize = std::env::var("SZ")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let payload = vec![0x5Au8; size];

    let (_server, client) = rtcorba::corb::loopback_echo_pair().unwrap();
    for _ in 0..WARM_UP {
        assert_eq!(client.invoke(b"echo", "echo", &payload).unwrap(), payload);
    }
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..REQUESTS {
        let reply = client.invoke(b"echo", "echo", &payload).unwrap();
        assert_eq!(reply.len(), size);
    }
    ARMED.store(false, Ordering::SeqCst);

    let sites = SITES.lock().unwrap().take().unwrap_or_default();
    let mut sites: Vec<(String, u64)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total: u64 = sites.iter().map(|(_, n)| n).sum();
    println!(
        "\n{:.2} allocations per {size}-byte echo over {REQUESTS} requests, by site:",
        total as f64 / REQUESTS as f64
    );
    for (site, n) in &sites {
        println!("{:>8.2}  {site}", *n as f64 / REQUESTS as f64);
    }
}
