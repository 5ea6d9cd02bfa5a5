//! Steady-state allocation guard for synchronous local dispatch
//! (ROADMAP aim 3): once the paper's Fig. 6 assembly is built, started
//! and connected, a round trip — IMC → Client → Server → Client, three
//! deliveries — must not pay for name lookups, ancestry walks or error
//! values on the heap.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use compadres_core::{AppBuilder, HandlerCtx, Priority};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[derive(Debug, Default, Clone)]
struct MyInteger {
    value: i32,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>ImmortalComponent</ComponentName>
    <Port><PortName>P1</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Client</ComponentName>
    <Port><PortName>P2</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P3</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P6</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Server</ComponentName>
    <Port><PortName>P4</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P5</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
</Components>"#;

/// Fig. 6 with every in-port synchronous (`Min=Max=0`).
fn ccl() -> String {
    const SYNC: &str =
        "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";
    format!(
        r#"
<Application>
  <ApplicationName>Fig6</ApplicationName>
  <Component>
    <InstanceName>IMC</InstanceName><ClassName>ImmortalComponent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>P1</PortName>
        <Link><PortType>Internal</PortType><ToComponent>MyClient</ToComponent><ToPort>P2</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyClient</InstanceName><ClassName>Client</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P2</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
        <Port><PortName>P3</PortName>
          <Link><PortType>External</PortType><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
        </Port>
        <Port><PortName>P6</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>MyServer</InstanceName><ClassName>Server</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P4</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
        <Port><PortName>P5</PortName>
          <Link><PortType>External</PortType><ToComponent>MyClient</ToComponent><ToPort>P6</ToPort></Link>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>200000</ScopeSize><PoolSize>3</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#
    )
}

/// Forwards `value` through `port` of the component being executed.
fn forward(ctx: &mut HandlerCtx<'_>, port: &str, value: i32) -> compadres_core::Result<()> {
    let mut m = ctx.get_message::<MyInteger>(port)?;
    m.value = value;
    ctx.send(port, m, Priority::new(5))
}

#[test]
fn a_sync_round_trip_allocates_at_most_three_times() {
    const WARM_UP: u64 = 100;
    const ROUND_TRIPS: u64 = 1_000;
    /// What remains, by call site (measured: exactly 2 per round trip,
    /// both in rtmem; the parent commit measured 47):
    /// `rtmem::Ctx::execute_in` parks the part of the scope stack above
    /// the common ancestor in a `Vec` (`split_off`) for the duration of
    /// a handoff. Client → Server (P3 → P4) parks the client's scope and
    /// Server → Client (P5 → P6) parks the server's; IMC → Client enters
    /// from the immortal base with nothing to park. `compadres_core`
    /// itself allocates nothing per delivery: the message objects are
    /// pooled, the journal is a preallocated ring. The third allocation
    /// of the budget is slack, not a known site.
    const BUDGET_PER_ROUND_TRIP: u64 = 3;

    let replies = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&replies);
    let app = AppBuilder::from_xml(CDL, &ccl())
        .unwrap()
        .bind_message_type::<MyInteger>("MyInteger")
        .register_handler("Client", "P2", || {
            |_m: &mut MyInteger, ctx: &mut HandlerCtx<'_>| forward(ctx, "P3", 3)
        })
        .register_handler("Server", "P4", || {
            |_m: &mut MyInteger, ctx: &mut HandlerCtx<'_>| forward(ctx, "P5", 4)
        })
        .register_handler("Client", "P6", move || {
            let seen = Arc::clone(&seen);
            move |m: &mut MyInteger, _c: &mut HandlerCtx<'_>| {
                assert_eq!(m.value, 4);
                seen.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    let _keep = [
        app.connect("MyClient").unwrap(),
        app.connect("MyServer").unwrap(),
    ];

    let allocated = app
        .with_component("IMC", |ctx| {
            for _ in 0..WARM_UP {
                forward(ctx, "P1", 1).unwrap();
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..ROUND_TRIPS {
                forward(ctx, "P1", 1).unwrap();
            }
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .unwrap();

    assert_eq!(replies.load(Ordering::Relaxed), WARM_UP + ROUND_TRIPS);
    assert_eq!(app.stats().messages_processed, 3 * (WARM_UP + ROUND_TRIPS));
    assert!(
        allocated <= BUDGET_PER_ROUND_TRIP * ROUND_TRIPS,
        "{allocated} allocations in {ROUND_TRIPS} round trips ({:.2} per round trip, budget {BUDGET_PER_ROUND_TRIP})",
        allocated as f64 / ROUND_TRIPS as f64
    );
}
