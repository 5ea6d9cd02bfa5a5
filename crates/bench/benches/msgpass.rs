//! Ablation **A1** (paper §2.2): the three cross-scope message-passing
//! mechanisms — serialization, shared object, handoff — measured between
//! two sibling scopes, for several message sizes, plus the remote GIOP
//! marshal path (chain encode → in-place decode → dispatch → chain
//! reply) that rides the same pools once a message leaves the node.
//!
//! Expected shape: handoff ≤ shared object < serialization, which is why
//! Compadres builds its pools on the shared-object pattern (handoff being
//! faster but coupling components to the scope structure). The remote
//! path should stay within ~2× p50 across 32→4096-byte payloads now that
//! encode/decode run over pool-leased segment chains instead of
//! reallocating `Vec`s per message.
//!
//! Each batch gets a fresh parent scope because serialization and the
//! shared-object pattern allocate into it and scoped areas only reclaim
//! wholesale — exactly the exhaustion problem the paper's message pools
//! solve on the framework's hot path.

use std::hint::black_box;

use compadres_bench::harness::run_batched;
use compadres_core::smm::{pass_handoff, pass_serialized, pass_shared};
use rtcorba::cdr::Endian;
use rtcorba::giop::{self, MessageView};
use rtcorba::service::ObjectRegistry;
use rtmem::{Ctx, MemoryModel, RegionId, Wedge};
use rtplatform::bufchain::{SegPool, DEFAULT_SEG_SIZE};
use std::sync::Arc;

type Setup = (
    MemoryModel,
    RegionId,
    RegionId,
    RegionId,
    (Wedge, Wedge, Wedge),
);

fn setup() -> Setup {
    let m = MemoryModel::new();
    let parent = m.create_scoped(1 << 20).unwrap();
    let src = m.create_scoped(64 << 10).unwrap();
    let dst = m.create_scoped(64 << 10).unwrap();
    let wp = Wedge::pin_from_base(&m, parent).unwrap();
    let ws = Wedge::pin_under(&m, src, parent).unwrap();
    let wd = Wedge::pin_under(&m, dst, parent).unwrap();
    (m, parent, src, dst, (wp, ws, wd))
}

fn main() {
    // Belt and suspenders: the zero-copy chain path no longer allocates
    // per message, but MemoryModel teardown between batches can still let
    // glibc trim the arena and re-fault pages inside the timed loop (the
    // history-dependent cliff root-caused in EXPERIMENTS.md "msgpass
    // shared_object/1024 cliff"). Retaining freed memory keeps the
    // scope-teardown benches history-independent.
    rtplatform::heap::retain_freed_memory();

    println!("== msgpass: serialization vs shared object vs handoff vs remote GIOP ==");

    for size in [32usize, 256, 1024, 4096] {
        let payload = vec![0xCDu8; size];

        let p = payload.clone();
        run_batched(&format!("serialization/{size}"), 200, setup, move |state| {
            let (m, parent, src, dst, _w) = state;
            let mut ctx = Ctx::no_heap(&m);
            ctx.enter(parent, |ctx| {
                ctx.enter(src, |ctx| {
                    for _ in 0..64 {
                        let out =
                            pass_serialized(ctx, parent, dst, &p, |msg, _| msg.len()).unwrap();
                        black_box(out);
                    }
                })
                .unwrap();
            })
            .unwrap();
        });

        let p = payload.clone();
        run_batched(&format!("shared_object/{size}"), 200, setup, move |state| {
            let (m, parent, src, dst, _w) = state;
            let mut ctx = Ctx::no_heap(&m);
            ctx.enter(parent, |ctx| {
                ctx.enter(src, |ctx| {
                    for _ in 0..64 {
                        let out = pass_shared(ctx, parent, dst, p.clone(), |shared, ctx| {
                            shared.with(ctx, |v: &Vec<u8>| v.len()).unwrap()
                        })
                        .unwrap();
                        black_box(out);
                    }
                })
                .unwrap();
            })
            .unwrap();
        });

        let p = payload.clone();
        run_batched(&format!("handoff/{size}"), 200, setup, move |state| {
            let (m, parent, src, dst, _w) = state;
            let mut ctx = Ctx::no_heap(&m);
            ctx.enter(parent, |ctx| {
                ctx.enter(src, |ctx| {
                    for _ in 0..64 {
                        let out = pass_handoff(ctx, parent, dst, &p, |msg, _| msg.len()).unwrap();
                        black_box(out);
                    }
                })
                .unwrap();
            })
            .unwrap();
        });

        // The remote marshal path: chain-encode a request into
        // pool-leased segments, decode it in place, dispatch to the echo
        // servant, chain-encode the reply, decode that in place too —
        // everything a message pays beyond the socket write itself.
        let p = payload.clone();
        let registry = ObjectRegistry::with_echo();
        run_batched(
            &format!("remote_giop/{size}"),
            200,
            move || {
                (
                    SegPool::new(16, DEFAULT_SEG_SIZE),
                    Arc::clone(&registry),
                    p.clone(),
                )
            },
            |(pool, registry, payload)| {
                for i in 0..64u32 {
                    let frame = giop::encode_request_chain(
                        i,
                        true,
                        b"echo",
                        "echo",
                        &payload,
                        &[],
                        Endian::Big,
                        &pool,
                    );
                    let parts = frame.slices();
                    let reply = match giop::decode_view(&parts).unwrap() {
                        MessageView::Request(req) => registry.dispatch_view(&req),
                        other => panic!("expected request, got {other:?}"),
                    };
                    let reply_frame = reply.encode_chain(Endian::Big, &pool);
                    match giop::decode_view(&reply_frame.slices()).unwrap() {
                        MessageView::Reply(r) => black_box(r.body.len()),
                        other => panic!("expected reply, got {other:?}"),
                    };
                }
            },
        );
    }
}
