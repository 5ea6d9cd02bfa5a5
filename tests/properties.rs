//! Randomized property tests over the core substrates: CDR marshalling,
//! XML round-trips, priority queues and the scoped-memory invariants.
//!
//! Formerly proptest suites; now seeded [`SplitMix64`] sweeps so the
//! workspace builds fully offline. Seeds are fixed, so failures are
//! reproducible — to shrink, bisect the case counter.

use rtplatform::rng::SplitMix64;

fn rand_string(
    rng: &mut SplitMix64,
    charset: &[u8],
    first: Option<&[u8]>,
    max_len: usize,
) -> String {
    let mut s = String::new();
    if let Some(first) = first {
        s.push(first[rng.below(first.len())] as char);
    }
    let len = rng.below(max_len + 1);
    for _ in 0..len {
        s.push(charset[rng.below(charset.len())] as char);
    }
    s
}

fn rand_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    (0..rng.below(max_len + 1))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

// ---------------------------------------------------------------------
// CDR marshalling
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CdrValue {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    I32(i32),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
    Octets(Vec<u8>),
}

fn cdr_value(rng: &mut SplitMix64) -> CdrValue {
    const STR_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _:-";
    match rng.below(10) {
        0 => CdrValue::U8(rng.next_u64() as u8),
        1 => CdrValue::U16(rng.next_u64() as u16),
        2 => CdrValue::U32(rng.next_u64() as u32),
        3 => CdrValue::U64(rng.next_u64()),
        4 => CdrValue::I32(rng.next_u64() as i32),
        5 => CdrValue::I64(rng.next_u64() as i64),
        6 => CdrValue::F64(rng.range_f64(-1e12, 1e12)),
        7 => CdrValue::Bool(rng.chance(0.5)),
        8 => CdrValue::Str(rand_string(rng, STR_CHARS, None, 40)),
        _ => CdrValue::Octets(rand_bytes(rng, 64)),
    }
}

#[test]
fn cdr_roundtrips_any_value_sequence() {
    use rtcorba::cdr::{CdrDecoder, CdrEncoder, Endian};
    let mut rng = SplitMix64::new(0xCD2);
    for _case in 0..128 {
        let endian = if rng.chance(0.5) {
            Endian::Little
        } else {
            Endian::Big
        };
        let values: Vec<CdrValue> = (0..rng.below(20)).map(|_| cdr_value(&mut rng)).collect();
        let mut enc = CdrEncoder::new(endian);
        for v in &values {
            match v {
                CdrValue::U8(x) => enc.write_u8(*x),
                CdrValue::U16(x) => enc.write_u16(*x),
                CdrValue::U32(x) => enc.write_u32(*x),
                CdrValue::U64(x) => enc.write_u64(*x),
                CdrValue::I32(x) => enc.write_i32(*x),
                CdrValue::I64(x) => enc.write_i64(*x),
                CdrValue::F64(x) => enc.write_f64(*x),
                CdrValue::Bool(x) => enc.write_bool(*x),
                CdrValue::Str(x) => enc.write_string(x),
                CdrValue::Octets(x) => enc.write_octets(x),
            }
        }
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, endian);
        for v in &values {
            match v {
                CdrValue::U8(x) => assert_eq!(dec.read_u8().unwrap(), *x),
                CdrValue::U16(x) => assert_eq!(dec.read_u16().unwrap(), *x),
                CdrValue::U32(x) => assert_eq!(dec.read_u32().unwrap(), *x),
                CdrValue::U64(x) => assert_eq!(dec.read_u64().unwrap(), *x),
                CdrValue::I32(x) => assert_eq!(dec.read_i32().unwrap(), *x),
                CdrValue::I64(x) => assert_eq!(dec.read_i64().unwrap(), *x),
                CdrValue::F64(x) => assert_eq!(dec.read_f64().unwrap(), *x),
                CdrValue::Bool(x) => assert_eq!(dec.read_bool().unwrap(), *x),
                CdrValue::Str(x) => assert_eq!(&dec.read_string().unwrap(), x),
                CdrValue::Octets(x) => assert_eq!(&dec.read_octets().unwrap(), x),
            }
        }
        assert_eq!(dec.remaining(), 0);
    }
}

#[test]
fn giop_request_roundtrips() {
    use rtcorba::cdr::Endian;
    use rtcorba::giop::{decode_view, Message, RequestMessage};
    use rtplatform::bufchain::SegPool;
    const OP_FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const OP_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let mut rng = SplitMix64::new(0x610);
    let pool = SegPool::new(8, 64);
    for _case in 0..128 {
        let endian = if rng.chance(0.5) {
            Endian::Little
        } else {
            Endian::Big
        };
        let req = RequestMessage {
            request_id: rng.next_u64() as u32,
            response_expected: rng.chance(0.5),
            object_key: rand_bytes(&mut rng, 32),
            operation: rand_string(&mut rng, OP_CHARS, Some(OP_FIRST), 20),
            body: rand_bytes(&mut rng, 256),
            service_context: Vec::new(),
        };
        let frame = req.encode_chain(endian, &pool);
        match decode_view(&frame.slices()).unwrap().to_message() {
            Message::Request(r) => assert_eq!(r, req),
            other => panic!("unexpected {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// XML round-trips
// ---------------------------------------------------------------------

fn xml_name(rng: &mut SplitMix64) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    rand_string(rng, REST, Some(FIRST), 10)
}

fn xml_text(rng: &mut SplitMix64) -> String {
    // Leading/trailing whitespace is trimmed by the parser; interior
    // whitespace sequences must survive. Keep to printable characters
    // without raw markup (the writer escapes <>& anyway — include them!).
    const CHARS: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789<>&'\" _;:,!-";
    rand_string(rng, CHARS, None, 24).trim().to_string()
}

fn xml_tree(rng: &mut SplitMix64, depth: usize) -> rtxml::Element {
    if depth == 0 || rng.chance(0.4) {
        let mut e = rtxml::Element::new(xml_name(rng)).with_text(xml_text(rng));
        for i in 0..rng.below(3) {
            // Attribute names must be unique per element.
            e = e.with_attr(format!("{}{i}", xml_name(rng)), xml_text(rng));
        }
        e
    } else {
        let mut e = rtxml::Element::new(xml_name(rng));
        for _ in 0..rng.below(4) {
            e = e.with_child(xml_tree(rng, depth - 1));
        }
        e
    }
}

#[test]
fn xml_print_parse_roundtrip() {
    let mut rng = SplitMix64::new(0x3717);
    for _case in 0..128 {
        let tree = xml_tree(&mut rng, 3);
        let printed = rtxml::to_string(&tree);
        let parsed = rtxml::parse(&printed).unwrap();
        assert_eq!(parsed, tree, "printed form:\n{printed}");
    }
}

// ---------------------------------------------------------------------
// Priority FIFO ordering
// ---------------------------------------------------------------------

#[test]
fn priority_fifo_orders_correctly() {
    use rtsched::{Priority, PriorityFifo};
    let mut rng = SplitMix64::new(0xF1F0);
    for _case in 0..128 {
        let items: Vec<(u8, u16)> = (0..rng.below(200))
            .map(|_| (rng.range_usize(1, 99) as u8, rng.next_u64() as u16))
            .collect();
        let q = PriorityFifo::new();
        for (p, tag) in &items {
            q.push(Priority::new(*p), *tag);
        }
        let mut popped = Vec::new();
        while let Some((p, tag)) = q.try_pop() {
            popped.push((p, tag));
        }
        assert_eq!(popped.len(), items.len());
        // Priorities are non-increasing.
        for w in popped.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
        // Within each priority band, arrival order is preserved.
        for p in popped
            .iter()
            .map(|(p, _)| *p)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let expected: Vec<u16> = items
                .iter()
                .filter(|(ip, _)| rtsched::Priority::new(*ip) == p)
                .map(|(_, t)| *t)
                .collect();
            let got: Vec<u16> = popped
                .iter()
                .filter(|(pp, _)| *pp == p)
                .map(|(_, t)| *t)
                .collect();
            assert_eq!(got, expected);
        }
    }
}

// ---------------------------------------------------------------------
// Scoped-memory invariants
// ---------------------------------------------------------------------

/// Entering a random chain of scopes, allocating along the way, then
/// unwinding: accounting balances, references die exactly when their
/// scope is reclaimed, and ancestor references always stay legal.
#[test]
fn scope_chain_lifecycle() {
    use rtmem::{Ctx, MemoryModel};

    fn descend(
        ctx: &mut Ctx,
        model: &MemoryModel,
        regions: &[rtmem::RegionId],
        allocs: &[usize],
        refs: &mut Vec<rtmem::RBytes>,
    ) {
        match regions.split_first() {
            None => {
                for &len in allocs {
                    refs.push(ctx.alloc_bytes(len).unwrap());
                }
                // Deepest scope may reference every ancestor.
                for r in refs.iter() {
                    assert!(
                        model.may_reference(ctx.current(), r.region()).unwrap()
                            || r.region() == ctx.current()
                    );
                }
            }
            Some((&head, rest)) => {
                ctx.enter(head, |ctx| {
                    refs.push(ctx.alloc_bytes(8).unwrap());
                    descend(ctx, model, rest, allocs, refs);
                })
                .unwrap();
            }
        }
    }

    let mut rng = SplitMix64::new(0x5C0);
    for _case in 0..64 {
        let depth = rng.range_usize(1, 5);
        let allocs: Vec<usize> = (0..rng.range_usize(1, 10))
            .map(|_| rng.range_usize(1, 200))
            .collect();
        let model = MemoryModel::new();
        let regions: Vec<_> = (0..depth)
            .map(|_| model.create_scoped(64 << 10).unwrap())
            .collect();
        let mut ctx = Ctx::no_heap(&model);

        let mut refs = Vec::new();
        descend(&mut ctx, &model, &regions, &allocs, &mut refs);

        // Everything reclaimed after the unwind: all references stale,
        // accounting at zero, parents cleared.
        for r in &refs {
            let stale = matches!(
                r.to_vec(&ctx),
                Err(rtmem::RtmemError::StaleReference { .. })
            );
            assert!(stale);
        }
        for &region in &regions {
            let snap = model.snapshot(region).unwrap();
            assert_eq!(snap.used, 0);
            assert_eq!(snap.entered, 0);
            assert_eq!(snap.parent, None);
            assert_eq!(snap.epoch, 1);
        }
    }
}

/// Allocation accounting never exceeds the configured budget, and the
/// error is reported exactly when it would.
#[test]
fn region_budget_is_respected() {
    use rtmem::{Ctx, MemoryModel, RtmemError};
    let mut rng = SplitMix64::new(0xB4D);
    for _case in 0..64 {
        let budget = rng.range_usize(64, 4096);
        let sizes: Vec<usize> = (0..rng.range_usize(1, 40))
            .map(|_| rng.range_usize(1, 512))
            .collect();
        let model = MemoryModel::new();
        let region = model.create_scoped(budget).unwrap();
        let mut ctx = Ctx::no_heap(&model);
        ctx.enter(region, |ctx| {
            let mut used = 0usize;
            for &len in &sizes {
                let aligned = (len + 7) & !7;
                match ctx.alloc_bytes(len) {
                    Ok(_) => {
                        used += aligned;
                        assert!(used <= budget, "over budget: {used} > {budget}");
                    }
                    Err(RtmemError::OutOfMemory { .. }) => {
                        assert!(
                            used + aligned > budget,
                            "spurious OOM at used={used}, len={len}"
                        );
                    }
                    Err(other) => panic!("unexpected error {other}"),
                }
                let snap = model.snapshot(region).unwrap();
                assert_eq!(snap.used, used);
            }
        })
        .unwrap();
    }
}

// ---------------------------------------------------------------------
// Validation properties
// ---------------------------------------------------------------------

/// Any sibling fan-out composition validates, and injecting a
/// self-loop always breaks it.
#[test]
fn sibling_fanout_validates_and_self_loop_never_does() {
    for n in 1usize..6 {
        let cdl = r#"
          <Components>
            <Component><ComponentName>Hub</ComponentName>
              <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>T</MessageType></Port>
              <Port><PortName>In</PortName><PortType>In</PortType><MessageType>T</MessageType></Port>
            </Component>
            <Component><ComponentName>Spoke</ComponentName>
              <Port><PortName>In</PortName><PortType>In</PortType><MessageType>T</MessageType></Port>
            </Component>
          </Components>"#;
        let mut spokes = String::new();
        let mut links = String::new();
        for i in 0..n {
            spokes.push_str(&format!(
                "<Component><InstanceName>S{i}</InstanceName><ClassName>Spoke</ClassName>\
                 <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel></Component>"
            ));
            links.push_str(&format!(
                "<Link><ToComponent>S{i}</ToComponent><ToPort>In</ToPort></Link>"
            ));
        }
        let ccl_ok = format!(
            r#"<Application><ApplicationName>FanOut</ApplicationName>
            <Component><InstanceName>H</InstanceName><ClassName>Hub</ClassName><ComponentType>Immortal</ComponentType>
              <Connection><Port><PortName>Out</PortName>{links}</Port></Connection>
              {spokes}
            </Component></Application>"#
        );
        let parsed_cdl = compadres_core::parse_cdl(cdl).unwrap();
        let parsed_ccl = compadres_core::parse_ccl(&ccl_ok).unwrap();
        let app = compadres_core::validate(&parsed_cdl, &parsed_ccl).unwrap();
        assert_eq!(app.connections.len(), n);

        // Now add a self-loop on the hub: must be rejected.
        let ccl_loop = ccl_ok.replace(
            "</Port></Connection>",
            "<Link><ToComponent>H</ToComponent><ToPort>In</ToPort></Link></Port></Connection>",
        );
        let parsed_loop = compadres_core::parse_ccl(&ccl_loop).unwrap();
        assert!(compadres_core::validate(&parsed_cdl, &parsed_loop).is_err());
    }
}
