//! Differential tests for the internet-scale state structures (E18).
//!
//! The resizing/evicting flow table and the hot-prefix FIB cache are pure
//! performance features: they must be semantically invisible. These tests
//! drive the scale configuration and a paper-default baseline with identical
//! packet sequences and assert byte-identical forwarding on both data
//! planes, including a route-update interleave that would expose a stale
//! FIB-cache entry (the hidden-prefix hazard).

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use router_plugins::classifier::flow_table::FlowTableConfig;
use router_plugins::core::ip_core::{Disposition, FibStats, RouteEntry, RoutingTable};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_script;
use router_plugins::core::{
    ControlPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::lpm::Prefix;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{FlowTuple, Mbuf};

/// Flow table forced through many incremental resizes and LRU evictions:
/// 16 boot buckets doubling up to 1024, and a 192-record cap against a
/// workload of ~400 concurrent flows.
fn scale_flow_config() -> FlowTableConfig {
    FlowTableConfig {
        buckets: 16,
        max_buckets: 1 << 10,
        initial_records: 32,
        max_records: 192,
        lru_evict: true,
        ..RouterConfig::default().flow_table
    }
}

/// Paper-default fixed-size table: no resize (`max_buckets: 0`), record
/// pool large enough that nothing is ever evicted.
fn baseline_flow_config() -> FlowTableConfig {
    FlowTableConfig {
        max_buckets: 0,
        ..RouterConfig::default().flow_table
    }
}

const SCALE_SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n\
     load firewall\n\
     create firewall action=deny\n\
     bind fw firewall 0 <*, *, UDP, *, 9999, *>\n\
     route 10.0.0.0/8 1\n\
     route 10.64.0.0/10 2\n";

struct DiffFlow {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    sport: u16,
    dport: u16,
    count: usize,
}

fn diff_flows() -> Vec<DiffFlow> {
    let mut flows = Vec::new();
    // Forwarded flows, far more concurrent flows than the scale table's
    // 192-record cap, spread over both routed prefixes.
    for i in 0..384u32 {
        flows.push(DiffFlow {
            src: Ipv4Addr::new(192, 0, 2, (i % 200) as u8 + 1),
            dst: Ipv4Addr::new(10, (i % 128) as u8, (i / 128) as u8 + 1, 7),
            sport: 4000 + (i % 1000) as u16,
            dport: 80,
            count: 3 + (i as usize % 4),
        });
    }
    // Firewall-denied flows.
    for i in 0..8u32 {
        flows.push(DiffFlow {
            src: Ipv4Addr::new(192, 0, 2, 250),
            dst: Ipv4Addr::new(10, 1, 1, i as u8 + 1),
            sport: 4100 + i as u16,
            dport: 9999,
            count: 6,
        });
    }
    // No-route flows (172.16/12 is not covered).
    for i in 0..8u32 {
        flows.push(DiffFlow {
            src: Ipv4Addr::new(192, 0, 2, 251),
            dst: Ipv4Addr::new(172, 16, 0, i as u8 + 1),
            sport: 4200 + i as u16,
            dport: 80,
            count: 4,
        });
    }
    flows
}

/// Interleaved packet sequence with a per-flow sequence number stamped in
/// the last 4 payload bytes (checksum verification is off in this rig).
fn diff_packets() -> Vec<Mbuf> {
    let flows = diff_flows();
    let mut seqs = vec![0u32; flows.len()];
    let mut out = Vec::new();
    let mut round = 0usize;
    loop {
        let mut emitted = false;
        for (fi, f) in flows.iter().enumerate() {
            if round < f.count {
                let mut m = Mbuf::new(
                    PacketSpec::udp(IpAddr::V4(f.src), IpAddr::V4(f.dst), f.sport, f.dport, 64)
                        .build(),
                    0,
                );
                let seq = seqs[fi];
                seqs[fi] += 1;
                let data = m.data_mut();
                let n = data.len();
                data[n - 4..].copy_from_slice(&seq.to_be_bytes());
                out.push(m);
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
        round += 1;
    }
    out
}

fn build_router(flow_table: FlowTableConfig) -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, SCALE_SCRIPT).unwrap();
    r
}

/// Drive a router through the packet sequence, recording each disposition
/// and then draining every egress queue into per-interface byte streams.
fn run_sequence(r: &mut Router, packets: &[Mbuf]) -> (Vec<Disposition>, Vec<Vec<Vec<u8>>>) {
    let mut dispositions = Vec::with_capacity(packets.len());
    for pkt in packets {
        let d = r.receive(pkt.clone());
        if let Disposition::Queued(i) = d {
            r.pump(i, usize::MAX);
        }
        dispositions.push(d);
    }
    let mut tx = Vec::new();
    for i in 0..r.interface_count() {
        tx.push(
            r.take_tx(i as u32)
                .iter()
                .map(|m| m.data().to_vec())
                .collect(),
        );
    }
    (dispositions, tx)
}

/// Tentpole differential: a flow table that resizes its bucket array
/// mid-stream and evicts LRU records at the cap must forward the exact
/// same bytes, in the same order, with the same per-packet dispositions
/// as the paper's fixed-size table.
#[test]
fn resizing_evicting_flow_table_matches_fixed_baseline() {
    let packets = diff_packets();

    let mut scale = build_router(scale_flow_config());
    let mut base = build_router(baseline_flow_config());

    let (scale_disp, scale_tx) = run_sequence(&mut scale, &packets);
    let (base_disp, base_tx) = run_sequence(&mut base, &packets);

    assert_eq!(scale_disp, base_disp, "per-packet dispositions diverged");
    assert_eq!(scale_tx, base_tx, "emitted bytes diverged");

    let ss = scale.stats();
    let bs = base.stats();
    assert_eq!(ss.received, bs.received);
    assert_eq!(ss.forwarded, bs.forwarded);
    assert_eq!(ss.dropped_total(), bs.dropped_total());
    assert_eq!(
        ss.received,
        ss.forwarded + ss.dropped_total(),
        "conservation violated"
    );

    // The machinery under test actually engaged.
    let fs = scale.flow_stats();
    assert!(fs.resize_steps > 0, "no incremental resize happened");
    assert!(fs.evicted_lru > 0, "no LRU eviction happened");
    assert!(
        fs.live <= 192,
        "live records {} exceed the configured cap",
        fs.live
    );
    let bfs = base.flow_stats();
    assert_eq!(bfs.resize_steps, 0, "baseline must not resize");
    assert_eq!(bfs.evicted_lru, 0, "baseline must not evict");

    // The FIB cache served most repeat lookups on both sides.
    assert!(scale.fib_cache_stats().hits > 0);
}

/// Per-flow delivered sequence numbers, grouped by the emitted packet's
/// five-tuple, in emission order.
fn deliveries(tx: &[Mbuf]) -> HashMap<FlowTuple, Vec<u32>> {
    let mut map: HashMap<FlowTuple, Vec<u32>> = HashMap::new();
    for m in tx {
        let mut t = FlowTuple::from_mbuf(m).expect("emitted packet parses");
        t.rx_if = 0;
        let d = m.data();
        let seq = u32::from_be_bytes(d[d.len() - 4..].try_into().unwrap());
        map.entry(t).or_default().push(seq);
    }
    map
}

/// Same differential on the parallel data plane: shards running the
/// resizing/evicting configuration must deliver every flow with the same
/// per-flow packet order and totals as the single-threaded reference,
/// across a mid-stream route update applied to both planes.
#[test]
fn parallel_plane_matches_single_under_resize_and_route_churn() {
    let packets = diff_packets();
    let split = packets.len() / 2;

    // Single-threaded reference with the scale flow table.
    let mut single = build_router(scale_flow_config());
    let mut single_tx = Vec::new();
    for (n, pkt) in packets.iter().enumerate() {
        if n == split {
            single.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16, 3);
        }
        let d = single.receive(pkt.clone());
        if let Disposition::Queued(i) = d {
            single.pump(i, usize::MAX);
        }
    }
    for i in 0..single.interface_count() {
        single_tx.extend(single.take_tx(i as u32));
    }

    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut par = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 4,
            router: RouterConfig {
                verify_checksums: false,
                flow_table: scale_flow_config(),
                ..RouterConfig::default()
            },
            ingress_depth: 256,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut par, SCALE_SCRIPT).unwrap();
    for (n, pkt) in packets.iter().enumerate() {
        if n == split {
            // Route updates must quiesce in-flight packets before the new
            // FIB (and its cache invalidation) takes effect, so the
            // before/after delivery sets match the single-threaded plane.
            par.flush();
            par.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16, 3);
        }
        par.receive(pkt.clone());
    }
    par.flush();
    let mut par_tx = Vec::new();
    for i in 0..par.interface_count() {
        par_tx.extend(par.take_tx(i as u32));
    }

    let single_flows = deliveries(&single_tx);
    let par_flows = deliveries(&par_tx);
    assert_eq!(
        single_flows.len(),
        par_flows.len(),
        "delivered flow sets differ"
    );
    for (flow, seqs) in &single_flows {
        let p = par_flows
            .get(flow)
            .unwrap_or_else(|| panic!("flow {flow:?} missing from parallel delivery"));
        assert_eq!(seqs, p, "per-flow order diverged for {flow:?}");
    }
    assert_eq!(
        single_tx.len(),
        par_tx.len(),
        "total delivery count differs"
    );
}

/// Route-update interleave exposing a stale FIB-cache entry. The cache
/// answers by exact destination address, so a more-specific route inserted
/// *under* a cached less-specific answer (the hidden-prefix hazard) must
/// invalidate the cached entry — a stale cache would keep steering the
/// destination to the old interface.
#[test]
fn fib_cache_route_update_interleave() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(
        &mut r,
        "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>\n",
    )
    .unwrap();

    let dst = IpAddr::V4(Ipv4Addr::new(10, 1, 2, 3));
    let pkt = |sport: u16| {
        Mbuf::new(
            PacketSpec::udp(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), dst, sport, 80, 64).build(),
            0,
        )
    };

    r.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 8, 1);

    // Warm the FIB cache: repeat lookups for the same destination hit the
    // exact-match front.
    for s in 0..8 {
        assert_eq!(r.receive(pkt(5000 + s)), Disposition::Forwarded(1));
    }
    let warm = r.fib_cache_stats();
    assert!(warm.hits > 0, "cache never warmed: {warm:?}");

    // Hidden-prefix hazard: 10.1.0.0/16 now covers the cached 10.1.2.3.
    r.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16, 2);
    assert_eq!(
        r.receive(pkt(6000)),
        Disposition::Forwarded(2),
        "stale FIB-cache entry steered past the more-specific route"
    );

    // Withdrawal must also invalidate: the destination reverts to /8.
    assert!(r.cp_remove_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16));
    assert_eq!(
        r.receive(pkt(7000)),
        Disposition::Forwarded(1),
        "stale FIB-cache entry survived a route withdrawal"
    );

    let end = r.fib_cache_stats();
    assert!(
        end.invalidations > 0,
        "route updates never invalidated the cache: {end:?}"
    );

    // Byte-identical against a reference on the compiled FIB: replay the
    // same interleave on a fresh router that calls `optimize_routes` after
    // every update (a recompile each time) and compare egress bytes.
    let mut refr = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut refr.loader);
    run_script(
        &mut refr,
        "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>\n",
    )
    .unwrap();
    refr.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)), 8, 1);
    refr.optimize_routes();
    for s in 0..8 {
        assert_eq!(refr.receive(pkt(5000 + s)), Disposition::Forwarded(1));
    }
    refr.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16, 2);
    refr.optimize_routes();
    assert_eq!(refr.receive(pkt(6000)), Disposition::Forwarded(2));
    assert!(refr.cp_remove_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16));
    refr.optimize_routes();
    assert_eq!(refr.receive(pkt(7000)), Disposition::Forwarded(1));

    let a: Vec<Vec<u8>> = (0..r.interface_count())
        .flat_map(|i| r.take_tx(i as u32))
        .map(|m| m.data().to_vec())
        .collect();
    let b: Vec<Vec<u8>> = (0..refr.interface_count())
        .flat_map(|i| refr.take_tx(i as u32))
        .map(|m| m.data().to_vec())
        .collect();
    assert_eq!(
        a, b,
        "cached and compiled reference emitted different bytes"
    );
    assert!(refr.fib_stats().compiled && !r.fib_stats().compiled);

    // The same interleave on the compiled FIB alone: no cache in front to
    // invalidate, so every answer is the repainted table's own.
    let mut fib = RoutingTable::with_cache(0);
    fib.add(
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)),
        8,
        RouteEntry { tx_if: 1 },
    );
    fib.optimize();
    assert_eq!(fib.lookup_cached(dst), Some(RouteEntry { tx_if: 1 }));
    fib.add(
        IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)),
        16,
        RouteEntry { tx_if: 2 },
    );
    assert_eq!(fib.lookup_cached(dst), Some(RouteEntry { tx_if: 2 }));
    assert!(fib
        .remove(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16)
        .is_some());
    assert_eq!(fib.lookup_cached(dst), Some(RouteEntry { tx_if: 1 }));
    let s = fib.fib_stats();
    assert!(s.compiled);
    assert_eq!(s.repaints, 2);
    assert_eq!(fib.fib_cache_stats().invalidations, 0);
}

// ---------------------------------------------------------------------
// Compiled FIB ≡ trie ≡ FIB cache under arbitrary route updates
// ---------------------------------------------------------------------

#[test]
fn compiled_fib_interns_more_than_one_byte_of_next_hops() {
    let mut rt = RoutingTable::with_cache(0);
    rt.optimize();
    for i in 0..600u32 {
        let net = IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | i << 8));
        rt.add(net, 24, RouteEntry { tx_if: i });
    }
    let s = rt.fib_stats();
    assert!(s.compiled);
    assert_eq!((s.next_hops, s.tbl8_groups, s.repaints), (600, 0, 600));
    for i in 0..600u32 {
        let host = IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | i << 8 | 9));
        assert_eq!(rt.lookup(host), Some(RouteEntry { tx_if: i }));
    }
}

#[derive(Debug, Clone)]
enum Op {
    Add(u32, u8, u32),
    Remove(u32, u8),
}

/// Few networks and the lengths around both DIR-24-8 boundaries,
/// so updates hit stored prefixes: withdrawals of a covering
/// prefix and re-adds with another entry are the common case.
/// Lengths under 8 are rare (each repaints up to 2²⁴ slots).
fn arb_op() -> impl Strategy<Value = Op> {
    let bits = || {
        (0u32..4, 0u32..4, 0usize..4)
            .prop_map(|(a, b, c)| 0x0A00_0000 | a << 16 | b << 8 | [0, 1, 128, 255][c])
    };
    let len = || {
        prop_oneof![
            Just(8u8),
            Just(15),
            Just(16),
            Just(23),
            Just(24),
            Just(25),
            Just(31),
            Just(32),
            0u8..=32
        ]
    };
    prop_oneof![
        (bits(), len(), 0u32..5).prop_map(|(b, l, t)| Op::Add(b, l, t)),
        (bits(), len(), 0u32..5).prop_map(|(b, l, t)| Op::Add(b, l, t)),
        (bits(), len()).prop_map(|(b, l)| Op::Remove(b, l)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every update on a compiled table, `lookup` (the FIB),
    /// `lookup_cached` (the cache in front of it) and a table that
    /// was never compiled (the trie) give one answer — on the
    /// changed prefix's first and last address, their outside
    /// neighbours, and random addresses. `prefetch` hints — at the
    /// probed address, at arbitrary IPv4 addresses, at an IPv6 one —
    /// fall between the updates and the lookups and change nothing.
    #[test]
    fn compiled_lookup_matches_trie_and_cache(
        ops in prop::collection::vec(arb_op(), 1..60),
        compile_at in 0usize..30,
        probes in prop::collection::vec(0u32..1 << 18, 8..9),
        hints in prop::collection::vec(any::<u32>(), 8..9),
    ) {
        let mut fib = RoutingTable::with_cache(16);
        let mut trie = RoutingTable::with_cache(0);
        for (i, op) in ops.into_iter().enumerate() {
            if i == compile_at {
                fib.optimize();
            }
            fib.prefetch(IpAddr::V4(Ipv4Addr::from(hints[i % hints.len()])));
            fib.prefetch(IpAddr::V6(Ipv6Addr::LOCALHOST));
            let (bits, len) = match op {
                Op::Add(bits, len, tx_if) => {
                    let net = IpAddr::V4(Ipv4Addr::from(bits));
                    fib.add(net, len, RouteEntry { tx_if });
                    trie.add(net, len, RouteEntry { tx_if });
                    (bits, len)
                }
                Op::Remove(bits, len) => {
                    let net = IpAddr::V4(Ipv4Addr::from(bits));
                    prop_assert_eq!(fib.remove(net, len), trie.remove(net, len));
                    (bits, len)
                }
            };
            let p = Prefix::new(bits, len);
            let last = p.bits() | u32::MAX.checked_shr(u32::from(len)).unwrap_or(0);
            let edges = [p.bits(), last, p.bits().wrapping_sub(1), last.wrapping_add(1)];
            let random = probes.iter().map(|a| 0x0A00_0000 | a);
            for addr in edges.into_iter().chain(random) {
                let a = IpAddr::V4(Ipv4Addr::from(addr));
                let want = trie.lookup(a);
                fib.prefetch(a);
                prop_assert_eq!(fib.lookup(a), want, "fib @ {} after op {}", a, i);
                prop_assert_eq!(fib.lookup_cached(a), want, "cache @ {} after op {}", a, i);
            }
        }
        prop_assert!(trie.fib_stats() == FibStats::default());
    }
}
