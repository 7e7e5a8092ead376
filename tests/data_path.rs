//! End-to-end data-path tests spanning every crate: the cached/uncached
//! flow paths of paper §3.2, IPsec transforms in the forwarding path,
//! IPv6 option handling, scheduling at egress, and eviction callbacks —
//! which hear the evicted flow's own key on every eviction path.

use router_plugins::classifier::FlowTableConfig;
use router_plugins::core::gate::ALL_GATES;
use router_plugins::core::ip_core::Disposition;
use router_plugins::core::plugin::{PacketCtx, PluginError, SoftState};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{
    Gate, Plugin, PluginAction, PluginCode, PluginInstance, PluginType, Router, RouterConfig,
    TraceCategory,
};
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::ext_hdr::Ipv6Option;
use router_plugins::packet::ipv6::Ipv6Packet;
use router_plugins::packet::mbuf::FlowIndex;
use router_plugins::packet::{FlowKey, FlowTuple, Mbuf, Protocol};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

fn router(script: &str) -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(&mut r, script).expect("setup script");
    r
}

#[test]
fn first_packet_misses_then_flow_caches() {
    let mut r = router("load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>");
    let pkt = || Mbuf::new(PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 64).build(), 0);
    r.receive(pkt());
    let s = r.flow_stats();
    assert_eq!((s.misses, s.hits), (1, 0));
    for _ in 0..9 {
        r.receive(pkt());
    }
    let s = r.flow_stats();
    assert_eq!((s.misses, s.hits), (1, 9));
    // Filter-table work happened only on the miss.
    let fs = r.filter_stats();
    assert!(fs.dag_edges <= 6 * 6, "edges = {}", fs.dag_edges);
}

#[test]
fn ipsec_transform_inside_forwarding_path() {
    // Sign on this router; verify what comes out looks like AH and the
    // hop limit was aged exactly once.
    let mut r =
        router("load ah\ncreate ah mode=sign key=k spi=42\nbind ipsec ah 0 <*, *, UDP, *, *, *>");
    let clear = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 256).build();
    assert_eq!(
        r.receive(Mbuf::new(clear.clone(), 0)),
        Disposition::Forwarded(1)
    );
    let out = r.take_tx(1).pop().unwrap();
    let pkt = Ipv6Packet::new_checked(out.data()).unwrap();
    assert_eq!(pkt.next_header(), Protocol::Ah);
    assert_eq!(pkt.hop_limit(), 63);
    assert_eq!(out.len(), clear.len() + 24); // AH with HMAC-SHA1-96
}

#[test]
fn ipv6_option_gate_drops_poison_option() {
    let mut r = router("load opt6\ncreate opt6\nbind opts opt6 0 <*, *, *, *, *, *>");
    let good = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 64)
        .with_hbh_option(Ipv6Option::ROUTER_ALERT, vec![0, 0])
        .build();
    assert_eq!(r.receive(Mbuf::new(good, 0)), Disposition::Forwarded(1));
    // 0x41 = "discard if unrecognised".
    let bad = PacketSpec::udp(v6_host(2), v6_host(9), 5, 6, 64)
        .with_hbh_option(0x41, vec![])
        .build();
    assert!(matches!(
        r.receive(Mbuf::new(bad, 0)),
        Disposition::Dropped(_)
    ));
}

#[test]
fn scheduling_gate_queues_and_pumps() {
    let mut r = router(
        "load drr\ncreate drr quantum=1500 limit=8\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    );
    let pkt = |sport: u16| {
        Mbuf::new(
            PacketSpec::udp(v6_host(1), v6_host(9), sport, 6, 200).build(),
            0,
        )
    };
    for i in 0..6 {
        assert_eq!(r.receive(pkt(100 + i)), Disposition::Queued(1));
    }
    assert_eq!(r.take_tx(1).len(), 0, "nothing on the wire before pump");
    assert_eq!(r.pump(1, 4), 4);
    assert_eq!(r.pump(1, 100), 2);
    assert_eq!(r.take_tx(1).len(), 6);
}

#[test]
fn ttl_and_route_failures() {
    let mut r = router("");
    let mut spec = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 32);
    spec.ttl = 1;
    assert!(matches!(
        r.receive(Mbuf::new(spec.build(), 0)),
        Disposition::Dropped(_)
    ));
    // Unroutable destination.
    let far: std::net::IpAddr = "fd00::1".parse().unwrap();
    let m = Mbuf::new(PacketSpec::udp(v6_host(1), far, 5, 6, 32).build(), 0);
    assert!(matches!(r.receive(m), Disposition::Dropped(_)));
    // Garbage bytes.
    assert!(matches!(
        r.receive(Mbuf::new(vec![0xAB; 33], 0)),
        Disposition::Dropped(_)
    ));
    let s = r.stats();
    assert_eq!(s.dropped_ttl, 1);
    assert_eq!(s.dropped_no_route, 1);
    assert_eq!(s.dropped_malformed, 1);
}

#[test]
fn flow_eviction_purges_scheduler_state() {
    // Tiny flow cache: churn through many flows with queued packets; the
    // DRR plugin's flow_unbound callback must purge evicted flows'
    // queues so its store does not leak.
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: router_plugins::classifier::FlowTableConfig {
            buckets: 64,
            initial_records: 4,
            max_records: 8,
            gates: 6,
            max_idle_ns: 0,
            ..router_plugins::classifier::FlowTableConfig::default()
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(
        &mut r,
        "load drr\ncreate drr quantum=1500 limit=4\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    for i in 0..100u16 {
        let m = Mbuf::new(
            PacketSpec::udp(v6_host(i + 1), v6_host(9), 1000 + i, 6, 64).build(),
            0,
        );
        assert_eq!(r.receive(m), Disposition::Queued(1));
    }
    let st = r.flow_stats();
    assert!(st.recycled >= 92, "recycled = {}", st.recycled);
    // Queued packets for evicted flows were purged: backlog is bounded by
    // the live flows (8) × limit (4).
    let report = run_command(&mut r, "msg drr 0 stats").unwrap();
    let backlog: usize = report
        .split("backlog=")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(backlog <= 32, "backlog = {backlog} ({report})");
}

/// A queued packet whose flow record is recycled leaves the scheduler
/// with its flow: it is counted as an eviction drop, taken back out of
/// `forwarded`, and its buffer goes back to the pool.
#[test]
fn eviction_purges_are_counted_drops_and_recycled() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: router_plugins::classifier::FlowTableConfig {
            buckets: 64,
            initial_records: 4,
            max_records: 8,
            gates: 6,
            ..router_plugins::classifier::FlowTableConfig::default()
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(
        &mut r,
        "load drr\ncreate drr quantum=1500 limit=4\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    let fresh = r.pool_stats().fresh;
    for i in 0..100u16 {
        let spec = PacketSpec::udp(v6_host(i + 1), v6_host(9), 1000 + i, 6, 64);
        let m = r.mbuf_with(&spec.build(), 0);
        assert_eq!(r.receive(m), Disposition::Queued(1));
    }
    r.pump(1, usize::MAX);
    let wire = r.take_tx(1).len() as u64;
    let s = r.stats();
    assert_eq!((s.received, s.forwarded, wire), (100, 8, 8), "{s:?}");
    assert_eq!((s.dropped_evicted, s.dropped_total()), (92, 92), "{s:?}");
    assert!(r.pool_stats().fresh - fresh <= 9, "{:?}", r.pool_stats());
}

#[test]
fn consumed_packets_preserve_bytes_through_scheduler() {
    let mut r = router(
        "load fifo\ncreate fifo limit=16\nattach 1 fifo 0\n\
         bind sched fifo 0 <*, *, *, *, *, *>",
    );
    let original = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 300).build();
    r.receive(Mbuf::new(original.clone(), 0));
    r.pump(1, 1);
    let out = r.take_tx(1).pop().unwrap();
    // Identical except the aged hop limit (byte 7).
    assert_eq!(out.len(), original.len());
    assert_eq!(&out.data()[..7], &original[..7]);
    assert_eq!(out.data()[7], original[7] - 1);
    assert_eq!(&out.data()[8..], &original[8..]);
}

#[test]
fn ttl_expiry_generates_icmp_time_exceeded() {
    let mut r = router("");
    r.set_interface_addr(0, v6_host(254).to_owned());
    r.set_time_ns(5_000_000_000);
    let mut spec = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 32);
    spec.ttl = 1;
    assert!(matches!(
        r.receive(Mbuf::new(spec.build(), 0)),
        Disposition::Dropped(_)
    ));
    // The ICMP error leaves on the receive interface toward the source.
    let replies = r.take_tx(0);
    assert_eq!(replies.len(), 1);
    let pkt = Ipv6Packet::new_checked(replies[0].data()).unwrap();
    assert_eq!(pkt.next_header(), Protocol::Icmpv6);
    assert_eq!(pkt.dst_addr().segments()[7], 1);
    // It carries the arrival time of the packet that caused it, not 1970
    // (an egress capture writes this stamp).
    assert_eq!(replies[0].timestamp_ns, 5_000_000_000);
    // It counts on the interface's tx counters, and only there: the
    // packet that caused it is a drop, so `received == forwarded + drops`.
    let m = r.metrics_snapshot();
    assert_eq!(m.if_tx_packets[0], 1);
    assert_eq!(m.if_tx_bytes[0], replies[0].len() as u64);
    assert_eq!(m.if_tx_packets.iter().sum::<u64>(), 1);
    let s = r.stats();
    assert_eq!((s.received, s.forwarded, s.dropped_ttl), (1, 0, 1));
    assert_eq!(s.received, s.forwarded + s.dropped_total());
    // Without an interface address, no ICMP is generated.
    let mut r2 = router("");
    let mut spec = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 32);
    spec.ttl = 1;
    r2.receive(Mbuf::new(spec.build(), 0));
    assert!(r2.take_tx(0).is_empty());
}

// ---------------------------------------------------------------------
// The gate walk calls what a flow binds, at the gates it binds
// ---------------------------------------------------------------------

/// `scale1m`'s router: every gate enabled, one stats instance bound at
/// the Stats gate and nothing anywhere else. Each packet classifies at
/// Firewall, calls the Stats instance once and no other gate, and
/// forwards without a scheduler; each flow's count reaches its own slot
/// (the `unbinds` stats plugin below hands it back at expiry).
#[test]
fn all_gates_enabled_only_stats_bound_calls_stats_once_per_packet() {
    let log = KeyLog::default();
    let mut r = router("");
    let unbinds = log.clone();
    r.loader
        .add_factory("unbinds", move || Box::new(Unbinds(unbinds.clone())))
        .unwrap();
    run_script(
        &mut r,
        "load unbinds\ncreate unbinds\nbind stats unbinds 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    // Flows of 1, 2, 3, 5 and 8 packets, interleaved: mice among elephants.
    let counts = [1u64, 2, 3, 5, 8];
    let pkt = |i: usize| PacketSpec::udp(v6_host(i as u16 + 1), v6_host(9), 7, 9, 64).build();
    let mut packets = 0;
    for round in 0..8 {
        for (i, &n) in counts.iter().enumerate() {
            if round < n {
                assert_eq!(r.receive(Mbuf::new(pkt(i), 0)), Disposition::Forwarded(1));
                packets += 1;
            }
        }
    }
    let flows = counts.len() as u64;
    let s = r.stats();
    assert_eq!(
        (s.received, s.forwarded, s.plugin_calls),
        (packets, packets, packets)
    );
    let m = r.metrics_snapshot();
    let fw = Gate::Firewall.index();
    assert_eq!(
        (m.class_misses[fw], m.class_hits[fw]),
        (flows, packets - flows)
    );
    for g in ALL_GATES.into_iter().filter(|g| *g != Gate::Firewall) {
        let i = g.index();
        assert_eq!((m.class_misses[i], m.class_hits[i]), (0, 0), "{g}");
    }
    for g in ALL_GATES.into_iter().filter(|g| *g != Gate::Stats) {
        assert_eq!(m.gate_calls[g.index()], 0, "{g}");
    }
    // No scheduler holds or drains anything: everything is on the wire.
    assert!(m.queue_depth.iter().all(|&d| d == 0));
    for i in 0..r.interface_count() as u32 {
        assert_eq!(r.pump(i, usize::MAX), 0, "if{i}");
    }
    assert_eq!(r.take_tx(1).len() as u64, packets);
    // Every flow's own count, handed back when it leaves the cache.
    r.set_time_ns(1);
    assert_eq!(r.expire_idle_flows(0), counts.len());
    let mut got = log.lock().unwrap().clone();
    got.sort_by_key(|(_, n)| *n);
    let want: Vec<_> = (0..counts.len())
        .map(|i| (FlowKey::extract(&pkt(i), 0).unwrap(), counts[i]))
        .collect();
    assert_eq!(got, want);
}

/// `drr`'s router: Scheduling is the only enabled gate, so it is the gate
/// that classifies, and every packet queues at its scheduler.
#[test]
fn scheduling_as_the_only_gate_classifies_and_queues() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        enabled_gates: vec![Gate::Scheduling],
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(
        &mut r,
        "load drr\ncreate drr quantum=1500 limit=64\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    let (flows, per_flow) = (4u16, 3u64);
    for _ in 0..per_flow {
        for f in 0..flows {
            let m = Mbuf::new(
                PacketSpec::udp(v6_host(f + 1), v6_host(9), 7, 9, 200).build(),
                0,
            );
            assert_eq!(r.receive(m), Disposition::Queued(1));
        }
    }
    let (flows, packets) = (u64::from(flows), u64::from(flows) * per_flow);
    let s = r.stats();
    assert_eq!((s.forwarded, s.plugin_calls), (packets, packets));
    let m = r.metrics_snapshot();
    let sched = Gate::Scheduling.index();
    assert_eq!(
        (m.class_misses[sched], m.class_hits[sched]),
        (flows, packets - flows)
    );
    assert_eq!(
        m.class_misses.iter().sum::<u64>(),
        flows,
        "classified at Scheduling only"
    );
    assert_eq!(m.queue_depth[1], packets);
    assert_eq!(r.pump(1, usize::MAX) as u64, packets);
    assert_eq!(r.take_tx(1).len() as u64, packets);
}

#[test]
fn idle_flows_expire_with_callbacks() {
    let mut r = router("load stats\ncreate stats\nbind stats stats 0 <*, *, UDP, *, *, *>");
    r.set_time_ns(0);
    for i in 0..5u16 {
        let m = Mbuf::new(
            PacketSpec::udp(v6_host(i + 1), v6_host(9), 100 + i, 6, 32).build(),
            0,
        );
        r.receive(m);
    }
    assert_eq!(r.flow_stats().live, 5);
    // Keep flow 0 alive with traffic at t=5s; others idle.
    r.set_time_ns(5_000_000_000);
    let m = Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(9), 100, 6, 32).build(),
        0,
    );
    r.receive(m);
    // Expire with a 2 s idle bound at t=6s: flows 1..4 die.
    r.set_time_ns(6_000_000_000);
    let expired = r.expire_idle_flows(2_000_000_000);
    assert_eq!(expired, 4);
    assert_eq!(r.flow_stats().live, 1);
    // The stats plugin saw the evictions (retired flows recorded).
    let report = run_command(&mut r, "msg stats 0 report").unwrap();
    assert!(report.contains("4 retired"), "{report}");
}

#[test]
fn oversized_v4_is_fragmented_at_egress() {
    use router_plugins::packet::ipv4::Ipv4Packet;
    let mut r = Router::new(RouterConfig {
        verify_checksums: true,
        mtu: 600,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route("10.0.0.0".parse().unwrap(), 8, 1);
    let src: std::net::IpAddr = "10.0.0.1".parse().unwrap();
    let dst: std::net::IpAddr = "10.0.0.9".parse().unwrap();
    let original = PacketSpec::udp(src, dst, 4000, 5000, 1400).build();
    // The builder sets DF; clear it and fix the checksum.
    let mut clear_df = original.clone();
    {
        let p = Ipv4Packet::new_unchecked(&mut clear_df[..]);
        let b = p.into_inner();
        b[6] &= !0x40;
        let mut p = Ipv4Packet::new_unchecked(&mut clear_df[..]);
        p.fill_checksum();
    }
    r.set_time_ns(5_000_000_000);
    let mut oversized = Mbuf::new(clear_df, 0);
    oversized.stamp_ingress(77);
    let d = r.receive(oversized);
    assert_eq!(d, Disposition::Forwarded(1));
    let frags = r.take_tx(1);
    assert!(frags.len() >= 3, "got {} fragments", frags.len());
    // Every fragment keeps both of the original's arrival stamps.
    for f in &frags {
        assert_eq!((f.timestamp_ns, f.ingress_ns()), (5_000_000_000, Some(77)));
    }
    // Every fragment fits the MTU, checksums, and offsets chain up.
    let mut reassembled = Vec::new();
    let mut expected_offset = 0usize;
    for (i, f) in frags.iter().enumerate() {
        assert!(f.len() <= 600);
        let p = Ipv4Packet::new_checked(f.data()).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(usize::from(p.frag_offset()) * 8, expected_offset);
        assert_eq!(p.more_frags(), i + 1 < frags.len());
        expected_offset += p.payload().len();
        reassembled.extend_from_slice(p.payload());
    }
    // Payload reassembles to the original transport bytes.
    let orig = Ipv4Packet::new_checked(&original[..]).unwrap();
    assert_eq!(reassembled, orig.payload());
    assert_eq!(r.stats().fragmented, 1);

    // DF set: dropped as too big.
    let d = r.receive(Mbuf::new(original, 0));
    assert!(matches!(
        d,
        Disposition::Dropped(router_plugins::core::ip_core::DropReason::TooBig)
    ));
}

#[test]
fn oversized_v6_dropped_not_fragmented() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        mtu: 600,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    let d = r.receive(Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(9), 1, 2, 1400).build(),
        0,
    ));
    assert!(matches!(
        d,
        Disposition::Dropped(router_plugins::core::ip_core::DropReason::TooBig)
    ));
    assert!(r.take_tx(1).is_empty());
}

/// Regression: the too-big returns bumped the data-path counter but never
/// the registry, so `stats` showed a drop `metrics` did not.
#[test]
fn too_big_drops_reach_the_drop_ledger() {
    use router_plugins::core::ip_core::DropReason;
    use router_plugins::core::obs::drop_reason_index;
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        mtu: 600,
        ..RouterConfig::default()
    });
    r.add_route("10.0.0.0".parse().unwrap(), 8, 1);
    r.add_route(v6_host(0), 32, 1);
    let src: std::net::IpAddr = "10.0.0.1".parse().unwrap();
    let dst: std::net::IpAddr = "10.0.0.9".parse().unwrap();
    // The builder sets DF on IPv4; IPv6 never fragments in transit.
    for pkt in [
        PacketSpec::udp(src, dst, 4000, 5000, 1400).build(),
        PacketSpec::udp(v6_host(1), v6_host(9), 1, 2, 1400).build(),
    ] {
        assert_eq!(
            r.receive(Mbuf::new(pkt, 0)),
            Disposition::Dropped(DropReason::TooBig)
        );
    }
    let s = r.stats();
    let m = r.metrics_snapshot();
    assert_eq!(s.dropped_too_big, 2);
    assert_eq!(m.drops[drop_reason_index(DropReason::TooBig)], 2);
    assert_eq!(s.dropped_total(), m.drops.iter().sum::<u64>());
    let json = run_command(&mut r, "metrics json").unwrap();
    assert!(json.contains("\"too_big\":2"), "{json}");
}

// ---------------------------------------------------------------------
// The evicted key is the evicted flow's key, on every eviction path
// ---------------------------------------------------------------------

type KeyLog = Arc<Mutex<Vec<(FlowKey, u64)>>>;

/// A stats plugin that counts each flow's packets in its soft-state slot
/// and writes down every key `flow_unbound` hands it, with that count.
struct Unbinds(KeyLog);
struct UnbindsInstance(KeyLog);

impl Plugin for Unbinds {
    fn name(&self) -> &str {
        "unbinds"
    }
    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::STATS, 98)
    }
    fn create_instance(&mut self, _: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(UnbindsInstance(self.0.clone())))
    }
}

impl PluginInstance for UnbindsInstance {
    fn handle_packet(&mut self, _: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let n = ctx.soft_state.get_or_insert_with(|| Box::new(0u64));
        *n.downcast_mut::<u64>().unwrap() += 1;
        PluginAction::Continue
    }
    fn flow_unbound(&mut self, _: FlowIndex, key: &FlowKey, soft: SoftState, _: &mut Vec<Mbuf>) {
        let n = soft.map_or(0, |b| *b.downcast::<u64>().unwrap());
        self.0.lock().unwrap().push((*key, n));
    }
}

/// A router whose stats gate binds an `unbinds` instance to every UDP
/// flow, in an 8-record flow table, plus the flows sent and not yet
/// handed back — by their `FlowKey::extract` key and spelled out.
struct Evictions {
    r: Router,
    log: KeyLog,
    v6: bool,
    live: Vec<(FlowKey, FlowTuple)>,
}

impl Evictions {
    fn new(v6: bool, script: &str) -> Evictions {
        let mut r = Router::new(RouterConfig {
            verify_checksums: false,
            flow_table: FlowTableConfig {
                buckets: 64,
                max_buckets: 0,
                initial_records: 4,
                max_records: 8,
                ..RouterConfig::default().flow_table
            },
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        let log = KeyLog::default();
        let unbinds = log.clone();
        r.loader
            .add_factory("unbinds", move || Box::new(Unbinds(unbinds.clone())))
            .unwrap();
        r.add_route(v6_host(0), 32, 1);
        r.add_route("10.0.0.0".parse().unwrap(), 8, 1);
        r.tracer_mut().set_enabled(true);
        let setup = "load unbinds\ncreate unbinds\nbind stats unbinds 0 <*, *, UDP, *, *, *>";
        run_script(&mut r, &format!("{setup}\n{script}")).expect("setup script");
        Evictions {
            r,
            log,
            v6,
            live: Vec::new(),
        }
    }

    /// Flow `i`, spelled out.
    fn flow(&self, i: u16) -> FlowTuple {
        let (src, dst) = if self.v6 {
            (v6_host(i + 1), v6_host(900))
        } else {
            let host = |h: u16| IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | u32::from(h)));
            (host(i + 1), host(900))
        };
        FlowTuple {
            src,
            dst,
            proto: 17,
            sport: 1000 + i,
            dport: 80,
            rx_if: 0,
        }
    }

    /// One packet of flow `i`.
    fn send(&mut self, i: u16) -> Disposition {
        let t = self.flow(i);
        let m = Mbuf::new(
            PacketSpec::udp(t.src, t.dst, t.sport, t.dport, 32).build(),
            0,
        );
        let key = FlowKey::extract(m.data(), m.rx_if).unwrap();
        if !self.live.iter().any(|(k, _)| *k == key) {
            self.live.push((key, t));
        }
        self.r.receive(m)
    }

    /// The flows handed to `flow_unbound` since the last call, in order:
    /// each key must be a live flow's, which is live no more.
    fn unbound(&mut self) -> Vec<FlowTuple> {
        let keys = std::mem::take(&mut *self.log.lock().unwrap());
        let take = |k: FlowKey| {
            let at = self.live.iter().position(|(l, _)| *l == k);
            let at = at.unwrap_or_else(|| panic!("unbound {k}, the key of no live flow"));
            self.live.remove(at).1
        };
        keys.into_iter().map(|(k, _)| k).map(take).collect()
    }

    /// The flow trace's latest `n` lines.
    fn flow_trace(&self, n: usize) -> Vec<String> {
        let events = self.r.tracer().dump(usize::MAX).into_iter();
        let flow = events.filter(|e| e.category == TraceCategory::Flow);
        let lines: Vec<String> = flow.map(|e| e.detail).collect();
        lines[lines.len().saturating_sub(n)..].to_vec()
    }
}

/// Flows `0..n` sent until `live` holds each of them.
fn sent(v6: bool, script: &str, n: u16) -> Evictions {
    let mut e = Evictions::new(v6, script);
    for i in 0..n {
        e.send(i);
    }
    assert!(e.unbound().is_empty());
    assert_eq!(e.live.len(), usize::from(n));
    e
}

#[test]
fn lru_recycle_hands_back_the_recycled_flows_key() {
    for v6 in [false, true] {
        let mut e = sent(v6, "", 8);
        for i in 8..24 {
            e.send(i);
            let gone = e.unbound();
            assert_eq!(gone.len(), 1, "flow {i} recycles one record");
            let want = format!("flow recycled at firewall: {}", gone[0]);
            assert_eq!(e.flow_trace(1), [want]);
        }
    }
}

#[test]
fn filter_install_hands_back_each_invalidated_flows_key() {
    for v6 in [false, true] {
        let mut e = sent(v6, "load null\ncreate null", 6);
        run_command(&mut e.r, "bind fw null 0 <*, *, UDP, *, *, *>").unwrap();
        assert_eq!(e.unbound().len(), 6);
        assert!(e.live.is_empty());
    }
}

#[test]
fn filter_removal_hands_back_each_derived_flows_key() {
    for v6 in [false, true] {
        let bound = "load null\ncreate null\nbind fw null 0 <*, *, UDP, 1002-1003, *, *>";
        let mut e = sent(v6, bound, 6);
        run_command(&mut e.r, "unbind fw null 0").unwrap();
        let gone = e.unbound();
        assert_eq!(gone, [e.flow(2), e.flow(3)]);
    }
}

#[test]
fn idle_expiry_hands_back_each_expired_flows_key() {
    for v6 in [false, true] {
        let mut e = sent(v6, "", 5);
        e.r.set_time_ns(5_000_000_000);
        e.send(0);
        e.send(3);
        e.r.set_time_ns(6_000_000_000);
        assert_eq!(e.r.expire_idle_flows(2_000_000_000), 3);
        let gone = e.unbound();
        assert_eq!(gone, [e.flow(1), e.flow(2), e.flow(4)]);
        let trace = e.flow_trace(3);
        let want = gone.iter().map(|t| format!("flow expired: {t}"));
        assert_eq!(trace, want.collect::<Vec<_>>());
    }
}

#[test]
fn quarantine_hands_back_each_flow_of_the_faulted_instance() {
    for v6 in [false, true] {
        let chaos = "load chaos\ncreate chaos\nbind fw chaos 0 <*, *, UDP, *, *, *>";
        let mut e = sent(v6, chaos, 6);
        run_command(&mut e.r, "msg chaos 0 set mode=panic").unwrap();
        // The third fault quarantines the instance, and every flow bound
        // to it — all six — is re-resolved.
        for i in 0..3 {
            e.send(i);
        }
        assert_eq!(e.r.stats().plugin_quarantines, 1);
        assert_eq!(e.unbound().len(), 6);
        assert!(e.live.is_empty());
    }
}

// ---------------------------------------------------------------------
// Every transmitted packet names the interface it left on
// ---------------------------------------------------------------------

/// A 1 400-byte IPv4 UDP packet from `src` to `dst` with `ttl` hops left,
/// arriving on `rx_if`, with DF clear so an egress MTU of 600 fragments it
/// into three.
fn v4_fragmentable(src: u32, dst: u32, ttl: u8, rx_if: u32) -> Mbuf {
    use router_plugins::packet::ipv4::Ipv4Packet;
    let (src, dst) = (Ipv4Addr::from(src).into(), Ipv4Addr::from(dst).into());
    let mut spec = PacketSpec::udp(src, dst, 4000, 5000, 1372);
    spec.ttl = ttl;
    let mut bytes = spec.build();
    bytes[6] &= !0x40;
    Ipv4Packet::new_unchecked(&mut bytes[..]).fill_checksum();
    Mbuf::new(bytes, rx_if)
}

/// Every packet `take_tx(i)` hands back carries `tx_if == Some(i)` and
/// was counted in `if_tx_packets[i]`, on the single router and on two
/// shards, along the two paths that can break it. One DRR instance serves
/// flows routed to interfaces 1 and 2: each packet queues three fragments
/// and the one-packet pump after it leaves two behind, which the next pump
/// of the other interface dequeues. And an ICMP Time Exceeded reply
/// leaves on the receive interface. A forced unload then drains what is
/// still queued through the same check.
#[test]
fn every_packet_leaves_on_the_interface_its_route_chose() {
    use router_plugins::core::loader::PluginLoader;
    use router_plugins::core::{DataPlane, ParallelRouter, ParallelRouterConfig};
    const SCRIPT: &str = "load drr\ncreate drr quantum=1500 limit=256\n\
                          bind sched drr 0 <*, *, UDP, *, *, *>\n\
                          route 20.0.1.0/24 1\nroute 20.0.2.0/24 2";
    const FLOWS: u32 = 32;
    const EXPIRED: u32 = 4;
    let cfg = RouterConfig {
        verify_checksums: false,
        mtu: 600,
        ..RouterConfig::default()
    };
    // Flows alternate between 20.0.1.0/24 and 20.0.2.0/24; every eighth
    // is followed by a packet arriving on interface 3 with one hop left.
    let traffic = || {
        let mut pkts = Vec::new();
        for flow in 0..FLOWS {
            let dst = 0x1400_0100 + ((flow % 2) << 8) + flow;
            pkts.push(v4_fragmentable(0x0A00_0000 + flow, dst, 64, 0));
            if flow % (FLOWS / EXPIRED) == 0 {
                pkts.push(v4_fragmentable(0x0A00_0000 + flow, dst, 1, 3));
            }
        }
        pkts
    };
    // The whole run on either plane: set up, one burst, a forced unload,
    // a flush, then each interface's log against the merged counters.
    fn run<P: DataPlane>(name: &str, mut plane: P, mut traffic: Vec<Mbuf>) {
        run_script(&mut plane, SCRIPT).unwrap();
        plane.cp_set_interface_addr(3, "10.9.9.9".parse().unwrap());
        plane.receive_burst(&mut traffic, 0);
        run_command(&mut plane, "unload drr force").unwrap();
        plane.flush();
        let m = plane.cp_counter_rows().swap_remove(0).metrics;
        let mut sent = Vec::new();
        for i in 0..4 {
            let mut log = Vec::new();
            plane.take_tx_into(i, &mut log);
            let on: Vec<_> = log.iter().map(|p| p.tx_if).collect();
            assert_eq!(on, vec![Some(i); on.len()], "{name}: if{i}");
            assert_eq!(m.if_tx_packets[i as usize], on.len() as u64, "{name}");
            sent.push(on.len());
        }
        let half = (FLOWS / 2 * 3) as usize;
        assert_eq!(sent, [0, half, half, EXPIRED as usize], "{name}");
    }

    let mut r = Router::new(cfg.clone());
    register_builtin_factories(&mut r.loader);
    run("router", r, traffic());

    let mut template = PluginLoader::new();
    register_builtin_factories(&mut template);
    let two = ParallelRouterConfig {
        shards: 2,
        router: cfg,
        ..ParallelRouterConfig::default()
    };
    run("2 shards", ParallelRouter::new(two, &template), traffic());
}
