//! End-to-end data-path tests spanning every crate: the cached/uncached
//! flow paths of paper §3.2, IPsec transforms in the forwarding path,
//! IPv6 option handling, scheduling at egress, and eviction callbacks.

use router_plugins::core::ip_core::Disposition;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{Router, RouterConfig};
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::ext_hdr::Ipv6Option;
use router_plugins::packet::ipv6::Ipv6Packet;
use router_plugins::packet::{Mbuf, Protocol};

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
    // Without an interface address, no ICMP is generated.
    let mut r2 = router("");
    let mut spec = PacketSpec::udp(v6_host(1), v6_host(9), 5, 6, 32);
    spec.ttl = 1;
    r2.receive(Mbuf::new(spec.build(), 0));
    assert!(r2.take_tx(0).is_empty());
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
