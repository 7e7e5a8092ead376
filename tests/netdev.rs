//! The I/O plane, end to end over the in-memory backends: the pmgr
//! `devices` command, L2 decap drops counted (never panicking), the pcap
//! reader/writer golden round-trip plus checked-in fixtures in both
//! byte orders, and a proptest feeding arbitrary byte soup through the
//! full receive path. Loopback and pcap-replay delivery on both data
//! planes are rows of `tests/differential.rs`.

use proptest::prelude::*;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{DataPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig};
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netdev::pcap::{PcapFile, PcapWriter, LINKTYPE_ETHERNET, LINKTYPE_RAW};
use router_plugins::netdev::tap::TapDev;
use router_plugins::netdev::{IoPlane, NetDev, NetDevError};
use router_plugins::netsim::testbench::Testbench;
use router_plugins::netsim::traffic::{v6_host, Workload};

const SCRIPT: &str = "load drr\n\
     create drr quantum=9180 limit=512\n\
     attach 1 drr 0\n\
     bind sched drr 0 <*, *, UDP, *, *, *>\n";

fn single_router() -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, SCRIPT).unwrap();
    r.add_route(v6_host(0), 32, 1);
    r
}

fn parallel_router(shards: usize) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut par = ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 1024,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut par, SCRIPT).unwrap();
    run_command(&mut par, "route 2001:db8::/32 1").unwrap();
    par
}

// ---------------------------------------------------------------------
// pmgr devices over a loopback round trip
// ---------------------------------------------------------------------

#[test]
fn loopback_round_trip_reports_devices_and_stats() {
    let workload = Workload::uniform(8, 25, 256);
    let tb = Testbench::new(&workload);
    let (ingress, _peer_in) = LoopbackDev::pair("lo-in", "peer-in", 4096);
    let (egress, _peer_out) = LoopbackDev::pair("lo-out", "peer-out", 4096);
    let in_handle = ingress.handle();

    let mut plane = IoPlane::new(single_router(), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));
    for pkt in tb.packets() {
        assert!(in_handle.inject(pkt.data()), "ingress wire overflow");
    }
    plane.poll_until_quiet(2, 10_000);

    // The pmgr `devices` command sees both devices with live counters.
    let report = run_command(&mut plane, "devices").unwrap();
    assert!(
        report.contains("lo-in if0"),
        "missing ingress row: {report}"
    );
    assert!(
        report.contains("lo-out if1"),
        "missing egress row: {report}"
    );
    assert!(report.contains(&format!("rx={}pkts", workload.total_packets())));
    // And the rest of the command language still works through the
    // delegated control plane.
    let stats = run_command(&mut plane, "stats").unwrap();
    assert!(
        stats.contains("rx=200 fwd=200 dropped=0"),
        "stats broke under IoPlane: {stats}"
    );
}

// ---------------------------------------------------------------------
// Malformed wire input: counted drops, exact conservation, no panic
// ---------------------------------------------------------------------

#[test]
fn framed_garbage_becomes_counted_device_rx_drops() {
    let (ingress, _pi) = LoopbackDev::pair_framed("eth-in", "peer-in", 1024);
    let (egress, _po) = LoopbackDev::pair_framed("eth-out", "peer-out", 1024);
    let in_handle = ingress.handle();

    let mut plane = IoPlane::new(single_router(), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));

    // Truncated frame, ARP frame, and a valid Ethernet frame whose IP
    // payload is garbage (devices pass it; the IP core drops Malformed).
    in_handle.inject(&[0xde, 0xad]);
    let mut arp = vec![0u8; 42];
    (arp[12], arp[13]) = (0x08, 0x06);
    in_handle.inject(&arp);
    let mut bad_ip = vec![0u8; 30];
    (bad_ip[12], bad_ip[13]) = (0x08, 0x00);
    bad_ip[14] = 0x4f; // version 4, absurd IHL
    in_handle.inject(&bad_ip);

    plane.poll_until_quiet(2, 100);
    plane.check_conservation();

    let led = plane.ledger();
    assert_eq!(led.device_rx, 3);
    assert_eq!(led.decap_dropped, 2, "truncated + ARP dropped at decap");
    let stats = plane.plane_mut().stats();
    assert_eq!(stats.dropped_device_rx, 2);
    assert_eq!(stats.dropped_malformed, 1, "bad IP reaches the IP core");

    // Drop slots surface through the metrics registry by name.
    let metrics = run_command(&mut plane, "metrics").unwrap();
    assert!(
        metrics.contains("device_rx"),
        "device_rx drop slot missing from metrics: {metrics}"
    );
}

// ---------------------------------------------------------------------
// pcap: golden round-trip, fixtures
// ---------------------------------------------------------------------

#[test]
fn pcap_write_reparse_rewrite_is_byte_identical() {
    let workload = Workload::uniform(5, 10, 200);
    let tb = Testbench::new(&workload);
    for (linktype, big) in [
        (LINKTYPE_RAW, false),
        (LINKTYPE_RAW, true),
        (LINKTYPE_ETHERNET, false),
        (LINKTYPE_ETHERNET, true),
    ] {
        let bytes = tb.record_pcap(linktype, big);
        let parsed = PcapFile::parse(&bytes).unwrap();
        assert_eq!(parsed.linktype, linktype);
        assert_eq!(parsed.big_endian, big);
        assert_eq!(parsed.records.len(), workload.total_packets());
        // Re-serialize from the parsed form: must reproduce the file
        // byte for byte.
        let mut w = PcapWriter::new(parsed.linktype, parsed.big_endian);
        for r in &parsed.records {
            w.push(r.ts_sec, r.ts_usec, &r.data);
        }
        assert_eq!(
            w.into_bytes(),
            bytes,
            "pcap round-trip not byte-identical (linktype {linktype}, big_endian {big})"
        );
    }
}

/// The records both endianness fixtures must decode to.
fn fixture_records() -> Vec<(u32, u32, Vec<u8>)> {
    vec![
        (0, 1, vec![0x45, 0x00, 0x00, 0x04, 0xaa, 0xbb]),
        (1, 500_000, vec![0x60; 40]),
        (2, 999_999, vec![0x45; 20]),
    ]
}

#[test]
fn endianness_fixtures_parse_identically() {
    let le = include_bytes!("fixtures/replay_le.pcap");
    let be = include_bytes!("fixtures/replay_be.pcap");
    let fle = PcapFile::parse(le).unwrap();
    let fbe = PcapFile::parse(be).unwrap();
    assert!(!fle.big_endian);
    assert!(fbe.big_endian);
    assert_eq!(fle.linktype, LINKTYPE_RAW);
    assert_eq!(fbe.linktype, LINKTYPE_RAW);
    for f in [&fle, &fbe] {
        let got: Vec<(u32, u32, Vec<u8>)> = f
            .records
            .iter()
            .map(|r| (r.ts_sec, r.ts_usec, r.data.clone()))
            .collect();
        assert_eq!(got, fixture_records(), "fixture decoded wrong");
    }
}

/// Regenerates the checked-in fixtures. Run manually after a format
/// change: `cargo test --test netdev -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate_endianness_fixtures() {
    for (name, big) in [("replay_le.pcap", false), ("replay_be.pcap", true)] {
        let mut w = PcapWriter::new(LINKTYPE_RAW, big);
        for (s, us, data) in fixture_records() {
            w.push(s, us, &data);
        }
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, w.into_bytes()).unwrap();
    }
}

// ---------------------------------------------------------------------
// TAP: graceful skip without /dev/net/tun or CAP_NET_ADMIN
// ---------------------------------------------------------------------

#[test]
fn tap_unavailable_skips_gracefully() {
    match TapDev::open("rptap-test0") {
        Err(NetDevError::Unavailable(why)) => {
            eprintln!("skipping TAP test: {why}");
        }
        Err(e) => panic!("TAP open failed non-gracefully: {e}"),
        Ok(mut dev) => {
            // Device exists (privileged environment): a poll on the
            // fresh interface must not block or error.
            let r = dev.rx_batch(16, &mut |_p| {});
            assert_eq!(r.frames, r.delivered + r.dropped);
            assert_eq!(dev.stats().rx_errors, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Property: arbitrary wire bytes never panic, conservation stays exact
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_wire_bytes_never_panic_and_conserve(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..40),
        framed in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let (ingress, _pi) = if framed {
            LoopbackDev::pair_framed("in", "pi", 1024)
        } else {
            LoopbackDev::pair("in", "pi", 1024)
        };
        let (egress, _po) = LoopbackDev::pair("out", "po", 1024);
        let read = if parallel {
            conserve(parallel_router(2), ingress, egress, &frames)
        } else {
            conserve(single_router(), ingress, egress, &frames)
        };
        prop_assert_eq!(read, frames.len() as u64);
    }
}

/// Offer `frames` on `ingress` of a plane with `egress` on if1, poll it
/// quiet, check wire conservation and return the frames read.
fn conserve<P: DataPlane>(
    plane: P,
    ingress: LoopbackDev,
    egress: LoopbackDev,
    frames: &[Vec<u8>],
) -> u64 {
    let in_handle = ingress.handle();
    let mut plane = IoPlane::new(plane, 32);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));
    for f in frames {
        assert!(in_handle.inject(f));
    }
    plane.poll_until_quiet(3, 1000);
    plane.check_conservation();
    plane.ledger().device_rx
}
