//! One differential table. Every data-plane shape replays the same
//! traffic and must do with it what one reference does: the paper's
//! single-threaded `Router` on the paper-default flow table, fed cloned
//! packets one at a time, its scheduler pumped after each `Queued`. A
//! row names a shape (plane, flow table, how traffic reaches it); one
//! checker compares the row with the reference of its traffic set, and
//! asserts that the row's own mechanism engaged.

use router_plugins::classifier::flow_table::{FlowTableConfig, FlowTableStats};
use router_plugins::core::dataplane::control::{ControlCmd, ShardAnswer};
use router_plugins::core::ip_core::Disposition;
use router_plugins::core::message::PluginReply;
use router_plugins::core::obs::MetricsSnapshot;
use router_plugins::core::plugin::PluginError;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_script;
use router_plugins::core::{
    ControlPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netdev::pcap::{PcapReplayDev, LINKTYPE_ETHERNET};
use router_plugins::netdev::{IoPlane, IoRouter};
use router_plugins::netsim::testbench::Testbench;
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::mbuf::IfIndex;
use router_plugins::packet::{FlowTuple, Mbuf, MbufPool};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::OnceLock;

/// A traffic set: the pmgr script every plane runs first, the packets,
/// and the packet before which `route 10.1.0.0/16 3` is applied.
struct Set {
    script: String,
    packets: Vec<Mbuf>,
    route_at: Option<usize>,
}

/// (src, dst, sport, dport, packets) of one flow.
type Flow = (IpAddr, IpAddr, u16, u16, usize);

/// The firewall denies dport 9999; a null instance watches every flow.
const GATES: &str = "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>\n\
     load firewall\ncreate firewall action=deny\nbind fw firewall 0 <*, *, UDP, *, 9999, *>\n";

/// The flows interleaved round robin, each packet stamped with its
/// per-flow sequence number (its round) in its last four payload bytes
/// (checksums are not verified here), so a reordering within a flow
/// shows.
fn stamped(flows: Vec<Flow>, payload_len: usize) -> Vec<Mbuf> {
    let mut packets = Vec::new();
    for round in 0..flows.iter().map(|f| f.4).max().unwrap_or(0) {
        for &(src, dst, sport, dport, _) in flows.iter().filter(|f| round < f.4) {
            let mut m = Mbuf::new(
                PacketSpec::udp(src, dst, sport, dport, payload_len).build(),
                0,
            );
            let n = m.len();
            m.data_mut()[n - 4..].copy_from_slice(&(round as u32).to_be_bytes());
            packets.push(m);
        }
    }
    packets
}

/// v6 fates: 24 DRR-scheduled flows, 4 firewall-denied and 4 unrouted
/// (fc00::/7, outside the route).
fn v6_fates() -> Set {
    let scheduled = |i| {
        (
            v6_host(10 + i),
            v6_host(200 + i % 5),
            4000 + i,
            80,
            20 + i as usize % 7,
        )
    };
    let mut flows: Vec<Flow> = (0..24u16).map(scheduled).collect();
    for i in 0..4u16 {
        flows.push((v6_host(50 + i), v6_host(210), 4100 + i, 9999, 10));
        let ula = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, i).into();
        flows.push((v6_host(60 + i), ula, 4200 + i, 80, 8));
    }
    let drr = "load drr\ncreate drr quantum=9180 limit=512\nattach 1 drr 0\n\
               bind sched drr 0 <*, *, UDP, *, *, *>\nroute 2001:db8::/32 1\n";
    Set {
        script: format!("{GATES}{drr}"),
        packets: stamped(flows, 128),
        route_at: None,
    }
}

/// v4 churn: 384 forwarded flows over two routed prefixes, twice the
/// scale table's record cap, plus 8 firewall-denied and 8 unrouted
/// flows; `route 10.1.0.0/16 3` lands halfway through.
fn v4_churn() -> Set {
    let v4 = |a, b, c, d| IpAddr::V4(Ipv4Addr::new(a, b, c, d));
    let mut flows: Vec<Flow> = (0..384u32)
        .map(|i| {
            let src = v4(192, 0, 2, (i % 200) as u8 + 1);
            let dst = v4(10, (i % 128) as u8, (i / 128) as u8 + 1, 7);
            (src, dst, 4000 + i as u16, 80, 3 + i as usize % 4)
        })
        .collect();
    for i in 0..8u8 {
        let sport = 4100 + u16::from(i);
        flows.push((v4(192, 0, 2, 250), v4(10, 1, 1, i + 1), sport, 9999, 6));
        let unrouted = v4(172, 16, 0, i + 1);
        flows.push((v4(192, 0, 2, 251), unrouted, sport + 100, 80, 4));
    }
    let packets = stamped(flows, 64);
    Set {
        script: format!("{GATES}route 10.0.0.0/8 1\nroute 10.64.0.0/10 2\n"),
        route_at: Some(packets.len() / 2),
        packets,
    }
}

fn route_event(plane: &mut impl ControlPlane) {
    plane.cp_add_route(IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)), 16, 3);
}

/// Forced through many incremental resizes and LRU evictions: 16 boot
/// buckets doubling up to 1 024, and a 192-record cap.
const SCALE_RECORDS: usize = 192;

fn config(scale: bool) -> RouterConfig {
    let paper = RouterConfig::default().flow_table;
    let flow_table = match scale {
        false => paper,
        true => FlowTableConfig {
            buckets: 16,
            max_buckets: 1 << 10,
            initial_records: 32,
            max_records: SCALE_RECORDS,
            lru_evict: true,
            ..paper
        },
    };
    RouterConfig {
        verify_checksums: false,
        flow_table,
        ..RouterConfig::default()
    }
}

fn single(set: &Set, scale: bool) -> Router {
    let mut r = Router::new(config(scale));
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, &set.script).unwrap();
    r
}

fn parallel(set: &Set, scale: bool) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let shape = ParallelRouterConfig {
        shards: 4,
        router: config(scale),
        ingress_depth: 256,
        ..ParallelRouterConfig::default()
    };
    let mut pr = ParallelRouter::new(shape, &template);
    run_script(&mut pr, &set.script).unwrap();
    pr
}

/// Every packet put on the wire, (egress interface, bytes), in
/// emission order on each interface.
type Wire = Vec<(IfIndex, Vec<u8>)>;

/// What a run left for an outside observer.
struct Observed {
    wire: Wire,
    /// Per-packet dispositions, where the feed sees them.
    dispositions: Option<Vec<Disposition>>,
    /// The plane's total counter row.
    totals: MetricsSnapshot,
    /// Each router's flow-table counters.
    tables: Vec<FlowTableStats>,
}

fn observe(
    plane: &mut impl ControlPlane,
    wire: Wire,
    dispositions: Option<Vec<Disposition>>,
) -> Observed {
    let totals = plane.cp_counter_rows().swap_remove(0).metrics;
    let tables = plane.cp_query(|r| r.flow_stats()).into_iter();
    let tables = tables.map(|(_, a)| a.ok().expect("every router answers"));
    Observed {
        wire,
        dispositions,
        totals,
        tables: tables.collect(),
    }
}

/// The reference loop: cloned packets, one `receive` each, `pump(i, 1)`
/// after each `Queued`.
fn per_packet(mut r: Router, set: &Set) -> Observed {
    let mut dispositions = Vec::new();
    for (n, pkt) in set.packets.iter().enumerate() {
        if set.route_at == Some(n) {
            route_event(&mut r);
        }
        let d = r.receive(pkt.clone());
        if let Disposition::Queued(i) = d {
            r.pump(i, 1);
        }
        dispositions.push(d);
    }
    let mut wire = Wire::new();
    for i in 0..r.interface_count() as IfIndex {
        wire.extend(r.take_tx(i).iter().map(|m| (i, m.data().to_vec())));
    }
    observe(&mut r, wire, Some(dispositions))
}

/// A data plane whose wire the table reads: what the driver takes off
/// an interface is copied here before the driver recycles it.
struct Tap<P> {
    plane: P,
    wire: Wire,
}

impl<P: IoRouter> ControlPlane for Tap<P> {
    fn cp_apply(&mut self, cmd: ControlCmd) -> Result<PluginReply, PluginError> {
        self.plane.cp_apply(cmd)
    }

    fn cp_query<R, F>(&mut self, f: F) -> Vec<(Option<usize>, ShardAnswer<R>)>
    where
        R: Send + 'static,
        F: Fn(&Router) -> R + Send + Sync + 'static,
    {
        self.plane.cp_query(f)
    }
}

impl<P: IoRouter> IoRouter for Tap<P> {
    fn io_inject_batch(&mut self, batch: &mut Vec<Mbuf>) {
        self.plane.io_inject_batch(batch);
    }

    fn io_flush(&mut self) {
        self.plane.io_flush();
    }

    fn io_take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        let start = out.len();
        self.plane.io_take_tx_into(iface, out);
        let sent = out[start..].iter().map(|m| (iface, m.data().to_vec()));
        self.wire.extend(sent);
    }

    fn io_pool(&mut self) -> &mut MbufPool {
        self.plane.io_pool()
    }

    fn io_note_device_rx_drops(&mut self, n: u64) {
        self.plane.io_note_device_rx_drops(n);
    }

    fn io_note_device_tx_drops(&mut self, n: u64) {
        self.plane.io_note_device_tx_drops(n);
    }

    fn io_interface_count(&self) -> usize {
        self.plane.io_interface_count()
    }
}

/// How a row's traffic reaches its plane.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Feed {
    /// The reference loop (a `Router` only).
    PerPacket,
    /// `Testbench::run` at this batch size: pooled buffers, the burst
    /// or batched entry, recycled egress.
    Driver(usize),
    /// An `IoPlane` with a loopback pair on every interface, fed
    /// through if0's.
    Loopback,
    /// The same, with if0 a `PcapReplayDev` replaying the set's
    /// recording.
    Pcap,
}

/// Run a plane on a driver or device feed; `engaged` then checks the
/// plane's own mechanism.
fn shaped<P: IoRouter>(plane: P, set: &Set, feed: Feed, engaged: fn(&mut P)) -> Observed {
    let packets = set.packets.len() as u64;
    if let Feed::Driver(batch) = feed {
        let mut tap = Tap {
            plane,
            wire: Vec::new(),
        };
        let (before, after) = set
            .packets
            .split_at(set.route_at.unwrap_or(set.packets.len()));
        Testbench::from(before.to_vec()).run(&mut tap, 1, batch);
        if set.route_at.is_some() {
            route_event(&mut tap);
        }
        Testbench::from(after.to_vec()).run(&mut tap, 1, batch);
        engaged(&mut tap.plane);
        return observe(&mut tap.plane, tap.wire, None);
    }
    assert!(set.route_at.is_none(), "devices replay the set in one go");
    let mut io = IoPlane::new(plane, 64);
    let first = match feed {
        Feed::Pcap => {
            let trace = Testbench::from(set.packets.clone()).record_pcap(LINKTYPE_ETHERNET, false);
            io.bind(0, Box::new(PcapReplayDev::new("pcap", &trace).unwrap()));
            1
        }
        _ => 0,
    };
    let mut handles = Vec::new();
    for i in first..io.plane().io_interface_count() as IfIndex {
        let (dev, _peer) = LoopbackDev::pair(&format!("lo{i}"), &format!("peer{i}"), 4096);
        handles.push((i, dev.handle()));
        io.bind(i, Box::new(dev));
    }
    if feed == Feed::Loopback {
        for pkt in &set.packets {
            assert!(handles[0].1.inject(pkt.data()), "ingress wire overflow");
        }
    }
    io.poll_until_quiet(3, 10_000);
    let mut wire = Wire::new();
    for (i, h) in &handles {
        wire.extend(std::iter::from_fn(|| h.drain_tx()).map(|f| (*i, f)));
    }
    io.check_conservation();
    let led = io.ledger();
    let counts = (led.device_rx, led.injected, led.device_tx);
    assert_eq!(counts, (packets, packets, wire.len() as u64), "{led:?}");
    assert_eq!(led.decap_dropped + led.tx_errors + led.tx_dropped, 0);
    engaged(io.plane_mut());
    observe(&mut io, wire, None)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Traffic {
    V6Fates,
    V4Churn,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Plane {
    Single,
    /// `ParallelRouter`, four shards.
    Parallel,
}

/// One shape: its traffic, its plane, its flow table (`true`: the
/// resizing, evicting one) and how the traffic reaches it.
#[derive(Debug)]
struct Row(Traffic, Plane, bool, Feed);

use Feed::*;
use Plane::*;
use Traffic::*;

fn run(&Row(_, plane, scale, feed): &Row, set: &Set) -> Observed {
    match (plane, feed) {
        (Single, PerPacket) => per_packet(single(set, scale), set),
        (Single, feed) => shaped(single(set, scale), set, feed, |_| {}),
        (Parallel, feed) => shaped(parallel(set, scale), set, feed, |p| {
            let carrier = p.batch_carrier();
            assert!(carrier.capacity() > 0, "no batch carrier came back");
        }),
    }
}

/// Delivered bytes keyed by egress interface and, with `by_flow`, by
/// the emitted packet's flow; each group in emission order.
fn deliveries(wire: &Wire, by_flow: bool) -> HashMap<String, Vec<&[u8]>> {
    let mut groups: HashMap<String, Vec<&[u8]>> = HashMap::new();
    for (iface, bytes) in wire {
        let key = match by_flow {
            true => format!("if{iface} {}", FlowTuple::extract(bytes, 0).unwrap()),
            false => format!("if{iface}"),
        };
        groups.entry(key).or_default().push(bytes);
    }
    groups
}

fn check(row: &Row, want: &Observed, got: &Observed, packets: u64) {
    let &Row(_, plane, scale, feed) = row;
    // Per flow on every row; whole-interface order on a single router.
    for by_flow in [true, false]
        .into_iter()
        .take(1 + usize::from(plane == Single))
    {
        let (w, g) = (
            deliveries(&want.wire, by_flow),
            deliveries(&got.wire, by_flow),
        );
        assert_eq!(w.len(), g.len(), "{row:?}: delivered groups");
        for (key, pkts) in &w {
            assert!(g.get(key) == Some(pkts), "{row:?}: delivery of {key}");
        }
    }
    let same = got.dispositions.is_none() || got.dispositions == want.dispositions;
    assert!(same, "{row:?}: dispositions");
    let d = got.totals.data_path();
    assert_eq!(d, want.totals.data_path(), "{row:?}: counters");
    assert_eq!(d.received, d.forwarded + d.dropped_total(), "{row:?}");
    assert!(got.totals.fib_cache_hit > 0, "{row:?}: FIB cache never hit");
    let (gf, wf) = (got.totals.flows, want.totals.flows);
    if scale {
        assert!(gf.resize_steps > 0, "{row:?}: no incremental resize");
        // Four shards hold ≈ 100 of the 400 flows each: under the cap,
        // so only the single router must evict.
        let evicted = gf.evicted_lru > 0 || plane == Parallel;
        assert!(evicted, "{row:?}: no LRU eviction");
        let over = got.tables.iter().filter(|t| t.live > SCALE_RECORDS);
        assert_eq!(over.count(), 0, "{row:?}: {:?}", got.tables);
    } else {
        let flows = |f: FlowTableStats| (f.hits, f.misses);
        assert_eq!(flows(gf), flows(wf), "{row:?}: flow cache");
    }
    if plane == Single && feed != PerPacket {
        let m = &got.totals;
        assert_eq!(m.mbuf_acquired, packets, "{row:?}: pool bypassed");
        assert!(m.mbuf_recycled > 0, "{row:?}: nothing recycled");
    }
}

/// The reference run of a traffic set, made once and shared by every
/// row of that set.
fn reference(traffic: Traffic) -> &'static (Set, Observed) {
    static V6: OnceLock<(Set, Observed)> = OnceLock::new();
    static V4: OnceLock<(Set, Observed)> = OnceLock::new();
    let (cell, set): (_, fn() -> Set) = match traffic {
        V6Fates => (&V6, v6_fates),
        V4Churn => (&V4, v4_churn),
    };
    cell.get_or_init(|| {
        let set = set();
        let want = per_packet(single(&set, false), &set);
        let moved = want
            .tables
            .iter()
            .filter(|t| t.resize_steps + t.evicted_lru > 0);
        assert_eq!(moved.count(), 0, "the reference's table resized or evicted");
        (set, want)
    })
}

/// The table: one test per row, each checked against the reference of
/// its traffic set.
macro_rules! rows {
    ($($(#[$doc:meta])* $name:ident: $row:expr,)*) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            let row = $row;
            let (set, want) = reference(row.0);
            check(&row, want, &run(&row, set), set.packets.len() as u64);
        }
    )*};
}

// Each group names the per-feature tests it replaced.
rows! {
    /// pooled_single_router_is_byte_identical_to_unpooled
    v6_single_driver64: Row(V6Fates, Single, false, Driver(64)),
    /// resizing_evicting_flow_table_matches_fixed_baseline
    v4_single_scale_per_packet: Row(V4Churn, Single, true, PerPacket),
    /// batched_parallel_is_byte_identical_to_per_packet_dispatch,
    /// batch_sizes_agree_with_each_other,
    /// parallel_over_rings_matches_single_router_deliveries_order_and_drops
    v6_parallel_driver1: Row(V6Fates, Parallel, false, Driver(1)),
    v6_parallel_driver8: Row(V6Fates, Parallel, false, Driver(8)),
    v6_parallel_driver64: Row(V6Fates, Parallel, false, Driver(64)),
    /// parallel_plane_matches_single_under_resize_and_route_churn
    v4_parallel_scale_driver1: Row(V4Churn, Parallel, true, Driver(1)),
    v4_parallel_scale_driver8: Row(V4Churn, Parallel, true, Driver(8)),
    v4_parallel_scale_driver64: Row(V4Churn, Parallel, true, Driver(64)),
    /// loopback_round_trip_conserves_and_reports_devices (its
    /// differential half), parallel_loopback_round_trip_conserves_per_flow,
    /// pcap_replay_matches_direct_run_on_both_planes
    v6_single_loopback: Row(V6Fates, Single, false, Loopback),
    v6_single_pcap: Row(V6Fates, Single, false, Pcap),
    v6_parallel_loopback: Row(V6Fates, Parallel, false, Loopback),
    v6_parallel_pcap: Row(V6Fates, Parallel, false, Pcap),
}
