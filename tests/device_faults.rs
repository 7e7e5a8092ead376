//! Device supervision under real faults: a UDP egress whose peer dies
//! (connected-socket `ECONNREFUSED`) degrades and then recovers, a
//! deadline-shedding regression at the core, and the full chaos soak —
//! FaultyDev flapping every bound device plus mid-run shard kills over
//! a 10k+ packet run — ending with exact wire-to-wire conservation and
//! at least one quarantine→reopen cycle.

use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_script;
use router_plugins::core::supervisor::HealthState;
use router_plugins::core::{
    ControlPlane, DataPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netdev::udp::UdpDev;
use router_plugins::netdev::{DeviceSupervisorConfig, FaultProgram, FaultyDev, IoPlane};
use router_plugins::netsim::traffic::{v6_host, Workload};
use router_plugins::packet::coarse_now_ns;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

const SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n";

fn single_router(max_sojourn_ns: u64) -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        max_sojourn_ns,
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
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 4096,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut pr, SCRIPT).unwrap();
    pr.cp_add_route(v6_host(0), 32, 1);
    pr
}

/// A connected UDP egress whose peer has died answers every send with
/// `ECONNREFUSED`; the supervisor must degrade the device on the error
/// deltas and recover it once the errors stop — with the conservation
/// ledger exact throughout (every refused packet is a counted drop).
#[test]
fn udp_dead_peer_degrades_then_recovers() {
    // A sink that exists long enough to learn its address, then dies.
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink.local_addr().unwrap();
    drop(sink);

    let egress = UdpDev::connect("a1", "127.0.0.1:0", sink_addr).unwrap();
    let (ingress, _peer) = LoopbackDev::pair("lo-in", "peer-in", 4096);
    let in_handle = ingress.handle();

    let mut plane = IoPlane::new(single_router(0), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));
    plane.supervise(DeviceSupervisorConfig {
        error_threshold: 4,
        error_window_polls: 4,
        // Only the error path is under test: the egress never receives,
        // so the stall detector must stay out of the way, and the
        // quarantine threshold is set beyond this test's horizon.
        rx_stall_polls: u32::MAX,
        quarantine_after: u32::MAX,
        recover_after: 4,
        ..DeviceSupervisorConfig::default()
    });

    let workload = Workload::uniform(4, 16, 128);
    let tb = router_plugins::netsim::testbench::Testbench::new(&workload);
    for pkt in tb.packets() {
        assert!(in_handle.inject(pkt.data()));
        plane.poll();
    }
    plane.poll_until_quiet(4, 1000);

    let rows = plane.device_rows();
    let a1 = rows.iter().find(|r| r.name == "a1").unwrap();
    assert_eq!(
        a1.health,
        Some(HealthState::Degraded),
        "dead peer must degrade the egress device ({:?})",
        a1.stats
    );
    // The kernel reports the queued ECONNREFUSED to whichever syscall
    // touches the socket next — the send *or* the ingress-side recv — so
    // the hard failures may land on either counter.
    assert!(
        a1.stats.tx_errors + a1.stats.rx_errors > 0,
        "ECONNREFUSED must count as a hard I/O error"
    );
    plane.check_conservation();

    // Quiet wire: the error window decays, clean polls accumulate, and
    // the device recovers without ever being quarantined.
    for _ in 0..64 {
        plane.poll();
    }
    let rows = plane.device_rows();
    let a1 = rows.iter().find(|r| r.name == "a1").unwrap();
    assert_eq!(
        a1.health,
        Some(HealthState::Healthy),
        "errors stopped, must recover"
    );
    assert_eq!(a1.quarantines, 0);
    plane.check_conservation();
}

/// The deadline shed at the core: a packet older than `max_sojourn_ns`
/// at dequeue is dropped as a counted `DeadlineExceeded`, the sojourn
/// histogram sees every stamped packet, and the internal ledger stays
/// exact. Both readings are synthetic — stamp at `t`, present at
/// `t + 1 ms` — so the outcome cannot depend on how old the process is.
fn shed_stale_half(t: u64) {
    let mut r = single_router(1_000);
    let workload = Workload::uniform(2, 8, 128);
    let tb = router_plugins::netsim::testbench::Testbench::new(&workload);

    let wall = t + 1_000_000;
    let mut fresh = 0u64;
    let mut stale = 0u64;
    for (n, pkt) in tb.packets().iter().enumerate() {
        let mut m = pkt.clone();
        if n % 2 == 0 {
            m.stamp_ingress(wall); // within deadline (sojourn 0)
            fresh += 1;
        } else {
            m.stamp_ingress(t); // 1ms old
            stale += 1;
        }
        r.receive_burst(&mut vec![m], wall);
    }
    let s = r.stats();
    assert_eq!(s.dropped_deadline, stale, "every stale packet must shed");
    assert_eq!(
        s.received,
        fresh + stale,
        "shed packets still count received"
    );
    assert_eq!(s.received, s.forwarded + s.dropped_total());
    let m = r.metrics_snapshot();
    assert_eq!(m.sojourn_ns.count, fresh + stale);
    assert!(
        m.sojourn_ns.quantile(0.99) >= 1_000_000 / 2,
        "stale sojourns recorded"
    );
}

#[test]
fn deadline_shedding_counts_and_conserves() {
    shed_stale_half(coarse_now_ns());
}

/// Regression: the stamp used to share `timestamp_ns` with "0 =
/// unstamped", so a packet stamped at the clock's very first reading
/// was never aged, shed, or recorded.
#[test]
fn a_stamp_at_clock_zero_is_still_a_stamp() {
    shed_stale_half(0);
}

/// The acceptance soak: both bound devices wrapped in [`FaultyDev`] and
/// flapped mid-run (ingress frame drops, egress hard-fail with
/// heal-on-reopen), two mid-run shard kills, 10k+ packets. Ends with
/// exact conservation, ≥1 device quarantine→reopen cycle, and a
/// populated sojourn histogram.
#[test]
fn chaos_soak_flaps_devices_kills_shards_and_conserves() {
    const PACKETS: usize = 12_000;
    const CHUNK: usize = 200;

    let (ingress, _peer_in) = LoopbackDev::pair("lo-in", "peer-in", 1 << 15);
    let (egress, _peer_out) = LoopbackDev::pair("lo-out", "peer-out", 1 << 15);
    let in_handle = ingress.handle();
    let out_handle = egress.handle();
    let (f_in, ctl_in) = FaultyDev::wrap(Box::new(ingress));
    let (f_out, ctl_out) = FaultyDev::wrap(Box::new(egress));

    let mut plane = IoPlane::new(parallel_router(2), CHUNK);
    plane.bind(0, Box::new(f_in));
    plane.bind(1, Box::new(f_out));
    plane.supervise(DeviceSupervisorConfig {
        error_threshold: 8,
        error_window_polls: 16,
        rx_stall_polls: u32::MAX,
        quarantine_after: 4,
        recover_after: 2,
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
    });

    let workload = Workload::uniform(24, PACKETS / 24, 200);
    let tb = router_plugins::netsim::testbench::Testbench::new(&workload);
    let packets = tb.packets();
    let chunks: Vec<_> = packets.chunks(CHUNK).collect();
    let n_chunks = chunks.len();

    for (ci, chunk) in chunks.into_iter().enumerate() {
        // Flap schedule: ingress drops every 5th frame through the first
        // quarter; egress hard-fails (healable) through the middle —
        // long enough at quarantine_after=4 to force a quarantine, whose
        // reopen then heals the fault.
        if ci == n_chunks / 8 {
            ctl_in.update(|p| p.drop_rx_every = 5);
        }
        if ci == n_chunks / 4 {
            ctl_in.set(FaultProgram::default());
        }
        if ci == n_chunks / 3 {
            ctl_out.update(|p| {
                p.fail_tx = true;
                p.heal_on_reopen = true;
            });
        }
        // Two mid-run shard kills (the shard tier journals and rebuilds).
        if ci == n_chunks / 2 || ci == (3 * n_chunks) / 4 {
            let _ = plane.plane_mut().cp_shard_kill(ci % 2);
        }
        for pkt in chunk {
            assert!(in_handle.inject(pkt.data()), "ingress wire overflow");
        }
        plane.poll();
        plane.poll();
        while out_handle.drain_tx().is_some() {}
        // Give the quarantine backoff wall-clock room to elapse so the
        // reopen (and its heal) actually happens mid-run.
        if plane
            .device_rows()
            .iter()
            .any(|r| r.health == Some(HealthState::Quarantined))
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Clear all faults and let everything settle: quarantined devices
    // reopen, shards drain, egress empties.
    ctl_in.set(FaultProgram::default());
    ctl_out.set(FaultProgram::default());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        plane.poll_until_quiet(4, 200);
        while out_handle.drain_tx().is_some() {}
        let rows = plane.device_rows();
        let all_live = rows
            .iter()
            .all(|r| r.health != Some(HealthState::Quarantined));
        if all_live || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    plane.poll_until_quiet(4, 1000);

    // The soak must have genuinely hurt — and healed.
    let rows = plane.device_rows();
    let quarantines: u64 = rows.iter().map(|r| r.quarantines).sum();
    let reopens: u64 = rows.iter().map(|r| r.reopens).sum();
    assert!(quarantines >= 1, "no device was ever quarantined: {rows:?}");
    assert!(
        reopens >= 1,
        "no quarantine→reopen cycle completed: {rows:?}"
    );
    assert!(
        rows.iter()
            .all(|r| r.health != Some(HealthState::Quarantined)),
        "faults cleared, every device must be back on the wire: {rows:?}"
    );
    let led = plane.ledger();
    assert!(
        led.device_rx as usize >= PACKETS / 2,
        "soak barely ran: {led:?}"
    );
    assert!(
        led.tx_errors + led.tx_dropped > 0,
        "injected egress faults must be visible in the ledger: {led:?}"
    );

    // Exact wire-to-wire conservation across device death, revival, and
    // shard kills — the whole point.
    plane.check_conservation();

    // Ingress stamping flowed through to the sojourn histogram.
    let m = plane.plane_mut().metrics_snapshot();
    assert!(m.sojourn_ns.count > 0, "sojourn histogram never populated");
}
