//! Heap-allocation accounting for the zero-allocation fast path, under a
//! counting global allocator. This file holds exactly one test so no
//! concurrently running test can inflate the counters: with the pool
//! warm, a 10 000-packet steady-state run through the single-threaded
//! router must allocate no fresh mbuf buffers at all (pool `fresh`
//! counter), and its total allocator traffic must stay far below one
//! allocation per packet. The third phase holds the *slow* path to the same
//! ceiling: every fourth packet opens a flow that evicts another. The last
//! holds the parallel plane behind framed loopback devices — the plane the
//! benchmark's `wire_par` measures — to exactly zero, on every thread. The
//! fifth overflows a scheduler: a refused packet's buffer goes back to the
//! pool, not to the allocator.

use router_plugins::classifier::FlowTableConfig;
use router_plugins::core::ip_core::{Disposition, DropReason};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_script;
use router_plugins::core::{ParallelRouter, ParallelRouterConfig, Router, RouterConfig};
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netdev::{IoPlane, NetDev};
use router_plugins::netsim::testbench::Testbench;
use router_plugins::netsim::traffic::{v6_host, Workload};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{Mbuf, MbufPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts every allocation (and every
/// reallocation — a growing `Vec` is allocator traffic too).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_fast_path_stays_off_the_allocator() {
    const STEADY_REPS: usize = 10;
    // 10 flows × 100 packets = 1000 per rep → 10 000 measured packets.
    let workload = Workload::uniform(10, 100, 512);
    let tb = Testbench::new(&workload);
    let packets_per_rep = workload.total_packets() as u64;

    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(
        &mut r,
        "load drr\n\
         create drr quantum=9180 limit=512\n\
         attach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>\n",
    )
    .unwrap();
    r.add_route(v6_host(0), 32, 1);

    // Warm up: fill the mbuf pool, classify every flow, grow the
    // scheduler queues and tx logs to their working size.
    tb.run(&mut r, 2, 64);

    let fresh_before = r.pool_stats().fresh;
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let s = tb.run(&mut r, STEADY_REPS, 64);
    let allocs_after = ALLOCATIONS.load(Ordering::Relaxed);
    let fresh_after = r.pool_stats().fresh;

    let measured = packets_per_rep * STEADY_REPS as u64;
    assert_eq!(s.packets, measured);
    assert_eq!(s.forwarded, measured);

    // The mbuf criterion is exact: a warm pool never misses.
    assert_eq!(
        fresh_after, fresh_before,
        "steady state allocated fresh mbuf buffers"
    );

    // Total allocator traffic is exact too: gate dispatch copies a slot
    // handle, the DRR instance parks packets in a slab that reuses its
    // slots, and the queues and tx logs are at their working size — once
    // warm, nothing between `mbuf_with` and the wire calls the allocator.
    // The one call left is the testbench's own scratch vector, made once
    // per `run` call.
    let allocs = allocs_after - allocs_before;
    assert!(
        allocs <= 1,
        "steady state allocated {allocs} times over {measured} packets"
    );

    // Phase 2: the same discipline must hold with real device plumbing
    // in the loop — a router under an IoPlane fed by loopback NetDevs.
    // The injector is a peer loopback device driven from a test-owned
    // pool, so the whole cycle (peer tx → wire → device rx → pooled
    // mbuf → router → egress device → wire → peer rx) is closed-loop:
    // once the pools, wire freelists, and scratch batches are warm, a
    // steady-state run allocates nothing fresh anywhere.
    const CHUNK: usize = 64;
    let mut r2 = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r2.loader);
    run_script(
        &mut r2,
        "load drr\n\
         create drr quantum=9180 limit=512\n\
         attach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>\n",
    )
    .unwrap();
    r2.add_route(v6_host(0), 32, 1);

    let (dev_in, mut peer_in) = LoopbackDev::pair("lo-in", "peer-in", 256);
    let (dev_out, mut peer_out) = LoopbackDev::pair("lo-out", "peer-out", 256);
    let mut plane = IoPlane::new(r2, CHUNK * 2);
    plane.bind(0, Box::new(dev_in));
    plane.bind(1, Box::new(dev_out));

    let mut inj_pool = MbufPool::new(2 * CHUNK);
    let mut batch: Vec<Mbuf> = Vec::with_capacity(CHUNK);
    let run_rep = |plane: &mut IoPlane<Router>,
                   inj_pool: &mut MbufPool,
                   batch: &mut Vec<Mbuf>,
                   peer_in: &mut LoopbackDev,
                   peer_out: &mut LoopbackDev| {
        for chunk in tb.packets().chunks(CHUNK) {
            for pkt in chunk {
                batch.push(inj_pool.mbuf_from(pkt.data(), 0));
            }
            peer_in.tx_batch(batch, inj_pool);
            plane.poll();
            peer_out.rx_batch(usize::MAX, &mut |_p| {});
        }
    };

    // Warm-up reps, then the measured steady state.
    for _ in 0..2 {
        run_rep(
            &mut plane,
            &mut inj_pool,
            &mut batch,
            &mut peer_in,
            &mut peer_out,
        );
    }
    let fresh_router_before = plane.plane().pool_stats().fresh;
    let fresh_inj_before = inj_pool.stats().fresh;
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..STEADY_REPS {
        run_rep(
            &mut plane,
            &mut inj_pool,
            &mut batch,
            &mut peer_in,
            &mut peer_out,
        );
    }
    let allocs_after = ALLOCATIONS.load(Ordering::Relaxed);

    plane.check_conservation();
    assert_eq!(
        plane.ledger().device_rx,
        packets_per_rep * (STEADY_REPS as u64 + 2),
        "loopback wire lost frames"
    );
    assert_eq!(
        plane.plane().pool_stats().fresh,
        fresh_router_before,
        "device rx path allocated fresh mbuf buffers at steady state"
    );
    assert_eq!(
        inj_pool.stats().fresh,
        fresh_inj_before,
        "injector pool allocated fresh buffers at steady state"
    );
    let allocs = allocs_after - allocs_before;
    let per_packet = allocs as f64 / measured as f64;
    assert!(
        per_packet < 0.01,
        "I/O-plane steady state allocated {allocs} times over {measured} packets \
         ({per_packet:.4}/packet; ceiling 0.01)"
    );

    // Phase 3: churn. Every fourth packet is the first of a new flow, the
    // 8 192-record flow table is full, so each new flow classifies at
    // three gates, evicts the coldest record (whose bindings go to the
    // eviction callbacks), misses the FIB cache and reads the compiled
    // FIB. None of that may reach the allocator once warm.
    const TRAIN: u32 = 4;
    const WARM_FLOWS: u32 = 16_384;
    const CHURN_FLOWS: u32 = 10_000;
    const NETS: u32 = 4096;
    let mut r3 = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: FlowTableConfig {
            buckets: 1024,
            max_buckets: 1 << 17,
            initial_records: 4096,
            max_records: 8192,
            max_idle_ns: 0,
            lru_evict: true,
            ..RouterConfig::default().flow_table
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r3.loader);
    run_script(
        &mut r3,
        "load null\n\
         create null\n\
         bind fw null 0 <*, *, *, *, *, *>\n\
         bind ipsec null 0 <*, *, UDP, *, *, *>\n\
         bind ipsec null 0 <10.0.0.0/8, *, UDP, *, 53, *>\n\
         bind stats null 0 <*, *, *, *, *, *>\n",
    )
    .unwrap();
    let net = |n: u32| Ipv4Addr::from(0x1400_0000 | n << 8);
    for n in 0..NETS {
        r3.add_route(IpAddr::V4(net(n)), 24, n % 4);
    }
    r3.optimize_routes();
    assert!(r3.fib_stats().compiled);

    // One packet image, patched per flow (source address, destination
    // network): building packets must not be what allocates.
    let mut image = PacketSpec::udp(
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
        IpAddr::V4(net(0)),
        4000,
        53,
        18,
    )
    .build();
    let mut done: Vec<Mbuf> = Vec::with_capacity(TRAIN as usize);
    let mut churn = |r: &mut Router, flows: std::ops::Range<u32>| {
        for flow in flows {
            image[12..16].copy_from_slice(&(0x0A00_0000 | flow).to_be_bytes());
            image[16..20].copy_from_slice(&(u32::from(net(flow % NETS)) | 7).to_be_bytes());
            for _ in 0..TRAIN {
                let m = r.mbuf_with(&image, 0);
                assert_eq!(r.receive(m), Disposition::Forwarded(flow % NETS % 4));
            }
            r.take_tx_into(flow % NETS % 4, &mut done);
            assert_eq!(done.len(), TRAIN as usize);
            for m in done.drain(..) {
                r.recycle_mbuf(m);
            }
        }
    };
    churn(&mut r3, 0..WARM_FLOWS);

    let evicted_before = r3.flow_stats().evicted_lru;
    let fib_before = r3.fib_cache_stats();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    churn(&mut r3, WARM_FLOWS..WARM_FLOWS + CHURN_FLOWS);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert_eq!(
        r3.flow_stats().evicted_lru - evicted_before,
        u64::from(CHURN_FLOWS),
        "every new flow must evict one"
    );
    let fib = r3.fib_cache_stats();
    assert!(
        fib.misses - fib_before.misses >= u64::from(CHURN_FLOWS) / 8,
        "the compiled FIB was hardly read: {fib_before:?} → {fib:?}"
    );
    let measured = u64::from(CHURN_FLOWS * TRAIN);
    let per_packet = allocs as f64 / measured as f64;
    assert!(
        per_packet < 0.01,
        "churn allocated {allocs} times over {measured} packets \
         ({per_packet:.4}/packet; ceiling 0.01)"
    );
    // Phase 4: the parallel plane, wire to wire. One shard behind an
    // IoPlane over framed loopback pairs, 256-frame bursts through
    // `poll()`, egress spread over all four interfaces. The allocator
    // counter is process-wide, so it covers the shard thread too: once the
    // pools, wire freelists, batch and egress carriers are warm, a burst
    // crosses dispatcher → ring → shard → collector → devices without one
    // allocation — in particular `flush()` builds no channel to wait on.
    const BURST: usize = 256;
    const WARM_BURSTS: usize = 64;
    const STEADY_BURSTS: usize = 128;
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 1,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    let mut plane = IoPlane::new(pr, BURST);
    run_script(
        &mut plane,
        "load null\n\
         create null\n\
         bind fw null 0 <*, *, *, *, *, *>\n\
         bind stats null 0 <*, *, UDP, *, *, *>\n\
         route 20.0.0.0/24 0\n\
         route 20.0.1.0/24 1\n\
         route 20.0.2.0/24 2\n\
         route 20.0.3.0/24 3\n",
    )
    .unwrap();
    let mut peers: Vec<LoopbackDev> = Vec::new();
    for i in 0..4u32 {
        let (peer, dev) = LoopbackDev::pair_framed(&format!("peer{i}"), &format!("lo{i}"), 1024);
        plane.bind(i, Box::new(dev));
        peers.push(peer);
    }
    let mut inj_pool = MbufPool::new(2 * BURST);
    let mut batch: Vec<Mbuf> = Vec::with_capacity(BURST);
    let mut burst = |plane: &mut IoPlane<ParallelRouter>, inj_pool: &mut MbufPool| -> usize {
        for flow in 0..BURST as u32 {
            image[12..16].copy_from_slice(&(0x0A00_0000 | (flow % 64)).to_be_bytes());
            image[16..20].copy_from_slice(&(u32::from(net(flow % 4)) | 7).to_be_bytes());
            batch.push(inj_pool.mbuf_from(&image, 0));
        }
        peers[0].tx_batch(&mut batch, inj_pool);
        plane.poll();
        let mut out = 0;
        for peer in peers.iter_mut() {
            let r = peer.rx_batch(usize::MAX, &mut |_p| out += 1);
            assert!(r.delivered > 0, "an interface carried nothing");
        }
        out
    };
    for _ in 0..WARM_BURSTS {
        assert_eq!(burst(&mut plane, &mut inj_pool), BURST);
    }
    let fresh_plane = |plane: &mut IoPlane<ParallelRouter>| {
        plane.plane().pool_stats().fresh + plane.plane_mut().metrics_snapshot().mbuf_fresh
    };
    let fresh_plane_before = fresh_plane(&mut plane);
    let fresh_inj_before = inj_pool.stats().fresh;
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..STEADY_BURSTS {
        assert_eq!(burst(&mut plane, &mut inj_pool), BURST);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(
        allocs, 0,
        "parallel plane allocated {allocs} times over {STEADY_BURSTS} bursts"
    );
    assert_eq!(fresh_plane(&mut plane), fresh_plane_before);
    assert_eq!(inj_pool.stats().fresh, fresh_inj_before);
    plane.check_conservation();
    assert_eq!(
        plane.ledger().device_tx,
        ((WARM_BURSTS + STEADY_BURSTS) * BURST) as u64
    );

    // Phase 5: overflow. A DRR queue one packet deep refuses every packet
    // after the first; the scheduler hands each refused packet back and the
    // router's drop recycles its buffer, so refusals take no fresh buffer.
    const REFUSALS: usize = 1000;
    let mut r5 = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r5.loader);
    run_script(
        &mut r5,
        "load drr\n\
         create drr quantum=9180 limit=1\n\
         bind sched drr 0 <*, *, UDP, *, *, *>\n",
    )
    .unwrap();
    r5.add_route(v6_host(0), 32, 1);
    let one = PacketSpec::udp(v6_host(1), v6_host(2), 5, 6, 64).build();
    let offer = |r: &mut Router| {
        let m = r.mbuf_with(&one, 0);
        r.receive(m)
    };
    assert_eq!(offer(&mut r5), Disposition::Queued(1));
    assert_eq!(offer(&mut r5), Disposition::Dropped(DropReason::QueueFull));
    let fresh_before = r5.pool_stats().fresh;
    for _ in 0..REFUSALS {
        assert_eq!(offer(&mut r5), Disposition::Dropped(DropReason::QueueFull));
    }
    assert_eq!(
        r5.pool_stats().fresh,
        fresh_before,
        "refused packets leaked their buffers"
    );
}
