//! The zero-allocation fast path in steady state: pooled mbufs on the
//! single router never miss a warm pool, and batched shard dispatch gets
//! its carriers back. That the pooled and batched paths deliver what the
//! plain per-packet paths deliver is a row of `tests/differential.rs`.

use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_script;
use router_plugins::core::{ParallelRouter, ParallelRouterConfig, Router, RouterConfig};
use router_plugins::netsim::testbench::Testbench;
use router_plugins::netsim::traffic::{v6_host, Workload};

#[test]
fn steady_state_run_allocates_no_fresh_mbufs() {
    // 10 flows × 100 packets = 1000 per rep; one warm-up rep fills the
    // pool, ten measured reps (10k packets) must never miss it.
    let workload = Workload::uniform(10, 100, 512);
    let tb = Testbench::new(&workload);
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

    tb.run(&mut r, 1, 1);
    let warm = r.pool_stats();
    let s = tb.run(&mut r, 10, 1);
    let done = r.pool_stats();

    assert_eq!(s.packets, 10_000);
    assert_eq!(s.forwarded, 10_000);
    assert_eq!(
        done.fresh, warm.fresh,
        "steady state hit the allocator for mbuf buffers"
    );
    assert_eq!(done.acquired - warm.acquired, 10_000);

    // The pool counters surface in the observability snapshot.
    let m = r.metrics_snapshot();
    assert_eq!(m.mbuf_fresh, done.fresh);
    assert_eq!(m.mbuf_acquired, done.acquired);
    assert_eq!(m.mbuf_recycled, done.recycled);
}

#[test]
fn batch_carriers_are_recycled_through_the_return_channel() {
    let workload = Workload::uniform(8, 50, 256);
    let tb = Testbench::new(&workload);
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 2,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
    tb.run(&mut pr, 2, 64);
    // After the shards drained their batches, the emptied carriers came
    // back: the next carrier is a reused vector, not a fresh one.
    let carrier = pr.batch_carrier();
    assert!(
        carrier.capacity() > 0,
        "no carrier returned through the return channel"
    );
    // Dispatcher pool traffic is folded into the merged metrics: the
    // merged counters include at least everything the dispatcher pool
    // itself reports.
    let m = pr.metrics_snapshot();
    let p = pr.pool_stats();
    assert!(p.acquired > 0);
    assert!(m.mbuf_acquired >= p.acquired);
    assert!(m.mbuf_recycled >= p.recycled);
}
