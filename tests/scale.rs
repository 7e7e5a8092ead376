//! The internet-scale state structures (E18) against their references:
//! the hot-prefix FIB cache under a route-update interleave that would
//! expose a stale entry (the hidden-prefix hazard), and the compiled
//! FIB against the trie and the cache under arbitrary route updates.
//! That the resizing, evicting flow table is invisible on both data
//! planes is a row of `tests/differential.rs`.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use router_plugins::core::ip_core::{Disposition, FibStats, RouteEntry, RoutingTable};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_script;
use router_plugins::core::{ControlPlane, Router, RouterConfig};
use router_plugins::lpm::Prefix;
use router_plugins::netsim::traffic::synthetic_fib_v4;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::Mbuf;

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

/// The compiled FIB of a 200 K-prefix table is 65 536 chunks of 128 B
/// plus its groups and next hops, counted exactly, and under 10 MB: a
/// flat 2²⁴-slot first level (32 MB) cannot pass. It answers as the trie
/// it was compiled from.
#[test]
fn compiled_fib_fits_its_memory_budget() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rt = RoutingTable::with_cache(0);
    for (net, len, tx_if) in synthetic_fib_v4(200_000, 4, 1) {
        rt.add(net, len, RouteEntry { tx_if });
    }
    let mut rng = StdRng::seed_from_u64(1);
    let addrs: Vec<IpAddr> = (0..100_000)
        .map(|_| IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())))
        .collect();
    let trie: Vec<Option<RouteEntry>> = addrs.iter().map(|&a| rt.lookup(a)).collect();
    rt.optimize();
    let s = rt.fib_stats();
    assert!(s.compiled);
    assert_eq!((s.tbl8_groups, s.next_hops), (0, 4));
    let chunks = 65_536 * 128;
    let groups = s.tbl8_groups * 256 * std::mem::size_of::<u16>();
    let hops = s.next_hops * std::mem::size_of::<RouteEntry>();
    assert_eq!(s.mem_bytes, chunks + groups + hops);
    assert!(s.mem_bytes <= 10 << 20, "{} bytes", s.mem_bytes);
    for (&a, want) in addrs.iter().zip(trie) {
        assert_eq!(rt.lookup(a), want, "@ {a}");
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
