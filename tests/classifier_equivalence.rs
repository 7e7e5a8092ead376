//! Property-based equivalence: for random filter sets and random packets,
//! the DAG (with either BMP plugin) must return exactly the same
//! most-specific filter as the O(n) linear scan. This is the correctness
//! backbone of the whole classification subsystem.

use proptest::prelude::*;
use router_plugins::classifier::{
    AddrMatch, BmpKind, DagTable, FilterSpec, LinearTable, PortMatch,
};
use router_plugins::packet::{FlowKey, FlowTuple};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Clustered v4 addresses so prefixes actually overlap.
fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..4, 0u8..4, 0u8..8, any::<u8>()).prop_map(|(a, b, c, d)| Ipv4Addr::new(10 + a, b, c, d))
}

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    (0u16..4, 0u16..4, any::<u16>())
        .prop_map(|(a, b, c)| Ipv6Addr::new(0x2001, 0xdb8, a, b, 0, 0, 0, c))
}

fn arb_addr_match() -> impl Strategy<Value = AddrMatch> {
    prop_oneof![
        Just(AddrMatch::Any),
        (arb_v4(), 0u8..=32).prop_map(|(a, l)| AddrMatch::prefix(IpAddr::V4(a), l)),
        (arb_v6(), 0u8..=128).prop_map(|(a, l)| AddrMatch::prefix(IpAddr::V6(a), l)),
    ]
}

/// Exact ports or wildcard (partial range overlaps are rejected by the
/// DAG by design; nested ranges are covered by a dedicated test below).
fn arb_port_match() -> impl Strategy<Value = PortMatch> {
    prop_oneof![Just(PortMatch::Any), (1u16..64).prop_map(PortMatch::eq),]
}

fn arb_filter() -> impl Strategy<Value = FilterSpec> {
    (
        arb_addr_match(),
        arb_addr_match(),
        prop_oneof![Just(None), Just(Some(6u8)), Just(Some(17u8))],
        arb_port_match(),
        arb_port_match(),
        prop_oneof![Just(None), Just(Some(0u32)), Just(Some(1u32))],
    )
        .prop_map(|(src, dst, proto, sport, dport, rx_if)| FilterSpec {
            src,
            dst,
            proto,
            sport,
            dport,
            rx_if,
        })
}

fn arb_tuple() -> impl Strategy<Value = FlowTuple> {
    (
        prop_oneof![arb_v4().prop_map(IpAddr::V4), arb_v6().prop_map(IpAddr::V6)],
        prop_oneof![arb_v4().prop_map(IpAddr::V4), arb_v6().prop_map(IpAddr::V6)],
        prop_oneof![Just(6u8), Just(17u8), Just(1u8)],
        1u16..64,
        1u16..64,
        0u32..2,
    )
        .prop_map(|(src, dst, proto, sport, dport, rx_if)| FlowTuple {
            src,
            dst,
            proto,
            sport,
            dport,
            rx_if,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dag_equals_linear(
        filters in prop::collection::vec(arb_filter(), 1..24),
        tuples in prop::collection::vec(arb_tuple(), 1..48),
        bspl in any::<bool>(),
    ) {
        let kind = if bspl { BmpKind::Bspl } else { BmpKind::Patricia };
        let mut dag = DagTable::new(kind);
        let mut lin = LinearTable::new();
        for (i, f) in filters.into_iter().enumerate() {
            // Ids advance in lockstep (both assign sequentially), so
            // values compare directly.
            dag.insert(f.clone(), i).unwrap();
            lin.insert(f, i);
        }
        for t in tuples {
            let d = dag.lookup(&FlowKey::of(&t)).map(|(_, v)| *v);
            let l = lin.lookup(&FlowKey::of(&t)).map(|(_, v)| *v);
            prop_assert_eq!(d, l, "diverged on {}", t);
        }
    }

    #[test]
    fn dag_equals_linear_after_removals(
        filters in prop::collection::vec(arb_filter(), 4..16),
        remove_mask in prop::collection::vec(any::<bool>(), 4..16),
        tuples in prop::collection::vec(arb_tuple(), 1..32),
    ) {
        let mut dag = DagTable::new(BmpKind::Bspl);
        let mut lin = LinearTable::new();
        let mut ids = Vec::new();
        for (i, f) in filters.into_iter().enumerate() {
            let did = dag.insert(f.clone(), i).unwrap();
            let lid = lin.insert(f, i);
            ids.push((did, lid));
        }
        for (i, &rm) in remove_mask.iter().enumerate() {
            if rm {
                if let Some((did, lid)) = ids.get(i) {
                    dag.remove(*did).unwrap();
                    lin.remove(*lid).unwrap();
                }
            }
        }
        for t in tuples {
            let d = dag.lookup(&FlowKey::of(&t)).map(|(_, v)| *v);
            let l = lin.lookup(&FlowKey::of(&t)).map(|(_, v)| *v);
            prop_assert_eq!(d, l, "diverged after removal on {}", t);
        }
    }
}

#[test]
fn nested_port_ranges_match_linear() {
    let specs = [
        "*, *, UDP, *, 1000-2000, *",
        "*, *, UDP, *, 1200-1800, *",
        "*, *, UDP, *, 1500, *",
        "*, *, UDP, 100-200, *, *",
        "*, *, *, *, *, *",
    ];
    let mut dag = DagTable::new(BmpKind::Bspl);
    let mut lin = LinearTable::new();
    for (i, s) in specs.iter().enumerate() {
        let f: FilterSpec = s.parse().unwrap();
        dag.insert(f.clone(), i).unwrap();
        lin.insert(f, i);
    }
    for sport in [50u16, 150, 250] {
        for dport in [999u16, 1000, 1199, 1200, 1499, 1500, 1501, 1801, 2000, 2001] {
            let t = FlowTuple {
                src: "10.0.0.1".parse().unwrap(),
                dst: "10.0.0.2".parse().unwrap(),
                proto: 17,
                sport,
                dport,
                rx_if: 0,
            };
            assert_eq!(
                dag.lookup(&FlowKey::of(&t)).map(|(_, v)| *v),
                lin.lookup(&FlowKey::of(&t)).map(|(_, v)| *v),
                "sport={sport} dport={dport}"
            );
        }
    }
}
