//! Table 2's address probes are returned by the BMP plugins, not charged
//! to a shared counter. A DAG's `addr_probes` must equal what the same
//! prefixes cost in stand-alone tables (BSPL's `probes_for`, a PATRICIA
//! trie built `with_counter`), and a counter-built trie keeps `measure`
//! as it was.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_plugins::classifier::{AddrMatch, BmpKind, DagTable, FilterSpec};
use router_plugins::lpm::{AccessCounter, Bits, BsplTable, LpmTable, PatriciaTable, Prefix};
use router_plugins::netsim::traffic::random_filters;
use router_plugins::packet::FlowTuple;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The longest of `prefixes` covering `addr` in a stand-alone table of
/// `kind`, and its probes: BSPL's `probes_for`, or what a PATRICIA trie
/// built with a counter charged. No prefixes means no matcher, hence no
/// probe.
fn charged<A: Bits>(kind: BmpKind, prefixes: &[Prefix<A>], addr: A) -> (Option<Prefix<A>>, u64) {
    if prefixes.is_empty() {
        return (None, 0);
    }
    match kind {
        BmpKind::Bspl => {
            let mut t = BsplTable::new();
            for p in prefixes {
                t.insert(*p, *p);
            }
            (t.lookup(addr).map(|(p, _)| *p), t.probes_for(addr))
        }
        BmpKind::Patricia => {
            let counter = AccessCounter::new();
            let mut t = PatriciaTable::with_counter(counter.clone());
            for p in prefixes {
                t.insert(*p, *p);
            }
            counter.measure(|| t.lookup(addr).map(|(p, _)| *p))
        }
    }
}

/// One address level as the DAG's matcher sees it: the labels of
/// `filters` on `field` in `addr`'s family, charged stand-alone. Returns
/// the matched label (`Any` for the wildcard edge) and the charge.
fn level(
    kind: BmpKind,
    filters: &[&FilterSpec],
    field: fn(&FilterSpec) -> AddrMatch,
    addr: IpAddr,
) -> (AddrMatch, u64) {
    let (hit, n) = match addr {
        IpAddr::V4(a) => {
            let v4 = filters.iter().filter_map(|f| match field(f) {
                AddrMatch::V4(p) => Some(p),
                _ => None,
            });
            let (hit, n) = charged(kind, &v4.collect::<Vec<_>>(), u32::from(a));
            (hit.map(AddrMatch::V4), n)
        }
        IpAddr::V6(a) => {
            let v6 = filters.iter().filter_map(|f| match field(f) {
                AddrMatch::V6(p) => Some(p),
                _ => None,
            });
            let (hit, n) = charged(kind, &v6.collect::<Vec<_>>(), u128::from(a));
            (hit.map(AddrMatch::V6), n)
        }
    };
    (hit.unwrap_or(AddrMatch::Any), n)
}

/// Address probes of one walk, from the filter set alone: the root
/// matcher holds every source label; the node under the matched source
/// edge (or the wildcard edge) holds the destination labels of every
/// filter whose source covers that edge's label.
fn expected_probes(kind: BmpKind, specs: &[FilterSpec], t: &FlowTuple) -> u64 {
    let all: Vec<&FilterSpec> = specs.iter().collect();
    let (src, n0) = level(kind, &all, |f| f.src, t.src);
    let under: Vec<&FilterSpec> = specs
        .iter()
        .filter(|f| {
            if src == AddrMatch::Any {
                f.src == AddrMatch::Any
            } else {
                f.src.covers(&src)
            }
        })
        .collect();
    if under.is_empty() {
        return n0; // no edge and no wildcard: the walk ends at the root
    }
    n0 + level(kind, &under, |f| f.dst, t.dst).1
}

fn addr_in(m: &AddrMatch, v6: bool, rng: &mut StdRng) -> IpAddr {
    let (p4, p6) = match m {
        AddrMatch::V4(p) => (*p, Prefix::default_route()),
        AddrMatch::V6(p) => (Prefix::default_route(), *p),
        AddrMatch::Any => (Prefix::default_route(), Prefix::default_route()),
    };
    if v6 {
        let host = rng
            .gen::<u128>()
            .checked_shr(u32::from(p6.len()))
            .unwrap_or(0);
        IpAddr::V6(Ipv6Addr::from(p6.bits() | host))
    } else {
        let host = rng
            .gen::<u32>()
            .checked_shr(u32::from(p4.len()))
            .unwrap_or(0);
        IpAddr::V4(Ipv4Addr::from(p4.bits() | host))
    }
}

#[test]
fn dag_addr_probes_equal_what_standalone_tables_charge() {
    for kind in [BmpKind::Bspl, BmpKind::Patricia] {
        for v6 in [false, true] {
            let mut specs = random_filters(256, v6, 11);
            let wild = if v6 { "2000::/8" } else { "10.0.0.0/8" };
            for s in [
                format!("*, {wild}, *, *, *, *"),
                format!("{wild}, *, UDP, *, *, *"),
            ] {
                specs.push(s.parse().unwrap());
            }
            let mut dag: DagTable<usize> = DagTable::new(kind);
            specs.retain(|s| dag.insert(s.clone(), 0).is_ok());
            let mut rng = StdRng::seed_from_u64(3);
            for i in 0..300 {
                let f = &specs[rng.gen_range(0..specs.len())];
                let (src, dst) = match i % 4 {
                    0 => (AddrMatch::Any, AddrMatch::Any),
                    1 => (f.src, AddrMatch::Any),
                    _ => (f.src, f.dst),
                };
                let t = FlowTuple {
                    src: addr_in(&src, v6, &mut rng),
                    dst: addr_in(&dst, v6, &mut rng),
                    proto: 17,
                    sport: rng.gen(),
                    dport: rng.gen(),
                    rx_if: 0,
                };
                let got = dag.lookup_with_stats(&t).1.addr_probes;
                assert_eq!(
                    got,
                    expected_probes(kind, &specs, &t),
                    "{kind:?} v6={v6} {t}"
                );
            }
        }
    }
}

#[test]
fn counter_built_trie_keeps_measure() {
    // The paper's Table 1 source prefixes: 129/8, 128.252.153/24 and
    // 128.252.153.1/32. BSPL binary-searches {8, 24, 32}: two probes
    // either way. PATRICIA visits root, the /7 split, then /24 and /32
    // (four) or /8 (three).
    let prefixes = [
        Prefix::new(0x8100_0000u32, 8),
        Prefix::new(0x80FC_9900, 24),
        Prefix::new(0x80FC_9901, 32),
    ];
    let (host, other) = (0x80FC_9901u32, 0x8101_0203u32);
    let counter = AccessCounter::new();
    let mut bspl = BsplTable::new();
    let mut pat = PatriciaTable::with_counter(counter.clone());
    let mut plain = PatriciaTable::new();
    for p in prefixes {
        bspl.insert(p, p.len());
        pat.insert(p, p.len());
        plain.insert(p, p.len());
    }
    assert_eq!(bspl.lookup_counted(host), (Some((&32, 32)), 2));
    assert_eq!(bspl.probes_for(other), 2);
    assert_eq!(counter.measure(|| pat.lookup(host)), (Some((&32, 32)), 4));
    assert_eq!(counter.measure(|| pat.lookup(other)), (Some((&8, 8)), 3));
    assert_eq!(counter.measure(|| pat.lookup_counted(host)).1, 4);
    // A trie built without one charges nothing and still counts.
    assert!(plain.counter().is_none());
    assert_eq!(
        counter.measure(|| plain.lookup_counted(host)),
        ((Some((&32, 32)), 4), 0)
    );
    assert_eq!(counter.get(), 4 + 3 + 4);
}
