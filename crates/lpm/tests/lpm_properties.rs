//! Property tests: all three BMP implementations must agree with each
//! other (and with a naive reference) on longest-prefix-match semantics,
//! under arbitrary insert/remove interleavings. The DIR-24-8 table is
//! compiled part-way through the interleaving, so it is checked both as
//! an incrementally maintained FIB and against a recompile from scratch;
//! a second interleaving crowds three neighbouring first-level chunks and
//! checks the table after every step. A third holds the split RIB to a
//! plain trie, walks included; a dense /16 checks its longest list.

use proptest::prelude::*;
use rp_lpm::{Bits, BsplTable, Dir24Table, LpmTable, PatriciaTable, Prefix, Rib};

/// Naive reference: a list scanned for the longest matching prefix.
struct Reference {
    entries: Vec<(Prefix<u32>, u32)>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, p: Prefix<u32>, v: u32) {
        self.entries.retain(|(q, _)| *q != p);
        self.entries.push((p, v));
    }

    fn remove(&mut self, p: Prefix<u32>) {
        self.entries.retain(|(q, _)| *q != p);
    }

    fn lookup(&self, addr: u32) -> Option<(u32, u8)> {
        self.entries
            .iter()
            .filter(|(q, _)| q.matches(addr))
            .max_by_key(|(q, _)| q.len())
            .map(|(q, v)| (*v, q.len()))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u8, u32),
    Remove(u32, u8),
    /// A `Dir24Table::prefetch`, anywhere in the address space: a hint, so
    /// no answer may depend on whether, when or where it was given.
    Prefetch(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Clustered address space (10.0.0.0/8-ish) so prefixes nest; lengths
    // from the default route to host routes, so both DIR-24-8 levels and
    // both sides of the /24 boundary are exercised (lengths under 8 are
    // drawn less often: each repaints up to 2¹⁶ chunks). Few distinct
    // values, so equal values meet in one /24.
    let addr = (0u32..1 << 20).prop_map(|a| 0x0A00_0000 | a);
    let len = || prop_oneof![8u8..=32, 8u8..=32, 8u8..=32, 0u8..=32];
    prop_oneof![
        (addr.clone(), len(), 0u32..6).prop_map(|(a, l, v)| Op::Insert(a, l, v)),
        (addr, len()).prop_map(|(a, l)| Op::Remove(a, l)),
        any::<u32>().prop_map(Op::Prefetch),
    ]
}

/// The first of three adjacent /16s, one first-level chunk each.
const NEIGHBOURS: u32 = 0x0A09_0000;

#[derive(Debug, Clone)]
enum ChunkOp {
    Compile,
    Insert(u32, u8, u32),
    /// The stored prefix at this index, modulo their number.
    Remove(usize),
    Prefetch(u32),
}

fn arb_chunk_op() -> impl Strategy<Value = ChunkOp> {
    // Addresses in three neighbouring chunks. Lengths: now and then the
    // default route (each repaints all 65 536 chunks), prefixes spanning
    // several chunks (/14, /15), and mostly /24 and longer, so a chunk's
    // runs grow past what it stores inline. Eight values, so neighbouring
    // runs often merge.
    let len = (0u8..40).prop_map(|x| match x {
        0 => 0,
        1..=19 => 13 + x,
        _ => 24 + x % 9,
    });
    // One compile in twenty steps: each rebuilds all 65 536 chunks.
    (0u8..20, 0u32..3 << 16, len, 0u32..8, any::<usize>()).prop_map(|(kind, a, l, v, i)| {
        let a = NEIGHBOURS + a;
        match kind {
            0 => ChunkOp::Compile,
            1..=11 => ChunkOp::Insert(a, l, v),
            12..=16 => ChunkOp::Remove(i),
            _ => ChunkOp::Prefetch(a),
        }
    })
}

/// The first of four adjacent /16s, around which the RIB oracle's
/// prefixes cluster.
const CLUSTER: u32 = 0x0A08_0000;

#[derive(Debug, Clone)]
enum RibOp {
    Insert(u32, u8, u32),
    /// The stored prefix at this index, modulo their number.
    Remove(usize),
    /// A prefix that may not be stored.
    RemoveAny(u32, u8),
}

/// An address in the cluster's four /16s, often at one's first or last
/// address, and a length from 0 to 32, often one next to /16.
fn arb_cluster_prefix() -> impl Strategy<Value = (u32, u8)> {
    let low = prop_oneof![0u32..1 << 16, Just(0), Just(0xFFFF), 0xFF00u32..1 << 16];
    let len = prop_oneof![0u8..=32, 14u8..=18, 17u8..=32];
    (0u32..4, low, len).prop_map(|(c, low, len)| (CLUSTER + (c << 16) + low, len))
}

fn arb_rib_op() -> impl Strategy<Value = RibOp> {
    let insert = || (arb_cluster_prefix(), 0u32..8).prop_map(|((a, l), v)| RibOp::Insert(a, l, v));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        any::<usize>().prop_map(RibOp::Remove),
        arb_cluster_prefix().prop_map(|(a, l)| RibOp::RemoveAny(a, l)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The split RIB answers as a plain trie holding the same prefixes
    /// after every insert and remove: the `walk_covered` sequence under
    /// covering prefixes of every length (order included), `lookup_max_len`
    /// at random lengths, exact `get` and `len`.
    #[test]
    fn the_split_rib_is_a_trie(
        ops in prop::collection::vec(arb_rib_op(), 1..100),
        roots in prop::collection::vec(arb_cluster_prefix(), 6..7),
        probes in prop::collection::vec((arb_cluster_prefix(), 0u8..=32), 8..9),
    ) {
        let mut rib = Rib::new();
        let mut pat = PatriciaTable::new();
        let mut stored: Vec<Prefix<u32>> = Vec::new();
        let roots: Vec<Prefix<u32>> = roots
            .into_iter()
            .map(|(a, l)| Prefix::new(a, l))
            .chain([Prefix::default_route(), Prefix::new(CLUSTER, 14)])
            .collect();
        for op in ops {
            let changed = match op {
                RibOp::Insert(a, l, v) => {
                    let p = Prefix::new(a, l);
                    prop_assert_eq!(rib.insert(p, v), pat.insert(p, v));
                    if !stored.contains(&p) {
                        stored.push(p);
                    }
                    p
                }
                RibOp::Remove(i) if !stored.is_empty() => {
                    let p = stored.swap_remove(i % stored.len());
                    prop_assert_eq!(rib.remove(p), pat.remove(p));
                    p
                }
                RibOp::Remove(_) => Prefix::default_route(),
                RibOp::RemoveAny(a, l) => {
                    let p = Prefix::new(a, l);
                    stored.retain(|&q| q != p);
                    prop_assert_eq!(rib.remove(p), pat.remove(p));
                    p
                }
            };
            prop_assert_eq!(rib.len(), pat.len());
            prop_assert_eq!(rib.get(changed), pat.get(changed));
            for &root in roots.iter().chain([&changed]) {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                rib.walk_covered(root, |q, v| got.push((q, *v)));
                pat.walk_covered(root, |q, v| want.push((q, *v)));
                prop_assert_eq!(got, want, "walk under {}", root);
            }
            for &((addr, _), max_len) in &probes {
                for addr in [addr, changed.bits(), changed.bits() | !u32::MAX.mask(changed.len())] {
                    prop_assert_eq!(
                        rib.lookup_max_len(addr, max_len),
                        pat.lookup_max_len(addr, max_len),
                        "lookup_max_len({:08x}, {})", addr, max_len
                    );
                }
            }
        }
    }

    #[test]
    fn all_implementations_agree(
        ops in prop::collection::vec(arb_op(), 1..120),
        compile_at in 0usize..120,
        probes in prop::collection::vec(0u32..1 << 20, 1..200),
    ) {
        let mut reference = Reference::new();
        let mut pat = PatriciaTable::new();
        let mut bspl = BsplTable::new();
        let mut dir = Dir24Table::new();
        for (i, op) in ops.into_iter().enumerate() {
            if i == compile_at {
                dir.compile();
            }
            match op {
                Op::Insert(a, l, v) => {
                    let p = Prefix::new(a, l);
                    reference.insert(p, v);
                    pat.insert(p, v);
                    bspl.insert(p, v);
                    dir.insert(p, v);
                }
                Op::Remove(a, l) => {
                    let p = Prefix::new(a, l);
                    reference.remove(p);
                    pat.remove(p);
                    bspl.remove(p);
                    dir.remove(p);
                }
                Op::Prefetch(a) => dir.prefetch(a),
            }
        }
        let mut recompiled = Dir24Table::new();
        for (p, v) in &reference.entries {
            recompiled.insert(*p, *v);
        }
        recompiled.compile();
        // Every stored prefix's first and last address, and the addresses
        // just outside it, besides the random probes.
        let edges = reference.entries.iter().flat_map(|(p, _)| {
            let last = p.bits() | !u32::MAX.mask(p.len());
            [p.bits(), last, p.bits().wrapping_sub(1), last.wrapping_add(1)]
        });
        let probes: Vec<u32> = probes.iter().map(|a| 0x0A00_0000 | a).chain(edges).collect();
        for addr in probes {
            let want = reference.lookup(addr);
            dir.prefetch(addr);
            recompiled.prefetch(!addr);
            prop_assert_eq!(pat.lookup(addr).map(|(v, l)| (*v, l)), want, "patricia @ {:08x}", addr);
            prop_assert_eq!(bspl.lookup(addr).map(|(v, l)| (*v, l)), want, "bspl @ {:08x}", addr);
            let value = want.map(|(v, _)| v);
            prop_assert_eq!(dir.lookup(addr).copied(), value, "dir24 @ {:08x}", addr);
            prop_assert_eq!(recompiled.lookup(addr).copied(), value, "dir24 recompiled @ {:08x}", addr);
        }
        // Size bookkeeping agrees too.
        prop_assert_eq!(pat.len(), reference.entries.len());
        prop_assert_eq!(bspl.len(), reference.entries.len());
        prop_assert_eq!(dir.len(), reference.entries.len());
    }

    #[test]
    fn a_chunk_and_its_neighbours_stay_exact(
        ops in prop::collection::vec(arb_chunk_op(), 1..160),
        probes in prop::collection::vec(0u32..3 << 16, 32..33),
    ) {
        let mut reference = Reference::new();
        let mut dir = Dir24Table::new();
        dir.compile();
        let probes: Vec<u32> = probes.iter().map(|a| NEIGHBOURS + a).collect();
        for op in ops {
            let changed = match op {
                ChunkOp::Compile => {
                    dir.compile();
                    None
                }
                ChunkOp::Insert(a, l, v) => {
                    let p = Prefix::new(a, l);
                    reference.insert(p, v);
                    dir.insert(p, v);
                    Some(p)
                }
                ChunkOp::Remove(i) if !reference.entries.is_empty() => {
                    let (p, _) = reference.entries[i % reference.entries.len()];
                    reference.remove(p);
                    dir.remove(p);
                    Some(p)
                }
                ChunkOp::Remove(_) => None,
                ChunkOp::Prefetch(a) => {
                    dir.prefetch(a);
                    None
                }
            };
            // The changed prefix's edges, every stored prefix's, and
            // fixed probes across the three /16s.
            let edges = reference.entries.iter().map(|(p, _)| *p).chain(changed).flat_map(|p| {
                let last = p.bits() | !u32::MAX.mask(p.len());
                [p.bits(), last, p.bits().wrapping_sub(1), last.wrapping_add(1)]
            });
            for addr in edges.chain(probes.iter().copied()) {
                let want = reference.lookup(addr).map(|(v, _)| v);
                prop_assert_eq!(dir.lookup(addr).copied(), want, "dir24 @ {:08x}", addr);
            }
            prop_assert_eq!(dir.len(), reference.entries.len());
        }
    }

    #[test]
    fn bspl_probe_bound_holds(
        lens in prop::collection::btree_set(1u8..=32, 1..32),
        probes in prop::collection::vec(any::<u32>(), 1..64),
    ) {
        // Worst-case probes must never exceed ceil(log2(k+1)).
        let mut t = BsplTable::new();
        for (i, l) in lens.iter().enumerate() {
            t.insert(Prefix::new(0xFFFF_FFFFu32, *l), i as u32);
            t.insert(Prefix::new((i as u32) << 12, *l), i as u32);
        }
        let bound = t.worst_case_probes() as u64;
        for p in probes {
            let probes = t.probes_for(p);
            prop_assert!(probes <= bound,
                "probes {} > bound {} with {} lengths", probes, bound, lens.len());
        }
    }
}

/// The /16 that `a_dense_16_stays_exact` fills.
const DENSE: u32 = 0x0A0A_0000;

/// The answer at each of `DENSE`'s 65 536 addresses, painted from the
/// shortest prefix to the longest.
fn painted(prefixes: &[(Prefix<u32>, u32)]) -> Vec<Option<u32>> {
    let mut by_len = prefixes.to_vec();
    by_len.sort_by_key(|(p, _)| p.len());
    let mut slots = vec![None; 1 << 16];
    for (p, v) in by_len {
        let first = (p.bits() - DENSE) as usize;
        slots[first..first + (1 << (32 - p.len()))].fill(Some(v));
    }
    slots
}

/// One /16's list at its longest in practice: every /17–/24 (510
/// prefixes) and 4 096 random host routes, inserted in random order,
/// with distinct values so the chunk spills. An uncompiled and a compiled
/// table answer as the painted reference at every address of the /16 and
/// just outside it; so do both once half the prefixes are removed and
/// the compiled one is compiled again.
#[test]
fn a_dense_16_stays_exact() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(16);
    let mut prefixes: Vec<Prefix<u32>> = (17..=24u8)
        .flat_map(|len| {
            (0..1u32 << (len - 16)).map(move |i| Prefix::new(DENSE | i << (32 - len), len))
        })
        .collect();
    while prefixes.len() < 510 + 4096 {
        let host = Prefix::new(DENSE | rng.gen::<u32>() & 0xFFFF, 32);
        if !prefixes.contains(&host) {
            prefixes.push(host);
        }
    }
    for i in (1..prefixes.len()).rev() {
        prefixes.swap(i, rng.gen_range(0..=i));
    }
    let mut stored: Vec<(Prefix<u32>, u32)> = prefixes.iter().copied().zip(0..).collect();
    let mut tables = [Dir24Table::new(), Dir24Table::new()];
    for t in &mut tables {
        for &(p, v) in &stored {
            t.insert(p, v);
        }
    }
    tables[1].compile();
    let check = |tables: &[Dir24Table<u32>; 2], stored: &[(Prefix<u32>, u32)]| {
        let want = painted(stored);
        for (name, t) in ["uncompiled", "compiled"].iter().zip(tables) {
            assert_eq!(t.len(), stored.len());
            for (low, want) in want.iter().enumerate() {
                let addr = DENSE + low as u32;
                assert_eq!(t.lookup(addr), want.as_ref(), "{name} @ {addr:08x}");
            }
            assert_eq!(t.lookup(DENSE - 1), None, "{name} below");
            assert_eq!(t.lookup(DENSE + (1 << 16)), None, "{name} above");
        }
    };
    check(&tables, &stored);
    let removed: Vec<(Prefix<u32>, u32)> = stored.iter().copied().step_by(2).collect();
    stored = stored.into_iter().skip(1).step_by(2).collect();
    for t in &mut tables {
        for &(p, v) in &removed {
            assert_eq!(t.remove(p), Some(v));
        }
    }
    check(&tables, &stored);
    tables[1].compile();
    check(&tables, &stored);
}

#[test]
fn v6_agreement_smoke() {
    let mut pat: PatriciaTable<u128, u32> = PatriciaTable::new();
    let mut bspl: BsplTable<u128, u32> = BsplTable::new();
    let base: u128 = 0x2001_0db8u128 << 96;
    let prefixes = [
        (base, 32u8),
        (base | (0xau128 << 64), 64),
        (base | (0xau128 << 64) | 5, 128),
        (base | (0xbu128 << 64), 64),
    ];
    for (i, (bits, len)) in prefixes.iter().enumerate() {
        pat.insert(Prefix::new(*bits, *len), i as u32);
        bspl.insert(Prefix::new(*bits, *len), i as u32);
    }
    for probe in [
        base,
        base | (0xau128 << 64),
        base | (0xau128 << 64) | 5,
        base | (0xau128 << 64) | 6,
        base | (0xbu128 << 64) | 1,
        base | (0xcu128 << 64),
        1u128,
    ] {
        assert_eq!(
            pat.lookup(probe).map(|(v, l)| (*v, l)),
            bspl.lookup(probe).map(|(v, l)| (*v, l)),
            "probe {probe:x}"
        );
    }
}
