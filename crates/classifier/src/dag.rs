//! The DAG-based filter table (paper §5.1): a *set-pruning trie* with one
//! level per six-tuple field, in the paper's order `<src, dst, proto,
//! sport, dport, iface>`.
//!
//! Key properties reproduced from the paper:
//!
//! * **Pluggable per-level match functions** (§5.1.1): the address levels
//!   delegate to a BMP plugin — either PATRICIA ("slower but freely
//!   available") or binary search on prefix lengths — chosen at
//!   construction via [`BmpKind`]; ports match on ranges with wildcard;
//!   protocol and interface match exactly with wildcard.
//! * **Set-pruning replication**: when a filter is installed, its suffix is
//!   replicated under every more-specific edge it covers, and a newly
//!   created edge inherits the suffixes of every less-specific edge
//!   covering it. Lookup therefore follows the single most-specific edge
//!   at each level and **never backtracks** — cost is `O(fields)`,
//!   independent of the filter count, at the price of the exponential
//!   worst-case memory the paper acknowledges.
//! * **Most-specific-match semantics** with deterministic ambiguity
//!   resolution (lexicographic field-order specificity; see
//!   [`FilterSpec::specificity`]).
//! * **Memory-access accounting** in the units of the paper's Table 2:
//!   DAG-edge accesses, BMP probes, port lookups and the two
//!   function-pointer loads are tallied separately.

use crate::filter::{AddrMatch, FilterId, FilterSpec, PortMatch};
use rp_lpm::{BsplTable, IntMap, LpmTable, PatriciaTable, Prefix};
use rp_packet::FlowKey;
use std::cell::Cell;
use std::fmt;
use std::net::IpAddr;

/// Which BMP plugin the address levels use (paper §5.1.1: "For IP address
/// matching, we implemented two such plugins").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmpKind {
    /// The PATRICIA-trie plugin.
    Patricia,
    /// The binary-search-on-prefix-lengths plugin.
    Bspl,
}

/// Errors from filter installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The new filter's port range partially overlaps an installed
    /// filter's range (neither nests in the other) — ambiguous for
    /// set-pruning resolution; the paper defers ambiguity handling to its
    /// tech report, we reject it explicitly.
    AmbiguousPortOverlap(FilterId),
    /// Unknown filter id.
    NoSuchFilter,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::AmbiguousPortOverlap(id) => {
                write!(f, "port range partially overlaps filter {}", id.0)
            }
            DagError::NoSuchFilter => write!(f, "no such filter"),
        }
    }
}

impl std::error::Error for DagError {}

/// Per-lookup memory-access tally in the paper's Table 2 units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// "Access to function pointer for BMP function" (1 per lookup).
    pub bmp_fn_ptr: u64,
    /// "Access to function pointer for index hash" (1 per lookup).
    pub hash_fn_ptr: u64,
    /// "IP address lookup" — BMP probes over both address levels.
    pub addr_probes: u64,
    /// "Port number lookup" — one per port level.
    pub port_probes: u64,
    /// "Access to DAG edges" — one per level transition.
    pub dag_edges: u64,
}

impl LookupStats {
    /// Total memory accesses (the paper's Table 2 bottom line).
    pub fn total(&self) -> u64 {
        self.bmp_fn_ptr + self.hash_fn_ptr + self.addr_probes + self.port_probes + self.dag_edges
    }
}

/// Index of a node in its level's arena.
type NodeId = u32;

enum AddrMatcher<T: rp_lpm::Bits> {
    Patricia(PatriciaTable<T, NodeId>),
    Bspl(BsplTable<T, NodeId>),
}

impl<T: rp_lpm::Bits> AddrMatcher<T> {
    fn new(kind: BmpKind) -> Self {
        match kind {
            BmpKind::Patricia => AddrMatcher::Patricia(PatriciaTable::new()),
            BmpKind::Bspl => AddrMatcher::Bspl(BsplTable::new()),
        }
    }

    fn insert(&mut self, p: Prefix<T>, node: NodeId) {
        match self {
            AddrMatcher::Patricia(t) => {
                t.insert(p, node);
            }
            AddrMatcher::Bspl(t) => {
                t.insert(p, node);
            }
        }
    }

    fn remove(&mut self, p: Prefix<T>) {
        match self {
            AddrMatcher::Patricia(t) => {
                t.remove(p);
            }
            AddrMatcher::Bspl(t) => {
                t.remove(p);
            }
        }
    }

    /// The child under the longest matching prefix, and the probes the
    /// BMP plugin made to find it.
    fn lookup(&self, addr: T) -> (Option<NodeId>, u64) {
        let (hit, probes) = match self {
            AddrMatcher::Patricia(t) => t.lookup_counted(addr),
            AddrMatcher::Bspl(t) => t.lookup_counted(addr),
        };
        (hit.map(|(v, _)| *v), probes)
    }
}

/// Edge map for the Exact levels (protocol, incoming interface).
///
/// Both fields have tiny label populations in any realistic filter set —
/// a handful of protocols, one label per router port — so the edges live
/// in a sorted array probed by binary search: the whole map is one or two
/// cache lines, where a `HashMap` pays a hasher call plus control-byte
/// and bucket indirections per probe. Should a table ever grow past
/// [`EXACT_SPILL`] distinct labels at one node, the map spills to a hash
/// so lookup stays O(1) in the degenerate case.
///
/// The Table 2 accounting is unaffected: a probe here is still exactly
/// one "access to DAG edges" in the paper's unit, whatever the backing
/// store.
enum ExactEdges {
    Sorted(Vec<(u32, NodeId)>),
    Hash(IntMap<u32, NodeId>),
}

/// Distinct-label count at which [`ExactEdges`] abandons the sorted array.
const EXACT_SPILL: usize = 96;

impl Default for ExactEdges {
    fn default() -> Self {
        ExactEdges::Sorted(Vec::new())
    }
}

impl ExactEdges {
    fn get(&self, key: u32) -> Option<NodeId> {
        match self {
            ExactEdges::Sorted(v) => v
                .binary_search_by_key(&key, |(k, _)| *k)
                .ok()
                .map(|i| v[i].1),
            ExactEdges::Hash(m) => m.get(&key).copied(),
        }
    }

    fn insert(&mut self, key: u32, node: NodeId) {
        match self {
            ExactEdges::Sorted(v) => match v.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => v[i].1 = node,
                Err(i) => {
                    if v.len() >= EXACT_SPILL {
                        let mut m: IntMap<u32, NodeId> = v.drain(..).collect();
                        m.insert(key, node);
                        *self = ExactEdges::Hash(m);
                    } else {
                        v.insert(i, (key, node));
                    }
                }
            },
            ExactEdges::Hash(m) => {
                m.insert(key, node);
            }
        }
    }

    fn remove(&mut self, key: u32) {
        match self {
            ExactEdges::Sorted(v) => {
                if let Ok(i) = v.binary_search_by_key(&key, |(k, _)| *k) {
                    v.remove(i);
                }
            }
            ExactEdges::Hash(m) => {
                m.remove(&key);
            }
        }
    }

    /// Owned `(label, child)` snapshot (used by removal, which needs to
    /// recurse while holding no borrow of the node).
    fn entries(&self) -> Vec<(u32, NodeId)> {
        match self {
            ExactEdges::Sorted(v) => v.clone(),
            ExactEdges::Hash(m) => m.iter().map(|(k, c)| (*k, *c)).collect(),
        }
    }

    /// Owned child list (used by wildcard replication).
    fn children(&self) -> Vec<NodeId> {
        match self {
            ExactEdges::Sorted(v) => v.iter().map(|(_, c)| *c).collect(),
            ExactEdges::Hash(m) => m.values().copied().collect(),
        }
    }
}

/// An address node (levels 0–1): a BMP matcher per family and the
/// wildcard edge. Its authoritative edge list, read only to compute
/// covers, is the arena's cold column.
#[derive(Default)]
struct AddrNode {
    v4: Option<AddrMatcher<u32>>,
    v6: Option<AddrMatcher<u128>>,
    wildcard: Option<NodeId>,
}

/// A protocol or interface node (levels 2 and 5).
#[derive(Default)]
struct ExactNode {
    edges: ExactEdges,
    wildcard: Option<NodeId>,
}

/// A source- or destination-port node (levels 3 and 4).
#[derive(Default)]
struct PortNode {
    edges: Vec<(PortMatch, NodeId)>,
    wildcard: Option<NodeId>,
}

/// What only installation and removal read: every filter whose
/// replication passes through the node (a leaf's candidates), and at the
/// address levels the edge list.
#[derive(Default)]
struct Cold<X> {
    installed: Vec<FilterId>,
    edges: X,
}

// A walk loads one node per level; below the address levels each is one
// line. A leaf (level 6) is its `Cold<()>`.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<ExactNode>() <= 64);
    assert!(size_of::<PortNode>() <= 64);
    assert!(size_of::<Cold<()>>() <= 64);
};

/// One node kind's store: node `i`'s lookup fields are `hot[i]`, its
/// install-time state `cold[i]`. A child index points into the next
/// level's arena, and released slots are reused before the arena grows.
#[derive(Default)]
struct Arena<N, X = ()> {
    hot: Vec<N>,
    cold: Vec<Cold<X>>,
    free: Vec<NodeId>,
}

impl<N: Default, X: Default> Arena<N, X> {
    fn alloc(&mut self) -> NodeId {
        if let Some(i) = self.free.pop() {
            return i;
        }
        self.hot.push(N::default());
        self.cold.push(Cold::default());
        NodeId::try_from(self.hot.len() - 1).expect("under 2^32 nodes per arena")
    }

    fn release(&mut self, i: NodeId) {
        self.hot[i as usize] = N::default();
        self.cold[i as usize] = Cold::default();
        self.free.push(i);
    }

    fn live(&self) -> usize {
        self.hot.len() - self.free.len()
    }
}

fn addr_label(level: usize, spec: &FilterSpec) -> AddrMatch {
    if level == 0 {
        spec.src
    } else {
        spec.dst
    }
}

fn exact_label(level: usize, spec: &FilterSpec) -> Option<u32> {
    if level == 2 {
        spec.proto.map(u32::from)
    } else {
        spec.rx_if
    }
}

fn port_label(level: usize, spec: &FilterSpec) -> PortMatch {
    if level == 3 {
        spec.sport
    } else {
        spec.dport
    }
}

fn bump(tally: &Cell<u64>, n: u64) {
    tally.set(tally.get() + n);
}

/// Number of levels (fields) in the DAG.
pub const LEVELS: usize = 6;

/// The set-pruning-trie filter table. `V` is the value bound to each
/// filter (a plugin-instance handle in `router-core`).
///
/// ```
/// use rp_classifier::{BmpKind, DagTable};
/// use rp_packet::builder::PacketSpec;
/// use rp_packet::FlowKey;
///
/// let mut dag = DagTable::new(BmpKind::Bspl);
/// let id = dag
///     .insert("129.*.*.*, 192.94.233.10, TCP, *, *, *".parse().unwrap(), "qos")
///     .unwrap();
/// let (src, dst) = ("129.1.2.3".parse().unwrap(), "192.94.233.10".parse().unwrap());
/// let packet = PacketSpec::tcp(src, dst, 1234, 80, 0).build();
/// let key = FlowKey::extract(&packet, 0).unwrap();
/// assert_eq!(dag.lookup(&key), Some((id, &"qos")));
/// ```
pub struct DagTable<V> {
    /// Levels 0–1; the root is slot 0.
    addr: Arena<AddrNode, Vec<(AddrMatch, NodeId)>>,
    /// Levels 2 and 5.
    exact: Arena<ExactNode>,
    /// Levels 3 and 4.
    port: Arena<PortNode>,
    /// Level 6.
    leaf: Arena<()>,
    registry: IntMap<FilterId, (FilterSpec, V)>,
    next_id: u64,
    bmp_kind: BmpKind,
    /// Non-degenerate port ranges installed, per field (sport, dport).
    /// Only range-vs-range pairs can be ambiguous (exact ports always
    /// nest or miss), so the install-time ambiguity check scans these
    /// instead of every filter.
    sport_ranges: Vec<(PortMatch, FilterId)>,
    dport_ranges: Vec<(PortMatch, FilterId)>,
    // Lookup tallies (interior-mutable: lookup takes &self).
    s_bmp_fn: Cell<u64>,
    s_hash_fn: Cell<u64>,
    s_addr: Cell<u64>,
    s_port: Cell<u64>,
    s_edges: Cell<u64>,
}

const ROOT: NodeId = 0;

impl<V> DagTable<V> {
    /// Empty table with the chosen BMP plugin for its address levels.
    pub fn new(bmp_kind: BmpKind) -> Self {
        let mut addr = Arena::default();
        addr.alloc(); // ROOT
        DagTable {
            addr,
            exact: Arena::default(),
            port: Arena::default(),
            leaf: Arena::default(),
            registry: IntMap::default(),
            next_id: 0,
            bmp_kind,
            sport_ranges: Vec::new(),
            dport_ranges: Vec::new(),
            s_bmp_fn: Cell::new(0),
            s_hash_fn: Cell::new(0),
            s_addr: Cell::new(0),
            s_port: Cell::new(0),
            s_edges: Cell::new(0),
        }
    }

    /// Number of installed filters.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// True when no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// Number of live trie nodes (the memory-blowup metric of §5.1.2).
    pub fn node_count(&self) -> usize {
        self.addr.live() + self.exact.live() + self.port.live() + self.leaf.live()
    }

    /// The spec and value of an installed filter.
    pub fn get(&self, id: FilterId) -> Option<(&FilterSpec, &V)> {
        self.registry.get(&id).map(|(s, v)| (s, v))
    }

    /// Iterate installed filter ids.
    pub fn filter_ids(&self) -> Vec<FilterId> {
        let mut v: Vec<FilterId> = self.registry.keys().copied().collect();
        v.sort();
        v
    }

    /// Install a filter bound to `value`. Rejects ambiguous partial port
    /// overlaps with installed filters.
    pub fn insert(&mut self, spec: FilterSpec, value: V) -> Result<FilterId, DagError> {
        // Conservative ambiguity check (see DagError). Exact ports and
        // wildcards always nest, so only installed *ranges* need
        // scanning.
        for (r, id) in &self.sport_ranges {
            if spec.sport.overlaps_ambiguously(r) {
                return Err(DagError::AmbiguousPortOverlap(*id));
            }
        }
        for (r, id) in &self.dport_ranges {
            if spec.dport.overlaps_ambiguously(r) {
                return Err(DagError::AmbiguousPortOverlap(*id));
            }
        }
        let id = FilterId(self.next_id);
        self.next_id += 1;
        if let PortMatch::Range(lo, hi) = spec.sport {
            if lo != hi {
                self.sport_ranges.push((spec.sport, id));
            }
        }
        if let PortMatch::Range(lo, hi) = spec.dport {
            if lo != hi {
                self.dport_ranges.push((spec.dport, id));
            }
        }
        self.registry.insert(id, (spec, value));
        self.insert_rec(ROOT, 0, id);
        Ok(id)
    }

    /// Remove a filter, returning its bound value. Nodes it leaves empty
    /// return to their arenas' free lists.
    pub fn remove(&mut self, id: FilterId) -> Result<(FilterSpec, V), DagError> {
        if !self.registry.contains_key(&id) {
            return Err(DagError::NoSuchFilter);
        }
        self.remove_rec(ROOT, 0, id);
        self.sport_ranges.retain(|(_, f)| *f != id);
        self.dport_ranges.retain(|(_, f)| *f != id);
        Ok(self.registry.remove(&id).expect("checked present"))
    }

    fn spec_of(&self, id: FilterId) -> &FilterSpec {
        &self.registry.get(&id).expect("registered filter").0
    }

    fn installed(&self, level: usize, node: NodeId) -> &Vec<FilterId> {
        let n = node as usize;
        match level {
            0 | 1 => &self.addr.cold[n].installed,
            2 | 5 => &self.exact.cold[n].installed,
            3 | 4 => &self.port.cold[n].installed,
            _ => &self.leaf.cold[n].installed,
        }
    }

    fn installed_mut(&mut self, level: usize, node: NodeId) -> &mut Vec<FilterId> {
        let n = node as usize;
        match level {
            0 | 1 => &mut self.addr.cold[n].installed,
            2 | 5 => &mut self.exact.cold[n].installed,
            3 | 4 => &mut self.port.cold[n].installed,
            _ => &mut self.leaf.cold[n].installed,
        }
    }

    /// The wildcard edge of an inner node at `level`.
    fn wildcard_mut(&mut self, level: usize, node: NodeId) -> &mut Option<NodeId> {
        let n = node as usize;
        match level {
            0 | 1 => &mut self.addr.hot[n].wildcard,
            2 | 5 => &mut self.exact.hot[n].wildcard,
            _ => &mut self.port.hot[n].wildcard,
        }
    }

    fn alloc(&mut self, level: usize) -> NodeId {
        match level {
            0 | 1 => self.addr.alloc(),
            2 | 5 => self.exact.alloc(),
            3 | 4 => self.port.alloc(),
            _ => self.leaf.alloc(),
        }
    }

    fn release(&mut self, level: usize, node: NodeId) {
        match level {
            0 | 1 => self.addr.release(node),
            2 | 5 => self.exact.release(node),
            3 | 4 => self.port.release(node),
            _ => self.leaf.release(node),
        }
    }

    /// The wildcard child of a node at `level`, created if absent.
    fn wildcard_child(&mut self, level: usize, node: NodeId) -> NodeId {
        if let Some(w) = *self.wildcard_mut(level, node) {
            return w;
        }
        let w = self.alloc(level + 1);
        *self.wildcard_mut(level, node) = Some(w);
        w
    }

    fn insert_rec(&mut self, node: NodeId, level: usize, fid: FilterId) {
        let installed = self.installed_mut(level, node);
        debug_assert!(
            !installed.contains(&fid),
            "duplicate replication of {fid:?}"
        );
        installed.push(fid);
        // Only the one Copy field this level matches on is read from the
        // spec — cloning the whole multi-field spec here would deep-copy
        // it once per visited node of the replication recursion. A leaf's
        // installed list is its candidate set, so level 6 is done.
        match level {
            0 | 1 => {
                let label = addr_label(level, self.spec_of(fid));
                self.insert_addr_level(node, level, fid, label)
            }
            2 | 5 => {
                let label = exact_label(level, self.spec_of(fid));
                self.insert_exact_level(node, level, fid, label)
            }
            3 | 4 => {
                let label = port_label(level, self.spec_of(fid));
                self.insert_port_level(node, level, fid, label)
            }
            _ => {}
        }
    }

    /// Deduplicated filters installed under each of `children` (nodes at
    /// `level`).
    fn inherited(&self, level: usize, children: impl IntoIterator<Item = NodeId>) -> Vec<FilterId> {
        // Order-preserving dedup; the set guard keeps nested-filter
        // inheritance (where one edge's installed list can be large)
        // linear instead of quadratic.
        let mut seen = Vec::new();
        let mut guard = std::collections::HashSet::new();
        for c in children {
            for f in self.installed(level, c) {
                if guard.insert(*f) {
                    seen.push(*f);
                }
            }
        }
        seen
    }

    fn insert_addr_level(&mut self, node: NodeId, level: usize, fid: FilterId, label: AddrMatch) {
        // Single scan over the edge list: find the exact edge plus the
        // covering (less specific) and covered (more specific) edges.
        // Collecting only the matches keeps the common insert free of the
        // O(edges) clone that would otherwise dominate large tables.
        let n = node as usize;
        let mut existing = None;
        let mut covering = Vec::new();
        let mut covered = Vec::new();
        let edges = &self.addr.cold[n].edges;
        if label == AddrMatch::Any {
            covered.extend(edges.iter().map(|(_, c)| *c));
        } else {
            for (l, c) in edges {
                if *l == label {
                    existing = Some(*c);
                } else if l.covers(&label) {
                    covering.push(*c);
                } else if label.covers(l) {
                    covered.push(*c);
                }
            }
        }
        if label == AddrMatch::Any {
            // Main path: the wildcard edge; replicate into every edge.
            let wc = self.wildcard_child(level, node);
            self.insert_rec(wc, level + 1, fid);
            for child in covered {
                self.insert_rec(child, level + 1, fid);
            }
            return;
        }
        // Specific label: find or create its edge.
        let child = match existing {
            Some(c) => c,
            None => {
                let c = self.alloc(level + 1);
                // Inherit suffixes from every covering edge + wildcard.
                let wildcard = self.addr.hot[n].wildcard;
                let inherit_from: Vec<NodeId> = covering.iter().copied().chain(wildcard).collect();
                for g in self.inherited(level + 1, inherit_from) {
                    self.insert_rec(c, level + 1, g);
                }
                // Register the edge in both the list and the matcher.
                self.addr.cold[n].edges.push((label, c));
                let kind = self.bmp_kind;
                let hot = &mut self.addr.hot[n];
                match label {
                    AddrMatch::V4(p) => hot
                        .v4
                        .get_or_insert_with(|| AddrMatcher::new(kind))
                        .insert(p, c),
                    AddrMatch::V6(p) => hot
                        .v6
                        .get_or_insert_with(|| AddrMatcher::new(kind))
                        .insert(p, c),
                    AddrMatch::Any => unreachable!("wildcard not in matcher"),
                }
                c
            }
        };
        self.insert_rec(child, level + 1, fid);
        // Replicate into strictly more specific edges.
        for ch in covered {
            self.insert_rec(ch, level + 1, fid);
        }
    }

    fn insert_exact_level(
        &mut self,
        node: NodeId,
        level: usize,
        fid: FilterId,
        label: Option<u32>,
    ) {
        let n = node as usize;
        match label {
            None => {
                let all_children = self.exact.hot[n].edges.children();
                let wc = self.wildcard_child(level, node);
                self.insert_rec(wc, level + 1, fid);
                for child in all_children {
                    self.insert_rec(child, level + 1, fid);
                }
            }
            Some(val) => {
                let child = match self.exact.hot[n].edges.get(val) {
                    Some(c) => c,
                    None => {
                        let c = self.alloc(level + 1);
                        if let Some(w) = self.exact.hot[n].wildcard {
                            for g in self.inherited(level + 1, [w]) {
                                self.insert_rec(c, level + 1, g);
                            }
                        }
                        self.exact.hot[n].edges.insert(val, c);
                        c
                    }
                };
                self.insert_rec(child, level + 1, fid);
            }
        }
    }

    fn insert_port_level(&mut self, node: NodeId, level: usize, fid: FilterId, label: PortMatch) {
        let n = node as usize;
        let mut existing = None;
        let mut covering = Vec::new();
        let mut covered = Vec::new();
        let edges = &self.port.hot[n].edges;
        if label == PortMatch::Any {
            covered.extend(edges.iter().map(|(_, c)| *c));
        } else {
            for (l, c) in edges {
                if *l == label {
                    existing = Some(*c);
                } else if l.covers(&label) {
                    covering.push(*c);
                } else if label.covers(l) {
                    covered.push(*c);
                }
            }
        }
        if label == PortMatch::Any {
            let wc = self.wildcard_child(level, node);
            self.insert_rec(wc, level + 1, fid);
            for child in covered {
                self.insert_rec(child, level + 1, fid);
            }
            return;
        }
        let child = match existing {
            Some(c) => c,
            None => {
                let c = self.alloc(level + 1);
                let wildcard = self.port.hot[n].wildcard;
                let inherit_from: Vec<NodeId> = covering.iter().copied().chain(wildcard).collect();
                for g in self.inherited(level + 1, inherit_from) {
                    self.insert_rec(c, level + 1, g);
                }
                self.port.hot[n].edges.push((label, c));
                c
            }
        };
        self.insert_rec(child, level + 1, fid);
        for ch in covered {
            self.insert_rec(ch, level + 1, fid);
        }
    }

    fn remove_rec(&mut self, node: NodeId, level: usize, fid: FilterId) {
        let installed = self.installed_mut(level, node);
        let Some(pos) = installed.iter().position(|f| *f == fid) else {
            return;
        };
        installed.swap_remove(pos);
        // Edges are snapshotted (owned) so recursion can take &mut self.
        let n = node as usize;
        match level {
            0 | 1 => {
                let orphan = self.orphan(level, node, fid, addr_label);
                let edges = self.addr.cold[n].edges.clone();
                let dead = self.remove_below(level, fid, edges, orphan);
                self.addr.cold[n].edges.retain(|(l, _)| !dead.contains(l));
                let hot = &mut self.addr.hot[n];
                for l in dead {
                    match (l, &mut hot.v4, &mut hot.v6) {
                        (AddrMatch::V4(p), Some(m), _) => m.remove(p),
                        (AddrMatch::V6(p), _, Some(m)) => m.remove(p),
                        _ => {}
                    }
                }
            }
            2 | 5 => {
                let orphan = self.orphan(level, node, fid, exact_label).flatten();
                let edges = self.exact.hot[n].edges.entries();
                for k in self.remove_below(level, fid, edges, orphan) {
                    self.exact.hot[n].edges.remove(k);
                }
            }
            3 | 4 => {
                let orphan = self.orphan(level, node, fid, port_label);
                let edges = self.port.hot[n].edges.clone();
                let dead = self.remove_below(level, fid, edges, orphan);
                self.port.hot[n].edges.retain(|(l, _)| !dead.contains(l));
            }
            _ => return,
        }
        if let Some(w) = *self.wildcard_mut(level, node) {
            if self.remove_child(w, level + 1, fid, false) {
                *self.wildcard_mut(level, node) = None;
            }
        }
    }

    /// `fid`'s label at a node once `fid` is gone from it, if no filter
    /// left there has that label. Its edge then holds only filters
    /// inherited from covering edges, which those edges already match:
    /// a table built without `fid` has no such edge.
    fn orphan<L: PartialEq>(
        &self,
        level: usize,
        node: NodeId,
        fid: FilterId,
        label: fn(usize, &FilterSpec) -> L,
    ) -> Option<L> {
        let own = label(level, self.spec_of(fid));
        let mut left = self.installed(level, node).iter();
        (!left.any(|g| label(level, self.spec_of(*g)) == own)).then_some(own)
    }

    /// Remove `fid` under each edge of a node at `level`, and everything
    /// under the `orphan` edge; the labels of the edges left empty.
    fn remove_below<L: PartialEq>(
        &mut self,
        level: usize,
        fid: FilterId,
        edges: Vec<(L, NodeId)>,
        orphan: Option<L>,
    ) -> Vec<L> {
        let dead = edges.into_iter().filter(|(l, c)| {
            let orphaned = orphan.as_ref() == Some(l);
            self.remove_child(*c, level + 1, fid, orphaned)
        });
        dead.map(|(l, _)| l).collect()
    }

    /// Remove `fid` under `child` (at `level`), or the whole subtree when
    /// the edge is `orphaned`, and release the child if that left it
    /// empty. A child's installed list is a subset of its parent's, so an
    /// empty child's own children were released first.
    fn remove_child(&mut self, child: NodeId, level: usize, fid: FilterId, orphaned: bool) -> bool {
        if orphaned {
            self.release_subtree(child, level);
            return true;
        }
        self.remove_rec(child, level, fid);
        let dead = self.installed(level, child).is_empty();
        if dead {
            self.release(level, child);
        }
        dead
    }

    /// Release `node` (at `level`) and every node under it, each visited
    /// once: nodes are never shared, so nothing outside points in.
    fn release_subtree(&mut self, node: NodeId, level: usize) {
        let n = node as usize;
        let mut under: Vec<NodeId> = match level {
            0 | 1 => self.addr.cold[n].edges.iter().map(|(_, c)| *c).collect(),
            2 | 5 => self.exact.hot[n].edges.children(),
            3 | 4 => self.port.hot[n].edges.iter().map(|(_, c)| *c).collect(),
            _ => Vec::new(),
        };
        if level < LEVELS {
            under.extend(*self.wildcard_mut(level, node));
        }
        for c in under {
            self.release_subtree(c, level + 1);
        }
        self.release(level, node);
    }

    /// Classify a flow: the most specific matching filter and its bound
    /// value. Never backtracks; `O(fields)` node visits.
    pub fn lookup(&self, key: &FlowKey) -> Option<(FilterId, &V)> {
        bump(&self.s_bmp_fn, 1);
        bump(&self.s_hash_fn, 1);
        let n = self.addr_step(ROOT, key.src())?;
        let n = self.addr_step(n, key.dst())?;
        let n = self.exact_step(n, u32::from(key.proto()))?;
        let n = self.port_step(n, key.sport())?;
        let n = self.port_step(n, key.dport())?;
        let leaf = self.exact_step(n, key.rx_if())?;
        let best = self.leaf.cold[leaf as usize]
            .installed
            .iter()
            .max_by(|a, b| {
                let sa = self.spec_of(**a).specificity();
                let sb = self.spec_of(**b).specificity();
                sa.cmp(&sb).then(b.cmp(a)) // earlier id wins ties
            })
            .copied()?;
        Some((best, &self.registry[&best].1))
    }

    fn addr_step(&self, node: NodeId, addr: IpAddr) -> Option<NodeId> {
        bump(&self.s_edges, 1);
        let node = &self.addr.hot[node as usize];
        let (hit, probes) = match addr {
            IpAddr::V4(a) => node
                .v4
                .as_ref()
                .map_or((None, 0), |m| m.lookup(u32::from(a))),
            IpAddr::V6(a) => node
                .v6
                .as_ref()
                .map_or((None, 0), |m| m.lookup(u128::from(a))),
        };
        bump(&self.s_addr, probes);
        hit.or(node.wildcard)
    }

    fn exact_step(&self, node: NodeId, val: u32) -> Option<NodeId> {
        bump(&self.s_edges, 1);
        let node = &self.exact.hot[node as usize];
        node.edges.get(val).or(node.wildcard)
    }

    fn port_step(&self, node: NodeId, port: u16) -> Option<NodeId> {
        bump(&self.s_edges, 1);
        bump(&self.s_port, 1);
        let node = &self.port.hot[node as usize];
        // Matching ranges are nested (ambiguity rejected), so the
        // narrowest matching range is the most specific.
        node.edges
            .iter()
            .filter(|(l, _)| l.matches(port))
            .max_by_key(|(l, _)| l.specificity())
            .map(|(_, c)| *c)
            .or(node.wildcard)
    }

    /// Like [`DagTable::lookup`] but also returns the Table 2 access
    /// breakdown for this single lookup. Takes a spelled-out tuple too.
    pub fn lookup_with_stats(
        &self,
        key: impl Into<FlowKey>,
    ) -> (Option<(FilterId, &V)>, LookupStats) {
        let before = self.stats_snapshot();
        let out = self.lookup(&key.into());
        let after = self.stats_snapshot();
        (
            out,
            LookupStats {
                bmp_fn_ptr: after.bmp_fn_ptr - before.bmp_fn_ptr,
                hash_fn_ptr: after.hash_fn_ptr - before.hash_fn_ptr,
                addr_probes: after.addr_probes - before.addr_probes,
                port_probes: after.port_probes - before.port_probes,
                dag_edges: after.dag_edges - before.dag_edges,
            },
        )
    }

    /// Cumulative access counters since construction.
    pub fn stats_snapshot(&self) -> LookupStats {
        LookupStats {
            bmp_fn_ptr: self.s_bmp_fn.get(),
            hash_fn_ptr: self.s_hash_fn.get(),
            addr_probes: self.s_addr.get(),
            port_probes: self.s_port.get(),
            dag_edges: self.s_edges.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::paper_table1_filters;
    use rp_packet::FlowTuple;
    use std::net::Ipv4Addr;

    fn t4(src: [u8; 4], dst: [u8; 4], proto: u8, sport: u16, dport: u16) -> FlowKey {
        FlowKey::of(&FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(src)),
            dst: IpAddr::V4(Ipv4Addr::from(dst)),
            proto,
            sport,
            dport,
            rx_if: 0,
        })
    }

    fn table1_dag(kind: BmpKind) -> (DagTable<usize>, Vec<FilterId>) {
        let mut dag = DagTable::new(kind);
        let ids = paper_table1_filters()
            .into_iter()
            .enumerate()
            .map(|(i, f)| dag.insert(f, i).unwrap())
            .collect();
        (dag, ids)
    }

    /// The paper's Figure 4 walkthrough: <128.252.153.1, 128.252.154.7,
    /// UDP> must return filter 2 of Table 1... careful: the paper's text
    /// matches the triple against 128.252.154.7 and still ends at filter 2
    /// because its Figure 4 destination prefix is 128.252.154.7 — in
    /// Table 1 the destination is 128.252.153.7. We follow Table 1: the
    /// .154. packet matches only filter 4; the .153. packet yields
    /// filter 2 exactly as the DAG walkthrough describes.
    #[test]
    fn paper_figure4_walkthrough() {
        for kind in [BmpKind::Patricia, BmpKind::Bspl] {
            let (dag, ids) = table1_dag(kind);
            let got = dag.lookup(&t4([128, 252, 153, 1], [128, 252, 153, 7], 17, 9, 9));
            assert_eq!(got.map(|(id, v)| (id, *v)), Some((ids[1], 1)), "{kind:?}");
            let got = dag.lookup(&t4([128, 252, 153, 1], [128, 252, 154, 7], 17, 9, 9));
            assert_eq!(got.map(|(id, v)| (id, *v)), Some((ids[3], 3)), "{kind:?}");
        }
    }

    #[test]
    fn table1_full_semantics() {
        let (dag, ids) = table1_dag(BmpKind::Bspl);
        // TCP from 129.x to the named host → filter 1.
        let got = dag.lookup(&t4([129, 1, 2, 3], [192, 94, 233, 10], 6, 1, 2));
        assert_eq!(got.unwrap().0, ids[0]);
        // TCP between the two hosts → filter 3.
        let got = dag.lookup(&t4([128, 252, 153, 1], [128, 252, 153, 7], 6, 1, 2));
        assert_eq!(got.unwrap().0, ids[2]);
        // UDP from another host on the /24 → filter 4.
        let got = dag.lookup(&t4([128, 252, 153, 9], [1, 2, 3, 4], 17, 1, 2));
        assert_eq!(got.unwrap().0, ids[3]);
        // TCP from the /24 (not .1) matches nothing.
        assert!(dag
            .lookup(&t4([128, 252, 153, 9], [1, 2, 3, 4], 6, 1, 2))
            .is_none());
    }

    #[test]
    fn wildcard_replication_into_specific_edges() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        // Install the specific filter FIRST, wildcard second: the wildcard
        // must be replicated into the existing specific edge.
        let _spec = dag
            .insert("10.0.0.0/8, *, TCP, *, *, *".parse().unwrap(), "tcp10")
            .unwrap();
        let _any = dag
            .insert("*, *, *, *, *, *".parse().unwrap(), "any")
            .unwrap();
        // UDP from 10.x: only the wildcard matches — reached through the
        // 10/8 edge (never backtracking).
        let got = dag.lookup(&t4([10, 1, 1, 1], [2, 2, 2, 2], 17, 1, 1));
        assert_eq!(*got.unwrap().1, "any");
        // TCP from 10.x: the specific filter wins on specificity.
        let got = dag.lookup(&t4([10, 1, 1, 1], [2, 2, 2, 2], 6, 1, 1));
        assert_eq!(*got.unwrap().1, "tcp10");
        // Non-10.x falls to the wildcard edge.
        let got = dag.lookup(&t4([11, 1, 1, 1], [2, 2, 2, 2], 6, 1, 1));
        assert_eq!(*got.unwrap().1, "any");
    }

    #[test]
    fn inheritance_on_late_specific_edge() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        // Wildcard-ish first, then a more specific edge: the new edge
        // inherits the earlier filter's suffix.
        dag.insert("10.0.0.0/8, *, *, *, *, *".parse().unwrap(), "eight")
            .unwrap();
        dag.insert("10.20.0.0/16, *, UDP, *, *, *".parse().unwrap(), "sixteen")
            .unwrap();
        // TCP (≠ UDP) from 10.20.x: descends the /16 edge, must still find
        // the /8 filter there.
        let got = dag.lookup(&t4([10, 20, 1, 1], [2, 2, 2, 2], 6, 1, 1));
        assert_eq!(*got.unwrap().1, "eight");
        // UDP from 10.20.x: both match; /16 more specific.
        let got = dag.lookup(&t4([10, 20, 1, 1], [2, 2, 2, 2], 17, 1, 1));
        assert_eq!(*got.unwrap().1, "sixteen");
    }

    #[test]
    fn port_ranges_nested() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        dag.insert("*, *, UDP, *, 1000-2000, *".parse().unwrap(), "wide")
            .unwrap();
        dag.insert("*, *, UDP, *, 1500-1600, *".parse().unwrap(), "narrow")
            .unwrap();
        dag.insert("*, *, UDP, *, 1550, *".parse().unwrap(), "exact")
            .unwrap();
        let q = |p: u16| {
            dag.lookup(&t4([1, 1, 1, 1], [2, 2, 2, 2], 17, 9, p))
                .map(|(_, v)| *v)
        };
        assert_eq!(q(1000), Some("wide"));
        assert_eq!(q(1500), Some("narrow"));
        assert_eq!(q(1550), Some("exact"));
        assert_eq!(q(1601), Some("wide"));
        assert_eq!(q(2001), None);
    }

    #[test]
    fn ambiguous_port_overlap_rejected() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        let id = dag
            .insert("*, *, UDP, *, 1000-2000, *".parse().unwrap(), "a")
            .unwrap();
        let err = dag
            .insert("*, *, UDP, *, 1500-2500, *".parse().unwrap(), "b")
            .unwrap_err();
        assert_eq!(err, DagError::AmbiguousPortOverlap(id));
    }

    #[test]
    fn iface_level() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        dag.insert("*, *, *, *, *, if1".parse().unwrap(), "if1")
            .unwrap();
        dag.insert("*, *, *, *, *, *".parse().unwrap(), "any")
            .unwrap();
        let t = t4([1, 1, 1, 1], [2, 2, 2, 2], 6, 1, 1).tuple();
        let on = |rx_if| FlowKey::of(&FlowTuple { rx_if, ..t });
        assert_eq!(*dag.lookup(&on(1)).unwrap().1, "if1");
        assert_eq!(*dag.lookup(&on(2)).unwrap().1, "any");
    }

    #[test]
    fn remove_prunes_and_restores() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        let base_nodes = dag.node_count();
        let a = dag
            .insert("10.0.0.0/8, *, *, *, *, *".parse().unwrap(), "a")
            .unwrap();
        let b = dag
            .insert("10.20.0.0/16, *, UDP, *, *, *".parse().unwrap(), "b")
            .unwrap();
        let t_tcp = t4([10, 20, 1, 1], [2, 2, 2, 2], 6, 1, 1);
        assert_eq!(*dag.lookup(&t_tcp).unwrap().1, "a");
        let (spec, val) = dag.remove(a).unwrap();
        assert_eq!(val, "a");
        assert_eq!(spec.src.specificity(), 9);
        // The /8's replica under the /16 edge must be gone.
        assert!(dag.lookup(&t_tcp).is_none());
        let t_udp = t4([10, 20, 1, 1], [2, 2, 2, 2], 17, 1, 1);
        assert_eq!(*dag.lookup(&t_udp).unwrap().1, "b");
        dag.remove(b).unwrap();
        assert!(dag.lookup(&t_udp).is_none());
        assert_eq!(dag.len(), 0);
        // All edges pruned (root remains).
        assert_eq!(
            dag.addr.cold[ROOT as usize].installed.len(),
            0,
            "root installed list drained"
        );
        let _ = base_nodes;
        assert!(dag.remove(a).is_err());
    }

    /// Nested and disjoint prefixes at both address levels and both
    /// families, exact and wildcard protocols, ports and interfaces.
    fn mixed_filters() -> Vec<FilterSpec> {
        (0..128u32)
            .map(|i| {
                let src = match i % 4 {
                    0 => "*".to_string(),
                    1 => format!("10.{}.0.0/16", i % 8),
                    2 => format!("10.{}.{i}.0/24", i % 8),
                    _ => format!("2001:db8:{:x}::/48", i % 8),
                };
                let dst = match i % 3 {
                    0 => "*".to_string(),
                    _ if i % 4 == 3 => format!("2001:db8::{i:x}"),
                    _ => format!("20.{}.0.0/{}", i % 5, 16 + i % 9),
                };
                let proto = ["*", "TCP", "UDP"][i as usize % 3];
                let dport = if i % 2 == 0 {
                    "*".to_string()
                } else {
                    (1000 + i % 7).to_string()
                };
                let rx_if = if i % 5 == 0 { "if1" } else { "*" };
                format!("{src}, {dst}, {proto}, *, {dport}, {rx_if}")
                    .parse()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn removed_filters_free_their_nodes_for_reuse() {
        let filters = mixed_filters();
        let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
        let mut first = None;
        for cycle in 0..4 {
            let mut ids: Vec<FilterId> = filters
                .iter()
                .map(|f| dag.insert(f.clone(), 0).unwrap())
                .collect();
            let peak = dag.node_count();
            if cycle % 2 == 1 {
                ids.reverse();
            }
            for id in ids {
                dag.remove(id).unwrap();
            }
            assert_eq!(dag.node_count(), 1, "only the root outlives the filters");
            let slots =
                dag.addr.hot.len() + dag.exact.hot.len() + dag.port.hot.len() + dag.leaf.hot.len();
            assert_eq!(
                *first.get_or_insert((peak, slots)),
                (peak, slots),
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn partial_removal_leaves_the_shape_of_a_fresh_build() {
        let filters = mixed_filters();
        for kind in [BmpKind::Bspl, BmpKind::Patricia] {
            let mut dag: DagTable<u32> = DagTable::new(kind);
            let ids: Vec<FilterId> = filters
                .iter()
                .map(|f| dag.insert(f.clone(), 0).unwrap())
                .collect();
            let mut fresh: DagTable<u32> = DagTable::new(kind);
            for (i, (f, id)) in filters.iter().zip(ids).enumerate() {
                if i % 3 == 0 {
                    dag.remove(id).unwrap();
                } else {
                    fresh.insert(f.clone(), 0).unwrap();
                }
            }
            assert_eq!(dag.node_count(), fresh.node_count(), "{kind:?}");
        }
    }

    #[test]
    fn v6_filters() {
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        dag.insert("2001:db8::/32, *, UDP, *, *, *".parse().unwrap(), "site")
            .unwrap();
        dag.insert(
            "2001:db8::1, 2001:db8::2, UDP, *, *, *".parse().unwrap(),
            "pair",
        )
        .unwrap();
        let t = FlowTuple {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            proto: 17,
            sport: 1,
            dport: 2,
            rx_if: 0,
        };
        assert_eq!(*dag.lookup(&FlowKey::of(&t)).unwrap().1, "pair");
        let t2 = FlowTuple {
            src: "2001:db8::99".parse().unwrap(),
            ..t
        };
        assert_eq!(*dag.lookup(&FlowKey::of(&t2)).unwrap().1, "site");
    }

    #[test]
    fn stats_have_paper_shape() {
        let (dag, _) = table1_dag(BmpKind::Bspl);
        let t = t4([128, 252, 153, 1], [128, 252, 153, 7], 17, 9, 9);
        let (hit, stats) = dag.lookup_with_stats(t);
        assert!(hit.is_some());
        assert_eq!(stats.bmp_fn_ptr, 1);
        assert_eq!(stats.hash_fn_ptr, 1);
        assert_eq!(stats.dag_edges, 6);
        assert_eq!(stats.port_probes, 2);
        assert!(stats.addr_probes >= 1);
        assert_eq!(
            stats.total(),
            1 + 1 + 6 + 2 + stats.addr_probes,
            "breakdown sums"
        );
    }

    #[test]
    fn lookup_cost_independent_of_filter_count() {
        // The headline claim (§5.1.2): DAG lookup cost is O(fields).
        // Compare edge/port accesses at 4 filters vs hundreds.
        let (dag_small, _) = table1_dag(BmpKind::Patricia);
        let t = t4([128, 252, 153, 1], [128, 252, 153, 7], 17, 9, 9);
        let (_, small) = dag_small.lookup_with_stats(t);

        let mut dag_big: DagTable<usize> = DagTable::new(BmpKind::Patricia);
        for (i, f) in paper_table1_filters().into_iter().enumerate() {
            dag_big.insert(f, i).unwrap();
        }
        for i in 0..500u32 {
            let spec: FilterSpec = format!(
                "172.{}.{}.0/24, *, TCP, *, {}, *",
                i % 256,
                (i / 256) % 256,
                1000 + i
            )
            .parse()
            .unwrap();
            dag_big.insert(spec, 100 + i as usize).unwrap();
        }
        let (hit, big) = dag_big.lookup_with_stats(t);
        assert!(hit.is_some());
        assert_eq!(small.dag_edges, big.dag_edges);
        assert_eq!(small.port_probes, big.port_probes);
    }

    #[test]
    fn exact_edges_sorted_then_spills() {
        // Small maps stay in the sorted array; past the spill threshold
        // the map converts to a hash and keeps answering identically.
        let mut s = ExactEdges::default();
        for k in [5u32, 1, 3] {
            s.insert(k, k);
        }
        assert!(matches!(s, ExactEdges::Sorted(_)));
        assert_eq!(s.get(3), Some(3));
        assert_eq!(s.get(2), None);
        s.remove(3);
        assert_eq!(s.get(3), None);
        assert_eq!(s.children().len(), 2);
        assert_eq!(s.entries().len(), 2);

        let mut e = ExactEdges::default();
        for k in (0..2 * EXACT_SPILL as u32).rev() {
            e.insert(k, k);
        }
        assert!(matches!(e, ExactEdges::Hash(_)));
        for k in 0..2 * EXACT_SPILL as u32 {
            assert_eq!(e.get(k), Some(k));
        }
        e.remove(100);
        assert_eq!(e.get(100), None);
        assert_eq!(e.entries().len(), 2 * EXACT_SPILL - 1);
    }

    #[test]
    fn ambiguity_resolved_lexicographically() {
        // F1 <src/8, dst/32>, F2 <src/32, dst/8>: both match; src level
        // decides (field order), so F2 wins.
        let mut dag: DagTable<&str> = DagTable::new(BmpKind::Bspl);
        dag.insert("10.0.0.0/8, 20.0.0.1, *, *, *, *".parse().unwrap(), "f1")
            .unwrap();
        dag.insert("10.0.0.1, 20.0.0.0/8, *, *, *, *".parse().unwrap(), "f2")
            .unwrap();
        let got = dag.lookup(&t4([10, 0, 0, 1], [20, 0, 0, 1], 6, 1, 1));
        assert_eq!(*got.unwrap().1, "f2");
    }
}
