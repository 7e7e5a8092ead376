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
use rp_lpm::{AccessCounter, BsplTable, IntMap, LpmTable, PatriciaTable, Prefix};
use rp_packet::FlowTuple;
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

type NodeId = usize;

enum AddrMatcher<T: rp_lpm::Bits> {
    Patricia(PatriciaTable<T, NodeId>),
    Bspl(BsplTable<T, NodeId>),
}

impl<T: rp_lpm::Bits> AddrMatcher<T> {
    fn new(kind: BmpKind, counter: AccessCounter) -> Self {
        match kind {
            BmpKind::Patricia => AddrMatcher::Patricia(PatriciaTable::with_counter(counter)),
            BmpKind::Bspl => AddrMatcher::Bspl(BsplTable::with_counter(counter)),
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

    fn lookup(&self, addr: T) -> Option<NodeId> {
        match self {
            AddrMatcher::Patricia(t) => t.lookup(addr).map(|(v, _)| *v),
            AddrMatcher::Bspl(t) => t.lookup(addr).map(|(v, _)| *v),
        }
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

impl ExactEdges {
    fn new() -> Self {
        ExactEdges::Sorted(Vec::new())
    }

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

// The Addr variant dominates the size, but Addr nodes also dominate the
// node population of any realistic filter set — boxing it would add a
// pointer chase to every address-level lookup for no real memory win.
#[allow(clippy::large_enum_variant)]
enum NodeKind {
    Addr {
        v4: Option<AddrMatcher<u32>>,
        v6: Option<AddrMatcher<u128>>,
        /// Authoritative edge list for cover computations.
        edges: Vec<(AddrMatch, NodeId)>,
        wildcard: Option<NodeId>,
    },
    Exact {
        edges: ExactEdges,
        wildcard: Option<NodeId>,
    },
    Port {
        edges: Vec<(PortMatch, NodeId)>,
        wildcard: Option<NodeId>,
    },
    Leaf {
        filters: Vec<FilterId>,
    },
}

struct Node {
    /// Every filter whose replication passes through this node.
    installed: Vec<FilterId>,
    kind: NodeKind,
}

/// Number of levels (fields) in the DAG.
pub const LEVELS: usize = 6;

/// The set-pruning-trie filter table. `V` is the value bound to each
/// filter (a plugin-instance handle in `router-core`).
///
/// ```
/// use rp_classifier::{BmpKind, DagTable};
/// use rp_packet::FlowTuple;
///
/// let mut dag = DagTable::new(BmpKind::Bspl);
/// let id = dag
///     .insert("129.*.*.*, 192.94.233.10, TCP, *, *, *".parse().unwrap(), "qos")
///     .unwrap();
/// let t = FlowTuple {
///     src: "129.1.2.3".parse().unwrap(),
///     dst: "192.94.233.10".parse().unwrap(),
///     proto: 6,
///     sport: 1234,
///     dport: 80,
///     rx_if: 0,
/// };
/// assert_eq!(dag.lookup(&t), Some((id, &"qos")));
/// ```
pub struct DagTable<V> {
    nodes: Vec<Node>,
    root: NodeId,
    registry: IntMap<FilterId, (FilterSpec, V)>,
    next_id: u64,
    bmp_kind: BmpKind,
    addr_counter: AccessCounter,
    /// Non-degenerate port ranges installed, per field (sport, dport).
    /// Only range-vs-range pairs can be ambiguous (exact ports always
    /// nest or miss), so the install-time ambiguity check scans these
    /// instead of every filter.
    sport_ranges: Vec<(PortMatch, FilterId)>,
    dport_ranges: Vec<(PortMatch, FilterId)>,
    // Lookup tallies (interior-mutable: lookup takes &self).
    s_bmp_fn: Cell<u64>,
    s_hash_fn: Cell<u64>,
    s_port: Cell<u64>,
    s_edges: Cell<u64>,
}

impl<V> DagTable<V> {
    /// Empty table with the chosen BMP plugin for its address levels.
    pub fn new(bmp_kind: BmpKind) -> Self {
        let root = Node {
            installed: Vec::new(),
            kind: Self::kind_for_level(0),
        };
        DagTable {
            nodes: vec![root],
            root: 0,
            registry: IntMap::default(),
            next_id: 0,
            bmp_kind,
            addr_counter: AccessCounter::new(),
            sport_ranges: Vec::new(),
            dport_ranges: Vec::new(),
            s_bmp_fn: Cell::new(0),
            s_hash_fn: Cell::new(0),
            s_port: Cell::new(0),
            s_edges: Cell::new(0),
        }
    }

    fn kind_for_level(level: usize) -> NodeKind {
        match level {
            0 | 1 => NodeKind::Addr {
                v4: None,
                v6: None,
                edges: Vec::new(),
                wildcard: None,
            },
            2 | 5 => NodeKind::Exact {
                edges: ExactEdges::new(),
                wildcard: None,
            },
            3 | 4 => NodeKind::Port {
                edges: Vec::new(),
                wildcard: None,
            },
            6 => NodeKind::Leaf {
                filters: Vec::new(),
            },
            _ => unreachable!("level out of range"),
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

    /// Number of trie nodes (the memory-blowup metric of §5.1.2).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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
        self.insert_rec(self.root, 0, id);
        Ok(id)
    }

    /// Remove a filter, returning its bound value.
    pub fn remove(&mut self, id: FilterId) -> Result<(FilterSpec, V), DagError> {
        if !self.registry.contains_key(&id) {
            return Err(DagError::NoSuchFilter);
        }
        self.remove_rec(self.root, id);
        self.sport_ranges.retain(|(_, f)| *f != id);
        self.dport_ranges.retain(|(_, f)| *f != id);
        Ok(self.registry.remove(&id).expect("checked present"))
    }

    fn spec_of(&self, id: FilterId) -> &FilterSpec {
        &self.registry.get(&id).expect("registered filter").0
    }

    fn insert_rec(&mut self, node: NodeId, level: usize, fid: FilterId) {
        debug_assert!(
            !self.nodes[node].installed.contains(&fid),
            "duplicate replication of {fid:?}"
        );
        self.nodes[node].installed.push(fid);
        if level == LEVELS {
            if let NodeKind::Leaf { filters } = &mut self.nodes[node].kind {
                filters.push(fid);
            }
            return;
        }
        // Only the one Copy field this level matches on is read from the
        // spec — cloning the whole multi-field spec here would deep-copy
        // it once per visited node of the replication recursion.
        match level {
            0 | 1 => {
                let spec = self.spec_of(fid);
                let label = if level == 0 { spec.src } else { spec.dst };
                self.insert_addr_level(node, level, fid, label)
            }
            2 | 5 => {
                let spec = self.spec_of(fid);
                let label = if level == 2 {
                    spec.proto.map(u32::from)
                } else {
                    spec.rx_if
                };
                self.insert_exact_level(node, level, fid, label)
            }
            3 | 4 => {
                let spec = self.spec_of(fid);
                let label = if level == 3 { spec.sport } else { spec.dport };
                self.insert_port_level(node, level, fid, label)
            }
            _ => unreachable!(),
        }
    }

    fn new_child(&mut self, level: usize) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            installed: Vec::new(),
            kind: Self::kind_for_level(level + 1),
        });
        id
    }

    /// Deduplicated filters installed under each of `children`.
    fn inherited(&self, children: impl IntoIterator<Item = NodeId>) -> Vec<FilterId> {
        // Order-preserving dedup; the set guard keeps nested-filter
        // inheritance (where one edge's installed list can be large)
        // linear instead of quadratic.
        let mut seen = Vec::new();
        let mut guard = std::collections::HashSet::new();
        for c in children {
            for f in &self.nodes[c].installed {
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
        let (existing, covering, covered, wildcard) = match &self.nodes[node].kind {
            NodeKind::Addr {
                edges, wildcard, ..
            } => {
                let mut existing = None;
                let mut covering = Vec::new();
                let mut covered = Vec::new();
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
                (existing, covering, covered, *wildcard)
            }
            _ => unreachable!("level kind mismatch"),
        };
        if label == AddrMatch::Any {
            // Main path: the wildcard edge; replicate into every edge.
            let wc = match wildcard {
                Some(w) => w,
                None => {
                    let w = self.new_child(level);
                    if let NodeKind::Addr { wildcard, .. } = &mut self.nodes[node].kind {
                        *wildcard = Some(w);
                    }
                    w
                }
            };
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
                let c = self.new_child(level);
                // Inherit suffixes from every covering edge + wildcard.
                let inherit_from: Vec<NodeId> = covering.iter().copied().chain(wildcard).collect();
                for g in self.inherited(inherit_from) {
                    self.insert_rec(c, level + 1, g);
                }
                // Register the edge in both the list and the matcher.
                if let NodeKind::Addr { edges, .. } = &mut self.nodes[node].kind {
                    edges.push((label, c));
                }
                self.matcher_insert(node, label, c);
                c
            }
        };
        self.insert_rec(child, level + 1, fid);
        // Replicate into strictly more specific edges.
        for ch in covered {
            self.insert_rec(ch, level + 1, fid);
        }
    }

    fn matcher_insert(&mut self, node: NodeId, label: AddrMatch, child: NodeId) {
        let kind = self.bmp_kind;
        let counter = self.addr_counter.clone();
        if let NodeKind::Addr { v4, v6, .. } = &mut self.nodes[node].kind {
            match label {
                AddrMatch::V4(p) => v4
                    .get_or_insert_with(|| AddrMatcher::new(kind, counter))
                    .insert(p, child),
                AddrMatch::V6(p) => v6
                    .get_or_insert_with(|| AddrMatcher::new(kind, counter))
                    .insert(p, child),
                AddrMatch::Any => unreachable!("wildcard not in matcher"),
            }
        }
    }

    fn insert_exact_level(
        &mut self,
        node: NodeId,
        level: usize,
        fid: FilterId,
        label: Option<u32>,
    ) {
        let (existing, all_children, wildcard) = match &self.nodes[node].kind {
            NodeKind::Exact {
                edges, wildcard, ..
            } => match label {
                None => (None, edges.children(), *wildcard),
                Some(val) => (edges.get(val), Vec::new(), *wildcard),
            },
            _ => unreachable!("level kind mismatch"),
        };
        match label {
            None => {
                let wc = match wildcard {
                    Some(w) => w,
                    None => {
                        let w = self.new_child(level);
                        if let NodeKind::Exact { wildcard, .. } = &mut self.nodes[node].kind {
                            *wildcard = Some(w);
                        }
                        w
                    }
                };
                self.insert_rec(wc, level + 1, fid);
                for child in all_children {
                    self.insert_rec(child, level + 1, fid);
                }
            }
            Some(val) => {
                let child = match existing {
                    Some(c) => c,
                    None => {
                        let c = self.new_child(level);
                        if let Some(w) = wildcard {
                            for g in self.inherited([w]) {
                                self.insert_rec(c, level + 1, g);
                            }
                        }
                        if let NodeKind::Exact { edges, .. } = &mut self.nodes[node].kind {
                            edges.insert(val, c);
                        }
                        c
                    }
                };
                self.insert_rec(child, level + 1, fid);
            }
        }
    }

    fn insert_port_level(&mut self, node: NodeId, level: usize, fid: FilterId, label: PortMatch) {
        let (existing, covering, covered, wildcard) = match &self.nodes[node].kind {
            NodeKind::Port {
                edges, wildcard, ..
            } => {
                let mut existing = None;
                let mut covering = Vec::new();
                let mut covered = Vec::new();
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
                (existing, covering, covered, *wildcard)
            }
            _ => unreachable!("level kind mismatch"),
        };
        if label == PortMatch::Any {
            let wc = match wildcard {
                Some(w) => w,
                None => {
                    let w = self.new_child(level);
                    if let NodeKind::Port { wildcard, .. } = &mut self.nodes[node].kind {
                        *wildcard = Some(w);
                    }
                    w
                }
            };
            self.insert_rec(wc, level + 1, fid);
            for child in covered {
                self.insert_rec(child, level + 1, fid);
            }
            return;
        }
        let child = match existing {
            Some(c) => c,
            None => {
                let c = self.new_child(level);
                let inherit_from: Vec<NodeId> = covering.iter().copied().chain(wildcard).collect();
                for g in self.inherited(inherit_from) {
                    self.insert_rec(c, level + 1, g);
                }
                if let NodeKind::Port { edges, .. } = &mut self.nodes[node].kind {
                    edges.push((label, c));
                }
                c
            }
        };
        self.insert_rec(child, level + 1, fid);
        for ch in covered {
            self.insert_rec(ch, level + 1, fid);
        }
    }

    fn remove_rec(&mut self, node: NodeId, fid: FilterId) {
        let pos = match self.nodes[node].installed.iter().position(|f| *f == fid) {
            Some(p) => p,
            None => return,
        };
        self.nodes[node].installed.swap_remove(pos);

        // Snapshot children (owned) so recursion can take &mut self.
        enum Snap {
            Leaf,
            Addr(Vec<(AddrMatch, NodeId)>, Option<NodeId>),
            Exact(Vec<(u32, NodeId)>, Option<NodeId>),
            Port(Vec<(PortMatch, NodeId)>, Option<NodeId>),
        }
        let snap = match &self.nodes[node].kind {
            NodeKind::Leaf { .. } => Snap::Leaf,
            NodeKind::Addr {
                edges, wildcard, ..
            } => Snap::Addr(edges.clone(), *wildcard),
            NodeKind::Exact { edges, wildcard } => Snap::Exact(edges.entries(), *wildcard),
            NodeKind::Port { edges, wildcard } => Snap::Port(edges.clone(), *wildcard),
        };

        match snap {
            Snap::Leaf => {
                if let NodeKind::Leaf { filters } = &mut self.nodes[node].kind {
                    filters.retain(|f| *f != fid);
                }
            }
            Snap::Addr(edges, wildcard) => {
                for (_, c) in &edges {
                    self.remove_rec(*c, fid);
                }
                if let Some(w) = wildcard {
                    self.remove_rec(w, fid);
                }
                let dead: Vec<AddrMatch> = edges
                    .iter()
                    .filter(|(_, c)| self.nodes[*c].installed.is_empty())
                    .map(|(l, _)| *l)
                    .collect();
                let wc_dead = wildcard.is_some_and(|w| self.nodes[w].installed.is_empty());
                if let NodeKind::Addr {
                    edges,
                    wildcard,
                    v4,
                    v6,
                } = &mut self.nodes[node].kind
                {
                    edges.retain(|(l, _)| !dead.contains(l));
                    if wc_dead {
                        *wildcard = None;
                    }
                    for l in &dead {
                        match l {
                            AddrMatch::V4(p) => {
                                if let Some(m) = v4 {
                                    m.remove(*p);
                                }
                            }
                            AddrMatch::V6(p) => {
                                if let Some(m) = v6 {
                                    m.remove(*p);
                                }
                            }
                            AddrMatch::Any => {}
                        }
                    }
                }
            }
            Snap::Exact(edges, wildcard) => {
                for (_, c) in &edges {
                    self.remove_rec(*c, fid);
                }
                if let Some(w) = wildcard {
                    self.remove_rec(w, fid);
                }
                let dead: Vec<u32> = edges
                    .iter()
                    .filter(|(_, c)| self.nodes[*c].installed.is_empty())
                    .map(|(k, _)| *k)
                    .collect();
                let wc_dead = wildcard.is_some_and(|w| self.nodes[w].installed.is_empty());
                if let NodeKind::Exact { edges, wildcard } = &mut self.nodes[node].kind {
                    for k in dead {
                        edges.remove(k);
                    }
                    if wc_dead {
                        *wildcard = None;
                    }
                }
            }
            Snap::Port(edges, wildcard) => {
                for (_, c) in &edges {
                    self.remove_rec(*c, fid);
                }
                if let Some(w) = wildcard {
                    self.remove_rec(w, fid);
                }
                let dead: Vec<PortMatch> = edges
                    .iter()
                    .filter(|(_, c)| self.nodes[*c].installed.is_empty())
                    .map(|(l, _)| *l)
                    .collect();
                let wc_dead = wildcard.is_some_and(|w| self.nodes[w].installed.is_empty());
                if let NodeKind::Port { edges, wildcard } = &mut self.nodes[node].kind {
                    edges.retain(|(l, _)| !dead.contains(l));
                    if wc_dead {
                        *wildcard = None;
                    }
                }
            }
        }
    }

    /// Classify a tuple: the most specific matching filter and its bound
    /// value. Never backtracks; `O(fields)` node visits.
    pub fn lookup(&self, t: &FlowTuple) -> Option<(FilterId, &V)> {
        self.s_bmp_fn.set(self.s_bmp_fn.get() + 1);
        self.s_hash_fn.set(self.s_hash_fn.get() + 1);
        let mut node = self.root;
        for level in 0..LEVELS {
            self.s_edges.set(self.s_edges.get() + 1);
            let next = match &self.nodes[node].kind {
                NodeKind::Addr {
                    v4, v6, wildcard, ..
                } => {
                    let addr = if level == 0 { t.src } else { t.dst };
                    let hit = match addr {
                        IpAddr::V4(a) => v4.as_ref().and_then(|m| m.lookup(u32::from(a))),
                        IpAddr::V6(a) => v6.as_ref().and_then(|m| m.lookup(u128::from(a))),
                    };
                    hit.or(*wildcard)
                }
                NodeKind::Exact { edges, wildcard } => {
                    let val = if level == 2 {
                        u32::from(t.proto)
                    } else {
                        t.rx_if
                    };
                    edges.get(val).or(*wildcard)
                }
                NodeKind::Port { edges, wildcard } => {
                    self.s_port.set(self.s_port.get() + 1);
                    let port = if level == 3 { t.sport } else { t.dport };
                    // Matching ranges are nested (ambiguity rejected), so
                    // the narrowest matching range is the most specific.
                    edges
                        .iter()
                        .filter(|(l, _)| l.matches(port))
                        .max_by_key(|(l, _)| l.specificity())
                        .map(|(_, c)| *c)
                        .or(*wildcard)
                }
                NodeKind::Leaf { .. } => unreachable!("leaf before last level"),
            };
            node = next?;
        }
        let NodeKind::Leaf { filters } = &self.nodes[node].kind else {
            unreachable!("non-leaf at last level");
        };
        let best = filters
            .iter()
            .max_by(|a, b| {
                let sa = self.spec_of(**a).specificity();
                let sb = self.spec_of(**b).specificity();
                sa.cmp(&sb).then(b.cmp(a)) // earlier id wins ties
            })
            .copied()?;
        Some((best, &self.registry[&best].1))
    }

    /// Like [`DagTable::lookup`] but also returns the Table 2 access
    /// breakdown for this single lookup.
    pub fn lookup_with_stats(&self, t: &FlowTuple) -> (Option<(FilterId, &V)>, LookupStats) {
        let before = self.stats_snapshot();
        let out = self.lookup(t);
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
            addr_probes: self.addr_counter.get(),
            port_probes: self.s_port.get(),
            dag_edges: self.s_edges.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::paper_table1_filters;
    use std::net::Ipv4Addr;

    fn t4(src: [u8; 4], dst: [u8; 4], proto: u8, sport: u16, dport: u16) -> FlowTuple {
        FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(src)),
            dst: IpAddr::V4(Ipv4Addr::from(dst)),
            proto,
            sport,
            dport,
            rx_if: 0,
        }
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
        let mut t = t4([1, 1, 1, 1], [2, 2, 2, 2], 6, 1, 1);
        t.rx_if = 1;
        assert_eq!(*dag.lookup(&t).unwrap().1, "if1");
        t.rx_if = 2;
        assert_eq!(*dag.lookup(&t).unwrap().1, "any");
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
            dag.nodes[dag.root].installed.len(),
            0,
            "root installed list drained"
        );
        let _ = base_nodes;
        assert!(dag.remove(a).is_err());
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
        assert_eq!(*dag.lookup(&t).unwrap().1, "pair");
        let t2 = FlowTuple {
            src: "2001:db8::99".parse().unwrap(),
            ..t
        };
        assert_eq!(*dag.lookup(&t2).unwrap().1, "site");
    }

    #[test]
    fn stats_have_paper_shape() {
        let (dag, _) = table1_dag(BmpKind::Bspl);
        let t = t4([128, 252, 153, 1], [128, 252, 153, 7], 17, 9, 9);
        let (hit, stats) = dag.lookup_with_stats(&t);
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
        let (_, small) = dag_small.lookup_with_stats(&t);

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
        let (hit, big) = dag_big.lookup_with_stats(&t);
        assert!(hit.is_some());
        assert_eq!(small.dag_edges, big.dag_edges);
        assert_eq!(small.port_probes, big.port_probes);
    }

    #[test]
    fn exact_edges_sorted_then_spills() {
        // Small maps stay in the sorted array; past the spill threshold
        // the map converts to a hash and keeps answering identically.
        let mut s = ExactEdges::new();
        for k in [5u32, 1, 3] {
            s.insert(k, k as usize);
        }
        assert!(matches!(s, ExactEdges::Sorted(_)));
        assert_eq!(s.get(3), Some(3));
        assert_eq!(s.get(2), None);
        s.remove(3);
        assert_eq!(s.get(3), None);
        assert_eq!(s.children().len(), 2);
        assert_eq!(s.entries().len(), 2);

        let mut e = ExactEdges::new();
        for k in (0..2 * EXACT_SPILL as u32).rev() {
            e.insert(k, k as usize);
        }
        assert!(matches!(e, ExactEdges::Hash(_)));
        for k in 0..2 * EXACT_SPILL as u32 {
            assert_eq!(e.get(k), Some(k as usize));
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
