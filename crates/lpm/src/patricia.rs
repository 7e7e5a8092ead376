//! PATRICIA-style path-compressed radix trie.
//!
//! This is the paper's "slower but freely available" BMP plugin, modelled on
//! the BSD radix tree (Sklower). Lookup walks at most one node per differing
//! bit region, counting one memory access per node visited, so its
//! worst-case access count grows with the trie depth — exactly the property
//! that motivates the paper's preference for binary search on prefix
//! lengths in Table 2.
//!
//! **Cache-aware layout.** Nodes live in one contiguous arena (`Vec`) and
//! reference children by `u32` index instead of `Box` pointers: a node is
//! a fixed-size slot, three of which share a cache line for IPv4, and the
//! whole trie is one allocation instead of one per node. After bulk
//! loading, [`PatriciaTable::repack`] reorders the arena breadth-first so
//! the first few levels of every lookup — the hottest nodes, shared by
//! all traffic — sit in adjacent cache lines (the level-compressed-layout
//! idea of "Cache-aware data structures for packet forwarding tables";
//! path compression already collapses degree-1 chains, so breadth-first
//! placement is what turns depth into line-adjacency). The access
//! accounting is unchanged: one access per node visited, so Table 2
//! semantics are identical to the pointer-chasing layout.

use crate::access::AccessCounter;
use crate::bits::Bits;
use crate::table::{LpmTable, Prefix};

/// Arena "null" child index.
const NIL: u32 = u32::MAX;

struct Node<A: Bits, V> {
    prefix: Prefix<A>,
    value: Option<V>,
    children: [u32; 2],
}

/// Path-compressed binary trie keyed by prefixes.
///
/// ```
/// use rp_lpm::{PatriciaTable, LpmTable, Prefix};
///
/// let mut t = PatriciaTable::new();
/// t.insert(Prefix::new(0x0A00_0000u32, 8), 1);
/// assert_eq!(t.lookup(0x0A01_0203), Some((&1, 8)));
/// assert_eq!(t.lookup(0x0B01_0203), None);
/// ```
pub struct PatriciaTable<A: Bits, V> {
    /// Node arena; the root (default-route region) is always slot 0.
    nodes: Vec<Node<A, V>>,
    /// Recycled arena slots.
    free: Vec<u32>,
    len: usize,
    counter: Option<AccessCounter>,
}

impl<A: Bits, V> Default for PatriciaTable<A, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Bits, V> PatriciaTable<A, V> {
    /// Empty trie that charges no counter.
    pub fn new() -> Self {
        PatriciaTable {
            nodes: vec![Node {
                prefix: Prefix::default_route(),
                value: None,
                children: [NIL, NIL],
            }],
            free: Vec::new(),
            len: 0,
            counter: None,
        }
    }

    /// Empty trie that also charges every node visit to `counter`.
    pub fn with_counter(counter: AccessCounter) -> Self {
        PatriciaTable {
            counter: Some(counter),
            ..Self::new()
        }
    }

    /// The access counter this trie charges, if built with one.
    pub fn counter(&self) -> Option<&AccessCounter> {
        self.counter.as_ref()
    }

    /// [`LpmTable::lookup`] plus the number of nodes it visited.
    pub fn lookup_counted(&self, addr: A) -> (Option<(&V, u8)>, u64) {
        let mut node = &self.nodes[0];
        let mut best: Option<(&V, u8)> = None;
        let mut visits = 0;
        loop {
            visits += 1;
            if let Some(c) = &self.counter {
                c.charge(1);
            }
            if !node.prefix.matches(addr) {
                break;
            }
            if let Some(v) = &node.value {
                best = Some((v, node.prefix.len()));
            }
            if u32::from(node.prefix.len()) >= A::BITS {
                break;
            }
            let bit = usize::from(addr.bit(node.prefix.len()));
            let c = node.children[bit];
            if c == NIL {
                break;
            }
            node = &self.nodes[c as usize];
        }
        (best, visits)
    }

    /// Allocate an arena slot for a fresh leaf.
    fn alloc(&mut self, prefix: Prefix<A>, value: Option<V>) -> u32 {
        let node = Node {
            prefix,
            value,
            children: [NIL, NIL],
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Return a slot to the free list (its value must already be `None`).
    fn release(&mut self, idx: u32) {
        debug_assert!(idx != 0, "root is never released");
        self.nodes[idx as usize].children = [NIL, NIL];
        self.free.push(idx);
    }

    /// Repack the arena breadth-first: level `d` of the trie becomes a
    /// contiguous run of slots, so the top of every lookup path — shared
    /// by all addresses — occupies adjacent cache lines. Call after bulk
    /// route loading; semantics (and access counts) are unchanged, only
    /// slot order. Also compacts out free-list holes.
    pub fn repack(&mut self) {
        let mut order: Vec<u32> = Vec::with_capacity(self.nodes.len());
        let mut map: Vec<u32> = vec![NIL; self.nodes.len()];
        map[0] = 0;
        order.push(0);
        let mut head = 0usize;
        while head < order.len() {
            let i = order[head];
            head += 1;
            for &c in &self.nodes[i as usize].children {
                if c != NIL {
                    map[c as usize] = order.len() as u32;
                    order.push(c);
                }
            }
        }
        let mut old: Vec<Option<Node<A, V>>> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(Some)
            .collect();
        let mut packed: Vec<Node<A, V>> = Vec::with_capacity(order.len());
        for &i in &order {
            let mut n = old[i as usize]
                .take()
                .expect("BFS visits each live node once");
            for c in n.children.iter_mut() {
                if *c != NIL {
                    *c = map[*c as usize];
                }
            }
            packed.push(n);
        }
        self.nodes = packed;
        self.free.clear();
    }

    /// Heap bytes the node arena and its free list hold.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<A, V>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Longest-prefix match restricted to prefixes of length at most
    /// `max_len`. Used by the BSPL structure to precompute marker
    /// best-match values ("bmp" in Waldvogel et al.).
    pub fn lookup_max_len(&self, addr: A, max_len: u8) -> Option<(&V, u8)> {
        let mut node = &self.nodes[0];
        let mut best: Option<(&V, u8)> = None;
        loop {
            if !node.prefix.matches(addr) || node.prefix.len() > max_len {
                break;
            }
            if let Some(v) = &node.value {
                best = Some((v, node.prefix.len()));
            }
            if u32::from(node.prefix.len()) >= A::BITS {
                break;
            }
            let bit = usize::from(addr.bit(node.prefix.len()));
            let c = node.children[bit];
            if c == NIL {
                break;
            }
            node = &self.nodes[c as usize];
        }
        best
    }

    /// Visit every stored prefix covered by `prefix` (equal or more
    /// specific) with its value, in pre-order and ascending address
    /// order: a prefix is always visited before its more-specifics. The
    /// whole table is `walk_covered(Prefix::default_route(), ..)`.
    /// Control-path helper: this is the order in which a leaf-pushed
    /// table can be painted so that more-specifics overwrite.
    pub fn walk_covered<'a>(&'a self, prefix: Prefix<A>, mut visit: impl FnMut(Prefix<A>, &'a V)) {
        // Descend to the node region covered by `prefix`, then walk it.
        let mut cur = 0u32;
        loop {
            let node = &self.nodes[cur as usize];
            if prefix.covers(&node.prefix) {
                break;
            }
            if !node.prefix.covers(&prefix) || u32::from(node.prefix.len()) >= A::BITS {
                return;
            }
            cur = node.children[usize::from(prefix.bits().bit(node.prefix.len()))];
            if cur == NIL {
                return;
            }
        }
        let mut stack = vec![cur];
        while let Some(i) = stack.pop() {
            let n = &self.nodes[i as usize];
            if let Some(v) = &n.value {
                visit(n.prefix, v);
            }
            // The 0-child is popped first: lower addresses first.
            for &c in n.children.iter().rev() {
                if c != NIL {
                    stack.push(c);
                }
            }
        }
    }

    /// All stored prefixes covered by `prefix` (i.e. equal or more
    /// specific), in [`PatriciaTable::walk_covered`] order. Control-path
    /// helper for the BSPL structure's incremental best-match maintenance.
    pub fn covered_by(&self, prefix: Prefix<A>) -> Vec<Prefix<A>> {
        let mut out = Vec::new();
        self.walk_covered(prefix, |p, _| out.push(p));
        out
    }

    /// Splice out the child at `(parent, bit)` when it is a valueless
    /// single/zero-child node, recycling its arena slot.
    fn compact(&mut self, parent: u32, bit: usize) {
        let c = self.nodes[parent as usize].children[bit];
        if c == NIL {
            return;
        }
        let (splice, grand) = {
            let cn = &self.nodes[c as usize];
            if cn.value.is_none() {
                let mut kids = cn.children.iter().copied().filter(|k| *k != NIL);
                let first = kids.next();
                if kids.next().is_none() {
                    (true, first.unwrap_or(NIL))
                } else {
                    (false, NIL)
                }
            } else {
                (false, NIL)
            }
        };
        if splice {
            self.nodes[parent as usize].children[bit] = grand;
            self.release(c);
        }
    }
}

impl<A: Bits, V> LpmTable<A, V> for PatriciaTable<A, V> {
    fn insert(&mut self, prefix: Prefix<A>, value: V) -> Option<V> {
        let mut cur = 0u32;
        loop {
            let cur_prefix = self.nodes[cur as usize].prefix;
            debug_assert!(cur_prefix.covers(&prefix));
            if cur_prefix == prefix {
                let old = self.nodes[cur as usize].value.replace(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let bit = usize::from(prefix.bits().bit(cur_prefix.len()));
            let child = self.nodes[cur as usize].children[bit];
            if child == NIL {
                let n = self.alloc(prefix, Some(value));
                self.nodes[cur as usize].children[bit] = n;
                self.len += 1;
                return None;
            }
            let child_prefix = self.nodes[child as usize].prefix;
            let common = prefix
                .bits()
                .common_len(child_prefix.bits(), prefix.len().min(child_prefix.len()));
            if common == child_prefix.len() {
                // Child's prefix covers ours: descend.
                cur = child;
            } else if common == prefix.len() {
                // Our prefix covers the child: splice ourselves in.
                let n = self.alloc(prefix, Some(value));
                let cbit = usize::from(child_prefix.bits().bit(prefix.len()));
                self.nodes[n as usize].children[cbit] = child;
                self.nodes[cur as usize].children[bit] = n;
                self.len += 1;
                return None;
            } else {
                // Diverge below a common ancestor: split.
                let mid = self.alloc(Prefix::new(prefix.bits(), common), None);
                let n = self.alloc(prefix, Some(value));
                let cbit = usize::from(child_prefix.bits().bit(common));
                let pbit = usize::from(prefix.bits().bit(common));
                debug_assert_ne!(cbit, pbit);
                self.nodes[mid as usize].children[cbit] = child;
                self.nodes[mid as usize].children[pbit] = n;
                self.nodes[cur as usize].children[bit] = mid;
                self.len += 1;
                return None;
            }
        }
    }

    fn remove(&mut self, prefix: Prefix<A>) -> Option<V> {
        // Record the descent path so compaction can splice valueless
        // nodes bottom-up, exactly like the recursive unwind used to.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut cur = 0u32;
        loop {
            let cur_prefix = self.nodes[cur as usize].prefix;
            if cur_prefix == prefix {
                let out = self.nodes[cur as usize].value.take();
                if out.is_some() {
                    self.len -= 1;
                    for &(parent, bit) in path.iter().rev() {
                        self.compact(parent, bit);
                    }
                }
                return out;
            }
            if !cur_prefix.covers(&prefix) {
                return None;
            }
            let bit = usize::from(prefix.bits().bit(cur_prefix.len()));
            let child = self.nodes[cur as usize].children[bit];
            if child == NIL || !self.nodes[child as usize].prefix.covers(&prefix) {
                return None;
            }
            path.push((cur, bit));
            cur = child;
        }
    }

    fn lookup(&self, addr: A) -> Option<(&V, u8)> {
        self.lookup_counted(addr).0
    }

    fn get(&self, prefix: Prefix<A>) -> Option<&V> {
        let mut node = &self.nodes[0];
        loop {
            if node.prefix == prefix {
                return node.value.as_ref();
            }
            if !node.prefix.covers(&prefix) {
                return None;
            }
            let bit = usize::from(prefix.bits().bit(node.prefix.len()));
            let c = node.children[bit];
            if c == NIL || !self.nodes[c as usize].prefix.covers(&prefix) {
                return None;
            }
            node = &self.nodes[c as usize];
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn prefixes(&self) -> Vec<Prefix<A>> {
        let mut out = Vec::with_capacity(self.len);
        self.walk_covered(Prefix::default_route(), |p, _| out.push(p));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32, len: u8) -> Prefix<u32> {
        Prefix::new(bits, len)
    }

    #[test]
    fn paper_table1_prefixes() {
        // Source-address column of the paper's Table 1.
        let mut t = PatriciaTable::new();
        t.insert(p(0x8100_0000, 8), "129.*"); // filter 1
        t.insert(p(0x80FC_9901, 32), "128.252.153.1"); // filters 2,3
        t.insert(p(0x80FC_9900, 24), "128.252.153.*"); // filter 4
        assert_eq!(t.len(), 3);

        // 128.252.153.1 → the /32, most specific.
        assert_eq!(t.lookup(0x80FC_9901).unwrap(), (&"128.252.153.1", 32));
        // 128.252.153.77 → the /24.
        assert_eq!(t.lookup(0x80FC_994D).unwrap(), (&"128.252.153.*", 24));
        // 129.1.2.3 → the /8.
        assert_eq!(t.lookup(0x8101_0203).unwrap(), (&"129.*", 8));
        // 130.x matches nothing.
        assert!(t.lookup(0x8201_0203).is_none());
    }

    #[test]
    fn default_route() {
        let mut t = PatriciaTable::new();
        t.insert(Prefix::default_route(), 0u32);
        t.insert(p(0x0A00_0000, 8), 1);
        assert_eq!(t.lookup(0x0A01_0101).unwrap(), (&1, 8));
        assert_eq!(t.lookup(0xC0A8_0101).unwrap(), (&0, 0));
    }

    #[test]
    fn replace_returns_old() {
        let mut t = PatriciaTable::new();
        assert_eq!(t.insert(p(0x0A00_0000, 8), 1), None);
        assert_eq!(t.insert(p(0x0A00_0000, 8), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x0A01_0101).unwrap(), (&2, 8));
    }

    #[test]
    fn remove_and_compact() {
        let mut t = PatriciaTable::new();
        t.insert(p(0x0A00_0000, 8), 1);
        t.insert(p(0x0A0A_0000, 16), 2);
        t.insert(p(0x0A0B_0000, 16), 3);
        assert_eq!(t.remove(p(0x0A0A_0000, 16)), Some(2));
        assert_eq!(t.len(), 2);
        assert!(t.lookup(0x0A0A_0101).map(|(v, _)| *v) == Some(1));
        assert_eq!(t.remove(p(0x0A0A_0000, 16)), None);
        assert_eq!(t.remove(p(0x0A00_0000, 8)), Some(1));
        assert_eq!(t.lookup(0x0A0A_0101).map(|(v, _)| *v), None);
        assert_eq!(t.lookup(0x0A0B_0101).unwrap(), (&3, 16));
    }

    #[test]
    fn split_on_divergence() {
        let mut t = PatriciaTable::new();
        // 10.128/9 and 10.0/9 diverge at bit 8 under a common 10/8 ancestor
        // that holds no value.
        t.insert(p(0x0A80_0000, 9), "hi");
        t.insert(p(0x0A00_0000, 9), "lo");
        assert_eq!(t.lookup(0x0A80_0001).unwrap(), (&"hi", 9));
        assert_eq!(t.lookup(0x0A00_0001).unwrap(), (&"lo", 9));
        assert!(t.lookup(0x0B00_0001).is_none());
    }

    #[test]
    fn get_exact() {
        let mut t = PatriciaTable::new();
        t.insert(p(0x0A00_0000, 8), 1);
        t.insert(p(0x0A00_0000, 16), 2);
        assert_eq!(t.get(p(0x0A00_0000, 8)), Some(&1));
        assert_eq!(t.get(p(0x0A00_0000, 16)), Some(&2));
        assert_eq!(t.get(p(0x0A00_0000, 12)), None);
    }

    #[test]
    fn host_routes_v6() {
        let mut t: PatriciaTable<u128, u32> = PatriciaTable::new();
        for i in 0..100u128 {
            t.insert(Prefix::new(i << 16, 128), i as u32);
        }
        for i in 0..100u128 {
            assert_eq!(t.lookup(i << 16).unwrap(), (&(i as u32), 128));
        }
        assert!(t.lookup(1).is_none());
    }

    #[test]
    fn access_counting() {
        let t: PatriciaTable<u32, u32> = PatriciaTable::new();
        assert!(t.counter().is_none());
        assert!(t.lookup_counted(42).1 >= 1);
    }

    #[test]
    fn lookup_max_len_restricts() {
        let mut t = PatriciaTable::new();
        t.insert(p(0x0A00_0000, 8), 8u8);
        t.insert(p(0x0A0A_0000, 16), 16);
        t.insert(p(0x0A0A_0A00, 24), 24);
        let addr = 0x0A0A_0A01;
        assert_eq!(t.lookup_max_len(addr, 32).unwrap(), (&24, 24));
        assert_eq!(t.lookup_max_len(addr, 24).unwrap(), (&24, 24));
        assert_eq!(t.lookup_max_len(addr, 23).unwrap(), (&16, 16));
        assert_eq!(t.lookup_max_len(addr, 15).unwrap(), (&8, 8));
        assert_eq!(t.lookup_max_len(addr, 7), None);
    }

    #[test]
    fn covered_by_enumerates_descendants() {
        let mut t = PatriciaTable::new();
        t.insert(p(0x0A00_0000, 8), ());
        t.insert(p(0x0A0A_0000, 16), ());
        t.insert(p(0x0A0A_0A00, 24), ());
        t.insert(p(0x0B00_0000, 8), ());
        let mut got = t.covered_by(p(0x0A00_0000, 8));
        got.sort();
        assert_eq!(
            got,
            vec![p(0x0A00_0000, 8), p(0x0A0A_0000, 16), p(0x0A0A_0A00, 24)]
        );
        assert_eq!(t.covered_by(p(0x0A0A_0A00, 24)), vec![p(0x0A0A_0A00, 24)]);
        assert_eq!(t.covered_by(p(0x0C00_0000, 8)), vec![]);
        // The whole table under the default prefix.
        assert_eq!(t.covered_by(Prefix::default_route()).len(), 4);
    }

    #[test]
    fn walk_covered_is_preorder_ascending() {
        let mut t = PatriciaTable::new();
        for (bits, len) in [
            (0x0B00_0000, 8),
            (0x0A0A_0A00, 24),
            (0x0A00_0000, 8),
            (0x0A0A_0000, 16),
            (0x0A09_0000, 16),
            (0x0000_0000, 0),
        ] {
            t.insert(p(bits, len), len);
        }
        let mut seen = Vec::new();
        t.walk_covered(Prefix::default_route(), |q, v| seen.push((q, *v)));
        assert_eq!(
            seen,
            vec![
                (p(0, 0), 0),
                (p(0x0A00_0000, 8), 8),
                (p(0x0A09_0000, 16), 16),
                (p(0x0A0A_0000, 16), 16),
                (p(0x0A0A_0A00, 24), 24),
                (p(0x0B00_0000, 8), 8),
            ]
        );
        // A prefix that is not stored still roots its more-specifics.
        let mut under = Vec::new();
        t.walk_covered(p(0x0A0A_0000, 15), |q, _| under.push(q));
        assert_eq!(under, vec![p(0x0A0A_0000, 16), p(0x0A0A_0A00, 24)]);
    }

    #[test]
    fn repack_preserves_lookups_and_access_counts() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let mut t = PatriciaTable::new();
        let mut reference: Vec<(Prefix<u32>, u32)> = Vec::new();
        for i in 0..400u32 {
            let bits: u32 = rng.gen();
            let len: u8 = rng.gen_range(0..=32);
            let pfx = Prefix::new(bits, len);
            t.insert(pfx, i);
            reference.retain(|(q, _)| *q != pfx);
            reference.push((pfx, i));
        }
        // Deletions leave free-list holes for repack to squeeze out.
        for (q, _) in reference.iter().step_by(7) {
            t.remove(*q);
        }
        let removed: Vec<Prefix<u32>> = reference.iter().step_by(7).map(|(q, _)| *q).collect();
        reference.retain(|(q, _)| !removed.contains(q));

        let probes: Vec<u32> = (0..2000).map(|_| rng.gen()).collect();
        let before: Vec<(Option<(u32, u8)>, u64)> = probes
            .iter()
            .map(|a| {
                let (r, n) = t.lookup_counted(*a);
                (r.map(|(v, l)| (*v, l)), n)
            })
            .collect();
        t.repack();
        for (a, (want, accesses)) in probes.iter().zip(&before) {
            let (got, n) = t.lookup_counted(*a);
            let got = got.map(|(v, l)| (*v, l));
            assert_eq!(&got, want, "lookup changed by repack at {a:08x}");
            assert_eq!(n, *accesses, "access count changed by repack at {a:08x}");
        }
        // Structure still fully mutable after repack.
        assert_eq!(t.len(), reference.len());
        t.insert(p(0x0A00_0000, 8), 12345);
        assert_eq!(t.lookup(0x0A01_0101).map(|(v, _)| *v), Some(12345));
    }

    #[test]
    fn randomised_against_linear_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = PatriciaTable::new();
        let mut reference: Vec<(Prefix<u32>, u32)> = Vec::new();
        for i in 0..500u32 {
            let bits: u32 = rng.gen();
            let len: u8 = rng.gen_range(0..=32);
            let pfx = Prefix::new(bits, len);
            t.insert(pfx, i);
            reference.retain(|(q, _)| *q != pfx);
            reference.push((pfx, i));
        }
        for _ in 0..2000 {
            let addr: u32 = rng.gen();
            let expect = reference
                .iter()
                .filter(|(q, _)| q.matches(addr))
                .max_by_key(|(q, _)| q.len())
                .map(|(q, v)| (*v, q.len()));
            let got = t.lookup(addr).map(|(v, l)| (*v, l));
            assert_eq!(got, expect);
        }
    }
}
