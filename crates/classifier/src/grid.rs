//! Grid-of-tries (Srinivasan, Varghese, Suri, Waldvogel — SIGCOMM '98,
//! the paper's reference \[26\]): two-dimensional `(dst, src)` prefix
//! classification in `O(W_dst + W_src)` node visits **without**
//! set-pruning's filter replication.
//!
//! The Router Plugins paper names this as the better-memory alternative
//! it plans to incorporate ("more advanced techniques such as
//! grid-of-tries can provide better memory utilization without
//! sacrificing performance, but work only in the special case of
//! two-dimensional filters", §5.1.2). This module implements it so the
//! repository can quantify that trade-off (see
//! `dag_outgrows_grid_of_tries_on_overlapping_2d_filters` in
//! `tests/paper_claims.rs`).
//!
//! Structure: a binary destination trie; each destination-prefix node
//! with filters owns a source trie. Source-trie nodes carry **switch
//! pointers** — precomputed jumps into the nearest destination-ancestor's
//! source trie — so a source walk never backtracks, and **stored
//! filters** — the best filter for the (dst-context, src-path) reached —
//! so the best match is the maximum of the stored values along the
//! single walk. Matching priority is the standard grid-of-tries order:
//! longest destination prefix, then longest source prefix, then earliest
//! installation.
//!
//! The structure is built statically (`from_filters`); the original
//! paper treats dynamic update as future work, and so do we — rebuild on
//! change.

use rp_lpm::{Bits, Prefix};

/// A two-dimensional filter: destination and source prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoDFilter {
    /// Destination prefix (the primary match dimension).
    pub dst: Prefix<u32>,
    /// Source prefix.
    pub src: Prefix<u32>,
}

impl TwoDFilter {
    /// Does the filter match a concrete (dst, src) pair?
    pub fn matches(&self, dst: u32, src: u32) -> bool {
        self.dst.matches(dst) && self.src.matches(src)
    }

    /// Grid-of-tries priority: (dst length, src length) descending.
    fn rank(&self, id: usize) -> (u8, u8, std::cmp::Reverse<usize>) {
        (self.dst.len(), self.src.len(), std::cmp::Reverse(id))
    }
}

#[derive(Default, Clone, Copy)]
struct DNode {
    children: [Option<u32>; 2],
    /// Root of this destination prefix's source trie, if it has filters.
    trie: Option<u32>,
}

#[derive(Default, Clone, Copy)]
struct SNode {
    children: [Option<u32>; 2],
    /// Switch pointers: where a failed child step jumps to in the
    /// nearest-ancestor structure.
    switch: [Option<u32>; 2],
    /// Best filter for (this trie's destination context, this source
    /// path), ancestors included.
    stored: Option<u32>,
}

/// The grid-of-tries classifier.
pub struct GridOfTries<V> {
    filters: Vec<(TwoDFilter, V)>,
    dnodes: Vec<DNode>,
    snodes: Vec<SNode>,
}

impl<V> GridOfTries<V> {
    /// Build from a filter list.
    pub fn from_filters(filters: Vec<(TwoDFilter, V)>) -> Self {
        let mut g = GridOfTries {
            filters,
            dnodes: vec![DNode::default()],
            snodes: Vec::new(),
        };
        g.build();
        g
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Node counts `(destination trie, source tries)` — the memory
    /// footprint compared against set-pruning in the ablation bench.
    pub fn node_counts(&self) -> (usize, usize) {
        (self.dnodes.len(), self.snodes.len())
    }

    fn better(&self, a: Option<u32>, b: Option<u32>) -> Option<u32> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(x), Some(y)) => {
                let fx = &self.filters[x as usize].0;
                let fy = &self.filters[y as usize].0;
                if fx.rank(x as usize) >= fy.rank(y as usize) {
                    Some(x)
                } else {
                    Some(y)
                }
            }
        }
    }

    fn build(&mut self) {
        // 1. Destination trie over all dst prefixes.
        let specs: Vec<TwoDFilter> = self.filters.iter().map(|(f, _)| *f).collect();
        for f in &specs {
            let mut node = 0u32;
            for i in 0..f.dst.len() {
                let b = usize::from(f.dst.bits().bit(i));
                node = match self.dnodes[node as usize].children[b] {
                    Some(c) => c,
                    None => {
                        let c = self.dnodes.len() as u32;
                        self.dnodes.push(DNode::default());
                        self.dnodes[node as usize].children[b] = Some(c);
                        c
                    }
                };
            }
        }
        // 2. Per destination node: own source trie with own filters.
        for (idx, f) in specs.iter().enumerate() {
            let dnode = self.locate_dnode(f.dst);
            let trie = match self.dnodes[dnode as usize].trie {
                Some(t) => t,
                None => {
                    let t = self.snodes.len() as u32;
                    self.snodes.push(SNode::default());
                    self.dnodes[dnode as usize].trie = Some(t);
                    t
                }
            };
            let mut s = trie;
            for i in 0..f.src.len() {
                let b = usize::from(f.src.bits().bit(i));
                s = match self.snodes[s as usize].children[b] {
                    Some(c) => c,
                    None => {
                        let c = self.snodes.len() as u32;
                        self.snodes.push(SNode::default());
                        self.snodes[s as usize].children[b] = Some(c);
                        c
                    }
                };
            }
            let cur = self.snodes[s as usize].stored;
            self.snodes[s as usize].stored = self.better(cur, Some(idx as u32));
        }
        // 3. Top-down over destination nodes: propagate own stored down
        //    each trie, then merge ancestor context + switch pointers.
        self.process_dnode(0, None);
    }

    fn locate_dnode(&self, dst: Prefix<u32>) -> u32 {
        let mut node = 0u32;
        for i in 0..dst.len() {
            let b = usize::from(dst.bits().bit(i));
            node = self.dnodes[node as usize].children[b].expect("built above");
        }
        node
    }

    /// `ancestor_trie`: root of the nearest strict dst-ancestor's source
    /// trie (with its own merge already complete — we recurse top-down).
    fn process_dnode(&mut self, dnode: u32, ancestor_trie: Option<u32>) {
        let own_trie = self.dnodes[dnode as usize].trie;
        if let Some(root) = own_trie {
            self.merge_trie(root, ancestor_trie);
        }
        let next_ancestor = own_trie.or(ancestor_trie);
        for b in 0..2 {
            if let Some(c) = self.dnodes[dnode as usize].children[b] {
                self.process_dnode(c, next_ancestor);
            }
        }
    }

    /// One child-else-switch step in an already-processed structure.
    fn step(&self, node: Option<u32>, b: usize) -> Option<u32> {
        let n = node?;
        self.snodes[n as usize].children[b].or(self.snodes[n as usize].switch[b])
    }

    /// Merge ancestor stored values into `root`'s trie, propagate stored
    /// down paths, and set switch pointers. `shadow` tracks the node the
    /// same source path reaches in the ancestor structure.
    fn merge_trie(&mut self, root: u32, ancestor_root: Option<u32>) {
        // BFS with (node, shadow, inherited_stored).
        let anc_stored = ancestor_root.and_then(|a| self.snodes[a as usize].stored);
        let root_stored = self.better(self.snodes[root as usize].stored, anc_stored);
        self.snodes[root as usize].stored = root_stored;
        let mut queue: Vec<(u32, Option<u32>)> = vec![(root, ancestor_root)];
        while let Some((node, shadow)) = queue.pop() {
            let node_stored = self.snodes[node as usize].stored;
            for b in 0..2 {
                let next_shadow = self.step(shadow, b);
                match self.snodes[node as usize].children[b] {
                    Some(c) => {
                        // Child inherits: its own stored, the path stored,
                        // and the ancestor shadow's stored.
                        let shadow_stored =
                            next_shadow.and_then(|s| self.snodes[s as usize].stored);
                        let merged = self.better(
                            self.better(self.snodes[c as usize].stored, node_stored),
                            shadow_stored,
                        );
                        self.snodes[c as usize].stored = merged;
                        queue.push((c, next_shadow));
                    }
                    None => {
                        self.snodes[node as usize].switch[b] = next_shadow;
                    }
                }
            }
        }
    }

    /// Classify: the best (longest-dst, then longest-src) matching
    /// filter. Cost: one destination-trie walk + one source walk with at
    /// most one pointer per bit.
    pub fn lookup(&self, dst: u32, src: u32) -> Option<(usize, &V)> {
        // Walk the destination trie; remember the deepest trie seen on
        // the path (its merge already folded shallower contexts in).
        let mut dnode = 0u32;
        let mut trie = self.dnodes[0].trie;
        for i in 0..32u8 {
            let b = usize::from(dst.bit(i));
            match self.dnodes[dnode as usize].children[b] {
                Some(c) => {
                    dnode = c;
                    if let Some(t) = self.dnodes[dnode as usize].trie {
                        trie = Some(t);
                    }
                }
                None => break,
            }
        }
        // Source walk via child-else-switch, tracking the best stored.
        let mut best: Option<u32> = None;
        let mut cur = trie;
        if let Some(c) = cur {
            best = self.better(best, self.snodes[c as usize].stored);
        }
        for i in 0..32u8 {
            let b = usize::from(src.bit(i));
            match self.step(cur, b) {
                Some(n) => {
                    best = self.better(best, self.snodes[n as usize].stored);
                    cur = Some(n);
                }
                None => break,
            }
        }
        best.map(|i| (i as usize, &self.filters[i as usize].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(dst: u32, dlen: u8, src: u32, slen: u8) -> TwoDFilter {
        TwoDFilter {
            dst: Prefix::new(dst, dlen),
            src: Prefix::new(src, slen),
        }
    }

    /// Brute-force reference with the same priority order.
    fn reference(filters: &[(TwoDFilter, u32)], dst: u32, src: u32) -> Option<u32> {
        filters
            .iter()
            .enumerate()
            .filter(|(_, (f, _))| f.matches(dst, src))
            .max_by_key(|(i, (f, _))| f.rank(*i))
            .map(|(_, (_, v))| *v)
    }

    #[test]
    fn basic_two_dimensional() {
        let filters = vec![
            (f(0x0A00_0000, 8, 0, 0), 1u32),          // dst 10/8, src *
            (f(0x0A0A_0000, 16, 0xC000_0000, 2), 2),  // dst 10.10/16, src 192/2
            (f(0x0A0A_0000, 16, 0xC0A8_0000, 16), 3), // dst 10.10/16, src 192.168/16
            (f(0, 0, 0xC0A8_0100, 24), 4),            // dst *, src 192.168.1/24
        ];
        let g = GridOfTries::from_filters(filters.clone());
        let q = |d, s| g.lookup(d, s).map(|(i, _)| filters[i].1);
        assert_eq!(q(0x0A0A_0001, 0xC0A8_0105), Some(3)); // dst16 + src16 beats all
        assert_eq!(q(0x0A0A_0001, 0xC100_0000), Some(2)); // src only matches /2
        assert_eq!(q(0x0A0B_0001, 0xC0A8_0105), Some(1)); // dst 10/8 beats dst-* (longest dst first)
        assert_eq!(q(0x0B00_0000, 0xC0A8_0105), Some(4)); // only the dst-* filter
        assert_eq!(q(0x0B00_0000, 0x0100_0000), None);
    }

    #[test]
    fn switch_pointer_jump_is_needed() {
        // The case hierarchical tries would backtrack on: long src under
        // a short dst, short src under a long dst.
        let filters = vec![
            (f(0x0A00_0000, 8, 0xC0A8_0000, 16), 10u32), // dst 10/8, src 192.168/16
            (f(0x0A0A_0000, 16, 0x8000_0000, 1), 20),    // dst 10.10/16, src 1xx/1
        ];
        let g = GridOfTries::from_filters(filters.clone());
        // Query matches dst 10.10/16 — walk starts in its trie, whose own
        // src only covers /1; the /16-src filter lives in the ancestor
        // trie and must be reached through switch pointers.
        let got = g
            .lookup(0x0A0A_0001, 0xC0A8_0001)
            .map(|(i, _)| filters[i].1);
        // Priority: dst 16 beats dst 8 → filter 20 wins even though 10
        // has the longer source.
        assert_eq!(got, Some(20));
        // With a source matching only the ancestor filter:
        let got = g.lookup(0x0A0A_0001, 0xC0A8_0001);
        assert!(got.is_some());
        // Source that matches /16 but not /1 (0xC... starts with 1 so it
        // does match /1=1; craft 0x40.. for /1=0 mismatch):
        let filters2 = vec![
            (f(0x0A00_0000, 8, 0x4000_0000, 2), 10u32), // dst 10/8, src 01xx/2
            (f(0x0A0A_0000, 16, 0x8000_0000, 1), 20),   // dst 10.10/16, src 1xxx/1
        ];
        let g2 = GridOfTries::from_filters(filters2.clone());
        // src 0x4... fails /1 in the deep trie; switch pointer must find
        // the ancestor's /2.
        let got = g2
            .lookup(0x0A0A_0001, 0x4123_4567)
            .map(|(i, _)| filters2[i].1);
        assert_eq!(got, Some(10));
    }

    #[test]
    fn duplicate_pairs_keep_earliest() {
        let filters = vec![
            (f(0x0A00_0000, 8, 0, 0), 1u32),
            (f(0x0A00_0000, 8, 0, 0), 2),
        ];
        let g = GridOfTries::from_filters(filters);
        assert_eq!(g.lookup(0x0A01_0203, 5).map(|(i, _)| i), Some(0));
    }

    #[test]
    fn randomized_against_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for round in 0..20 {
            let n = rng.gen_range(1..40);
            let filters: Vec<(TwoDFilter, u32)> = (0..n)
                .map(|i| {
                    let cluster = |r: &mut StdRng| (r.gen::<u32>() & 0x0303_FFFF) | 0x0A00_0000;
                    (
                        f(
                            cluster(&mut rng),
                            rng.gen_range(0..=32),
                            cluster(&mut rng),
                            rng.gen_range(0..=32),
                        ),
                        i,
                    )
                })
                .collect();
            let g = GridOfTries::from_filters(filters.clone());
            for _ in 0..400 {
                let d = (rng.gen::<u32>() & 0x0303_FFFF) | 0x0A00_0000;
                let s = (rng.gen::<u32>() & 0x0303_FFFF) | 0x0A00_0000;
                let want = reference(&filters, d, s);
                let got = g.lookup(d, s).map(|(i, _)| filters[i].1);
                assert_eq!(got, want, "round {round}: dst {d:08x} src {s:08x}");
            }
        }
    }

    #[test]
    fn empty_grid_matches_nothing() {
        let g: GridOfTries<u32> = GridOfTries::from_filters(Vec::new());
        assert!(g.is_empty());
        assert!(g.lookup(0x0A00_0001, 0x0A00_0002).is_none());
    }

    #[test]
    fn node_counts_reported() {
        let filters: Vec<(TwoDFilter, u32)> = (0..32)
            .map(|i| (f(0x0A00_0000 | (i << 8), 24, 0x1400_0000 | (i << 8), 24), i))
            .collect();
        let g = GridOfTries::from_filters(filters);
        let (d, s) = g.node_counts();
        assert!(d > 24 && s > 24);
        assert_eq!(g.len(), 32);
        assert!(!g.is_empty());
    }
}
