//! Binary Search on Prefix Lengths (Waldvogel, Varghese, Turner, Plattner —
//! SIGCOMM '97): the paper's fast BMP plugin.
//!
//! One hash table per *populated* prefix length. A lookup binary-searches
//! the sorted list of populated lengths: a hash hit at length `m` means "a
//! prefix or marker of length `m` matches — try longer", a miss means "try
//! shorter". **Markers** are inserted on the binary-search path of every
//! real prefix so that hits reliably guide the search toward longer
//! matches, and every table entry carries its precomputed **best matching
//! prefix** (`bmp`) so that a marker-guided descent that ultimately fails
//! still knows the best shorter answer without backtracking.
//!
//! Worst-case lookup cost: `ceil(log2(k+1))` hash probes for `k` populated
//! lengths — at most 5 for IPv4 (k ≤ 31 non-trivial lengths fit height 5)
//! and 7 for IPv6 with realistic length distributions, which is the
//! `log2(32)`/`log2(128)` accounting the paper's Table 2 uses. Each probe
//! counts as one memory access.
//!
//! Updates: inserting a prefix whose length is already populated touches
//! only its own search path plus the entries it covers (found through a
//! PATRICIA side index). Inserting the *first* prefix of a new length
//! changes the search tree shape, so the structure rebuilds — that happens
//! at most once per distinct length (≤ W times over a table's lifetime),
//! keeping bulk loads near-linear.

use crate::bits::Bits;
use crate::hash::IntMap;
use crate::patricia::PatriciaTable;
use crate::table::{LpmTable, Prefix};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Entry<V> {
    /// Number of real prefixes whose search path passes through this entry
    /// as a marker (not counting a real prefix stored here).
    marker_refs: u32,
    /// True when a real prefix of exactly this length/key is stored.
    has_value: bool,
    /// Best real matching prefix of length ≤ this entry's length covering
    /// this entry's key — includes the entry's own value when `has_value`.
    bmp: Option<(V, u8)>,
}

/// BSPL longest-prefix-match table.
///
/// ```
/// use rp_lpm::{BsplTable, LpmTable, Prefix};
///
/// let mut t = BsplTable::new();
/// t.insert(Prefix::new(u32::from(u32::from_be_bytes([10, 0, 0, 0])), 8), "ten/8");
/// t.insert(Prefix::new(u32::from_be_bytes([10, 10, 0, 0]), 16), "ten.ten/16");
/// let addr = u32::from_be_bytes([10, 10, 3, 4]);
/// assert_eq!(t.lookup(addr), Some((&"ten.ten/16", 16)));
/// ```
pub struct BsplTable<A: Bits, V: Clone> {
    /// One hash table per populated length, keyed by masked address bits.
    /// Stored contiguously, parallel to `lengths`: the binary search over
    /// `lengths` yields the slot index directly, so a probe indexes this
    /// vector instead of hashing the length through an outer map — one
    /// fewer dependent memory access per probe, and the per-length table
    /// headers sit in adjacent cache lines.
    tables: Vec<IntMap<A, Entry<V>>>,
    /// Sorted list of populated lengths (excluding 0), parallel to
    /// `tables`.
    lengths: Vec<u8>,
    /// Real-prefix count per length.
    len_counts: HashMap<u8, usize>,
    /// Source of truth for real prefixes and their values.
    real: PatriciaTable<A, V>,
    /// Index of every entry key (markers included) for covered-entry
    /// enumeration during updates.
    key_index: PatriciaTable<A, ()>,
    /// Value for the zero-length prefix, handled without a hash probe (a
    /// default route / full wildcard needs no search).
    default_value: Option<V>,
}

impl<A: Bits, V: Clone> Default for BsplTable<A, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Bits, V: Clone> BsplTable<A, V> {
    /// Empty table.
    pub fn new() -> Self {
        BsplTable {
            tables: Vec::new(),
            lengths: Vec::new(),
            len_counts: HashMap::new(),
            real: PatriciaTable::new(),
            key_index: PatriciaTable::new(),
            default_value: None,
        }
    }

    /// Number of populated lengths (binary-search domain size).
    pub fn populated_lengths(&self) -> usize {
        self.lengths.len()
    }

    /// Worst-case hash probes for the current length set:
    /// `ceil(log2(k+1))`.
    pub fn worst_case_probes(&self) -> u32 {
        let k = self.lengths.len() as u32;
        (k + 1).next_power_of_two().trailing_zeros()
    }

    /// The binary-search probe path for a target length within the current
    /// sorted length set: lengths probed before reaching `target`
    /// (exclusive), in probe order. `target` must be present.
    fn marker_path(&self, target: u8) -> Vec<u8> {
        let mut path = Vec::new();
        let (mut lo, mut hi) = (0isize, self.lengths.len() as isize - 1);
        while lo <= hi {
            let mid = ((lo + hi) / 2) as usize;
            let m = self.lengths[mid];
            match m.cmp(&target) {
                std::cmp::Ordering::Equal => return path,
                std::cmp::Ordering::Less => {
                    path.push(m);
                    lo = mid as isize + 1;
                }
                std::cmp::Ordering::Greater => hi = mid as isize - 1,
            }
        }
        unreachable!("target length not in length set")
    }

    /// Slot of `len` in the parallel `lengths`/`tables` vectors, if that
    /// length is populated.
    fn slot_of(&self, len: u8) -> Option<usize> {
        self.lengths.binary_search(&len).ok()
    }

    fn entry_key_exists(&self, len: u8, key: A) -> bool {
        self.slot_of(len)
            .map(|s| self.tables[s].contains_key(&key))
            .unwrap_or(false)
    }

    /// Create-or-update the entry at `(len, key)`, recomputing its bmp from
    /// the real-prefix trie.
    fn touch_entry(&mut self, len: u8, key: A, marker: bool, has_value: Option<bool>) {
        let bmp = self
            .real
            .lookup_max_len(key, len)
            .map(|(v, l)| (v.clone(), l));
        let existed = self.entry_key_exists(len, key);
        let slot = self
            .slot_of(len)
            .expect("touch_entry called for an unpopulated length");
        let e = self.tables[slot].entry(key).or_insert(Entry {
            marker_refs: 0,
            has_value: false,
            bmp: None,
        });
        if marker {
            e.marker_refs += 1;
        }
        if let Some(hv) = has_value {
            e.has_value = hv;
        }
        e.bmp = bmp;
        if !existed {
            self.key_index.insert(Prefix::new(key, len), ());
        }
    }

    /// Insert markers and the real entry for `prefix` along its search
    /// path; assumes `prefix.len()` is already in the length set and the
    /// real trie is up to date.
    fn install_paths(&mut self, prefix: Prefix<A>) {
        for m in self.marker_path(prefix.len()) {
            self.touch_entry(m, prefix.bits().mask(m), true, None);
        }
        self.touch_entry(prefix.len(), prefix.bits(), false, Some(true));
    }

    /// Refresh the bmp of every entry covered by `prefix` (whose bmp may
    /// have been changed by an insert or remove of that prefix).
    fn refresh_covered(&mut self, prefix: Prefix<A>) {
        for key_pfx in self.key_index.covered_by(prefix) {
            let len = key_pfx.len();
            let key = key_pfx.bits();
            let bmp = self
                .real
                .lookup_max_len(key, len)
                .map(|(v, l)| (v.clone(), l));
            if let Some(s) = self.slot_of(len) {
                if let Some(e) = self.tables[s].get_mut(&key) {
                    e.bmp = bmp;
                }
            }
        }
    }

    /// Rebuild all hash tables and markers from the real-prefix trie.
    /// Called when the set of populated lengths changes.
    fn rebuild(&mut self) {
        self.key_index = PatriciaTable::new();
        let prefixes = self.real.prefixes();
        let mut lengths: Vec<u8> = self
            .len_counts
            .iter()
            .filter(|&(_, c)| *c > 0)
            .map(|(l, _)| *l)
            .collect();
        lengths.sort_unstable();
        self.lengths = lengths;
        self.tables = (0..self.lengths.len()).map(|_| IntMap::default()).collect();
        for p in prefixes {
            if !p.is_empty() {
                self.install_paths(p);
            }
        }
    }

    /// Expected-case probe count for `addr` (for instrumentation): runs a
    /// lookup and returns how many probes it used.
    pub fn probes_for(&self, addr: A) -> u64 {
        self.lookup_counted(addr).1
    }

    /// [`LpmTable::lookup`] plus the number of hash probes it made.
    pub fn lookup_counted(&self, addr: A) -> (Option<(&V, u8)>, u64) {
        let mut best: Option<(&V, u8)> = self.default_value.as_ref().map(|v| (v, 0));
        let mut probes = 0;
        let (mut lo, mut hi) = (0isize, self.lengths.len() as isize - 1);
        while lo <= hi {
            let mid = ((lo + hi) / 2) as usize;
            let m = self.lengths[mid];
            probes += 1;
            match self.tables[mid].get(&addr.mask(m)) {
                Some(e) => {
                    if let Some((v, l)) = &e.bmp {
                        best = Some((v, *l));
                    }
                    lo = mid as isize + 1;
                }
                None => hi = mid as isize - 1,
            }
        }
        (best, probes)
    }
}

impl<A: Bits, V: Clone> LpmTable<A, V> for BsplTable<A, V> {
    fn insert(&mut self, prefix: Prefix<A>, value: V) -> Option<V> {
        if prefix.is_empty() {
            let old = self.default_value.replace(value.clone());
            self.real.insert(prefix, value);
            return old;
        }
        let old = self.real.insert(prefix, value);
        if old.is_some() {
            // Replacement: lengths unchanged; refresh bmps below this
            // prefix (they may cache the old value) and its own entry.
            self.refresh_covered(prefix);
            return old;
        }
        let count = self.len_counts.entry(prefix.len()).or_insert(0);
        *count += 1;
        if *count == 1 {
            // New populated length: the search tree changes shape.
            self.rebuild();
        } else {
            self.install_paths(prefix);
        }
        self.refresh_covered(prefix);
        None
    }

    fn remove(&mut self, prefix: Prefix<A>) -> Option<V> {
        if prefix.is_empty() {
            self.real.remove(prefix);
            return self.default_value.take();
        }
        let old = self.real.remove(prefix)?;
        let count = self.len_counts.get_mut(&prefix.len()).unwrap();
        *count -= 1;
        if *count == 0 {
            self.len_counts.remove(&prefix.len());
            self.rebuild();
        } else {
            // Unwind this prefix's markers.
            for m in self.marker_path(prefix.len()) {
                let key = prefix.bits().mask(m);
                let mut drop_entry = false;
                if let Some(s) = self.slot_of(m) {
                    let t = &mut self.tables[s];
                    if let Some(e) = t.get_mut(&key) {
                        e.marker_refs -= 1;
                        drop_entry = e.marker_refs == 0 && !e.has_value;
                    }
                    if drop_entry {
                        t.remove(&key);
                        self.key_index.remove(Prefix::new(key, m));
                    }
                }
            }
            // The real entry itself.
            let mut drop_entry = false;
            if let Some(s) = self.slot_of(prefix.len()) {
                let t = &mut self.tables[s];
                if let Some(e) = t.get_mut(&prefix.bits()) {
                    e.has_value = false;
                    drop_entry = e.marker_refs == 0;
                }
                if drop_entry {
                    t.remove(&prefix.bits());
                    self.key_index.remove(prefix);
                }
            }
            self.refresh_covered(prefix);
        }
        Some(old)
    }

    fn lookup(&self, addr: A) -> Option<(&V, u8)> {
        self.lookup_counted(addr).0
    }

    fn get(&self, prefix: Prefix<A>) -> Option<&V> {
        if prefix.is_empty() {
            return self.default_value.as_ref();
        }
        self.real.get(prefix)
    }

    fn len(&self) -> usize {
        self.real.len()
    }

    fn prefixes(&self) -> Vec<Prefix<A>> {
        self.real.prefixes()
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
        let mut t = BsplTable::new();
        t.insert(p(0x8100_0000, 8), "129.*");
        t.insert(p(0x80FC_9901, 32), "128.252.153.1");
        t.insert(p(0x80FC_9900, 24), "128.252.153.*");
        assert_eq!(t.lookup(0x80FC_9901).unwrap(), (&"128.252.153.1", 32));
        assert_eq!(t.lookup(0x80FC_994D).unwrap(), (&"128.252.153.*", 24));
        assert_eq!(t.lookup(0x8101_0203).unwrap(), (&"129.*", 8));
        assert!(t.lookup(0x8201_0203).is_none());
    }

    /// The classic case that breaks marker-less binary search: a short real
    /// prefix plus a longer prefix whose marker lures the search upward.
    #[test]
    fn marker_fallback_via_bmp() {
        let mut t = BsplTable::new();
        t.insert(p(0x0A00_0000, 8), "ten/8");
        t.insert(p(0x0A0A_0000, 24), "ten.ten.0/24");
        // Address shares 16 bits with the /24 (so any /16-ish marker hits)
        // but diverges before /24 → correct answer is the /8.
        let addr = 0x0A0A_FF01;
        assert_eq!(t.lookup(addr).unwrap(), (&"ten/8", 8));
    }

    #[test]
    fn default_route_without_probe() {
        let mut t: BsplTable<u32, &str> = BsplTable::new();
        t.insert(Prefix::default_route(), "default");
        let (hit, probes) = t.lookup_counted(0x1234_5678);
        assert_eq!(hit.unwrap(), (&"default", 0));
        assert_eq!(probes, 0, "default route must cost no probes");
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let mut t = BsplTable::new();
        // Populate 31 distinct lengths → worst case 5 probes.
        for len in 1..=31u8 {
            t.insert(Prefix::new(0xFFFF_FFFFu32, len), len);
        }
        assert_eq!(t.populated_lengths(), 31);
        let probes = t.probes_for(0xFFFF_FFFF);
        assert!(probes <= 5, "probes = {probes}");
        let probes = t.probes_for(0x0000_0001); // all misses
        assert!(probes <= 5, "probes = {probes}");
    }

    #[test]
    fn worst_case_probe_formula() {
        let mut t: BsplTable<u32, u8> = BsplTable::new();
        assert_eq!(t.worst_case_probes(), 0);
        t.insert(p(0x8000_0000, 1), 0);
        assert_eq!(t.worst_case_probes(), 1);
        for len in 2..=3u8 {
            t.insert(Prefix::new(0xFFFF_FFFFu32, len), 0);
        }
        assert_eq!(t.worst_case_probes(), 2); // k=3
        for len in 4..=7u8 {
            t.insert(Prefix::new(0xFFFF_FFFFu32, len), 0);
        }
        assert_eq!(t.worst_case_probes(), 3); // k=7
    }

    #[test]
    fn replace_updates_value_everywhere() {
        let mut t = BsplTable::new();
        t.insert(p(0x0A00_0000, 8), 1);
        t.insert(p(0x0A0A_0000, 24), 2);
        assert_eq!(t.insert(p(0x0A00_0000, 8), 99), Some(1));
        // Marker bmps referencing the old value must be refreshed.
        assert_eq!(t.lookup(0x0A0A_FF01).unwrap(), (&99, 8));
        assert_eq!(t.lookup(0x0A00_0001).unwrap(), (&99, 8));
    }

    #[test]
    fn remove_restores_previous_best() {
        let mut t = BsplTable::new();
        t.insert(p(0x0A00_0000, 8), "eight");
        t.insert(p(0x0A0A_0000, 16), "sixteen");
        t.insert(p(0x0A0A_0A00, 24), "twentyfour");
        let addr = 0x0A0A_0A01;
        assert_eq!(t.lookup(addr).unwrap().1, 24);
        assert_eq!(t.remove(p(0x0A0A_0A00, 24)), Some("twentyfour"));
        assert_eq!(t.lookup(addr).unwrap(), (&"sixteen", 16));
        assert_eq!(t.remove(p(0x0A0A_0000, 16)), Some("sixteen"));
        assert_eq!(t.lookup(addr).unwrap(), (&"eight", 8));
        assert_eq!(t.remove(p(0x0A00_0000, 8)), Some("eight"));
        assert_eq!(t.lookup(addr), None);
        assert_eq!(t.len(), 0);
        assert_eq!(t.populated_lengths(), 0);
    }

    #[test]
    fn remove_with_shared_markers() {
        let mut t = BsplTable::new();
        // Two /24s sharing their /16 marker region, plus lengths 8 and 16
        // to give the search tree structure.
        t.insert(p(0x0A00_0000, 8), 8u32);
        t.insert(p(0x0A0A_0000, 16), 16);
        t.insert(p(0x0A0A_0A00, 24), 241);
        t.insert(p(0x0A0A_0B00, 24), 242);
        assert_eq!(t.remove(p(0x0A0A_0A00, 24)), Some(241));
        // The sibling /24 must still be reachable through shared markers.
        assert_eq!(t.lookup(0x0A0A_0B05).unwrap(), (&242, 24));
        assert_eq!(t.lookup(0x0A0A_0A05).unwrap(), (&16, 16));
    }

    #[test]
    fn v6_lookup() {
        let mut t: BsplTable<u128, &str> = BsplTable::new();
        let base: u128 = 0x2001_0db8 << 96;
        t.insert(Prefix::new(base, 32), "site");
        t.insert(Prefix::new(base | (1 << 64), 64), "subnet");
        t.insert(Prefix::new(base | (1 << 64) | 42, 128), "host");
        assert_eq!(t.lookup(base | (1 << 64) | 42).unwrap(), (&"host", 128));
        assert_eq!(t.lookup(base | (1 << 64) | 43).unwrap(), (&"subnet", 64));
        assert_eq!(t.lookup(base | 7).unwrap(), (&"site", 32));
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn randomised_against_patricia() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut bspl = BsplTable::new();
        let mut pat = PatriciaTable::new();
        for i in 0..600u32 {
            // Cluster prefixes so covers/overlaps actually happen.
            let bits: u32 = (rng.gen::<u32>() & 0xFF00_FFFF) | 0x000A_0000;
            let len: u8 = rng.gen_range(0..=32);
            let pfx = Prefix::new(bits, len);
            bspl.insert(pfx, i);
            pat.insert(pfx, i);
            if rng.gen_bool(0.2) {
                let rb: u32 = (rng.gen::<u32>() & 0xFF00_FFFF) | 0x000A_0000;
                let rl: u8 = rng.gen_range(0..=32);
                let rp = Prefix::new(rb, rl);
                assert_eq!(bspl.remove(rp), pat.remove(rp), "remove {rp}");
            }
        }
        for _ in 0..3000 {
            let addr: u32 = (rng.gen::<u32>() & 0xFF00_FFFF) | 0x000A_0000;
            let want = pat.lookup(addr).map(|(v, l)| (*v, l));
            let got = bspl.lookup(addr).map(|(v, l)| (*v, l));
            assert_eq!(got, want, "addr {addr:08x}");
        }
    }
}
