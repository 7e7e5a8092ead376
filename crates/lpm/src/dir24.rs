//! DIR-24-8: the IPv4 routing table split into a RIB and a compiled FIB.
//!
//! This is controlled prefix expansion (Srinivasan & Varghese,
//! SIGMETRICS '98 — the scheme the paper cites as the state of the art)
//! with the stride schedule 24-8 and leaf pushing, in the layout of Gupta,
//! Lin & McKeown's DIR-24-8: one flat array of 2²⁴ two-byte slots indexed
//! by the top 24 address bits, plus 256-slot *groups* allocated on demand
//! for the /24 blocks that contain prefixes longer than /24. A slot is
//! *no route*, an interned next-hop index, or a group index, so a lookup
//! is one indexed load (two past /24) where the PATRICIA walk makes one
//! dependent load per trie level — about 21 at 900 K prefixes.
//!
//! **RIB and FIB.** A [`PatriciaTable`] stays the source of truth (the
//! RIB): it answers `insert`/`remove`/`get`, and until [`Dir24Table::compile`]
//! is called it answers `lookup` too, so a small table never allocates
//! the 32 MB array. `compile` derives the FIB in one pre-order walk of the
//! trie, painting each prefix over its slot range; ancestors are visited
//! before their more-specifics, so the more-specifics overwrite. After
//! that, every `insert`/`remove` repaints only the changed prefix's range:
//! first the value that now covers it, then its more-specifics, in the
//! same order.
//!
//! Slots deliberately carry no prefix length (a third byte per slot is
//! 16 MB): which prefix owns a slot is always re-derived from the RIB.
//! The price is that a compiled lookup returns the value only, not the
//! matched length — which is why this type does not implement
//! [`LpmTable`].

use crate::hash::IntMap;
use crate::patricia::PatriciaTable;
use crate::table::{LpmTable, Prefix};
use std::hash::Hash;

/// Slots of the first-level array: one per /24.
const TBL24_SLOTS: usize = 1 << 24;
/// Slots in a second-level group: one per address of a /24.
const GROUP_SLOTS: usize = 256;
/// Set in a first-level slot that holds a group index; any other non-zero
/// slot is a next-hop index plus one, and zero is *no route*.
const GROUP: u16 = 0x8000;
/// Group indices and next-hop codes both fit in the 15 bits beside the tag.
const MAX_GROUPS: usize = GROUP as usize;
const MAX_HOPS: usize = GROUP as usize - 1;
/// Prefixes a compile takes from the trie walk before it paints them.
const WALK_BURST: usize = 1024;

/// What the compiled FIB currently holds (all zero while uncompiled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibStats {
    /// `lookup` reads the direct-index table, not the trie.
    pub compiled: bool,
    /// Second-level groups in use (/24 blocks holding longer prefixes).
    pub tbl8_groups: usize,
    /// Distinct values interned since the compile.
    pub next_hops: usize,
    /// Heap bytes held by the FIB (the RIB is not counted).
    pub mem_bytes: usize,
    /// Incremental repaints (one per `insert`/`remove`) since the compile.
    pub repaints: u64,
}

struct Fib<V> {
    tbl24: Box<[u16; TBL24_SLOTS]>,
    /// Group `g` is `tbl8[g * 256..][..256]`; slots hold zero or a
    /// next-hop code, never a group index.
    tbl8: Vec<u16>,
    free_groups: Vec<u16>,
    hops: Vec<V>,
    codes: IntMap<V, u16>,
    repaints: u64,
    /// A next hop or a group was needed and the 15-bit index space was
    /// full: the table no longer mirrors the RIB and must be discarded.
    exhausted: bool,
}

impl<V: Clone + Eq + Hash> Fib<V> {
    /// An all-*no route* table with room for `groups` groups. The array
    /// comes zeroed from the allocator, so pages no prefix is painted on
    /// are never touched.
    fn new(groups: usize) -> Self {
        let tbl24: Box<[u16]> = vec![0u16; TBL24_SLOTS].into_boxed_slice();
        Fib {
            tbl24: tbl24.try_into().expect("allocated with TBL24_SLOTS slots"),
            tbl8: Vec::with_capacity(groups.min(MAX_GROUPS) * GROUP_SLOTS),
            free_groups: Vec::new(),
            hops: Vec::new(),
            codes: IntMap::default(),
            repaints: 0,
            exhausted: false,
        }
    }

    #[inline]
    fn lookup(&self, addr: u32) -> Option<&V> {
        let mut slot = self.tbl24[(addr >> 8) as usize];
        if slot & GROUP != 0 {
            let group = usize::from(slot & !GROUP);
            slot = self.tbl8[group * GROUP_SLOTS + (addr & 0xFF) as usize];
        }
        // Zero wraps to an index no table can have.
        self.hops.get(usize::from(slot).wrapping_sub(1))
    }

    fn live_groups(&self) -> usize {
        self.tbl8.len() / GROUP_SLOTS - self.free_groups.len()
    }

    /// The slot code of `value`: zero for *no route*, else its interned
    /// index plus one.
    fn code(&mut self, value: Option<&V>) -> Option<u16> {
        let Some(value) = value else { return Some(0) };
        if let Some(&code) = self.codes.get(value) {
            return Some(code);
        }
        if self.hops.len() == MAX_HOPS {
            return None;
        }
        self.hops.push(value.clone());
        let code = self.hops.len() as u16;
        self.codes.insert(value.clone(), code);
        Some(code)
    }

    /// A group with every slot set to `fill`.
    fn alloc_group(&mut self, fill: u16) -> Option<usize> {
        let group = match self.free_groups.pop() {
            Some(g) => usize::from(g),
            None => {
                let g = self.tbl8.len() / GROUP_SLOTS;
                if g == MAX_GROUPS {
                    return None;
                }
                self.tbl8.resize(self.tbl8.len() + GROUP_SLOTS, 0);
                g
            }
        };
        self.tbl8[group * GROUP_SLOTS..][..GROUP_SLOTS].fill(fill);
        Some(group)
    }

    /// Set every address `prefix` covers to `value`. Correct only when
    /// everything more specific is painted afterwards.
    fn paint(&mut self, prefix: Prefix<u32>, value: Option<&V>) {
        let Some(code) = self.code(value) else {
            self.exhausted = true;
            return;
        };
        let first = (prefix.bits() >> 8) as usize;
        if prefix.len() <= 24 {
            let range = first..first + (1usize << (24 - prefix.len()));
            // A table without groups (any FIB with nothing past /24)
            // skips the scan: a /8 alone is 65 536 slots.
            if self.live_groups() > 0 {
                for &slot in &self.tbl24[range.clone()] {
                    if slot & GROUP != 0 {
                        self.free_groups.push(slot & !GROUP);
                    }
                }
            }
            self.tbl24[range].fill(code);
            return;
        }
        let slot = self.tbl24[first];
        let group = if slot & GROUP != 0 {
            usize::from(slot & !GROUP)
        } else {
            // Leaf pushing: the group starts as 256 copies of whatever
            // the shorter prefixes had painted on the /24.
            let Some(group) = self.alloc_group(slot) else {
                self.exhausted = true;
                return;
            };
            self.tbl24[first] = GROUP | group as u16;
            group
        };
        let start = group * GROUP_SLOTS + (prefix.bits() & 0xFF) as usize;
        self.tbl8[start..start + (1usize << (32 - prefix.len()))].fill(code);
    }

    /// Bring the range of `prefix` back in line with `rib` after `prefix`
    /// was inserted, replaced or removed there.
    fn repaint(&mut self, rib: &PatriciaTable<u32, V>, prefix: Prefix<u32>) {
        self.repaints += 1;
        let cover = rib.lookup_max_len(prefix.bits(), prefix.len());
        self.paint(prefix, cover.map(|(v, _)| v));
        rib.walk_covered(prefix, |p, v| self.paint(p, Some(v)));
        if prefix.len() > 24 {
            self.collapse((prefix.bits() >> 8) as usize);
        }
    }

    /// Give a group back once its 256 slots agree (the last prefix longer
    /// than /24 left the block): one first-level slot says the same.
    fn collapse(&mut self, first: usize) {
        let slot = self.tbl24[first];
        if slot & GROUP == 0 {
            return;
        }
        let group = &self.tbl8[usize::from(slot & !GROUP) * GROUP_SLOTS..][..GROUP_SLOTS];
        if group.iter().all(|&code| code == group[0]) {
            self.tbl24[first] = group[0];
            self.free_groups.push(slot & !GROUP);
        }
    }
}

/// Start loading `r`'s cache line without waiting for it: a prefetch
/// retires at once, where a demand load of a cold line stalls retirement
/// once the reorder window fills (measured: it keeps a third of the gain).
#[allow(unsafe_code)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline(always)]
fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: x86_64 always has SSE; the instruction is a hint that reads and
    // writes nothing and faults on no address — and this one is a live `&T`.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(r as *const T as *const i8);
    }
}

/// IPv4 longest-prefix match: a PATRICIA RIB, and once
/// [`compile`](Dir24Table::compile)d a DIR-24-8 FIB kept exact under every
/// later update.
///
/// ```
/// use rp_lpm::{Dir24Table, Prefix};
///
/// let mut t = Dir24Table::new();
/// t.insert(Prefix::new(0x0A00_0000u32, 8), "ten/8");
/// t.compile();
/// t.insert(Prefix::new(0x0A0A_0A80u32, 25), "ten.ten.ten.128/25");
/// assert_eq!(t.lookup(0x0A0A_0AFF), Some(&"ten.ten.ten.128/25"));
/// assert_eq!(t.lookup(0x0A0A_0A7F), Some(&"ten/8"));
/// assert_eq!(t.lookup(0x0B00_0000), None);
/// ```
pub struct Dir24Table<V> {
    rib: PatriciaTable<u32, V>,
    fib: Option<Fib<V>>,
    /// Stored prefixes longer than /24: an upper bound on the groups a
    /// compile needs, so it can size the second level in one allocation.
    long_prefixes: usize,
}

impl<V: Clone + Eq + Hash> Default for Dir24Table<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Eq + Hash> Dir24Table<V> {
    /// Empty, uncompiled table.
    pub fn new() -> Self {
        Dir24Table {
            rib: PatriciaTable::new(),
            fib: None,
            long_prefixes: 0,
        }
    }

    /// Insert or replace the value for `prefix`, returning the previous
    /// value.
    pub fn insert(&mut self, prefix: Prefix<u32>, value: V) -> Option<V> {
        let old = self.rib.insert(prefix, value);
        if old.is_none() && prefix.len() > 24 {
            self.long_prefixes += 1;
        }
        self.repaint(prefix);
        old
    }

    /// Remove `prefix`, returning its value.
    pub fn remove(&mut self, prefix: Prefix<u32>) -> Option<V> {
        let old = self.rib.remove(prefix)?;
        if prefix.len() > 24 {
            self.long_prefixes -= 1;
        }
        self.repaint(prefix);
        Some(old)
    }

    fn repaint(&mut self, prefix: Prefix<u32>) {
        let Some(fib) = &mut self.fib else { return };
        fib.repaint(&self.rib, prefix);
        if fib.exhausted {
            // Next hops are interned for the life of a compile; a fresh
            // one keeps only those still in the RIB.
            self.compile();
        }
    }

    /// The value of the longest stored prefix covering `addr`: one or two
    /// indexed loads once compiled, the trie walk before.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<&V> {
        match &self.fib {
            Some(fib) => fib.lookup(addr),
            None => self.rib.lookup(addr).map(|(v, _)| v),
        }
    }

    /// Hint that a [`lookup`](Self::lookup) of `addr` is coming: start loading
    /// its first-level slot so work in between hides the miss. No-op if uncompiled.
    #[inline]
    pub fn prefetch(&self, addr: u32) {
        if let Some(fib) = &self.fib {
            prefetch_read(&fib.tbl24[(addr >> 8) as usize]);
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.rib.len()
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.rib.is_empty()
    }

    /// Compile the RIB into the FIB (again, if already compiled), and keep
    /// it exact from here on. Allocates the 32 MB first level. Should the
    /// RIB hold more than 32 767 distinct values, or prefixes longer than
    /// /24 in more than 32 768 different /24 blocks, the table stays (or
    /// becomes) uncompiled and `lookup` walks the trie.
    pub fn compile(&mut self) {
        let mut fib = Fib::new(self.long_prefixes);
        // The walk is a chain of cache misses that the processor overlaps
        // only while little else shares its reorder window, so it runs in
        // bursts with the painting in between: at 900 K prefixes that
        // halves the compile against painting from inside the walk.
        let mut burst = Vec::with_capacity(WALK_BURST);
        self.rib.walk_covered(Prefix::default_route(), |p, v| {
            burst.push((p, v));
            if burst.len() == WALK_BURST {
                for (p, v) in burst.drain(..) {
                    fib.paint(p, Some(v));
                }
            }
        });
        for (p, v) in burst {
            fib.paint(p, Some(v));
        }
        self.fib = (!fib.exhausted).then_some(fib);
    }

    /// FIB occupancy, for observability.
    pub fn stats(&self) -> FibStats {
        let Some(fib) = &self.fib else {
            return FibStats::default();
        };
        FibStats {
            compiled: true,
            tbl8_groups: fib.live_groups(),
            next_hops: fib.hops.len(),
            mem_bytes: std::mem::size_of_val(&*fib.tbl24)
                + fib.tbl8.capacity() * std::mem::size_of::<u16>()
                + fib.hops.capacity() * std::mem::size_of::<V>(),
            repaints: fib.repaints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bits: u32, len: u8) -> Prefix<u32> {
        Prefix::new(bits, len)
    }

    /// A compiled table, and every check also made against its own RIB.
    fn table() -> Dir24Table<&'static str> {
        let mut t = Dir24Table::new();
        t.compile();
        t
    }

    fn check(t: &Dir24Table<&'static str>, addr: u32, want: Option<&'static str>) {
        assert_eq!(t.lookup(addr).copied(), want, "fib @ {addr:08x}");
        assert_eq!(
            t.rib.lookup(addr).map(|(v, _)| *v),
            want,
            "rib @ {addr:08x}"
        );
    }

    #[test]
    fn paper_table1_prefixes() {
        let mut t = table();
        t.insert(p(0x8100_0000, 8), "129.*");
        t.insert(p(0x80FC_9901, 32), "128.252.153.1");
        t.insert(p(0x80FC_9900, 24), "128.252.153.*");
        check(&t, 0x80FC_9901, Some("128.252.153.1"));
        check(&t, 0x80FC_994D, Some("128.252.153.*"));
        check(&t, 0x8101_0203, Some("129.*"));
        check(&t, 0x8201_0203, None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn uncompiled_table_walks_the_trie_and_allocates_nothing() {
        let mut t = Dir24Table::new();
        t.insert(p(0x0A00_0000, 8), "a");
        assert_eq!(t.lookup(0x0A01_0203), Some(&"a"));
        assert_eq!(t.stats(), FibStats::default());
        t.compile();
        assert_eq!(t.lookup(0x0A01_0203), Some(&"a"));
        let s = t.stats();
        assert!(s.compiled);
        assert_eq!((s.tbl8_groups, s.next_hops, s.repaints), (0, 1, 0));
        assert_eq!(s.mem_bytes >> 20, 32);
    }

    #[test]
    fn mid_stride_expansion() {
        let mut t = table();
        // /6 expands into 4 × 65 536 first-level slots.
        t.insert(p(0x8800_0000, 6), "a"); // 136.0.0.0/6 → 136..139
        check(&t, 0x8801_0000, Some("a"));
        check(&t, 0x8BFF_FFFF, Some("a")); // 139.255.255.255
        check(&t, 0x8C00_0000, None); // 140.x
        check(&t, 0x87FF_FFFF, None); // 135.x
        t.insert(p(0x8A00_0000, 7), "b"); // 138..139
        check(&t, 0x8B01_0000, Some("b"));
        check(&t, 0x8901_0000, Some("a"));
        // /30 expands into 4 slots of a group; its neighbours inherit
        // the /7 by leaf pushing.
        t.insert(p(0x8A00_0004, 30), "c");
        check(&t, 0x8A00_0003, Some("b"));
        check(&t, 0x8A00_0004, Some("c"));
        check(&t, 0x8A00_0007, Some("c"));
        check(&t, 0x8A00_0008, Some("b"));
        assert_eq!(t.stats().tbl8_groups, 1);
    }

    #[test]
    fn default_route_and_host_route() {
        let mut t = table();
        t.insert(Prefix::default_route(), "default");
        t.insert(p(0xFFFF_FFFF, 32), "last");
        t.insert(p(0, 32), "first");
        check(&t, 0, Some("first"));
        check(&t, 1, Some("default"));
        check(&t, 0xFFFF_FFFE, Some("default"));
        check(&t, 0xFFFF_FFFF, Some("last"));
        assert_eq!(t.remove(Prefix::default_route()), Some("default"));
        check(&t, 1, None);
        check(&t, 0, Some("first"));
    }

    #[test]
    fn insert_shorter_does_not_shadow_longer() {
        let mut t = table();
        t.insert(p(0x0A0A_0000, 16), "long");
        t.insert(p(0x0A0A_0A80, 25), "longest");
        t.insert(p(0x0A00_0000, 8), "short");
        check(&t, 0x0A0A_0101, Some("long"));
        check(&t, 0x0A0A_0A81, Some("longest"));
        check(&t, 0x0A0A_0A01, Some("long"));
        check(&t, 0x0A0B_0101, Some("short"));
    }

    #[test]
    fn remove_uncovers_the_shorter_prefix() {
        let mut t = table();
        t.insert(p(0x0A00_0000, 8), "eight");
        t.insert(p(0x0A0A_0000, 16), "sixteen");
        t.insert(p(0x0A0A_0A00, 24), "twentyfour");
        assert_eq!(t.remove(p(0x0A0A_0000, 16)), Some("sixteen"));
        check(&t, 0x0A0A_0101, Some("eight"));
        check(&t, 0x0A0A_0A01, Some("twentyfour"));
        assert_eq!(t.remove(p(0x0A0A_0000, 16)), None);
        // Withdrawing the covering prefix leaves the more-specific alone.
        assert_eq!(t.remove(p(0x0A00_0000, 8)), Some("eight"));
        check(&t, 0x0A0A_0101, None);
        check(&t, 0x0A0A_0A01, Some("twentyfour"));
        assert_eq!(t.stats().repaints, 5);
    }

    #[test]
    fn remove_of_last_long_prefix_frees_its_group() {
        let mut t = table();
        t.insert(p(0x0A0A_0A00, 24), "block");
        t.insert(p(0x0A0A_0A10, 28), "x");
        t.insert(p(0x0A0A_0A11, 32), "y");
        assert_eq!(t.stats().tbl8_groups, 1);
        t.remove(p(0x0A0A_0A10, 28));
        check(&t, 0x0A0A_0A10, Some("block"));
        check(&t, 0x0A0A_0A11, Some("y"));
        assert_eq!(t.stats().tbl8_groups, 1);
        t.remove(p(0x0A0A_0A11, 32));
        check(&t, 0x0A0A_0A11, Some("block"));
        assert_eq!(t.stats().tbl8_groups, 0);
        // A shorter prefix painted over a block takes its group with it,
        // and the walk of its more-specifics brings it back.
        t.insert(p(0x0A0A_0A11, 32), "y");
        t.insert(p(0x0A0A_0000, 16), "wide");
        check(&t, 0x0A0A_0A11, Some("y"));
        check(&t, 0x0A0A_0B11, Some("wide"));
        assert_eq!(t.stats().tbl8_groups, 1);
        t.remove(p(0x0A0A_0A11, 32));
        t.remove(p(0x0A0A_0A00, 24));
        check(&t, 0x0A0A_0A11, Some("wide"));
        assert_eq!(t.stats().tbl8_groups, 0);
    }

    #[test]
    fn replace_repaints_the_new_value() {
        let mut t = table();
        t.insert(p(0x0A00_0000, 8), "old");
        t.insert(p(0x0A0A_0A80, 25), "inner");
        assert_eq!(t.insert(p(0x0A00_0000, 8), "new"), Some("old"));
        check(&t, 0x0A01_0101, Some("new"));
        check(&t, 0x0A0A_0A01, Some("new"));
        check(&t, 0x0A0A_0A81, Some("inner"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn next_hops_intern_past_one_byte_and_exhaustion_recompiles() {
        let mut t: Dir24Table<u32> = Dir24Table::new();
        t.compile();
        for i in 0..1000u32 {
            t.insert(p(i << 8, 24), i);
        }
        assert_eq!(t.stats().next_hops, 1000);
        for i in 0..1000u32 {
            assert_eq!(t.lookup(i << 8 | 7), Some(&i));
        }
        // Flap one route through more values than a compile can intern:
        // the table recompiles itself with only the live ones.
        for v in 0..40_000u32 {
            t.insert(p(0xC000_0000, 24), 1_000_000 + v);
        }
        let s = t.stats();
        assert!(s.compiled);
        assert!(s.next_hops <= MAX_HOPS);
        assert_eq!(t.lookup(0xC000_0003), Some(&1_039_999));
        assert_eq!(t.lookup(5 << 8), Some(&5));
    }

    #[test]
    fn too_many_distinct_values_stay_on_the_trie() {
        let mut t: Dir24Table<u32> = Dir24Table::new();
        for i in 0..(MAX_HOPS as u32 + 1) {
            t.insert(p(i << 8, 24), i);
        }
        t.compile();
        assert!(!t.stats().compiled);
        assert_eq!(t.lookup(77 << 8), Some(&77));
        t.remove(p(0, 24));
        t.compile();
        assert!(t.stats().compiled);
        assert_eq!(t.lookup(77 << 8), Some(&77));
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn prefetch_is_a_hint_on_every_kind_of_table() {
        // Both ends of the address space and both sides of a /25 boundary.
        const ADDRS: [u32; 4] = [0, u32::MAX, 0x0A0A_0A7F, 0x0A0A_0A80];
        let hint = |t: &Dir24Table<u32>| ADDRS.iter().for_each(|&a| t.prefetch(a));
        let mut t: Dir24Table<u32> = Dir24Table::new();
        hint(&t); // empty
        t.insert(p(0x0A00_0000, 8), 8);
        t.insert(p(0x0A0A_0A80, 25), 25);
        hint(&t); // uncompiled: the trie has no slot to hint
        let answers = |t: &Dir24Table<u32>| ADDRS.map(|a| t.lookup(a).copied());
        let want = [None, None, Some(8), Some(25)];
        assert_eq!(answers(&t), want);
        t.compile();
        hint(&t); // compiled, the /25 in a second-level group
        assert_eq!(answers(&t), want);
        // Exhaust the next-hop codes so the table recompiles itself.
        for v in 0..40_000u32 {
            t.insert(p(0xC000_0000, 24), 1_000_000 + v);
            t.prefetch(0xC000_0000 | v);
        }
        assert!(t.stats().compiled);
        hint(&t);
        assert_eq!(answers(&t), want);
    }

    #[test]
    fn randomised_against_patricia() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut dir = Dir24Table::new();
        let mut pat = PatriciaTable::new();
        let mut stored = Vec::new();
        let addr = |rng: &mut StdRng| (rng.gen::<u32>() & 0x0F0F_FFFF) | 0x0A00_0000;
        for round in 0..600u32 {
            if round == 200 {
                dir.compile();
            }
            if round % 3 == 2 {
                let victim = stored.swap_remove(rng.gen_range(0..stored.len()));
                assert_eq!(dir.remove(victim), pat.remove(victim));
            } else {
                let pfx = Prefix::new(addr(&mut rng), rng.gen_range(0..=32));
                assert_eq!(dir.insert(pfx, round), pat.insert(pfx, round));
                stored.push(pfx);
            }
        }
        let mut fresh = Dir24Table::new();
        pat.walk_covered(Prefix::default_route(), |q, v| {
            fresh.insert(q, *v);
        });
        fresh.compile();
        for _ in 0..4000 {
            let a = addr(&mut rng);
            let want = pat.lookup(a).map(|(v, _)| v);
            assert_eq!(dir.lookup(a), want, "incremental @ {a:08x}");
            assert_eq!(fresh.lookup(a), want, "recompiled @ {a:08x}");
        }
        assert_eq!(dir.len(), pat.len());
    }
}
