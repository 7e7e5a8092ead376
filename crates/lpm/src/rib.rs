//! The IPv4 RIB, split at /16 where the compiled FIB is split.
//!
//! Prefixes of /16 and shorter stay in a [`PatriciaTable`]. There are few
//! of them: a table can hold at most 131 071, and the synthetic
//! 900 K-prefix table holds 62 K. Each /16 keeps its longer prefixes in
//! one list, sorted by (first address, length). An entry is the prefix's
//! address bits below the /16, its length and its value, so 8 B for a
//! 4-byte value; a trie node is 24 B, and a trie needs about two nodes a
//! prefix.
//!
//! The sort order is the trie's own pre-order: an ancestor comes before
//! its more-specifics, and addresses ascend. So [`Rib::walk_covered`]
//! yields the sequence [`PatriciaTable::walk_covered`] would, by merging
//! the short trie's walk with the lists: before each short prefix it
//! visits the lists of the /16s below it, and a /16's own list only after
//! every prefix that covers it. `insert`, `remove` and `get` are one
//! binary search in one list. [`Rib::lookup_max_len`] is at most one binary
//! search per length, and usually one in all (see `longest_match`),
//! before it asks the short trie.
//!
//! The 65 536 list headers (1.5 MB) are allocated when the first prefix
//! longer than /16 arrives; a table of only shorter prefixes is the trie
//! alone.

use crate::patricia::PatriciaTable;
use crate::table::{LpmTable, Prefix};

/// Lists: one per /16.
const LISTS: usize = 1 << 16;

/// A prefix longer than /16, in its /16's list.
struct Long<V> {
    /// The prefix's address bits below its /16.
    low: u16,
    len: u8,
    value: V,
}

const _: () = assert!(std::mem::size_of::<Long<u32>>() == 8);

impl<V> Long<V> {
    /// The sort key: the trie's pre-order.
    fn key(&self) -> (u16, u8) {
        (self.low, self.len)
    }

    fn prefix(&self, list: usize) -> Prefix<u32> {
        Prefix::new((list as u32) << 16 | u32::from(self.low), self.len)
    }

    /// Does this prefix cover the address whose bits below the /16 are
    /// `low`?
    fn covers(&self, low: u16) -> bool {
        (self.low ^ low) & low_mask(self.len) == 0
    }
}

/// The bits below the /16 that a prefix of `len` (17–32) fixes.
fn low_mask(len: u8) -> u16 {
    u16::MAX << (32 - len)
}

/// A prefix longer than /16: its list and its key there.
fn place(prefix: Prefix<u32>) -> (usize, (u16, u8)) {
    (
        (prefix.bits() >> 16) as usize,
        (prefix.bits() as u16, prefix.len()),
    )
}

/// The longest entry of a sorted `list` that covers `low` and is at most
/// `len` (17–32) long. One binary search finds the last entry not past
/// `low`'s own prefix of that length. When that entry does not cover
/// `low`, every entry that does also covers it, so none is longer than
/// the bits the two share, and the next search is at that length: a
/// shorter one each time.
fn longest_match<V>(list: &[Long<V>], low: u16, mut len: u8) -> Option<&Long<V>> {
    while len > 16 {
        let key = (low & low_mask(len), len);
        let last = list.partition_point(|e| e.key() <= key).checked_sub(1)?;
        let e = &list[last];
        if e.covers(low) {
            return Some(e);
        }
        len = 16 + (e.low ^ low).leading_zeros() as u8;
    }
    None
}

/// IPv4 prefixes: a PATRICIA trie for /16 and shorter, and one sorted
/// list per /16 for the longer ones. Answers as a [`PatriciaTable`]
/// holding the same prefixes would, walks included.
///
/// ```
/// use rp_lpm::{LpmTable, Prefix, Rib};
///
/// let mut t = Rib::new();
/// t.insert(Prefix::new(0x0A00_0000u32, 8), "ten/8");
/// t.insert(Prefix::new(0x0A0A_0A80u32, 25), "ten.ten.ten.128/25");
/// assert_eq!(t.lookup(0x0A0A_0AFF), Some((&"ten.ten.ten.128/25", 25)));
/// assert_eq!(t.lookup_max_len(0x0A0A_0AFF, 24), Some((&"ten/8", 8)));
/// assert_eq!(t.prefixes().len(), 2);
/// ```
pub struct Rib<V> {
    short: PatriciaTable<u32, V>,
    /// List `i` holds the prefixes longer than /16 inside the `i`-th /16,
    /// sorted by [`Long::key`]. No headers until the first one arrives.
    lists: Box<[Vec<Long<V>>]>,
    /// Entries over all lists.
    long: usize,
}

impl<V> Default for Rib<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Rib<V> {
    /// Empty table: the trie's root, and no list headers.
    pub fn new() -> Self {
        Rib {
            short: PatriciaTable::new(),
            lists: Box::default(),
            long: 0,
        }
    }

    /// Longest-prefix match among prefixes of at most `max_len` bits.
    pub fn lookup_max_len(&self, addr: u32, max_len: u8) -> Option<(&V, u8)> {
        if max_len > 16 {
            if let Some(list) = self.lists.get((addr >> 16) as usize) {
                if let Some(e) = longest_match(list, addr as u16, max_len.min(32)) {
                    return Some((&e.value, e.len));
                }
            }
        }
        self.short.lookup_max_len(addr, max_len.min(16))
    }

    /// Visit every stored prefix covered by `prefix` (equal or more
    /// specific) with its value, in pre-order and ascending address order:
    /// the order of [`PatriciaTable::walk_covered`].
    pub fn walk_covered<'a>(
        &'a self,
        prefix: Prefix<u32>,
        mut visit: impl FnMut(Prefix<u32>, &'a V),
    ) {
        let first = (prefix.bits() >> 16) as usize;
        if prefix.len() > 16 {
            let Some(list) = self.lists.get(first) else {
                return;
            };
            let (_, key) = place(prefix);
            let last = key.0 | !low_mask(key.1);
            let from = list.partition_point(|e| e.key() < key);
            for e in list[from..].iter().take_while(|e| e.low <= last) {
                visit(e.prefix(first), &e.value);
            }
            return;
        }
        let mut next = first;
        self.short.walk_covered(prefix, |p, v| {
            // The /16s below `p` come first; `p`'s own /16 holds only
            // prefixes that `p` covers, so its list comes after `p`.
            self.visit_lists(&mut next, (p.bits() >> 16) as usize, &mut visit);
            visit(p, v);
        });
        self.visit_lists(&mut next, first + (1 << (16 - prefix.len())), &mut visit);
    }

    /// Visit the lists of the /16s from `next` up to `to`, and move `next`
    /// to `to`.
    fn visit_lists<'a>(
        &'a self,
        next: &mut usize,
        to: usize,
        visit: &mut impl FnMut(Prefix<u32>, &'a V),
    ) {
        let lists = self.lists.get(*next..to).unwrap_or_default();
        for (i, list) in (*next..).zip(lists) {
            for e in list {
                visit(e.prefix(i), &e.value);
            }
        }
        *next = to;
    }

    /// Heap bytes held: the list headers, each list's capacity in entries,
    /// and the short trie's arena.
    pub(crate) fn mem_bytes(&self) -> usize {
        let entries: usize = self.lists.iter().map(Vec::capacity).sum();
        std::mem::size_of_val(&*self.lists)
            + entries * std::mem::size_of::<Long<V>>()
            + self.short.arena_bytes()
    }
}

impl<V> LpmTable<u32, V> for Rib<V> {
    fn insert(&mut self, prefix: Prefix<u32>, value: V) -> Option<V> {
        if prefix.len() <= 16 {
            return self.short.insert(prefix, value);
        }
        if self.lists.is_empty() {
            self.lists = std::iter::repeat_with(Vec::new).take(LISTS).collect();
        }
        let (i, key) = place(prefix);
        let list = &mut self.lists[i];
        match list.binary_search_by_key(&key, Long::key) {
            Ok(at) => Some(std::mem::replace(&mut list[at].value, value)),
            Err(at) => {
                let (low, len) = key;
                list.insert(at, Long { low, len, value });
                self.long += 1;
                None
            }
        }
    }

    fn remove(&mut self, prefix: Prefix<u32>) -> Option<V> {
        if prefix.len() <= 16 {
            return self.short.remove(prefix);
        }
        let (i, key) = place(prefix);
        let list = self.lists.get_mut(i)?;
        let at = list.binary_search_by_key(&key, Long::key).ok()?;
        let removed = list.remove(at);
        if list.is_empty() {
            *list = Vec::new();
        }
        self.long -= 1;
        Some(removed.value)
    }

    fn lookup(&self, addr: u32) -> Option<(&V, u8)> {
        self.lookup_max_len(addr, 32)
    }

    fn get(&self, prefix: Prefix<u32>) -> Option<&V> {
        if prefix.len() <= 16 {
            return self.short.get(prefix);
        }
        let (i, key) = place(prefix);
        let list = self.lists.get(i)?;
        let at = list.binary_search_by_key(&key, Long::key).ok()?;
        Some(&list[at].value)
    }

    fn len(&self) -> usize {
        self.short.len() + self.long
    }

    fn prefixes(&self) -> Vec<Prefix<u32>> {
        let mut out = Vec::with_capacity(self.len());
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
    fn short_prefixes_alone_allocate_no_headers() {
        let mut t = Rib::new();
        t.insert(Prefix::default_route(), 0);
        t.insert(p(0x0A00_0000, 8), 8);
        t.insert(p(0x0A0A_0000, 16), 16);
        assert!(t.lists.is_empty());
        assert_eq!(t.mem_bytes(), t.short.arena_bytes());
        t.insert(p(0x0A0A_0A00, 24), 24);
        assert_eq!(t.lists.len(), LISTS);
        assert_eq!(t.lookup(0x0A0A_0A01), Some((&24, 24)));
        assert_eq!(t.lookup(0x0A0A_0B01), Some((&16, 16)));
        assert_eq!(t.remove(p(0x0A0A_0A00, 24)), Some(24));
        // An emptied list gives its entries back; the headers stay.
        assert_eq!(t.mem_bytes(), LISTS * 24 + t.short.arena_bytes());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn a_short_prefix_comes_before_its_own_16s_list() {
        let mut t = Rib::new();
        for (bits, len) in [
            (0x0A0A_0A00, 24),
            (0x0A0A_0000, 16),
            (0x0A09_8000, 17),
            (0x0A00_0000, 8),
            (0x0A0A_0000, 17),
            (0x0A0B_0000, 16),
        ] {
            t.insert(p(bits, len), len);
        }
        let mut seen = Vec::new();
        t.walk_covered(Prefix::default_route(), |q, _| seen.push(q));
        assert_eq!(
            seen,
            [
                p(0x0A00_0000, 8),
                p(0x0A09_8000, 17),
                p(0x0A0A_0000, 16),
                p(0x0A0A_0000, 17),
                p(0x0A0A_0A00, 24),
                p(0x0A0B_0000, 16),
            ]
        );
        let mut under = Vec::new();
        t.walk_covered(p(0x0A0A_0000, 17), |q, _| under.push(q));
        assert_eq!(under, [p(0x0A0A_0000, 17), p(0x0A0A_0A00, 24)]);
    }

    #[test]
    fn longest_match_jumps_past_entries_that_miss() {
        // 10.10/17 covers the address; the /24s and hosts between it and
        // the address in list order do not.
        let mut t = Rib::new();
        t.insert(p(0x0A0A_0000, 17), 17);
        for i in 0..64u32 {
            t.insert(p(0x0A0A_0000 | i << 8, 24), 24);
            t.insert(p(0x0A0A_0000 | i << 8 | 7, 32), 32);
        }
        assert_eq!(t.lookup(0x0A0A_7F01), Some((&17, 17)));
        assert_eq!(t.lookup(0x0A0A_3F07), Some((&32, 32)));
        assert_eq!(t.lookup_max_len(0x0A0A_3F07, 31), Some((&24, 24)));
        assert_eq!(t.lookup_max_len(0x0A0A_3F07, 23), Some((&17, 17)));
        assert_eq!(t.lookup(0x0A0A_8000), None);
    }
}
