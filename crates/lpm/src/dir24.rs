//! DIR-24-8 with a run-compressed first level: the IPv4 routing table
//! split into a RIB and a compiled FIB.
//!
//! This is controlled prefix expansion (Srinivasan & Varghese,
//! SIGMETRICS '98 — the scheme the paper cites as the state of the art)
//! with the stride schedule 24-8 and leaf pushing, in the shape of Gupta,
//! Lin & McKeown's DIR-24-8: one two-byte *slot* per /24, plus 256-slot
//! *groups* allocated on demand for the /24 blocks that contain prefixes
//! longer than /24. A slot is *no route*, an interned next-hop index, or
//! a group index.
//!
//! **Chunks.** The 2²⁴ first-level slots are not stored flat (32 MB) but
//! as 65 536 *chunks*, one per /16: a 128-byte, 128-byte-aligned object
//! holding a 256-bit map with a bit set where a run of equal slots starts,
//! and up to 48 *leaves*, the runs' slots in address order (Poptrie's leaf
//! bitmap, Asai & Ohara, SIGCOMM '15). A lookup counts the set bits up to
//! its /24 and reads that run's leaf: one object of two cache lines, plus
//! one group slot past /24, where the PATRICIA walk makes one dependent
//! load per trie level — about 21 at 900 K prefixes. A /16 holds few
//! runs: the synthetic 900 K-prefix table has 1.2 M, at most 46 in one
//! chunk, and the first level is 8 MB at any size. A chunk of more than
//! 48 runs *spills*: it names a plain 256-slot block instead, so the
//! table stays exact whatever it holds.
//!
//! **RIB and FIB.** A [`PatriciaTable`] stays the source of truth (the
//! RIB): it answers `insert`/`remove`/`get`, and until [`Dir24Table::compile`]
//! is called it answers `lookup` too, so a small table never allocates
//! the first level. `compile` derives the FIB in one pre-order walk of
//! the trie. Ancestors come before their more-specifics and addresses
//! ascend, so the walk paints every prefix of /17 or longer into one open
//! 256-slot canvas per /16, compresses it into its chunk when the walk
//! leaves the /16, and fills the /16s that only shorter prefixes cover
//! with one-run chunks. After that, every `insert`/`remove` repaints
//! only the chunks the changed prefix overlaps, through the same canvas:
//! first the value that now covers the prefix, then its more-specifics.
//!
//! Slots deliberately carry no prefix length: which prefix owns a slot is
//! always re-derived from the RIB. The price is that a compiled lookup
//! returns the value only, not the matched length — which is why this
//! type does not implement [`LpmTable`].

use crate::hash::IntMap;
use crate::patricia::PatriciaTable;
use crate::table::{LpmTable, Prefix};
use std::hash::Hash;

/// First-level chunks: one per /16.
const CHUNKS: usize = 1 << 16;
/// First-level slots in a chunk: one per /24 of its /16.
const CHUNK_SLOTS: usize = 256;
/// Runs a chunk stores inline; one with more spills.
const LEAVES: usize = 48;
/// The first leaf on a chunk's second cache line.
const SECOND_LINE_LEAF: usize = (64 - std::mem::size_of::<[u64; 4]>()) / 2;
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

/// One /16 of the first level, its 256 slots stored as runs. Bit `i` of
/// `starts` is set where slot `i` begins a run, and run `k`'s slot is
/// `leaves[k]` (leaves past the last run are zero). Slot 0 always begins
/// a run, so a chunk with bit 0 clear has *spilled*: its slots are the
/// spill block `leaves[0]`.
#[derive(Clone, Copy)]
#[repr(C, align(128))]
struct Chunk {
    starts: [u64; 4],
    leaves: [u16; LEAVES],
}

const _: () = assert!(std::mem::size_of::<Chunk>() == 128);

impl Chunk {
    /// Every slot of the /16 set to `code`.
    fn uniform(code: u16) -> Chunk {
        let mut leaves = [0; LEAVES];
        leaves[0] = code;
        Chunk {
            starts: [1, 0, 0, 0],
            leaves,
        }
    }

    fn spilled(block: usize) -> Chunk {
        let mut chunk = Chunk::uniform(block as u16);
        chunk.starts[0] = 0;
        chunk
    }

    #[inline]
    fn spill_block(&self) -> Option<usize> {
        (self.starts[0] & 1 == 0).then_some(usize::from(self.leaves[0]))
    }

    /// The slots back out of a chunk that has not spilled.
    fn expand(&self, slots: &mut [u16; CHUNK_SLOTS]) {
        let mut runs = 0;
        for (i, slot) in slots.iter_mut().enumerate() {
            runs += (self.starts[i / 64] >> (i % 64) & 1) as usize;
            *slot = self.leaves[runs - 1];
        }
    }

    /// The index in `leaves` of the run that holds slot `i`: the set bits
    /// of `starts` up to `i`, less one. Branch-free, since `i` is random:
    /// per-byte counts of the words below `i`'s, picked from their prefix
    /// sums, plus those of its own word up to `i`, are summed by one
    /// multiply (the x86_64 baseline has no `popcnt`, and `count_ones`
    /// would multiply once a word). No byte sum passes 32 and the total
    /// is at most [`LEAVES`], so the multiply's top byte is exact.
    #[inline]
    fn run_of(&self, i: usize) -> usize {
        let (word, bit) = (i / 64, i % 64);
        let [a, b, c, _] = self.starts.map(byte_ones);
        let below = [0, a, a + b, a + b + c];
        let bytes = below[word] + byte_ones(self.starts[word] << (63 - bit));
        (bytes.wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize - 1
    }
}

/// The groups that `slots` name.
fn groups_in(slots: &[u16]) -> impl Iterator<Item = u16> + '_ {
    slots
        .iter()
        .filter(|&&s| s & GROUP != 0)
        .map(|&s| s & !GROUP)
}

/// The set bits of each byte of `x`, in that byte (SWAR).
#[inline]
fn byte_ones(x: u64) -> u64 {
    let x = x - (x >> 1 & 0x5555_5555_5555_5555);
    let x = (x & 0x3333_3333_3333_3333) + (x >> 2 & 0x3333_3333_3333_3333);
    (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F
}

/// The 256 slots of a chunk being painted, and where a run may start:
/// wherever a paint began or ended, besides the runs the chunk came with.
/// Compressing checks those places only, not every slot.
struct Slots {
    codes: [u16; CHUNK_SLOTS],
    edges: [u64; 4],
}

impl Slots {
    /// Every slot set to `code`.
    fn reset(&mut self, code: u16) {
        self.codes.fill(code);
        self.edges = [0; 4];
    }

    fn fill(&mut self, range: std::ops::Range<usize>, code: u16) {
        self.mark(range.start);
        self.mark(range.end);
        self.codes[range].fill(code);
    }

    fn set(&mut self, i: usize, code: u16) {
        self.fill(i..i + 1, code);
    }

    /// A run may start at slot `i`.
    fn mark(&mut self, i: usize) {
        if i < CHUNK_SLOTS {
            self.edges[i / 64] |= 1 << (i % 64);
        }
    }

    /// The runs, or `None` when there are more than [`LEAVES`].
    fn compress(&self) -> Option<Chunk> {
        let mut chunk = Chunk::uniform(self.codes[0]);
        let mut runs = 1;
        for (w, &edges) in self.edges.iter().enumerate() {
            // Slot 0 starts the first run whatever the edges say.
            let mut bits = edges & !u64::from(w == 0);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                if self.codes[i] != self.codes[i - 1] {
                    if runs == LEAVES {
                        return None;
                    }
                    chunk.starts[w] |= 1 << (i % 64);
                    chunk.leaves[runs] = self.codes[i];
                    runs += 1;
                }
                bits &= bits - 1;
            }
        }
        Some(chunk)
    }
}

/// A first-level painting in progress, ascending through the chunks.
struct Canvas {
    /// The chunk whose slots are being painted.
    open: Option<usize>,
    slots: Slots,
    /// Chunks below this one are painted.
    next: usize,
    /// The code of each prefix of /16 or shorter still in force, outermost
    /// first, with the chunk past its range.
    covers: Vec<(u16, usize)>,
}

impl Canvas {
    fn new(next: usize) -> Canvas {
        Canvas {
            open: None,
            slots: Slots {
                codes: [0; CHUNK_SLOTS],
                edges: [0; 4],
            },
            next,
            covers: Vec::new(),
        }
    }

    /// The code the prefixes of /16 or shorter paint on `chunk`, and the
    /// chunk past the range it holds on. Forgets the ones that end before
    /// `chunk`, which must not be below an earlier call's.
    fn cover(&mut self, chunk: usize) -> (u16, usize) {
        while self.covers.last().is_some_and(|&(_, end)| end <= chunk) {
            self.covers.pop();
        }
        self.covers.last().copied().unwrap_or((0, CHUNKS))
    }
}

struct Fib<V> {
    chunks: Box<[Chunk]>,
    /// Spill block `b` is `spill[b * 256..][..256]`; all of it is freed
    /// once no chunk spills.
    spill: Vec<u16>,
    free_spill: Vec<u16>,
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
    /// An all-*no route* table with room for `groups` groups.
    fn new(groups: usize) -> Self {
        Fib {
            chunks: vec![Chunk::uniform(0); CHUNKS].into_boxed_slice(),
            spill: Vec::new(),
            free_spill: Vec::new(),
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
        let chunk = &self.chunks[(addr >> 16) as usize];
        let i = (addr >> 8 & 0xFF) as usize;
        let mut slot = match chunk.spill_block() {
            None => chunk.leaves[chunk.run_of(i)],
            Some(block) => self.spill[block * CHUNK_SLOTS + i],
        };
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

    /// Give back the groups chunk `c`'s slots hold.
    fn free_chunk_groups(&mut self, c: usize) {
        let chunk = &self.chunks[c];
        let slots = match chunk.spill_block() {
            Some(block) => &self.spill[block * CHUNK_SLOTS..][..CHUNK_SLOTS],
            None => &chunk.leaves[..],
        };
        self.free_groups.extend(groups_in(slots));
    }

    /// Chunk `c`'s slots, into `slots`, with a run possible where one is.
    fn read_chunk(&self, c: usize, slots: &mut Slots) {
        let chunk = &self.chunks[c];
        match chunk.spill_block() {
            Some(block) => {
                let spilled = &self.spill[block * CHUNK_SLOTS..][..CHUNK_SLOTS];
                slots.codes.copy_from_slice(spilled);
                slots.edges = [u64::MAX; 4];
            }
            None => {
                chunk.expand(&mut slots.codes);
                slots.edges = chunk.starts;
            }
        }
    }

    /// Store `slots` as chunk `c`: compressed, or else in the chunk's
    /// spill block.
    fn store(&mut self, c: usize, slots: &Slots) {
        match slots.compress() {
            Some(chunk) => self.put(c, chunk),
            None => {
                let block = match self.chunks[c].spill_block() {
                    Some(block) => block,
                    None => self.free_spill.pop().map_or_else(
                        || {
                            self.spill.resize(self.spill.len() + CHUNK_SLOTS, 0);
                            self.spill.len() / CHUNK_SLOTS - 1
                        },
                        usize::from,
                    ),
                };
                self.spill[block * CHUNK_SLOTS..][..CHUNK_SLOTS].copy_from_slice(&slots.codes);
                self.chunks[c] = Chunk::spilled(block);
            }
        }
    }

    /// Replace chunk `c` by a compressed one, giving back its spill block.
    fn put(&mut self, c: usize, chunk: Chunk) {
        if let Some(block) = self.chunks[c].spill_block() {
            self.free_spill.push(block as u16);
            if self.free_spill.len() * CHUNK_SLOTS == self.spill.len() {
                self.spill = Vec::new();
                self.free_spill = Vec::new();
            }
        }
        self.chunks[c] = chunk;
    }

    /// Paint `prefix` with `value` on the canvas. Prefixes come in
    /// pre-order, ascending: the result is correct only when everything
    /// more specific is painted afterwards.
    fn paint(&mut self, canvas: &mut Canvas, prefix: Prefix<u32>, value: Option<&V>) {
        let Some(code) = self.code(value) else {
            self.exhausted = true;
            return;
        };
        let chunk = (prefix.bits() >> 16) as usize;
        if canvas.open != Some(chunk) {
            self.settle(canvas, chunk);
            if prefix.len() <= 16 {
                let end = chunk + (1 << (16 - prefix.len()));
                canvas.covers.push((code, end));
                return;
            }
            let (code, _) = canvas.cover(chunk);
            canvas.slots.reset(code);
            canvas.open = Some(chunk);
            canvas.next = chunk + 1;
        }
        self.paint_slots(&mut canvas.slots, prefix, code);
    }

    /// Set every address a prefix of /17 or longer covers to `code`, on
    /// its chunk's slots.
    fn paint_slots(&mut self, slots: &mut Slots, prefix: Prefix<u32>, code: u16) {
        let first = (prefix.bits() >> 8 & 0xFF) as usize;
        if prefix.len() <= 24 {
            let range = first..first + (1usize << (24 - prefix.len()));
            // A table without groups (any FIB with nothing past /24)
            // skips the scan.
            if self.live_groups() > 0 {
                self.free_groups
                    .extend(groups_in(&slots.codes[range.clone()]));
            }
            slots.fill(range, code);
            return;
        }
        let slot = slots.codes[first];
        let group = if slot & GROUP != 0 {
            usize::from(slot & !GROUP)
        } else {
            // Leaf pushing: the group starts as 256 copies of whatever
            // the shorter prefixes had painted on the /24.
            let Some(group) = self.alloc_group(slot) else {
                self.exhausted = true;
                return;
            };
            slots.set(first, GROUP | group as u16);
            group
        };
        let start = group * GROUP_SLOTS + (prefix.bits() & 0xFF) as usize;
        self.tbl8[start..start + (1usize << (32 - prefix.len()))].fill(code);
    }

    /// Store the open chunk, and paint each chunk from the canvas's next
    /// up to `to` with the prefix that covers it whole.
    fn settle(&mut self, canvas: &mut Canvas, to: usize) {
        if let Some(c) = canvas.open.take() {
            self.store(c, &canvas.slots);
        }
        while canvas.next < to {
            let (code, end) = canvas.cover(canvas.next);
            let (uniform, end) = (Chunk::uniform(code), end.min(to));
            for c in canvas.next..end {
                self.put(c, uniform);
            }
            canvas.next = end;
        }
    }

    /// Bring the chunks `prefix` overlaps back in line with `rib` after
    /// `prefix` was inserted, replaced or removed there.
    fn repaint(&mut self, rib: &PatriciaTable<u32, V>, prefix: Prefix<u32>) {
        self.repaints += 1;
        let first = (prefix.bits() >> 16) as usize;
        let (mut canvas, end) = if prefix.len() <= 16 {
            let end = first + (1 << (16 - prefix.len()));
            if self.live_groups() > 0 {
                for c in first..end {
                    self.free_chunk_groups(c);
                }
            }
            (Canvas::new(first), end)
        } else {
            let mut canvas = Canvas::new(first + 1);
            self.read_chunk(first, &mut canvas.slots);
            canvas.open = Some(first);
            (canvas, first + 1)
        };
        let cover = rib.lookup_max_len(prefix.bits(), prefix.len());
        self.paint(&mut canvas, prefix, cover.map(|(v, _)| v));
        rib.walk_covered(prefix, |p, v| self.paint(&mut canvas, p, Some(v)));
        if prefix.len() > 24 {
            self.collapse(&mut canvas.slots, (prefix.bits() >> 8 & 0xFF) as usize);
        }
        self.settle(&mut canvas, end);
    }

    /// Give a group back once its 256 slots agree (the last prefix longer
    /// than /24 left the block): one first-level slot says the same.
    fn collapse(&mut self, slots: &mut Slots, i: usize) {
        let slot = slots.codes[i];
        if slot & GROUP == 0 {
            return;
        }
        let group = &self.tbl8[usize::from(slot & !GROUP) * GROUP_SLOTS..][..GROUP_SLOTS];
        if group.iter().all(|&code| code == group[0]) {
            self.free_groups.push(slot & !GROUP);
            slots.set(i, group[0]);
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
/// [`compile`](Dir24Table::compile)d a chunked DIR-24-8 FIB kept exact under
/// every later update.
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

    /// The value of the longest stored prefix covering `addr`: one chunk
    /// and a leaf in it, and one group slot past /24, once compiled; the
    /// trie walk before.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<&V> {
        match &self.fib {
            Some(fib) => fib.lookup(addr),
            None => self.rib.lookup(addr).map(|(v, _)| v),
        }
    }

    /// Hint that a [`lookup`](Self::lookup) of `addr` is coming: start loading
    /// both lines of its first-level chunk so work in between hides the
    /// miss. No-op if uncompiled.
    #[inline]
    pub fn prefetch(&self, addr: u32) {
        if let Some(fib) = &self.fib {
            let chunk = &fib.chunks[(addr >> 16) as usize];
            prefetch_read(&chunk.starts);
            prefetch_read(&chunk.leaves[SECOND_LINE_LEAF]);
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
    /// it exact from here on. Allocates the 8 MB first level. Should the
    /// RIB hold more than 32 767 distinct values, or prefixes longer than
    /// /24 in more than 32 768 different /24 blocks, the table stays (or
    /// becomes) uncompiled and `lookup` walks the trie.
    pub fn compile(&mut self) {
        let mut fib = Fib::new(self.long_prefixes);
        let mut canvas = Canvas::new(0);
        // The walk is a chain of cache misses that the processor overlaps
        // only while little else shares its reorder window, so it runs in
        // bursts with the painting in between: at 900 K prefixes that
        // halves the compile against painting from inside the walk.
        let mut burst = Vec::with_capacity(WALK_BURST);
        self.rib.walk_covered(Prefix::default_route(), |p, v| {
            burst.push((p, v));
            if burst.len() == WALK_BURST {
                for (p, v) in burst.drain(..) {
                    fib.paint(&mut canvas, p, Some(v));
                }
            }
        });
        for (p, v) in burst {
            fib.paint(&mut canvas, p, Some(v));
        }
        fib.settle(&mut canvas, CHUNKS);
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
            mem_bytes: std::mem::size_of_val(&*fib.chunks)
                + (fib.spill.capacity() + fib.tbl8.capacity()) * std::mem::size_of::<u16>()
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
        assert_eq!(s.mem_bytes >> 20, 8);
    }

    /// The compiled chunk that holds `addr`.
    fn chunk_of<V>(t: &Dir24Table<V>, addr: u32) -> Chunk {
        t.fib.as_ref().expect("compiled").chunks[(addr >> 16) as usize]
    }

    /// 10.10/16's 256 /24s, alternately `even` and `odd`.
    const ALTERNATING: u32 = 0x0A0A_0000;

    fn alternate(t: &mut Dir24Table<&'static str>) {
        for i in 0..256u32 {
            t.insert(p(ALTERNATING | i << 8, 24), ["even", "odd"][i as usize % 2]);
        }
    }

    #[test]
    fn a_chunk_of_256_runs_spills_to_a_block_and_stays_exact() {
        let mut t = table();
        alternate(&mut t);
        let chunk = chunk_of(&t, ALTERNATING);
        assert_eq!(chunk.spill_block(), Some(0));
        assert_eq!(t.stats().mem_bytes, CHUNKS * 128 + CHUNK_SLOTS * 2 + 4 * 16);
        for i in 0..256u32 {
            let want = Some(["even", "odd"][i as usize % 2]);
            check(&t, ALTERNATING | i << 8, want);
            check(&t, ALTERNATING | i << 8 | 0xFF, want);
        }
        check(&t, ALTERNATING - 1, None);
        check(&t, ALTERNATING + 0x1_0000, None);
        // A prefix past /24 inside the spilled chunk takes a group there.
        t.insert(p(ALTERNATING | 0x0180, 25), "half");
        check(&t, ALTERNATING | 0x017F, Some("odd"));
        check(&t, ALTERNATING | 0x0180, Some("half"));
        check(&t, ALTERNATING | 0x0200, Some("even"));
        assert_eq!(t.stats().tbl8_groups, 1);
        // The same table compiled from scratch spills the same way.
        let mut fresh = Dir24Table::new();
        t.rib.walk_covered(Prefix::default_route(), |q, v| {
            fresh.insert(q, *v);
        });
        fresh.compile();
        assert!(chunk_of(&fresh, ALTERNATING).spill_block().is_some());
        for a in (0..1 << 16).step_by(127) {
            assert_eq!(fresh.lookup(ALTERNATING | a), t.lookup(ALTERNATING | a));
        }
    }

    #[test]
    fn removing_the_runs_again_leaves_one_run_and_the_base_memory() {
        let mut t = Dir24Table::new();
        t.insert(p(ALTERNATING, 16), "odd");
        t.insert(p(0x0B0B_0000, 16), "even");
        t.compile();
        let base = t.stats().mem_bytes;
        alternate(&mut t);
        assert!(chunk_of(&t, ALTERNATING).spill_block().is_some());
        assert_eq!(t.stats().mem_bytes, base + CHUNK_SLOTS * 2);
        for i in 0..256u32 {
            t.remove(p(ALTERNATING | i << 8, 24));
        }
        let chunk = chunk_of(&t, ALTERNATING);
        let one_run = Chunk::uniform(1);
        assert_eq!(
            (chunk.starts, chunk.leaves),
            (one_run.starts, one_run.leaves)
        );
        assert_eq!(t.stats().mem_bytes, base);
        check(&t, ALTERNATING | 0x1234, Some("odd"));
    }

    #[test]
    fn a_table_of_only_the_default_route() {
        let everywhere = [0, 1, 0x0A0A_0A0A, 0x8000_0000, u32::MAX];
        let mut compiled = Dir24Table::new();
        compiled.insert(Prefix::default_route(), "default");
        compiled.compile();
        let mut repainted = table();
        repainted.insert(Prefix::default_route(), "default");
        for t in [&compiled, &repainted] {
            for a in everywhere {
                check(t, a, Some("default"));
            }
            let fib = t.fib.as_ref().unwrap();
            assert!(fib
                .chunks
                .iter()
                .all(|c| c.starts == [1, 0, 0, 0] && c.leaves[0] == 1));
            let s = t.stats();
            assert_eq!((s.tbl8_groups, s.next_hops), (0, 1));
        }
        repainted.remove(Prefix::default_route());
        for a in everywhere {
            check(&repainted, a, None);
        }
    }

    #[test]
    fn host_routes_at_both_ends_of_a_chunk() {
        const FIRST: u32 = 0x0A0A_0000;
        const LAST: u32 = 0x0A0A_FFFF;
        let install = |t: &mut Dir24Table<&'static str>| {
            t.insert(p(FIRST, 16), "chunk");
            t.insert(p(FIRST, 32), "first");
            t.insert(p(LAST, 32), "last");
        };
        let mut repainted = table();
        install(&mut repainted);
        let mut compiled = Dir24Table::new();
        install(&mut compiled);
        compiled.compile();
        for t in [&repainted, &compiled] {
            check(t, FIRST - 1, None);
            check(t, FIRST, Some("first"));
            check(t, FIRST + 1, Some("chunk"));
            check(t, FIRST | 0xFF, Some("chunk"));
            check(t, FIRST | 0x100, Some("chunk"));
            check(t, LAST - 0x100, Some("chunk"));
            check(t, LAST - 1, Some("chunk"));
            check(t, LAST, Some("last"));
            check(t, LAST + 1, None);
            // Three runs: group, the /16, group.
            let chunk = chunk_of(t, FIRST);
            assert_eq!(chunk.starts, [0b11, 0, 0, 1 << 63]);
            assert_eq!(t.stats().tbl8_groups, 2);
        }
        repainted.remove(p(FIRST, 32));
        repainted.remove(p(LAST, 32));
        check(&repainted, FIRST, Some("chunk"));
        check(&repainted, LAST, Some("chunk"));
        assert_eq!(chunk_of(&repainted, FIRST).starts, [1, 0, 0, 0]);
        assert_eq!(repainted.stats().tbl8_groups, 0);
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
