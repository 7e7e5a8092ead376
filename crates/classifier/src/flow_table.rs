//! The flow table (paper §5.2): a hash-indexed cache of fully specified
//! flows. Each record is one cache line: the key, the probe's fields and
//! a bit per bound gate. The gate's column holds that gate's whole
//! binding — the bound plugin instance, an opaque per-flow soft-state
//! slot (the DRR plugin keeps its per-flow queue pointer there) and the
//! filter the binding derives from.
//!
//! Reproduced mechanics:
//!
//! * The paper's cheap flow hash ("17 processor cycles on a Pentium") —
//!   a short xor/fold with no multiplies, [`key_hash`], over the
//!   six-tuple as eleven words ([`FlowKey`]), which is also what a probe
//!   compares and what an evicted flow is handed back as.
//! * Bucket array sized at boot (default 32768), collision chains as
//!   singly linked lists threaded through the record slab.
//! * Records come from a free list seeded with 1024 entries that **grows
//!   exponentially** (1024, 2048, 4096, …) up to a configurable maximum,
//!   after which the **oldest records are recycled**.
//! * Records are addressed by [`FlowIndex`] — the FIX the data path caches
//!   in the packet's mbuf so later gates skip the hash lookup entirely.
//!
//! Internet-scale extensions (beyond the paper's fixed-size table):
//!
//! * **Incremental resize.** When the live-record count outgrows the
//!   bucket array, the table doubles it *incrementally*: the old array
//!   stays live while a bounded number of its buckets are migrated per
//!   lookup-or-insert (`MIGRATE_BUCKETS_PER_OP`), so there is never a
//!   stop-the-world rehash on the data path. During a migration a lookup
//!   probes the new chain first and falls back to the old one; each
//!   record lives in exactly one chain at all times.
//! * **Second-chance recycling.** "The oldest records are recycled" is
//!   one bounded clock: a hit sets a `referenced` flag in the record
//!   header (the line it already dirties for the idle timer), and a table
//!   at its cap advances a hand over at most `RECLAIM_SCAN` (64) slots,
//!   clearing flags as it passes, to the first record that is idle or was
//!   not hit since the hand last saw it. The flag, not a timestamp
//!   comparison, carries recency because no data path advances the
//!   table's clock per packet: with the clock frozen every `last_used` is
//!   equal and "coldest" means "inserted first", which recycles an
//!   established flow as readily as a one-packet one. A new flow costs the
//!   one or two records the hand reads, whatever the table's size.

use rp_packet::mbuf::FlowIndex;
use rp_packet::FlowKey;
use std::any::Any;

use crate::aiu::{BindingMut, GateMut};
use crate::filter::FilterId;

/// The paper's cheap flow hash over a [`FlowKey`]: fold the six-tuple's
/// words into 32 bits with xors, rotates and one final avalanche —
/// comparable work to the "17 cycles" original (no multiplies, no
/// divisions beyond the mask). An address folds as the xor of its four
/// words, so an IPv4 address folds to itself.
#[inline]
pub fn key_hash(k: &FlowKey) -> u32 {
    let w = k.words();
    let mut h = w[0] ^ w[1] ^ w[2] ^ w[3];
    h = h.rotate_left(7) ^ (w[4] ^ w[5] ^ w[6] ^ w[7]);
    h = h.rotate_left(7) ^ w[8];
    // The key — and record equality — is the full six-tuple; the incoming
    // interface must perturb the hash too, or same-5-tuple flows from
    // different interfaces chain in one bucket (and always co-shard).
    h = h.rotate_left(5) ^ w[9];
    h ^= u32::from(k.proto()) << 8;
    // One-round finisher to spread low bits into the bucket mask.
    h ^= h >> 16;
    h = h.wrapping_mul(0x45d9_f3b5);
    h ^ (h >> 13)
}

/// Per-gate binding stored in a flow record: the paper's "pair of pointers
/// for each gate" — the plugin instance and its private per-flow soft
/// state.
pub struct GateBinding<V> {
    /// The bound plugin instance (None when no filter matched at this
    /// gate).
    pub instance: Option<V>,
    /// The filter this binding was derived from.
    pub filter: Option<FilterId>,
    /// Plugin-private per-flow soft state (`Send` so flow records can live
    /// on data-plane worker shards).
    pub soft_state: Option<Box<dyn Any + Send>>,
}

/// Hard cap on per-record gate bindings (the data path compiles six
/// gates; two slots of headroom).
pub const MAX_GATES: usize = 8;

// One mask bit per gate.
const _: () = assert!(MAX_GATES <= 8);

/// The bindings of a flow that has left the table, gathered from its
/// gates' column cells for [`EvictedFlow`] — a
/// transport type only: live records keep no `GateArray`.
pub struct GateArray<V> {
    instances: [Option<V>; MAX_GATES],
    filters: [Option<FilterId>; MAX_GATES],
    soft: [Option<Box<dyn Any + Send>>; MAX_GATES],
    len: u8,
}

impl<V> GateArray<V> {
    fn new(len: usize) -> Self {
        GateArray {
            instances: std::array::from_fn(|_| None),
            filters: [None; MAX_GATES],
            soft: std::array::from_fn(|_| None),
            len: len as u8,
        }
    }

    /// Number of gate slots in use.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when configured with zero gates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-flow plugin soft state at `gate` (shared view).
    pub fn soft(&self, gate: usize) -> Option<&(dyn Any + Send)> {
        self.soft[..self.len()].get(gate)?.as_deref()
    }

    /// Hand out each gate's binding in gate order, leaving defaults.
    pub fn drain(&mut self) -> impl Iterator<Item = GateBinding<V>> + '_ {
        (0..self.len()).map(|g| GateBinding {
            instance: self.instances[g].take(),
            filter: self.filters[g].take(),
            soft_state: self.soft[g].take(),
        })
    }
}

/// One flow's cell in a gate's column: the paper's pair for that gate —
/// the bound instance and the flow's soft state — and the filter the
/// binding derives from, a filter's hard state being reached through the
/// filter, not the flow. Read only while the gate's `bound` bit is set,
/// so the filter is a raw id (filter 0 stays a filter); the plugin call
/// reads the instance, the soft state and the filter only as far as the
/// plugin asks for them.
struct GateCell<V> {
    instance: Option<V>,
    soft: Option<Box<dyn Any + Send>>,
    filter: FilterId,
}

// Two cells per cache line for a handle-sized instance (`core::router`
// pins its handle at 8 B).
const _: () = assert!(std::mem::size_of::<GateCell<std::num::NonZeroU64>>() == 32);

impl<V> GateCell<V> {
    const EMPTY: Self = GateCell {
        instance: None,
        soft: None,
        filter: FilterId(0),
    };
}

/// One row of the flow table: one cache line, everything a probe and the
/// gate walk's [`FlowTable::bound_mask`] read touch. A bound gate reads
/// its column cell besides; every gate's binding and the insertion
/// sequence live in the table's columns (see [`FlowTable`]), not here.
#[repr(C, align(64))]
pub struct FlowRecord {
    /// Virtual time of the last lookup hit (for idle expiry).
    last_used: u64,
    /// The fully specified six-tuple identifying the flow.
    key: FlowKey,
    /// Chain link (next record in the same hash bucket; [`EMPTY`]
    /// terminates).
    next: u32,
    /// Cached [`key_hash`] of the key: bucket migration and unlinking
    /// must not rehash, and the resize path never touches the key bytes.
    hash: u32,
    /// Slot-in-use flag (false = on the free list).
    live: bool,
    /// Second chance: set by a hit, cleared on insert and by the passing
    /// clock hand.
    referenced: bool,
    /// Bit g set = an instance is bound at gate g. The gate walk reads it
    /// once per packet, on the line the probe already loaded, and skips
    /// every gate whose bit is clear.
    bound: u8,
}

// Every field ends inside the one line (`core::router` pins the size
// and alignment too).
const _: () = {
    use std::mem::offset_of;
    type R = FlowRecord;
    assert!(offset_of!(R, last_used) == 0);
    assert!(offset_of!(R, key) == 8);
    assert!(offset_of!(R, next) == 8 + std::mem::size_of::<FlowKey>());
    assert!(offset_of!(R, hash) + 4 <= 64);
    assert!(offset_of!(R, live) < 64);
    assert!(offset_of!(R, referenced) < 64);
    assert!(offset_of!(R, bound) < 64);
    assert!(std::mem::size_of::<R>() == 64);
};

impl FlowRecord {
    fn is_bound(&self, gate: usize) -> bool {
        gate < MAX_GATES && self.bound & (1 << gate) != 0
    }
}

/// A live record read together with its gates' column cells: what
/// [`FlowTable::record`] returns and [`FlowTable::invalidate_where`]
/// tests.
pub struct FlowView<'a, V> {
    record: &'a FlowRecord,
    cells: &'a [Vec<GateCell<V>>; MAX_GATES],
    slot: usize,
}

impl<'a, V> FlowView<'a, V> {
    /// The six-tuple identifying the flow.
    pub fn key(&self) -> FlowKey {
        self.record.key
    }

    /// The gate's column cell, if an instance is bound at `gate`.
    fn cell(&self, gate: usize) -> Option<&'a GateCell<V>> {
        self.record
            .is_bound(gate)
            .then(|| &self.cells[gate][self.slot])
    }

    /// The instance bound at `gate`.
    pub fn instance(&self, gate: usize) -> Option<&'a V> {
        self.cell(gate)?.instance.as_ref()
    }

    /// The filter the binding at `gate` was derived from.
    pub fn filter(&self, gate: usize) -> Option<FilterId> {
        Some(self.cell(gate)?.filter)
    }

    /// Every bound instance, in gate order (for bound-anywhere scans).
    pub fn instances(&self) -> impl Iterator<Item = &'a V> + '_ {
        (0..MAX_GATES).filter_map(|g| self.instance(g))
    }
}

/// Flow table configuration (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct FlowTableConfig {
    /// Number of hash buckets at boot ("default value used in our kernel
    /// is 32768").
    pub buckets: usize,
    /// Ceiling for incremental bucket-array doubling (`0` pins the array
    /// at `buckets` — no resize, the paper's fixed-size behaviour). Must
    /// be a power of two when non-zero.
    pub max_buckets: usize,
    /// Initial free-list size ("default is 1024").
    pub initial_records: usize,
    /// Hard cap on allocated records; beyond this records are recycled by
    /// the second-chance clock (see the module docs).
    pub max_records: usize,
    /// Number of gates each record carries bindings for.
    pub gates: usize,
    /// Admission control against cache thrash. `0` recycles whenever the
    /// table is full. When non-zero, a full table reclaims only an *idle*
    /// record (unused for `max_idle_ns`) found within the bounded
    /// clock-hand scan, and otherwise **denies** the insert — a
    /// one-packet-flow flood then degrades the flood's own flows (no
    /// cached record) instead of recycling established ones.
    pub max_idle_ns: u64,
    /// Evict instead of denying when `max_idle_ns` is set and nothing in
    /// the scan is idle: the hand's first record not hit since its last
    /// pass (second chance), or — every record of the window referenced —
    /// the window's least recently used. The right policy for
    /// established-flow churn workloads; leave off to keep strict
    /// admission-denial semantics under floods. (With `max_idle_ns` 0 a
    /// full table evicts that same victim either way, and this field only
    /// picks the counter that reports it.)
    pub lru_evict: bool,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            buckets: 32768,
            max_buckets: 1 << 22,
            initial_records: 1024,
            max_records: 65536,
            gates: 4,
            max_idle_ns: 0,
            lru_evict: false,
        }
    }
}

/// Statistics exposed for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Records recycled at the cap with `lru_evict` off.
    pub recycled: u64,
    /// Inserts denied by admission control (table full, nothing idle).
    pub denied: u64,
    /// Idle records reclaimed inline at the allocation cap.
    pub inline_expired: u64,
    /// Records evicted at the cap with `lru_evict` on.
    pub evicted_lru: u64,
    /// Buckets migrated by the incremental-resize machinery.
    pub resize_steps: u64,
    /// Current allocation (live + free).
    pub allocated: usize,
    /// Live records.
    pub live: usize,
}

impl FlowTableStats {
    /// Fold another table's counters into this one. A sharded data plane
    /// runs one flow table per worker; control-plane reporting sums them
    /// into the view a single-table router would show.
    pub fn absorb(&mut self, other: &FlowTableStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.denied += other.denied;
        self.inline_expired += other.inline_expired;
        self.evicted_lru += other.evicted_lru;
        self.resize_steps += other.resize_steps;
        self.allocated += other.allocated;
        self.live += other.live;
    }
}

/// Chain terminator / empty-bucket sentinel. Bare `u32` heads instead of
/// `Option<u32>` halve the bucket arrays (a million-flow table carries
/// megabytes of them — fewer cache lines and TLB entries on every probe).
const EMPTY: u32 = u32::MAX;

/// What [`FlowTable::lookup_or_insert`] did for a key.
pub enum Admit {
    /// The flow was cached.
    Hit(FlowIndex),
    /// A record was created, its bindings empty for the caller to fill
    /// with [`FlowTable::bind`].
    New {
        /// The new record's index.
        fix: FlowIndex,
        /// A live flow was recycled to make room: its key and bindings
        /// are in the caller's parked slot.
        recycled: bool,
    },
    /// The table is full and admission control found nothing to reclaim.
    Denied,
}

/// The flow cache.
pub struct FlowTable<V> {
    /// Current bucket array (the *new* array while a resize is active).
    buckets: Vec<u32>,
    /// Previous bucket array during an incremental resize; empty
    /// otherwise. Buckets below `migrate_pos` have been drained into
    /// `buckets`.
    old_buckets: Vec<u32>,
    /// Migration cursor into `old_buckets`.
    migrate_pos: usize,
    records: Vec<FlowRecord>,
    /// Insertion sequence number per slot (breaks `last_used` ties
    /// oldest-first). A column, not a record field: only an insert and the
    /// hand passing a referenced record touch it.
    seq: Vec<u64>,
    /// Per-gate columns of [`GateCell`]s (instance, soft state, filter
    /// id), indexed by slot. Column g is empty until [`Self::enable_gate`]
    /// materialises it to `records.len()`: a gate that never held a
    /// filter binds no instance, keeps no soft state and costs no memory.
    /// Inline: a cell is one load away.
    cells: [Vec<GateCell<V>>; MAX_GATES],
    free: Vec<u32>,
    cfg: FlowTableConfig,
    next_seq: u64,
    now_ns: u64,
    /// Clock hand of the bounded victim scan at the cap.
    hand: usize,
    stats: FlowTableStats,
}

/// Slots the hand may advance per at-cap insert: one new flow never reads
/// more than this many records, no matter how large the table.
const RECLAIM_SCAN: usize = 64;

/// Old-array buckets migrated per lookup-or-insert while a resize is in
/// flight. Two per operation means a resize completes after at most
/// `old_buckets / 2` operations while bounding any single packet's extra
/// work to two (usually short) chain relinks.
const MIGRATE_BUCKETS_PER_OP: usize = 2;

impl<V> FlowTable<V> {
    /// Build with the given configuration.
    pub fn new(cfg: FlowTableConfig) -> Self {
        assert!(cfg.buckets.is_power_of_two(), "bucket count must be 2^k");
        assert!(
            cfg.max_buckets == 0 || cfg.max_buckets.is_power_of_two(),
            "max bucket count must be 0 or 2^k"
        );
        assert!(cfg.initial_records >= 1);
        assert!(
            cfg.gates <= MAX_GATES,
            "flow table supports at most {MAX_GATES} gates"
        );
        let mut t = FlowTable {
            buckets: vec![EMPTY; cfg.buckets],
            old_buckets: Vec::new(),
            migrate_pos: 0,
            records: Vec::new(),
            seq: Vec::new(),
            cells: std::array::from_fn(|_| Vec::new()),
            free: Vec::new(),
            cfg,
            next_seq: 0,
            now_ns: 0,
            hand: 0,
            stats: FlowTableStats::default(),
        };
        t.grow(cfg.initial_records);
        t
    }

    fn grow(&mut self, n: usize) {
        let start = self.records.len();
        self.records.extend((0..n).map(|_| FlowRecord {
            last_used: 0,
            key: FlowKey::default(),
            next: EMPTY,
            hash: 0,
            live: false,
            referenced: false,
            bound: 0,
        }));
        self.seq.resize(start + n, 0);
        for col in self.cells.iter_mut().filter(|c| !c.is_empty()) {
            col.resize_with(start + n, || GateCell::EMPTY);
        }
        // Reversed, so the slab fills in slot order: the hand then meets
        // never-hit flows in the order they arrived.
        self.free.extend((start..start + n).rev().map(|i| i as u32));
        self.stats.allocated = self.records.len();
    }

    /// Bucket-array ceiling: `max_buckets`, floored at the boot size.
    fn bucket_cap(&self) -> usize {
        if self.cfg.max_buckets == 0 {
            self.cfg.buckets
        } else {
            self.cfg.max_buckets.max(self.cfg.buckets)
        }
    }

    /// Current bucket-array size (tests/benches; grows under incremental
    /// resize).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// True while an incremental resize is migrating buckets.
    pub fn resizing(&self) -> bool {
        !self.old_buckets.is_empty()
    }

    /// Rough resident size, every slab: bucket arrays, hot records, `seq`,
    /// each materialised gate column, free list. Used by the scale bench's
    /// bounded-memory gate; excludes the soft state's own boxes.
    pub fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells: usize = self.cells.iter().map(Vec::capacity).sum();
        (self.buckets.capacity() + self.old_buckets.capacity()) * size_of::<u32>()
            + self.records.capacity() * size_of::<FlowRecord>()
            + self.seq.capacity() * size_of::<u64>()
            + cells * size_of::<GateCell<V>>()
            + self.free.capacity() * size_of::<u32>()
    }

    /// Give `gate` its column (control path: the AIU calls this when the
    /// gate's filter table gets a filter). Idempotent.
    pub fn enable_gate(&mut self, gate: usize) {
        assert!(gate < self.cfg.gates, "no gate {gate}");
        if self.cells[gate].is_empty() {
            self.cells[gate].resize_with(self.records.len(), || GateCell::EMPTY);
        }
    }

    /// Advance the table's virtual clock (drives idle expiry; the router
    /// calls this as packets arrive).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Find a live record for `key` without touching stats or timers.
    /// Probes the current chain, then (during a resize) the old one.
    fn find(&self, key: &FlowKey, hash: u32) -> Option<u32> {
        let found = Self::chain_find(&self.buckets, &self.records, key, hash);
        if found.is_none() && !self.old_buckets.is_empty() {
            return Self::chain_find(&self.old_buckets, &self.records, key, hash);
        }
        found
    }

    /// Walk the chain `hash` selects in `heads` for `key` — every packet's
    /// probe, so never a call. A record's cached hash, on the line the walk
    /// reads anyway, settles most mismatches before the key is compared.
    #[inline(always)]
    fn chain_find(heads: &[u32], records: &[FlowRecord], key: &FlowKey, hash: u32) -> Option<u32> {
        let mut cur = heads[(hash as usize) & (heads.len() - 1)];
        while cur != EMPTY {
            let r = &records[cur as usize];
            if r.hash == hash && r.key == *key {
                return Some(cur);
            }
            cur = r.next;
        }
        None
    }

    /// The one counted entry point, for a packet's `key` and its
    /// [`key_hash`] (the AIU hashes each packet exactly once): the FIX
    /// on a hit, which refreshes the record's idle timer and its second
    /// chance; on a miss a fresh record for the caller to fill. At the
    /// cap the record comes from `reclaim_victim`, whose key and
    /// bindings are gathered into `evicted` (from [`Self::parked`]; what
    /// an earlier borrower left in it is dropped) for plugin eviction
    /// callbacks — or the insert is **denied** (counted in
    /// [`FlowTableStats::denied`]): established flows keep their records
    /// and the new flow runs uncached.
    pub fn lookup_or_insert(
        &mut self,
        key: &FlowKey,
        hash: u32,
        evicted: &mut EvictedFlow<V>,
    ) -> Admit {
        let found = self.find(key, hash);
        self.migrate_step();
        if let Some(idx) = found {
            self.stats.hits += 1;
            let r = &mut self.records[idx as usize];
            r.last_used = self.now_ns;
            r.referenced = true;
            return Admit::Hit(FlowIndex(idx));
        }
        self.stats.misses += 1;
        let mut recycled = false;
        let idx = match self.free.pop() {
            Some(i) => i,
            None if self.records.len() < self.cfg.max_records => {
                // Exponential growth: double (capped at max).
                let room = self.cfg.max_records - self.records.len();
                self.grow(self.records.len().min(room));
                self.free.pop().expect("grew the free list")
            }
            None => {
                let Some(victim) = self.reclaim_victim() else {
                    self.stats.denied += 1;
                    return Admit::Denied;
                };
                self.evict(victim, evicted);
                recycled = true;
                victim
            }
        };
        let b = (hash as usize) & (self.buckets.len() - 1);
        let r = &mut self.records[idx as usize];
        r.key = *key;
        r.hash = hash;
        self.seq[idx as usize] = self.next_seq;
        r.last_used = self.now_ns;
        r.live = true;
        r.referenced = false;
        r.next = std::mem::replace(&mut self.buckets[b], idx);
        self.next_seq += 1;
        self.stats.live += 1;
        self.maybe_start_resize();
        Admit::New {
            fix: FlowIndex(idx),
            recycled,
        }
    }

    /// Bind `v`, resolved through `filter`, at `gate` of the live record
    /// `fix` (the miss path: once per gate whose filter table matched).
    pub fn bind(&mut self, fix: FlowIndex, gate: usize, v: V, filter: FilterId) {
        // A no-op behind `Aiu::install_filter`; the safety net for a
        // caller of the raw table that never enabled the gate.
        self.enable_gate(gate);
        let i = fix.0 as usize;
        let r = &mut self.records[i];
        assert!(r.live, "bind on a free slot");
        r.bound |= 1 << gate;
        let cell = &mut self.cells[gate][i];
        cell.instance = Some(v);
        cell.filter = filter;
    }

    /// The gates `fix` binds, one bit per gate ([`FlowRecord`]'s `bound`);
    /// 0 for a slot that is not live. Reads line 0 only.
    #[inline]
    pub fn bound_mask(&self, fix: FlowIndex) -> u8 {
        match self.records.get(fix.0 as usize) {
            Some(r) if r.live => r.bound,
            _ => 0,
        }
    }

    /// Everything a gate's plugin call needs, from the gate's column cell:
    /// the bound instance and, by reference, the filter it derives from
    /// and the flow's soft state; neither is loaded here. `None`, without
    /// leaving the record's line, when the record is gone or nothing is
    /// bound at `gate`.
    #[inline]
    pub fn gate_mut(&mut self, fix: FlowIndex, gate: usize) -> Option<GateMut<'_, V>> {
        let i = fix.0 as usize;
        let r = self.records.get(i)?;
        if !r.live || !r.is_bound(gate) {
            return None;
        }
        let GateCell {
            instance,
            soft,
            filter,
        } = &mut self.cells[gate][i];
        Some((instance.as_ref()?, &*filter, soft))
    }

    /// [`Self::gate_mut`] with the filter id read out.
    pub fn binding_mut(&mut self, fix: FlowIndex, gate: usize) -> Option<BindingMut<'_, V>> {
        let (v, filter, soft) = self.gate_mut(fix, gate)?;
        Some((v, Some(*filter), soft))
    }

    /// Allocation-free idle-expiry sweep ("if a cached flow remains idle
    /// for an extended period, its cached entry may be removed", paper
    /// §3.2): flows idle longer than `max_idle_ns` are evicted and
    /// appended to `out` (typically a scratch buffer the caller drains
    /// and reuses). Returns how many were evicted.
    pub fn expire_idle_into(&mut self, max_idle_ns: u64, out: &mut Vec<EvictedFlow<V>>) -> usize {
        let cutoff = self.now_ns.saturating_sub(max_idle_ns);
        let mut evicted = 0;
        for i in 0..self.records.len() {
            let r = &self.records[i];
            if r.live && r.last_used < cutoff {
                if let Some(ev) = self.remove(FlowIndex(i as u32)) {
                    out.push(ev);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Non-counting peek (used by tests/diagnostics).
    pub fn peek(&self, key: &FlowKey) -> Option<FlowIndex> {
        self.find(key, key_hash(key)).map(FlowIndex)
    }

    /// Begin an incremental bucket-array doubling when the live-record
    /// count has outgrown the array (load factor > 1) and the ceiling
    /// allows it. The old array stays live; [`Self::migrate_step`] drains
    /// it a few buckets at a time.
    fn maybe_start_resize(&mut self) {
        if !self.old_buckets.is_empty() {
            return;
        }
        let cur = self.buckets.len();
        if self.stats.live <= cur || cur >= self.bucket_cap() {
            return;
        }
        let new_len = (cur * 2).min(self.bucket_cap());
        self.old_buckets = std::mem::replace(&mut self.buckets, vec![EMPTY; new_len]);
        self.migrate_pos = 0;
    }

    /// Drain up to [`MIGRATE_BUCKETS_PER_OP`] buckets from the old array
    /// into the current one. Called once per lookup-or-insert while a
    /// resize is active, so migration cost is amortized over the packets
    /// that caused the growth.
    fn migrate_step(&mut self) {
        if self.old_buckets.is_empty() {
            return;
        }
        let mask = self.buckets.len() - 1;
        for _ in 0..MIGRATE_BUCKETS_PER_OP {
            if self.migrate_pos >= self.old_buckets.len() {
                break;
            }
            let mut cur = std::mem::replace(&mut self.old_buckets[self.migrate_pos], EMPTY);
            while cur != EMPTY {
                let next = self.records[cur as usize].next;
                let nb = (self.records[cur as usize].hash as usize) & mask;
                self.records[cur as usize].next = self.buckets[nb];
                self.buckets[nb] = cur;
                cur = next;
            }
            self.migrate_pos += 1;
            self.stats.resize_steps += 1;
        }
        if self.migrate_pos >= self.old_buckets.len() {
            self.old_buckets = Vec::new();
            self.migrate_pos = 0;
        }
    }

    /// At-cap victim selection, one bounded second-chance clock: advance
    /// the hand over at most [`RECLAIM_SCAN`] slots (every slot is live —
    /// the free list is empty). A record idle past `max_idle_ns` wins
    /// immediately; so does one not hit since the hand last passed it,
    /// unless admission is idle-only. A referenced record loses its flag
    /// and is passed over; if that was the whole window, its least
    /// recently used record goes (oldest first among equals), or the
    /// insert is denied. Counts the eviction under the policy that made
    /// it.
    fn reclaim_victim(&mut self) -> Option<u32> {
        let idle_cutoff =
            (self.cfg.max_idle_ns > 0).then(|| self.now_ns.saturating_sub(self.cfg.max_idle_ns));
        let evicts_busy = self.cfg.lru_evict || idle_cutoff.is_none();
        let n = self.records.len();
        let mut coldest: Option<(u64, u64, usize)> = None;
        let victim = 'hand: {
            for _ in 0..RECLAIM_SCAN.min(n) {
                let i = self.hand;
                self.hand = if i + 1 == n { 0 } else { i + 1 };
                let r = &mut self.records[i];
                debug_assert!(r.live, "record neither live nor on the free list");
                if idle_cutoff.is_some_and(|c| r.last_used < c) {
                    self.stats.inline_expired += 1;
                    return Some(i as u32);
                }
                if !evicts_busy {
                    continue;
                }
                if !r.referenced {
                    break 'hand i;
                }
                r.referenced = false;
                let passed = (r.last_used, self.seq[i], i);
                coldest = Some(coldest.map_or(passed, |c| c.min(passed)));
            }
            coldest?.2
        };
        if self.cfg.lru_evict {
            self.stats.evicted_lru += 1;
        } else {
            self.stats.recycled += 1;
        }
        Some(victim as u32)
    }

    /// Remove `idx` from whichever chain holds it — the current array, or
    /// (mid-resize) the not-yet-migrated old bucket.
    fn unlink(&mut self, idx: u32) {
        let hash = self.records[idx as usize].hash;
        let nb = (hash as usize) & (self.buckets.len() - 1);
        if Self::unlink_from(&mut self.buckets, &mut self.records, nb, idx) {
            return;
        }
        if !self.old_buckets.is_empty() {
            let ob = (hash as usize) & (self.old_buckets.len() - 1);
            Self::unlink_from(&mut self.old_buckets, &mut self.records, ob, idx);
        }
    }

    fn unlink_from(heads: &mut [u32], records: &mut [FlowRecord], b: usize, idx: u32) -> bool {
        let mut cur = heads[b];
        if cur == idx {
            heads[b] = records[idx as usize].next;
            return true;
        }
        while cur != EMPTY {
            let next = records[cur as usize].next;
            if next == idx {
                records[cur as usize].next = records[idx as usize].next;
                return true;
            }
            cur = next;
        }
        false
    }

    /// Unlink `idx` and gather its key and column cells into `out`
    /// (dropping what `out` held), leaving the slot blank at every gate.
    /// A cell holds anything only where an instance is bound, so only
    /// those columns are touched; nothing is allocated.
    fn evict(&mut self, idx: u32, out: &mut EvictedFlow<V>) {
        self.unlink(idx);
        let i = idx as usize;
        let r = &mut self.records[i];
        r.live = false;
        out.fix = FlowIndex(idx);
        out.key = r.key;
        for g in 0..self.cfg.gates {
            let (filter, instance, soft) = if r.is_bound(g) {
                let cell = &mut self.cells[g][i];
                (Some(cell.filter), cell.instance.take(), cell.soft.take())
            } else {
                (None, None, None)
            };
            out.gates.instances[g] = instance;
            out.gates.filters[g] = filter;
            out.gates.soft[g] = soft;
        }
        r.bound = 0;
        self.stats.live -= 1;
    }

    /// An empty [`EvictedFlow`] shaped for this table's records: the slot
    /// [`Self::lookup_or_insert`] parks a recycled flow in.
    pub fn parked(&self) -> EvictedFlow<V> {
        EvictedFlow {
            fix: FlowIndex(0),
            key: FlowKey::default(),
            gates: GateArray::new(self.cfg.gates),
        }
    }

    /// Remove a cached flow explicitly (e.g. when its filter is removed),
    /// returning its bindings for eviction callbacks.
    pub fn remove(&mut self, fix: FlowIndex) -> Option<EvictedFlow<V>> {
        let idx = fix.0;
        if !self.records.get(idx as usize)?.live {
            return None;
        }
        let mut out = self.parked();
        self.evict(idx, &mut out);
        self.free.push(idx);
        Some(out)
    }

    /// Drop every cached flow whose key matches `spec` (the AIU calls
    /// this when a *new* filter is installed: cached flows it matches may
    /// now classify differently and must be re-resolved on their next
    /// packet). Returns the evicted flows.
    pub fn invalidate_matching(&mut self, spec: &crate::filter::FilterSpec) -> Vec<EvictedFlow<V>> {
        self.invalidate_where(|r| spec.matches(&r.key()))
    }

    /// Drop every cached flow derived from `filter` at `gate` (the AIU
    /// calls this when a filter is removed — paper §4,
    /// `deregister_instance` semantics). Returns the evicted flows.
    pub fn invalidate_filter(&mut self, gate: usize, filter: FilterId) -> Vec<EvictedFlow<V>> {
        self.invalidate_where(|r| r.filter(gate) == Some(filter))
    }

    /// Drop every cached flow for which `pred` holds (the router calls
    /// this when it quarantines a faulted plugin instance: any record
    /// still binding that instance at *any* gate must be re-resolved so
    /// its flows fall back to the gate's default path). Returns the
    /// evicted flows, in slot order — one pass: removing a record moves
    /// no other.
    pub fn invalidate_where(
        &mut self,
        mut pred: impl FnMut(&FlowView<'_, V>) -> bool,
    ) -> Vec<EvictedFlow<V>> {
        let mut out = Vec::new();
        for i in 0..self.records.len() {
            if self.record(FlowIndex(i as u32)).is_some_and(|r| pred(&r)) {
                out.extend(self.remove(FlowIndex(i as u32)));
            }
        }
        out
    }

    /// Access a live record, and its gates' cells, by FIX.
    pub fn record(&self, fix: FlowIndex) -> Option<FlowView<'_, V>> {
        let slot = fix.0 as usize;
        let record = self.records.get(slot).filter(|r| r.live)?;
        Some(FlowView {
            record,
            cells: &self.cells,
            slot,
        })
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Number of live flows.
    pub fn live(&self) -> usize {
        self.stats.live
    }
}

/// Bindings of a removed/recycled flow, handed back for plugin callbacks.
pub struct EvictedFlow<V> {
    /// The record it held, free for the next flow.
    pub fix: FlowIndex,
    /// The evicted flow's key.
    pub key: FlowKey,
    /// Its per-gate bindings (instances + soft state); consume them with
    /// [`GateArray::drain`].
    pub gates: GateArray<V>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_packet::FlowTuple;
    use std::net::{IpAddr, Ipv4Addr};

    fn key(i: u32) -> FlowKey {
        FlowKey::of(&FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | i)),
            dst: IpAddr::V4(Ipv4Addr::from(0x1400_0000 | i)),
            proto: 17,
            sport: (i % 60000) as u16,
            dport: 80,
            rx_if: 0,
        })
    }

    /// What one packet of a flow found in the table.
    struct Arrival {
        /// The flow's record (`None`: admission denied).
        fix: Option<FlowIndex>,
        hit: bool,
        /// The flow recycled to make room.
        evicted: Option<FlowKey>,
    }

    fn arrive(t: &mut FlowTable<u32>, k: FlowKey) -> Arrival {
        let mut parked = t.parked();
        let (fix, hit, recycled) = match t.lookup_or_insert(&k, key_hash(&k), &mut parked) {
            Admit::Hit(fix) => (Some(fix), true, false),
            Admit::New { fix, recycled, .. } => (Some(fix), false, recycled),
            Admit::Denied => (None, false, false),
        };
        Arrival {
            fix,
            hit,
            evicted: recycled.then_some(parked.key),
        }
    }

    /// First packet of a flow that must get a record.
    fn insert(t: &mut FlowTable<u32>, k: FlowKey) -> FlowIndex {
        let a = arrive(t, k);
        assert!(!a.hit, "flow already cached");
        a.fix.expect("insert denied")
    }

    fn small() -> FlowTable<u32> {
        FlowTable::new(FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            gates: 2,
            max_idle_ns: 0,
            lru_evict: false,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small();
        let first = arrive(&mut t, key(1));
        assert!(!first.hit && first.evicted.is_none());
        let second = arrive(&mut t, key(1));
        assert!(second.hit);
        assert_eq!(second.fix, first.fix);
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn bindings_round_trip() {
        let mut t = small();
        let fix = insert(&mut t, key(1));
        assert!(t.binding_mut(fix, 0).is_none(), "nothing bound yet");
        assert_eq!(t.bound_mask(fix), 0);
        // Filter 0 is a filter, not "none".
        t.bind(fix, 0, 77, FilterId(0));
        assert_eq!(t.bound_mask(fix), 0b01);
        *t.binding_mut(fix, 0).unwrap().2 = Some(Box::new("queue".to_string()));
        let r = t.record(fix).unwrap();
        assert_eq!(r.instance(0), Some(&77));
        assert_eq!(r.filter(0), Some(FilterId(0)));
        assert!(r.instance(1).is_none() && r.filter(1).is_none());
        assert!(t.binding_mut(fix, 1).is_none());
        assert!(t.binding_mut(fix, MAX_GATES).is_none(), "no such gate");
        // Eviction hands the binding back and leaves the slot blank.
        let ev = t.remove(fix).unwrap();
        assert_eq!(t.bound_mask(fix), 0, "a free slot binds nothing");
        assert_eq!(ev.gates.len(), 2);
        assert_eq!(
            ev.gates.soft(0).unwrap().downcast_ref::<String>().unwrap(),
            "queue"
        );
        assert!(ev.gates.soft(1).is_none());
        assert_eq!(insert(&mut t, key(2)), fix, "slot reused");
        assert!(t.binding_mut(fix, 0).is_none());
        let r = t.record(fix).unwrap();
        assert!(r.instance(0).is_none() && r.filter(0).is_none());
        t.bind(fix, 0, 78, FilterId(1));
        assert!(t.binding_mut(fix, 0).unwrap().2.is_none(), "stale state");
    }

    /// A recycled slot hands its instance back with the evicted flow and
    /// shows the next flow none: the cell keeps nothing from a gate its
    /// new flow did not match.
    #[test]
    fn a_recycled_slot_shows_no_stale_instance() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            initial_records: 1,
            max_records: 1,
            gates: 3,
            ..small().cfg
        });
        let fix = insert(&mut t, key(1));
        t.bind(fix, 2, 7, FilterId(4));
        let mut parked = t.parked();
        let Admit::New {
            fix: again,
            recycled,
        } = t.lookup_or_insert(&key(2), key_hash(&key(2)), &mut parked)
        else {
            panic!("a full table recycles");
        };
        assert!(recycled && again == fix, "the one slot recycled");
        let back: Vec<_> = parked
            .gates
            .drain()
            .map(|b| (b.instance, b.filter))
            .collect();
        assert_eq!(
            back,
            [(None, None), (None, None), (Some(7), Some(FilterId(4)))]
        );
        let r = t.record(fix).unwrap();
        assert_eq!((r.instance(2), r.filter(2)), (None, None));
        assert_eq!(r.instances().count(), 0);
        assert!(t.binding_mut(fix, 2).is_none());
        t.bind(fix, 0, 8, FilterId(5));
        let r = t.record(fix).unwrap();
        assert_eq!(r.instances().collect::<Vec<_>>(), [&8]);
        assert!(r.instance(2).is_none());
    }

    /// Each slot of capacity costs 64 + 8 + 32 per *enabled* gate.
    #[test]
    fn memory_is_every_slab_and_a_column_per_enabled_gate() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            initial_records: 16,
            max_records: 64,
            gates: 6,
            ..small().cfg
        });
        let fixed = |t: &FlowTable<u32>| (64 + t.free.capacity()) * 4;
        assert_eq!(t.approx_mem_bytes(), 16 * (64 + 8) + fixed(&t));
        t.enable_gate(2);
        assert_eq!(t.approx_mem_bytes(), 16 * 104 + fixed(&t));
        // Growth extends the materialised column and no other.
        for i in 0..40 {
            insert(&mut t, key(i));
        }
        let cols = |t: &FlowTable<u32>| t.cells.each_ref().map(Vec::len);
        assert_eq!(cols(&t), [0, 0, 64, 0, 0, 0, 0, 0]);
        assert_eq!(t.approx_mem_bytes(), 64 * 104 + fixed(&t));
        // Enabling a gate under live records materialises exactly its
        // column, to the slab's length; a raw `bind` does the same.
        t.enable_gate(0);
        assert_eq!(cols(&t), [64, 0, 64, 0, 0, 0, 0, 0]);
        t.bind(FlowIndex(3), 5, 9, FilterId(1));
        assert_eq!(cols(&t), [64, 0, 64, 0, 0, 64, 0, 0]);
        for g in [1, 3, 4] {
            t.enable_gate(g);
        }
        assert_eq!(t.approx_mem_bytes(), 64 * 264 + fixed(&t));
    }

    #[test]
    fn exponential_growth_then_recycling() {
        let mut t = small(); // 4 initial, max 8
        for i in 0..8 {
            insert(&mut t, key(i));
        }
        assert_eq!(t.stats().allocated, 8);
        assert_eq!(t.live(), 8);
        // Ninth insert recycles the oldest (key 0).
        let ev = arrive(&mut t, key(100)).evicted;
        assert_eq!(ev.expect("must recycle"), key(0));
        assert_eq!(t.live(), 8);
        assert!(t.peek(&key(0)).is_none());
        assert!(t.peek(&key(100)).is_some());
        assert_eq!(t.stats().recycled, 1);
    }

    #[test]
    fn chains_survive_unlink() {
        // Force collisions with a single bucket (max_buckets: 0 pins the
        // array so incremental resize can't break the chains apart).
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 1,
            max_buckets: 0,
            initial_records: 4,
            max_records: 16,
            gates: 1,
            max_idle_ns: 0,
            lru_evict: false,
        });
        let f1 = insert(&mut t, key(1));
        insert(&mut t, key(2));
        insert(&mut t, key(3));
        // Remove the middle of the chain.
        t.remove(f1).unwrap();
        assert!(t.peek(&key(1)).is_none());
        assert!(t.peek(&key(2)).is_some());
        assert!(t.peek(&key(3)).is_some());
        // Reuse the freed slot.
        let f4 = insert(&mut t, key(4));
        assert!(t.peek(&key(4)) == Some(f4));
    }

    #[test]
    fn invalidate_filter_drops_derived_flows() {
        let mut t = small();
        for i in 0..3 {
            let fix = insert(&mut t, key(i));
            t.bind(fix, 1, i, FilterId(if i == 1 { 9 } else { 5 }));
        }
        let evicted = t.invalidate_filter(1, FilterId(5));
        assert_eq!(evicted.len(), 2);
        assert!(t.peek(&key(1)).is_some());
        assert!(t.peek(&key(0)).is_none());
        assert!(t.peek(&key(2)).is_none());
    }

    #[test]
    fn invalidate_where_drops_matching_records() {
        let mut t = small();
        for i in 0..4 {
            let fix = insert(&mut t, key(i));
            // Bind instance 7 at gate 0 for even flows only.
            if i % 2 == 0 {
                t.bind(fix, 0, 7, FilterId(0));
            }
        }
        let evicted = t.invalidate_where(|r| r.instances().any(|v| *v == 7));
        assert_eq!(evicted.len(), 2);
        assert!(t.peek(&key(0)).is_none());
        assert!(t.peek(&key(1)).is_some());
        assert!(t.peek(&key(2)).is_none());
        assert!(t.peek(&key(3)).is_some());
        // Idempotent once the matching records are gone.
        assert!(t
            .invalidate_where(|r| r.instances().any(|v| *v == 7))
            .is_empty());
    }

    #[test]
    fn hash_spreads() {
        // Distinct flows should not all collide: over 1000 keys and 256
        // buckets, expect a reasonable spread.
        let mut buckets = vec![0u32; 256];
        for i in 0..1000 {
            buckets[(key_hash(&key(i)) as usize) % 256] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 30, "worst bucket has {max} of 1000 keys");
        let empty = buckets.iter().filter(|b| **b == 0).count();
        assert!(empty < 30, "{empty} of 256 buckets empty");
    }

    #[test]
    fn hash_depends_on_each_field() {
        let base = key(1).tuple();
        let h = key_hash(&key(1));
        let hash = |t: &FlowTuple| key_hash(&FlowKey::of(t));
        let mut t = base;
        t.sport ^= 1;
        assert_ne!(hash(&t), h);
        let mut t = base;
        t.dport ^= 1;
        assert_ne!(hash(&t), h);
        let mut t = base;
        t.proto ^= 1;
        assert_ne!(hash(&t), h);
        let mut t = base;
        t.src = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
        assert_ne!(hash(&t), h);
        let mut t = base;
        t.rx_if ^= 1;
        assert_ne!(hash(&t), h);
    }

    #[test]
    fn idle_expiry() {
        let mut t = small();
        t.set_now(0);
        let f1 = insert(&mut t, key(1));
        t.set_now(1_000_000);
        insert(&mut t, key(2));
        // Touch flow 1 at t=2ms: refreshes its idle timer.
        t.set_now(2_000_000);
        assert_eq!(arrive(&mut t, key(1)).fix, Some(f1));
        // At t=2.5ms with 1ms max idle: flow 2 (last used at 1ms) dies,
        // flow 1 (used at 2ms) survives.
        t.set_now(2_500_000);
        let mut evicted = Vec::new();
        assert_eq!(t.expire_idle_into(1_000_000, &mut evicted), 1);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(2));
        assert!(t.peek(&key(1)).is_some());
        assert!(t.peek(&key(2)).is_none());
        // Expiring again is a no-op.
        evicted.clear();
        assert_eq!(t.expire_idle_into(1_000_000, &mut evicted), 0);
        assert!(evicted.is_empty());
    }

    fn defended() -> FlowTable<u32> {
        FlowTable::new(FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            gates: 2,
            max_idle_ns: 1_000_000,
            lru_evict: false,
        })
    }

    #[test]
    fn admission_denies_when_full_of_busy_flows() {
        let mut t = defended();
        t.set_now(10_000_000);
        for i in 0..8 {
            insert(&mut t, key(i));
        }
        // All 8 records were used "now": nothing is idle, so the flood
        // flow is denied and every established record survives.
        let before = t.stats();
        assert!(arrive(&mut t, key(100)).fix.is_none());
        assert_eq!(t.stats().denied, before.denied + 1);
        assert_eq!(t.live(), 8);
        for i in 0..8 {
            assert!(t.peek(&key(i)).is_some(), "established flow {i} evicted");
        }
        assert!(t.peek(&key(100)).is_none());
    }

    #[test]
    fn admission_reclaims_idle_inline() {
        let mut t = defended();
        t.set_now(0);
        for i in 0..8 {
            insert(&mut t, key(i));
        }
        // Refresh all but flow 3, then advance past the idle window.
        t.set_now(6_000_000);
        for i in 0..8 {
            if i != 3 {
                arrive(&mut t, key(i));
            }
        }
        t.set_now(6_500_000);
        let a = arrive(&mut t, key(200));
        assert!(a.fix.is_some(), "idle record reclaimable");
        let ev = a.evicted.expect("reclaim returns the evicted flow");
        assert_eq!(ev, key(3), "only the idle flow is reclaimable");
        assert_eq!(t.stats().inline_expired, 1);
        assert_eq!(t.stats().recycled, 0, "inline expiry is not recycling");
        assert!(t.peek(&key(200)).is_some());
        // Now every record is busy again → next insert is denied.
        assert!(arrive(&mut t, key(201)).fix.is_none());
    }

    #[test]
    fn lru_evicts_coldest_instead_of_denying() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            gates: 2,
            max_idle_ns: 1_000_000,
            lru_evict: true,
        });
        t.set_now(0);
        for i in 0..8 {
            insert(&mut t, key(i));
        }
        // Touch everything recently — but flow 5 least recently — with all
        // records inside the idle window, so idle reclaim finds nothing.
        t.set_now(10_000_000);
        arrive(&mut t, key(5));
        t.set_now(10_500_000);
        for i in 0..8 {
            if i != 5 {
                arrive(&mut t, key(i));
            }
        }
        t.set_now(10_600_000);
        let a = arrive(&mut t, key(300));
        assert!(a.fix.is_some(), "LRU eviction, not denial");
        let ev = a.evicted.expect("eviction returns the coldest flow");
        assert_eq!(ev, key(5), "coldest record is the LRU victim");
        let s = t.stats();
        assert_eq!(s.evicted_lru, 1);
        assert_eq!(s.denied, 0);
        assert_eq!(s.inline_expired, 0, "nothing was idle");
        assert!(t.peek(&key(300)).is_some());
        assert_eq!(t.live(), 8);
    }

    #[test]
    fn incremental_resize_preserves_every_flow() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 8,
            max_buckets: 1024,
            initial_records: 4,
            max_records: 4096,
            gates: 1,
            max_idle_ns: 0,
            lru_evict: false,
        });
        const N: u32 = 700;
        for i in 0..N {
            insert(&mut t, key(i));
            // Every already-inserted flow stays reachable mid-migration.
            if i % 97 == 0 {
                for j in (0..=i).step_by(61) {
                    assert!(t.peek(&key(j)).is_some(), "flow {j} lost at insert {i}");
                }
            }
        }
        assert!(t.stats().resize_steps > 0, "resize never ran");
        assert!(t.bucket_count() > 8, "bucket array never grew");
        assert_eq!(t.live(), N as usize);
        for i in 0..N {
            assert!(arrive(&mut t, key(i)).hit, "flow {i} lost after resize");
        }
        // Drive any in-flight migration to completion with lookups only.
        let mut guard = 0;
        while t.resizing() {
            arrive(&mut t, key(0));
            guard += 1;
            assert!(guard < 100_000, "migration never completes");
        }
        assert_eq!(t.bucket_count(), 1024);
        for i in 0..N {
            assert!(t.peek(&key(i)).is_some(), "flow {i} lost post-migration");
        }
    }

    #[test]
    fn removal_mid_resize_unlinks_from_correct_chain() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 2,
            max_buckets: 256,
            initial_records: 4,
            max_records: 512,
            gates: 1,
            max_idle_ns: 0,
            lru_evict: false,
        });
        let mut fixes = Vec::new();
        for i in 0..64 {
            fixes.push(insert(&mut t, key(i)));
        }
        assert!(t.resizing() || t.stats().resize_steps > 0);
        // Remove every third flow — some still sit in old-array chains.
        for (i, fix) in fixes.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(*fix).is_some(), "flow {i} missing");
            }
        }
        for i in 0..64u32 {
            let present = t.peek(&key(i)).is_some();
            assert_eq!(present, i % 3 != 0, "flow {i} wrong presence");
        }
        assert_eq!(t.live(), 64 - 22);
    }

    #[test]
    fn expire_idle_into_reuses_buffer() {
        let mut t = small();
        t.set_now(0);
        insert(&mut t, key(1));
        insert(&mut t, key(2));
        t.set_now(2_000_000);
        arrive(&mut t, key(1));
        t.set_now(2_500_000);
        let mut scratch = Vec::with_capacity(4);
        let n = t.expire_idle_into(1_000_000, &mut scratch);
        assert_eq!(n, 1);
        assert_eq!(scratch.len(), 1);
        assert_eq!(scratch[0].key, key(2));
        // Drain and reuse: the buffer keeps its capacity, and a second
        // sweep with nothing idle appends nothing.
        scratch.clear();
        assert_eq!(t.expire_idle_into(1_000_000, &mut scratch), 0);
        assert!(scratch.is_empty());
    }

    /// The default configuration (`max_idle_ns: 0`, `lru_evict: false`)
    /// at its 65 536-record cap: a new flow costs a bounded advance of
    /// the hand, not a sweep of the slab.
    #[test]
    fn a_full_default_table_admits_a_new_flow_in_bounded_work() {
        let mut t: FlowTable<u32> = FlowTable::new(FlowTableConfig::default());
        const CAP: u32 = 65_536;
        for i in 0..CAP {
            insert(&mut t, key(i));
        }
        // Every other established flow is in use, so the hand has records
        // to pass over, not only records to take.
        for i in (0..CAP).step_by(2) {
            assert!(arrive(&mut t, key(i)).hit);
        }
        let mut advanced = 0;
        for i in 0..2000 {
            let before = t.hand;
            assert!(arrive(&mut t, key(CAP + i)).evicted.is_some());
            let step = (t.hand + CAP as usize - before) % CAP as usize;
            assert!((1..=RECLAIM_SCAN).contains(&step), "hand moved {step}");
            advanced += step;
        }
        assert!(advanced <= RECLAIM_SCAN * 2000);
        let s = t.stats();
        assert_eq!((s.recycled, s.live), (2000, CAP as usize));
        assert_eq!((s.evicted_lru, s.inline_expired, s.denied), (0, 0, 0));
    }

    /// A window in which every record was hit since the hand's last pass
    /// costs each of them its second chance and the least recently used
    /// its record; the next victim is then the hand's first.
    #[test]
    fn a_fully_referenced_window_falls_back_to_its_coldest() {
        let mut t = small();
        for i in 0..8 {
            insert(&mut t, key(i));
        }
        for (now, i) in [3, 1, 0, 2, 7, 6, 5, 4].into_iter().enumerate() {
            t.set_now(now as u64);
            arrive(&mut t, key(i));
        }
        assert_eq!(arrive(&mut t, key(100)).evicted, Some(key(3)));
        // All flags are spent and the hand is back at slot 0.
        assert_eq!(arrive(&mut t, key(101)).evicted, Some(key(0)));
        assert_eq!(t.stats().recycled, 2);
    }

    #[test]
    fn stale_fix_rejected() {
        let mut t = small();
        let fix = insert(&mut t, key(1));
        t.remove(fix).unwrap();
        assert!(t.record(fix).is_none());
        assert!(t.remove(fix).is_none());
    }
}
