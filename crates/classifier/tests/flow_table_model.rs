//! Model-based property tests for the flow cache: random
//! lookup/insert/bind/remove/invalidate/clock interleavings against a
//! slot-exact reference model of the second-chance clock and of every
//! slot's per-gate bindings, under every admission configuration;
//! conservation under churn and incremental resize; the eviction quality
//! the clock exists for; and the word key's hash and equality against
//! the tuple they replaced.

use proptest::prelude::*;
use rp_classifier::flow_table::{key_hash, Admit, EvictedFlow, FlowTable, FlowTableConfig};
use rp_classifier::{FilterId, FilterSpec, PortMatch};
use rp_packet::mbuf::FlowIndex;
use rp_packet::{FlowKey, FlowTuple};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Flow `i` of the key space. Families mix: v6 → v6, v4 → v4 and
/// v4 → v6 flows in turn, and the v6 sources are IPv4 look-alikes
/// (`a.b.c.d::`, words 1–3 zero).
fn tuple(i: u16) -> FlowTuple {
    let word = 0x2001_0000 | u32::from(i + 1);
    let v6 = IpAddr::V6(Ipv6Addr::from(u128::from(word) << 96));
    let v4 = IpAddr::V4(Ipv4Addr::from(word));
    let (src, dst) = match i % 3 {
        0 => (v6, "2001:db8::ffff".parse().unwrap()),
        1 => (v4, "192.0.2.255".parse().unwrap()),
        _ => (v4, "2001:db8::ffff".parse().unwrap()),
    };
    FlowTuple {
        src,
        dst,
        proto: 17,
        sport: 1000 + i,
        dport: 80,
        rx_if: 0,
    }
}

fn key(i: u16) -> FlowKey {
    FlowKey::of(&tuple(i))
}

/// One gate of a flow as the test sees it: the bound instance, the filter
/// it derives from, and the token a "plugin" left as soft state.
type Binding = (Option<u32>, Option<FilterId>, Option<u32>);

/// A flow that left the table, with everything it handed back.
#[derive(Debug, PartialEq)]
struct Gone {
    key: FlowKey,
    gates: Vec<Binding>,
}

fn gone(ev: &mut EvictedFlow<u32>) -> Gone {
    let token = |s: Box<dyn std::any::Any + Send>| *s.downcast::<u32>().expect("a token");
    Gone {
        key: ev.key,
        gates: ev
            .gates
            .drain()
            .map(|g| (g.instance, g.filter, g.soft_state.map(token)))
            .collect(),
    }
}

/// What one packet of a flow found in the table.
#[derive(Debug, PartialEq)]
enum Arrival {
    Hit(FlowIndex),
    /// A fresh record, and the flow recycled to make room for it.
    New(FlowIndex, Option<Gone>),
    Denied,
}

fn arrive(table: &mut FlowTable<u32>, k: &FlowKey) -> Arrival {
    let mut parked = table.parked();
    match table.lookup_or_insert(k, key_hash(k), &mut parked) {
        Admit::Hit(fix) => Arrival::Hit(fix),
        Admit::New { fix, recycled } => Arrival::New(fix, recycled.then(|| gone(&mut parked))),
        Admit::Denied => Arrival::Denied,
    }
}

/// Cached-path packet: counted only when the flow is live, never inserts.
fn touch(table: &mut FlowTable<u32>, k: &FlowKey) -> bool {
    table.peek(k).is_some() && matches!(arrive(table, k), Arrival::Hit(_))
}

/// The hand's reach per at-cap insert (`RECLAIM_SCAN`).
const WINDOW: usize = 64;

/// Gates of the modelled table. Nothing enables one up front: a column
/// appears when an `Enable` or the first `Bind` at its gate comes along,
/// often after slots have been used and recycled.
const GATES: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u16,
    last_used: u64,
    seq: u64,
    referenced: bool,
    gates: [Binding; GATES],
}

/// The specification, slot for slot: records sit where the table put
/// them (learned from the `FlowIndex` of every insert below the cap), a
/// hit sets `referenced`, and a full table advances a hand over at most
/// `WINDOW` slots — taking the first idle record, else (unless admission
/// is idle-only) the first unreferenced one, clearing the flags it
/// passes; a window of referenced records yields its least recently used
/// (oldest first among equals), or a denial.
struct Model {
    slots: Vec<Option<Slot>>,
    hand: usize,
    max_idle_ns: u64,
    lru_evict: bool,
    now: u64,
    seq: u64,
    recycled: u64,
    evicted_lru: u64,
    inline_expired: u64,
    denied: u64,
}

impl Model {
    fn new(max: usize, max_idle_ns: u64, lru_evict: bool) -> Self {
        Model {
            slots: vec![None; max],
            hand: 0,
            max_idle_ns,
            lru_evict,
            now: 0,
            seq: 0,
            recycled: 0,
            evicted_lru: 0,
            inline_expired: 0,
            denied: 0,
        }
    }

    fn slot_of(&self, k: u16) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.is_some_and(|s| s.key == k))
    }

    fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn hit(&mut self, slot: usize) {
        let s = self.slots[slot].as_mut().expect("hit on a live slot");
        s.last_used = self.now;
        s.referenced = true;
    }

    fn fill(&mut self, slot: usize, k: u16) {
        self.slots[slot] = Some(Slot {
            key: k,
            last_used: self.now,
            seq: self.seq,
            referenced: false,
            gates: [(None, None, None); GATES],
        });
        self.seq += 1;
    }

    /// Free `slot`: what the table must hand back for it.
    fn take(&mut self, slot: usize) -> Gone {
        let s = self.slots[slot].take().expect("a live slot");
        Gone {
            key: key(s.key),
            gates: s.gates.to_vec(),
        }
    }

    /// Free every slot `pred` holds for, in slot order — a sweep.
    fn sweep(&mut self, pred: impl Fn(&Slot) -> bool) -> Vec<Gone> {
        (0..self.slots.len())
            .filter_map(|i| {
                let hit = self.slots[i].as_ref().is_some_and(&pred);
                hit.then(|| self.take(i))
            })
            .collect()
    }

    /// The full table's victim slot, `None` for a denial.
    fn reclaim(&mut self) -> Option<usize> {
        let n = self.slots.len();
        let cutoff = (self.max_idle_ns > 0).then(|| self.now.saturating_sub(self.max_idle_ns));
        let evicts_busy = self.lru_evict || cutoff.is_none();
        let mut passed: Vec<(u64, u64, usize)> = Vec::new();
        let mut victim = None;
        for _ in 0..WINDOW.min(n) {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            let s = self.slots[i]
                .as_mut()
                .expect("a full table has no free slot");
            if cutoff.is_some_and(|c| s.last_used < c) {
                self.inline_expired += 1;
                return Some(i);
            }
            if !evicts_busy {
                continue;
            }
            if !s.referenced {
                victim = Some(i);
                break;
            }
            s.referenced = false;
            passed.push((s.last_used, s.seq, i));
        }
        let victim = victim.or_else(|| passed.iter().min().map(|p| p.2));
        match victim {
            Some(_) if self.lru_evict => self.evicted_lru += 1,
            Some(_) => self.recycled += 1,
            None => self.denied += 1,
        }
        victim
    }
}

fn gones(evicted: Vec<EvictedFlow<u32>>) -> Vec<Gone> {
    evicted.into_iter().map(|mut ev| gone(&mut ev)).collect()
}

/// A record just handed to flow `k` reads back `k`'s tuple and blank at
/// every gate, whoever held the slot before.
fn assert_blank(table: &mut FlowTable<u32>, fix: FlowIndex, k: u16) {
    assert_eq!(table.record(fix).map(|r| r.key()), Some(key(k)));
    for g in 0..GATES {
        assert!(table.binding_mut(fix, g).is_none(), "gate {g} bound");
        let r = table.record(fix).expect("a live record");
        assert_eq!((r.instance(g), r.filter(g)), (None, None), "gate {g}");
    }
}

/// One packet of flow `k`: table and model must agree on what it found,
/// slot for slot and victim for victim.
fn packet(table: &mut FlowTable<u32>, model: &mut Model, k: u16) {
    let got = arrive(table, &key(k));
    if let Some(slot) = model.slot_of(k) {
        assert_eq!(got, Arrival::Hit(FlowIndex(slot as u32)), "hit for {k}");
        model.hit(slot);
    } else if model.live() < model.slots.len() {
        // Below the cap the table picks the slot; it must be one the
        // model holds free.
        let Arrival::New(fix, None) = got else {
            panic!("{k}: expected a free record, got {got:?}");
        };
        assert!(
            model.slots[fix.0 as usize].is_none(),
            "slot {} in use",
            fix.0
        );
        model.fill(fix.0 as usize, k);
        assert_blank(table, fix, k);
    } else if let Some(slot) = model.reclaim() {
        let fix = FlowIndex(slot as u32);
        let expected = Arrival::New(fix, Some(model.take(slot)));
        assert_eq!(got, expected, "victim for {k}");
        model.fill(slot, k);
        assert_blank(table, fix, k);
    } else {
        assert_eq!(got, Arrival::Denied, "admission for {k}");
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A packet of any flow of the key space.
    Classify(u16),
    /// A packet of one of as many established flows as the table holds
    /// records.
    Established(u16),
    /// A packet of every established flow: a full table of referenced
    /// records is what sends the hand to its fallback.
    AllEstablished,
    Remove(u16),
    Advance(u32),
    /// Materialise a gate's soft-state column (`Aiu::install_filter`).
    Enable(usize),
    /// The miss path resolving (flow, gate) to (instance, filter).
    Bind(u16, usize, u32, u64),
    /// A plugin call at (flow, gate): reads the binding, leaves a token.
    Soft(u16, usize, u32),
    Expire,
    /// Invalidate flows with a source port in `lo..=lo + span`.
    InvalidateMatching(u16, u16),
    InvalidateFilter(usize, u64),
    /// Invalidate flows binding an instance at any gate.
    InvalidateWhere(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let bind = || {
        (any::<u16>(), 0..GATES, 0u32..4, 0u64..4)
            .prop_map(|(k, g, inst, filter)| Op::Bind(k, g, inst, filter))
    };
    let soft = || (any::<u16>(), 0..GATES, any::<u32>()).prop_map(|(k, g, t)| Op::Soft(k, g, t));
    // Repeats are weights: traffic and bindings outnumber the sweeps, so
    // the table still spends most of its time at the cap.
    prop_oneof![
        any::<u16>().prop_map(Op::Classify),
        any::<u16>().prop_map(Op::Classify),
        any::<u16>().prop_map(Op::Established),
        any::<u16>().prop_map(Op::Established),
        any::<u16>().prop_map(Op::Established),
        any::<u16>().prop_map(Op::Established),
        Just(Op::AllEstablished),
        Just(Op::AllEstablished),
        any::<u16>().prop_map(Op::Remove),
        any::<u16>().prop_map(Op::Remove),
        (1u32..1_500_000).prop_map(Op::Advance),
        (1u32..1_500_000).prop_map(Op::Advance),
        bind(),
        bind(),
        bind(),
        soft(),
        soft(),
        soft(),
        (0..GATES).prop_map(Op::Enable),
        Just(Op::Expire),
        (0u16..240, 0u16..4).prop_map(|(lo, span)| Op::InvalidateMatching(lo, span)),
        (0..GATES, 0u64..4).prop_map(|(g, filter)| Op::InvalidateFilter(g, filter)),
        (0u32..4).prop_map(Op::InvalidateWhere),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_reference_model(
        ops in prop::collection::vec(arb_op(), 1..700),
        // Smaller and larger than the hand's window.
        size in prop_oneof![Just((8usize, 40u16)), Just((96usize, 240u16))],
        // Recycle, idle-only admission, and eviction with and without an
        // idle window.
        admission in prop_oneof![
            Just((0u64, false)),
            Just((1_000_000u64, false)),
            Just((0u64, true)),
            Just((1_000_000u64, true)),
        ],
    ) {
        let ((max, keys), (max_idle_ns, lru_evict)) = (size, admission);
        let mut table: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 16, // deliberately tiny: long chains get exercised
            max_buckets: 0,
            initial_records: 2,
            max_records: max,
            gates: GATES,
            max_idle_ns,
            lru_evict,
        });
        let mut model = Model::new(max, max_idle_ns, lru_evict);
        const IDLE_NS: u64 = 1_000_000;

        for op in ops {
            match op {
                Op::Classify(k) => packet(&mut table, &mut model, k % keys),
                Op::Established(k) => packet(&mut table, &mut model, k % max as u16),
                Op::AllEstablished => {
                    for k in 0..max as u16 {
                        packet(&mut table, &mut model, k);
                    }
                }
                Op::Remove(k) => {
                    let k = k % keys;
                    if let Some(slot) = model.slot_of(k) {
                        let mut ev = table.remove(FlowIndex(slot as u32));
                        let expected = Some(model.take(slot));
                        prop_assert_eq!(ev.as_mut().map(gone), expected, "remove live {}", k);
                    } else if let Some(free) = model.slots.iter().position(Option::is_none) {
                        // Stale FIX: removing a free slot is a no-op.
                        prop_assert!(table.remove(FlowIndex(free as u32)).is_none());
                    }
                }
                Op::Advance(dt) => {
                    model.now += u64::from(dt);
                    table.set_now(model.now);
                }
                Op::Enable(g) => table.enable_gate(g),
                Op::Bind(k, g, inst, filter) => {
                    if let Some(slot) = model.slot_of(k % keys) {
                        table.bind(FlowIndex(slot as u32), g, inst, FilterId(filter));
                        let b = &mut model.slots[slot].as_mut().unwrap().gates[g];
                        // A rebind keeps the gate's soft state.
                        (b.0, b.1) = (Some(inst), Some(FilterId(filter)));
                    }
                }
                Op::Soft(k, g, token) => {
                    if let Some(slot) = model.slot_of(k % keys) {
                        let (inst, filter, soft) = &mut model.slots[slot].as_mut().unwrap().gates[g];
                        let got = table.binding_mut(FlowIndex(slot as u32), g);
                        prop_assert_eq!(got.is_some(), inst.is_some(), "bound at {}", g);
                        if let Some((i, f, s)) = got {
                            let held = s.as_ref().map(|s| *s.downcast_ref::<u32>().unwrap());
                            prop_assert_eq!((Some(*i), f, held), (*inst, *filter, *soft));
                            *s = Some(Box::new(token));
                            *soft = Some(token);
                        }
                    }
                }
                Op::Expire => {
                    let mut out = Vec::new();
                    table.expire_idle_into(IDLE_NS, &mut out);
                    let cutoff = model.now.saturating_sub(IDLE_NS);
                    prop_assert_eq!(gones(out), model.sweep(|s| s.last_used < cutoff));
                }
                Op::InvalidateMatching(lo, span) => {
                    let spec = FilterSpec {
                        sport: PortMatch::Range(1000 + lo, 1000 + lo + span),
                        ..FilterSpec::any()
                    };
                    let got = table.invalidate_matching(&spec);
                    prop_assert_eq!(gones(got), model.sweep(|s| (lo..=lo + span).contains(&s.key)));
                }
                Op::InvalidateFilter(g, filter) => {
                    let got = table.invalidate_filter(g, FilterId(filter));
                    let want = model.sweep(|s| s.gates[g].1 == Some(FilterId(filter)));
                    prop_assert_eq!(gones(got), want);
                }
                Op::InvalidateWhere(inst) => {
                    let got = table.invalidate_where(|r| r.instances().any(|v| *v == inst));
                    let want = model.sweep(|s| s.gates.iter().any(|b| b.0 == Some(inst)));
                    prop_assert_eq!(gones(got), want);
                }
            }
            prop_assert_eq!(table.live(), model.live());
            prop_assert!(table.live() <= max);
        }
        for k in 0..keys {
            prop_assert_eq!(table.peek(&key(k)).is_some(), model.slot_of(k).is_some(), "final {}", k);
        }
        let s = table.stats();
        prop_assert!(s.allocated <= max);
        prop_assert_eq!(
            (s.recycled, s.evicted_lru, s.inline_expired, s.denied),
            (model.recycled, model.evicted_lru, model.inline_expired, model.denied)
        );
    }
}

// ---------------------------------------------------------------------
// Churn conservation under admission control: random interleavings of
// insert / touch / clock-advance / expire / invalidate never lose track
// of a record and never expire a recently-touched flow.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    /// Classify-style arrival: lookup, then admission-controlled insert
    /// on miss.
    Arrive(u16),
    /// Cached-path hit (refreshes the idle timer when live).
    Touch(u16),
    /// Advance the table clock.
    Advance(u32),
    /// Background idle sweep.
    Expire,
    /// Explicit removal (filter deletion / instance quarantine path).
    Invalidate(u16),
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0u16..48).prop_map(ChurnOp::Arrive),
        (0u16..48).prop_map(ChurnOp::Arrive),
        (0u16..48).prop_map(ChurnOp::Touch),
        (0u16..48).prop_map(ChurnOp::Touch),
        (1u32..2_000_000).prop_map(ChurnOp::Advance),
        Just(ChurnOp::Expire),
        (0u16..48).prop_map(ChurnOp::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn churn_conserves_records_and_never_expires_fresh_flows(
        ops in prop::collection::vec(arb_churn_op(), 1..400),
    ) {
        const MAX: usize = 8;
        const IDLE_NS: u64 = 1_000_000;
        let mut table: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 16,
            max_buckets: 0,
            initial_records: 2,
            max_records: MAX,
            gates: 1,
            max_idle_ns: IDLE_NS,
            lru_evict: false,
        });
        let mut now: u64 = 0;
        let mut inserted: u64 = 0;
        let mut evicted: u64 = 0; // expire + invalidate + inline reclaim
        let mut last_touch: HashMap<FlowTuple, u64> = HashMap::new();
        let mut scratch = Vec::new();

        for op in ops {
            match op {
                ChurnOp::Arrive(k) => match arrive(&mut table, &key(k)) {
                    Arrival::Hit(_) => {
                        last_touch.insert(tuple(k), now);
                    }
                    Arrival::New(_, ev) => {
                        inserted += 1;
                        last_touch.insert(tuple(k), now);
                        if let Some(ev) = ev {
                            // Inline idle reclaim at the cap: the victim
                            // must have been idle for the full window.
                            evicted += 1;
                            let t = last_touch.remove(&ev.key.tuple()).expect("evicted flow was tracked");
                            prop_assert!(
                                now.saturating_sub(t) > IDLE_NS,
                                "inline reclaim took a flow touched {}ns ago",
                                now - t
                            );
                        }
                    }
                    // No state change to account for.
                    Arrival::Denied => {}
                },
                ChurnOp::Touch(k) => {
                    if touch(&mut table, &key(k)) {
                        last_touch.insert(tuple(k), now);
                    }
                }
                ChurnOp::Advance(dt) => {
                    now += u64::from(dt);
                    table.set_now(now);
                }
                ChurnOp::Expire => {
                    scratch.clear();
                    let n = table.expire_idle_into(IDLE_NS, &mut scratch);
                    prop_assert_eq!(n, scratch.len());
                    for ev in &scratch {
                        evicted += 1;
                        let t = last_touch.remove(&ev.key.tuple()).expect("expired flow was tracked");
                        prop_assert!(
                            now.saturating_sub(t) > IDLE_NS,
                            "expired a flow touched {}ns ago",
                            now - t
                        );
                    }
                }
                ChurnOp::Invalidate(k) => {
                    if let Some(fix) = table.peek(&key(k)) {
                        prop_assert!(table.remove(fix).is_some());
                        evicted += 1;
                        last_touch.remove(&tuple(k));
                    }
                }
            }
            // Conservation after every step, not just at the end.
            prop_assert_eq!(
                inserted,
                table.live() as u64 + evicted,
                "inserted != live + evicted"
            );
            prop_assert!(table.live() <= MAX);
        }
        let s = table.stats();
        prop_assert_eq!(s.inline_expired + s.recycled, {
            // Admission control is on for every insert here, so the only
            // cap-pressure evictions are inline idle reclaims.
            prop_assert_eq!(s.recycled, 0);
            s.inline_expired
        });
    }
}

// ---------------------------------------------------------------------
// Incremental resize: interleave insert / lookup / expire / invalidate
// across a *forced multi-step bucket migration* (boot array of 2
// buckets, ceiling 256, key space big enough to trigger several
// doublings — the 128→256 migration alone spans 64 operations at two
// buckets per op). After every single step: no flow lost, none
// duplicated, none mis-bucketed (the hash-path `peek` must find exactly
// the live set), and `inserted == live + evicted`.
// ---------------------------------------------------------------------

const RESIZE_KEYS: u16 = 160;

fn arb_resize_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Arrive),
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Arrive),
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Arrive),
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Arrive),
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Touch),
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Touch),
        (1u32..2_000_000).prop_map(ChurnOp::Advance),
        Just(ChurnOp::Expire),
        (0u16..RESIZE_KEYS).prop_map(ChurnOp::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_resize_never_loses_duplicates_or_misbuckets(
        ops in prop::collection::vec(arb_resize_op(), 100..500),
    ) {
        const IDLE_NS: u64 = 1_000_000;
        let mut table: FlowTable<u32> = FlowTable::new(FlowTableConfig {
            buckets: 2, // forces repeated doublings as flows accumulate
            max_buckets: 256,
            initial_records: 2,
            max_records: 2 * RESIZE_KEYS as usize, // cap never binds
            gates: 1,
            max_idle_ns: IDLE_NS,
            lru_evict: false,
        });
        let mut now: u64 = 0;
        let mut inserted: u64 = 0;
        let mut evicted: u64 = 0;
        let mut live: HashMap<u16, u64> = HashMap::new(); // key → last touch
        let mut scratch = Vec::new();
        let mut saw_migration_in_flight = false;
        let mut max_live = 0usize;

        for op in ops {
            match op {
                ChurnOp::Arrive(k) => {
                    let got = arrive(&mut table, &key(k));
                    if !matches!(got, Arrival::Hit(_)) {
                        // The cap never binds in this test.
                        prop_assert!(matches!(got, Arrival::New(_, None)), "no cap pressure expected");
                        inserted += 1;
                    }
                    live.insert(k, now);
                }
                ChurnOp::Touch(k) => {
                    if touch(&mut table, &key(k)) {
                        live.insert(k, now);
                    }
                }
                ChurnOp::Advance(dt) => {
                    now += u64::from(dt);
                    table.set_now(now);
                }
                ChurnOp::Expire => {
                    scratch.clear();
                    table.expire_idle_into(IDLE_NS, &mut scratch);
                    for ev in &scratch {
                        evicted += 1;
                        let k = live
                            .iter()
                            .find(|(k, _)| key(**k) == ev.key)
                            .map(|(k, _)| *k)
                            .expect("expired flow was tracked");
                        let t = live.remove(&k).unwrap();
                        prop_assert!(now.saturating_sub(t) > IDLE_NS);
                    }
                }
                ChurnOp::Invalidate(k) => {
                    if let Some(fix) = table.peek(&key(k)) {
                        prop_assert!(table.remove(fix).is_some());
                        evicted += 1;
                        live.remove(&k);
                    }
                }
            }
            saw_migration_in_flight |= table.resizing();
            max_live = max_live.max(table.live());
            // Conservation after every step.
            prop_assert_eq!(inserted, table.live() as u64 + evicted);
            // live() agreeing with the model's cardinality rules out
            // duplicated records (a double-linked flow would inflate it).
            prop_assert_eq!(table.live(), live.len());
            // Every live flow reachable through the hash path (not
            // mis-bucketed), every dead flow absent — mid-migration too.
            for k in 0..RESIZE_KEYS {
                prop_assert_eq!(
                    table.peek(&key(k)).is_some(),
                    live.contains_key(&k),
                    "flow {} presence wrong (resizing={})",
                    k,
                    table.resizing()
                );
            }
        }
        // The op mix must actually have exercised the resize machinery:
        // any moment with 3+ live flows forces the first doubling, and
        // 5+ live flows force a migration that outlives its own insert
        // (old array of 4+ buckets, two migrated per op).
        if max_live > 2 {
            prop_assert!(table.stats().resize_steps > 0, "resize never ran");
            prop_assert!(table.bucket_count() > 2);
        }
        if max_live > 4 {
            prop_assert!(saw_migration_in_flight, "migration never observed in flight");
        }
    }
}

// ---------------------------------------------------------------------
// Eviction quality: what the second chance is for. Half the packets go to
// 2 048 established flows drawn uniformly, half to two-packet mice that
// together outnumber the table 120 times over. The table's clock is
// whatever the driver makes it — no data path advances it per packet — so
// the elephants must keep their records whether it runs or stands still.
// Counts only.
//
// One bit per record bounds what this traffic allows: a mouse holds its
// record for two passes of the hand when its second packet found it (one
// pass at half the arrival rate otherwise — the same turnover), so the
// hand revolves every 3 072 new mice = 12 288 packets, an elephant sees a
// packet every 4 096, and loses its record when a whole revolution brings
// it none: e^-3 per pass over 3 packets per pass, a hit share of 0.983.
// The coldest-of-64 scan this replaced read 0.862 with the clock frozen
// (every `last_used` equal, so oldest-inserted first: the elephants) and
// 0.996 with it advanced on every packet.
// ---------------------------------------------------------------------

fn flow(i: u32) -> FlowKey {
    FlowKey::of(&FlowTuple {
        src: std::net::Ipv4Addr::from(0x0A00_0000 + i).into(),
        dst: std::net::Ipv4Addr::new(192, 0, 2, 1).into(),
        proto: 6,
        sport: (i >> 16) as u16,
        dport: i as u16,
        rx_if: 0,
    })
}

fn elephant_hit_share(clock_advances: bool) -> f64 {
    const ELEPHANTS: u32 = 2048;
    const PACKETS: u64 = 4_000_000;
    let mut table: FlowTable<u32> = FlowTable::new(FlowTableConfig {
        buckets: 8192,
        max_buckets: 0,
        initial_records: 1024,
        max_records: 8192,
        gates: 1,
        max_idle_ns: 0,
        lru_evict: true,
    });
    // Deterministic xorshift: which elephant, and how far apart a mouse's
    // two packets land.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut second_packets = std::collections::VecDeque::new();
    let mut next_mouse = ELEPHANTS;
    let (mut sent, mut hits) = (0u64, 0u64);
    for n in 0..PACKETS {
        if clock_advances {
            table.set_now(n * 1000);
        }
        if n % 2 == 0 {
            sent += 1;
            let k = flow(rand() as u32 % ELEPHANTS);
            hits += u64::from(matches!(arrive(&mut table, &k), Arrival::Hit(_)));
        } else if n % 4 == 1 {
            second_packets.push_back(next_mouse);
            arrive(&mut table, &flow(next_mouse));
            next_mouse += 1;
        } else {
            // The second packet of a mouse a few mice back.
            let back = rand() as usize % second_packets.len().min(16);
            let mouse = second_packets
                .remove(back)
                .expect("a first packet came first");
            arrive(&mut table, &flow(mouse));
        }
    }
    let evicted = table.stats().evicted_lru;
    assert!(
        evicted > 900_000,
        "the flood never pressed on the cap: {evicted}"
    );
    hits as f64 / sent as f64
}

#[test]
fn elephants_survive_a_mouse_flood_whatever_the_clock_does() {
    let frozen = elephant_hit_share(false);
    let advancing = elephant_hit_share(true);
    assert!(
        frozen >= 0.975,
        "clock frozen: elephant hit share {frozen:.4}"
    );
    assert!(
        advancing >= 0.975,
        "clock advancing: elephant hit share {advancing:.4}"
    );
    assert!(
        (frozen - advancing).abs() < 0.002,
        "{frozen:.4} vs {advancing:.4}"
    );
}

// ---------------------------------------------------------------------
// The word key. Its hash must be the tuple hash it replaced, bit for bit:
// shard placement and bucket spread depend on it. Its equality must still
// be the whole six-tuple, family included.
// ---------------------------------------------------------------------

/// The flow hash as it was computed over `FlowTuple`'s `IpAddr`s before
/// the key became words: the reference for `key_hash`.
fn tuple_fold(t: &FlowTuple) -> u32 {
    fn fold_addr(a: IpAddr) -> u32 {
        match a {
            IpAddr::V4(v) => u32::from(v),
            IpAddr::V6(v) => {
                let b = u128::from(v);
                (b as u32) ^ ((b >> 32) as u32) ^ ((b >> 64) as u32) ^ ((b >> 96) as u32)
            }
        }
    }
    let mut h = fold_addr(t.src);
    h = h.rotate_left(7) ^ fold_addr(t.dst);
    h = h.rotate_left(7) ^ (u32::from(t.sport) << 16 | u32::from(t.dport));
    h = h.rotate_left(5) ^ t.rx_if;
    h ^= u32::from(t.proto) << 8;
    h ^= h >> 16;
    h = h.wrapping_mul(0x45d9_f3b5);
    h ^ (h >> 13)
}

/// Any address, with v6 addresses whose last three words are zero — the
/// IPv4 look-alikes — as common as the others.
fn arb_addr() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|a| IpAddr::V4(Ipv4Addr::from(a))),
        any::<u128>().prop_map(|a| IpAddr::V6(Ipv6Addr::from(a))),
        any::<u32>().prop_map(|a| IpAddr::V6(Ipv6Addr::from(u128::from(a) << 96))),
    ]
}

fn arb_tuple() -> impl Strategy<Value = FlowTuple> {
    let fields = (any::<u8>(), any::<u16>(), any::<u16>(), any::<u32>());
    (arb_addr(), arb_addr(), fields).prop_map(|(src, dst, (proto, sport, dport, rx_if))| {
        FlowTuple {
            src,
            dst,
            proto,
            sport,
            dport,
            rx_if,
        }
    })
}

proptest! {
    #[test]
    fn key_hash_is_the_tuple_fold_bit_for_bit(t in arb_tuple()) {
        prop_assert_eq!(key_hash(&FlowKey::of(&t)), tuple_fold(&t));
    }
}

/// An IPv4 flow and its IPv6 twins — the v4 address as the first word of
/// a v6 one, everything else equal — hash alike and so chain in one
/// bucket: only the family bits tell their records apart.
#[test]
fn family_twins_share_a_bucket_but_not_a_record() {
    let mut table: FlowTable<u32> = FlowTable::new(FlowTableConfig {
        buckets: 64,
        max_buckets: 0,
        initial_records: 4,
        max_records: 8,
        gates: 1,
        max_idle_ns: 0,
        lru_evict: false,
    });
    let v4 = |a: u32| IpAddr::V4(Ipv4Addr::from(a));
    let v6 = |a: u32| IpAddr::V6(Ipv6Addr::from(u128::from(a) << 96));
    let (s, d) = (0x0A00_0001, 0xC000_0201);
    let twins = [
        (v4(s), v4(d)),
        (v6(s), v4(d)),
        (v4(s), v6(d)),
        (v6(s), v6(d)),
    ]
    .map(|(src, dst)| FlowTuple {
        src,
        dst,
        proto: 6,
        sport: 1234,
        dport: 80,
        rx_if: 2,
    });
    let hash = key_hash(&FlowKey::of(&twins[0]));
    assert!(twins.iter().all(|t| key_hash(&FlowKey::of(t)) == hash));
    let fixes = twins.map(|t| match arrive(&mut table, &FlowKey::of(&t)) {
        Arrival::New(fix, None) => fix,
        got => panic!("{t}: expected a new record, got {got:?}"),
    });
    for (t, fix) in twins.iter().zip(fixes) {
        assert_eq!(
            arrive(&mut table, &FlowKey::of(t)),
            Arrival::Hit(fix),
            "{t}"
        );
        assert_eq!(table.peek(&FlowKey::of(t)), Some(fix));
        assert_eq!(table.record(fix).map(|r| r.key()), Some(FlowKey::of(t)));
    }
    assert_eq!(table.live(), 4);
}
