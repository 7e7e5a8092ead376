//! `DrrScheduler` keeps per-flow state in a slab indexed by flow id. This
//! differential holds it to the `HashMap`-keyed scheduler it replaced,
//! kept here as the reference: over random sequences of enqueues (with
//! refusals at the per-flow limit), dequeues, weight changes, purges and
//! weight reads on flow ids 0..64, both give the same packets in the same
//! order and the same counters after every step.

use proptest::prelude::*;
use rp_sched::link::{FlowId, SchedPacket, Scheduler};
use rp_sched::DrrScheduler;
use std::collections::{HashMap, VecDeque};

struct FlowQueue {
    queue: VecDeque<SchedPacket>,
    deficit: u64,
    weight: u32,
    active: bool,
    visited: bool,
}

/// The map-keyed weighted DRR, as it was before the slab.
struct Reference {
    flows: HashMap<FlowId, FlowQueue>,
    active: VecDeque<FlowId>,
    quantum: u32,
    per_flow_limit: usize,
    backlog: usize,
    drops: u64,
}

const DEFAULT_WEIGHT: u32 = 1;

fn idle() -> FlowQueue {
    FlowQueue {
        queue: VecDeque::new(),
        deficit: 0,
        weight: DEFAULT_WEIGHT,
        active: false,
        visited: false,
    }
}

impl Reference {
    fn new(quantum: u32, per_flow_limit: usize) -> Self {
        Reference {
            flows: HashMap::new(),
            active: VecDeque::new(),
            quantum,
            per_flow_limit,
            backlog: 0,
            drops: 0,
        }
    }

    fn set_weight(&mut self, flow: FlowId, weight: u32) {
        self.flows.entry(flow).or_insert_with(idle).weight = weight;
    }

    fn weight(&self, flow: FlowId) -> u32 {
        self.flows.get(&flow).map_or(DEFAULT_WEIGHT, |f| f.weight)
    }

    fn purge_flow(&mut self, flow: FlowId) -> Vec<SchedPacket> {
        let Some(fq) = self.flows.remove(&flow) else {
            return Vec::new();
        };
        if fq.active {
            self.active.retain(|f| *f != flow);
        }
        self.backlog -= fq.queue.len();
        fq.queue.into_iter().collect()
    }

    fn enqueue(&mut self, pkt: SchedPacket) -> bool {
        let entry = self.flows.entry(pkt.flow).or_insert_with(idle);
        if entry.queue.len() >= self.per_flow_limit {
            self.drops += 1;
            return false;
        }
        entry.queue.push_back(pkt);
        self.backlog += 1;
        if !entry.active {
            entry.active = true;
            entry.deficit = 0;
            entry.visited = false;
            self.active.push_back(pkt.flow);
        }
        true
    }

    fn dequeue(&mut self) -> Option<SchedPacket> {
        loop {
            let flow = *self.active.front()?;
            let fq = self.flows.get_mut(&flow).expect("active flow has queue");
            if fq.queue.is_empty() {
                fq.active = false;
                fq.deficit = 0;
                fq.visited = false;
                self.active.pop_front();
                continue;
            }
            if !fq.visited {
                fq.deficit += u64::from(self.quantum) * u64::from(fq.weight);
                fq.visited = true;
            }
            let head_len = u64::from(fq.queue.front().unwrap().len);
            if fq.deficit >= head_len {
                fq.deficit -= head_len;
                let pkt = fq.queue.pop_front().unwrap();
                self.backlog -= 1;
                if fq.queue.is_empty() {
                    fq.active = false;
                    fq.deficit = 0;
                    fq.visited = false;
                    self.active.pop_front();
                }
                return Some(pkt);
            }
            fq.visited = false;
            self.active.rotate_left(1);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Enqueue(FlowId, u32),
    Dequeue,
    SetWeight(FlowId, u32),
    Purge(FlowId),
    Weight(FlowId),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let enqueue = || (0u32..64, 40u32..3_000).prop_map(|(f, len)| Op::Enqueue(f, len));
    prop_oneof![
        enqueue(),
        enqueue(),
        enqueue(),
        Just(Op::Dequeue),
        Just(Op::Dequeue),
        (0u32..64, 1u32..8).prop_map(|(f, w)| Op::SetWeight(f, w)),
        (0u32..64).prop_map(Op::Purge),
        (0u32..64).prop_map(Op::Weight),
    ]
}

/// `(flow, cookie)` of each packet, the identity a caller acts on.
fn ids(pkts: &[SchedPacket]) -> Vec<(FlowId, u64)> {
    pkts.iter().map(|p| (p.flow, p.cookie)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_drr_matches_the_map_keyed_reference(
        ops in prop::collection::vec(arb_op(), 1..600),
        // Quanta below and above the largest packet; limits that refuse.
        quantum in prop_oneof![Just(500u32), Just(1_500u32), Just(9_180u32)],
        limit in 1usize..6,
    ) {
        let mut slab = DrrScheduler::new(quantum, limit);
        let mut reference = Reference::new(quantum, limit);
        let mut cookie = 0u64;
        for op in ops {
            match op {
                Op::Enqueue(flow, len) => {
                    cookie += 1;
                    let pkt = SchedPacket { flow, len, arrival_ns: cookie, cookie };
                    prop_assert_eq!(slab.enqueue(pkt, 0), reference.enqueue(pkt));
                }
                Op::Dequeue => {
                    let got = slab.dequeue(0).map(|p| (p.flow, p.cookie));
                    prop_assert_eq!(got, reference.dequeue().map(|p| (p.flow, p.cookie)));
                }
                Op::SetWeight(flow, w) => {
                    slab.set_weight(flow, w);
                    reference.set_weight(flow, w);
                }
                Op::Purge(flow) => {
                    let got = ids(&slab.purge_flow(flow));
                    prop_assert_eq!(got, ids(&reference.purge_flow(flow)));
                }
                Op::Weight(flow) => {
                    prop_assert_eq!(slab.weight(flow), reference.weight(flow));
                }
            }
            prop_assert_eq!(slab.drops(), reference.drops);
            prop_assert_eq!(slab.backlog(), reference.backlog);
            prop_assert_eq!(slab.active_flows(), reference.active.len());
        }
        // Drain both: the rest of the service order agrees too.
        let rest: Vec<_> = std::iter::from_fn(|| slab.dequeue(0)).collect();
        let expected: Vec<_> = std::iter::from_fn(|| reference.dequeue()).collect();
        prop_assert_eq!(ids(&rest), ids(&expected));
        for flow in 0..64 {
            prop_assert_eq!(slab.weight(flow), reference.weight(flow));
        }
    }
}
