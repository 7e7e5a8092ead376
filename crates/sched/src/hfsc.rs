//! Hierarchical Fair Service Curve scheduler (Stoica, Zhang & Ng,
//! SIGCOMM '97) — the paper's flagship complex plugin (§6: a port of the
//! CMU scheduler, "results consistent with that paper").
//!
//! Structure follows the well-known BSD `hfsc.c` implementation:
//!
//! * Every class has a two-piece **service curve** (`m1` for `d`, then
//!   `m2`), which may be *concave* (`m1 > m2`, low-delay burst) or
//!   *convex*.
//! * Leaf classes with a real-time curve maintain **eligible** and
//!   **deadline** runtime curves. The runtime curves are the pointwise
//!   minimum of the configured curve re-anchored at every fresh backlog
//!   period — exactly the "no credit across idle periods" rule — and are
//!   represented here as general piecewise-linear functions, so the min
//!   composition is exact rather than BSD's two-segment approximation.
//! * Dequeue applies the **real-time criterion** first (serve the
//!   eligible class with the earliest deadline) to honor guarantees, then
//!   the **link-sharing criterion** (descend the hierarchy picking the
//!   active child with the smallest virtual time) to distribute excess
//!   bandwidth hierarchically — this split is what decouples delay from
//!   bandwidth allocation.

use crate::link::{FlowId, SchedPacket, Scheduler};
use std::collections::{HashMap, VecDeque};

/// A two-piece linear service curve: rate `m1` (bits/s) for the first
/// `d_us` microseconds of a backlog period, rate `m2` afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCurve {
    /// First-segment rate in bits per second.
    pub m1_bps: u64,
    /// First-segment duration in microseconds.
    pub d_us: u64,
    /// Long-term rate in bits per second.
    pub m2_bps: u64,
}

impl ServiceCurve {
    /// A linear curve (single slope): the pure-bandwidth case.
    pub fn linear(rate_bps: u64) -> Self {
        ServiceCurve {
            m1_bps: rate_bps,
            d_us: 0,
            m2_bps: rate_bps,
        }
    }

    /// True when the curve is concave (burst segment faster than the
    /// long-term rate).
    pub fn is_concave(&self) -> bool {
        self.m1_bps > self.m2_bps
    }

    fn m1_bytes(&self) -> f64 {
        self.m1_bps as f64 / 8.0
    }

    fn m2_bytes(&self) -> f64 {
        self.m2_bps as f64 / 8.0
    }

    fn d_secs(&self) -> f64 {
        self.d_us as f64 / 1e6
    }
}

/// One segment of a piecewise-linear monotone curve: starting point
/// `(x, y)` with slope `m` until the next segment.
#[derive(Debug, Clone, Copy)]
struct Seg {
    x: f64,
    y: f64,
    m: f64,
}

/// Piecewise-linear, monotone non-decreasing runtime curve. `x` is time in
/// seconds, `y` service in bytes; the final segment extends to infinity.
#[derive(Debug, Clone, Default)]
struct Curve {
    segs: Vec<Seg>,
}

impl Curve {
    /// The configured service curve anchored at `(t0, w0)`.
    fn from_sc(sc: &ServiceCurve, t0: f64, w0: f64) -> Curve {
        let mut segs = Vec::with_capacity(2);
        if sc.d_us == 0 || (sc.m1_bps == sc.m2_bps) {
            segs.push(Seg {
                x: t0,
                y: w0,
                m: sc.m2_bytes(),
            });
        } else {
            segs.push(Seg {
                x: t0,
                y: w0,
                m: sc.m1_bytes(),
            });
            segs.push(Seg {
                x: t0 + sc.d_secs(),
                y: w0 + sc.m1_bytes() * sc.d_secs(),
                m: sc.m2_bytes(),
            });
        }
        Curve { segs }
    }

    fn start_x(&self) -> f64 {
        self.segs[0].x
    }

    /// Evaluate the curve at time `x` (clamped to the start on the left).
    /// Exercised directly by the curve unit tests; the scheduler itself
    /// only inverts curves (`y2x`).
    #[cfg_attr(not(test), allow(dead_code))]
    fn x2y(&self, x: f64) -> f64 {
        let mut cur = self.segs[0];
        for s in &self.segs {
            if s.x <= x {
                cur = *s;
            } else {
                break;
            }
        }
        if x <= cur.x {
            cur.y
        } else {
            cur.y + cur.m * (x - cur.x)
        }
    }

    /// Earliest time at which the curve reaches service `y`
    /// (`+∞` when it never does).
    fn y2x(&self, y: f64) -> f64 {
        if y <= self.segs[0].y {
            return self.segs[0].x;
        }
        // Find the segment containing y.
        let mut cur = self.segs[0];
        for (i, s) in self.segs.iter().enumerate() {
            let seg_end_y = if i + 1 < self.segs.len() {
                self.segs[i + 1].y
            } else {
                f64::INFINITY
            };
            if y <= seg_end_y {
                cur = *s;
                break;
            }
            cur = *s;
        }
        if cur.m <= 0.0 {
            if y <= cur.y {
                cur.x
            } else {
                f64::INFINITY
            }
        } else {
            cur.x + (y - cur.y) / cur.m
        }
    }

    /// Pointwise minimum of `self` and `other`, defined for
    /// `x ≥ max(start of other, start of self)` — the BSD `rtsc_min`,
    /// exact for arbitrarily many segments.
    fn min_with(&self, other: &Curve) -> Curve {
        let x0 = self.start_x().max(other.start_x());
        // Candidate breakpoints: both curves' segment starts ≥ x0, plus x0.
        let mut xs: Vec<f64> = vec![x0];
        for s in self.segs.iter().chain(&other.segs) {
            if s.x > x0 {
                xs.push(s.x);
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        // Add crossing points inside each interval.
        let mut all_xs = Vec::with_capacity(xs.len() * 2);
        for (i, &x) in xs.iter().enumerate() {
            all_xs.push(x);
            let x_next = xs.get(i + 1).copied().unwrap_or(f64::INFINITY);
            // Slopes immediately after x.
            let eps = 0.0;
            let _ = eps;
            let (ya, ma) = self.point_slope(x);
            let (yb, mb) = other.point_slope(x);
            let dy = ya - yb;
            let dm = ma - mb;
            if dm.abs() > 1e-12 {
                let cross = x - dy / dm;
                if cross > x + 1e-12 && cross < x_next - 1e-12 {
                    all_xs.push(cross);
                }
            }
        }
        all_xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all_xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let mut segs = Vec::with_capacity(all_xs.len());
        for &x in &all_xs {
            let (ya, ma) = self.point_slope(x);
            let (yb, mb) = other.point_slope(x);
            let (y, m) = if (ya < yb) || ((ya - yb).abs() < 1e-9 && ma <= mb) {
                (ya, ma)
            } else {
                (yb, mb)
            };
            // Skip redundant collinear points.
            if let Some(last) = segs.last() {
                let last: &Seg = last;
                if (last.m - m).abs() < 1e-12 && (last.y + last.m * (x - last.x) - y).abs() < 1e-9 {
                    continue;
                }
            }
            segs.push(Seg { x, y, m });
        }
        Curve { segs }
    }

    /// Value and slope of the curve at (just after) `x`.
    fn point_slope(&self, x: f64) -> (f64, f64) {
        let mut cur = self.segs[0];
        for s in &self.segs {
            if s.x <= x + 1e-12 {
                cur = *s;
            } else {
                break;
            }
        }
        if x <= cur.x {
            (cur.y, cur.m)
        } else {
            (cur.y + cur.m * (x - cur.x), cur.m)
        }
    }
}

/// Identifier of a class in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(pub u32);

struct Class {
    parent: Option<ClassId>,
    children: Vec<ClassId>,
    /// Real-time service curve (leaves only).
    rsc: Option<ServiceCurve>,
    /// Link-share rate (the fair-share weight), bytes/s.
    ls_rate: f64,
    /// Virtual time for link-sharing (seconds of normalised service).
    vt: f64,
    /// Backlogged descendants counter (class is LS-active when > 0).
    active_desc: usize,
    // -- leaf state --
    queue: VecDeque<SchedPacket>,
    /// Cumulative bytes served under the real-time criterion.
    cumul: f64,
    deadline: Option<Curve>,
    eligible: Option<Curve>,
    /// Eligible time / deadline for the head packet.
    e: f64,
    d: f64,
    dropped: u64,
}

/// The hierarchical fair service curve scheduler.
pub struct HfscScheduler {
    classes: Vec<Class>,
    root: ClassId,
    flow_map: HashMap<FlowId, ClassId>,
    default_class: Option<ClassId>,
    per_class_limit: usize,
    backlog: usize,
    /// Count of packets served by the real-time criterion (for tests and
    /// the E7 report).
    pub rt_served: u64,
    /// Count served by link-sharing.
    pub ls_served: u64,
}

impl HfscScheduler {
    /// A scheduler whose root represents a link of `link_bps`.
    pub fn new(link_bps: u64, per_class_limit: usize) -> Self {
        let root = Class {
            parent: None,
            children: Vec::new(),
            rsc: None,
            ls_rate: link_bps as f64 / 8.0,
            vt: 0.0,
            active_desc: 0,
            queue: VecDeque::new(),
            cumul: 0.0,
            deadline: None,
            eligible: None,
            e: 0.0,
            d: 0.0,
            dropped: 0,
        };
        HfscScheduler {
            classes: vec![root],
            root: ClassId(0),
            flow_map: HashMap::new(),
            default_class: None,
            per_class_limit,
            backlog: 0,
            rt_served: 0,
            ls_served: 0,
        }
    }

    /// The root class id.
    pub fn root(&self) -> ClassId {
        self.root
    }

    /// Add a class under `parent`. `ls_bps` sets the link-share weight;
    /// `rt` optionally attaches a real-time guarantee (meaningful on
    /// leaves).
    pub fn add_class(&mut self, parent: ClassId, ls_bps: u64, rt: Option<ServiceCurve>) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(Class {
            parent: Some(parent),
            children: Vec::new(),
            rsc: rt,
            ls_rate: ls_bps as f64 / 8.0,
            vt: 0.0,
            active_desc: 0,
            queue: VecDeque::new(),
            cumul: 0.0,
            deadline: None,
            eligible: None,
            e: 0.0,
            d: 0.0,
            dropped: 0,
        });
        self.classes[parent.0 as usize].children.push(id);
        id
    }

    /// Route a flow id to a leaf class.
    pub fn bind_flow(&mut self, flow: FlowId, class: ClassId) {
        self.flow_map.insert(flow, class);
    }

    /// Class that receives unmapped flows (else they are dropped).
    pub fn set_default_class(&mut self, class: ClassId) {
        self.default_class = Some(class);
    }

    /// Packets dropped at a class's queue limit or for having no class.
    pub fn drops(&self) -> u64 {
        self.classes.iter().map(|c| c.dropped).sum()
    }

    fn cls(&self, id: ClassId) -> &Class {
        &self.classes[id.0 as usize]
    }

    fn cls_mut(&mut self, id: ClassId) -> &mut Class {
        &mut self.classes[id.0 as usize]
    }

    /// BSD `init_ed`: fresh backlog period for a leaf at time `t`.
    fn init_ed(&mut self, id: ClassId, t: f64) {
        let c = self.cls(id);
        let Some(rsc) = c.rsc else { return };
        let anchored = Curve::from_sc(&rsc, t, c.cumul);
        let deadline = match &c.deadline {
            Some(old) => old.min_with(&anchored),
            None => anchored.clone(),
        };
        // Eligible: equal to the deadline curve when concave; a single
        // m2-slope curve from the anchor otherwise (BSD rule).
        let eligible = if rsc.is_concave() {
            deadline.clone()
        } else {
            let lin = ServiceCurve::linear(rsc.m2_bps);
            let anchored_lin = Curve::from_sc(&lin, t, c.cumul);
            match &c.eligible {
                Some(old) => old.min_with(&anchored_lin),
                None => anchored_lin,
            }
        };
        let head_len = c.queue.front().map(|p| f64::from(p.len)).unwrap_or(0.0);
        let cumul = c.cumul;
        let e = eligible.y2x(cumul);
        let d = deadline.y2x(cumul + head_len);
        let c = self.cls_mut(id);
        c.deadline = Some(deadline);
        c.eligible = Some(eligible);
        c.e = e;
        c.d = d;
    }

    /// BSD `update_ed`: recompute e/d after real-time service.
    fn update_ed(&mut self, id: ClassId) {
        let c = self.cls(id);
        let (Some(el), Some(dl)) = (&c.eligible, &c.deadline) else {
            return;
        };
        let head_len = c.queue.front().map(|p| f64::from(p.len)).unwrap_or(0.0);
        let e = el.y2x(c.cumul);
        let d = dl.y2x(c.cumul + head_len);
        let c = self.cls_mut(id);
        c.e = e;
        c.d = d;
    }

    /// Mark the path from `leaf` to the root active (+1 backlogged
    /// descendant), syncing virtual times on activation.
    fn activate_path(&mut self, leaf: ClassId) {
        let mut id = Some(leaf);
        while let Some(cur) = id {
            let parent = self.cls(cur).parent;
            self.cls_mut(cur).active_desc += 1;
            if self.cls(cur).active_desc == 1 {
                // Newly active: catch its virtual time up with active
                // siblings so it cannot claim service "owed" while idle.
                if let Some(p) = parent {
                    let min_sibling_vt = self
                        .cls(p)
                        .children
                        .iter()
                        .filter(|&&c| c != cur && self.cls(c).active_desc > 0)
                        .map(|&c| self.cls(c).vt)
                        .fold(f64::INFINITY, f64::min);
                    if min_sibling_vt.is_finite() {
                        let c = self.cls_mut(cur);
                        c.vt = c.vt.max(min_sibling_vt);
                    }
                }
            }
            id = parent;
        }
    }

    fn deactivate_path(&mut self, leaf: ClassId) {
        let mut id = Some(leaf);
        while let Some(cur) = id {
            self.cls_mut(cur).active_desc -= 1;
            id = self.cls(cur).parent;
        }
    }

    /// Charge `len` bytes of virtual time along the path leaf→root.
    fn update_vt_path(&mut self, leaf: ClassId, len: f64) {
        let mut id = Some(leaf);
        while let Some(cur) = id {
            let c = self.cls_mut(cur);
            if c.ls_rate > 0.0 {
                c.vt += len / c.ls_rate;
            }
            id = self.cls(cur).parent;
        }
    }

    /// Link-sharing descent: active child with minimum virtual time.
    fn ls_select(&self) -> Option<ClassId> {
        let mut cur = self.root;
        loop {
            let c = self.cls(cur);
            if c.children.is_empty() {
                return if c.queue.is_empty() { None } else { Some(cur) };
            }
            let next = c
                .children
                .iter()
                .filter(|&&ch| self.cls(ch).active_desc > 0)
                .min_by(|&&a, &&b| {
                    self.cls(a)
                        .vt
                        .partial_cmp(&self.cls(b).vt)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            match next {
                Some(&ch) => cur = ch,
                None => return None,
            }
        }
    }

    fn finish_send(&mut self, leaf: ClassId, pkt: &SchedPacket, realtime: bool) {
        let len = f64::from(pkt.len);
        self.backlog -= 1;
        if realtime {
            self.cls_mut(leaf).cumul += len;
        }
        self.update_vt_path(leaf, len);
        if self.cls(leaf).queue.is_empty() {
            self.deactivate_path(leaf);
        } else if realtime {
            self.update_ed(leaf);
        } else {
            // Link-share service still advances the head deadline basis?
            // No: cumul counts RT work only (BSD); but the head changed,
            // so refresh d for the new head with unchanged cumul.
            self.update_ed(leaf);
        }
    }
}

impl Scheduler for HfscScheduler {
    fn enqueue(&mut self, pkt: SchedPacket, now_ns: u64) -> bool {
        let class = match self.flow_map.get(&pkt.flow).copied().or(self.default_class) {
            Some(c) => c,
            None => return false,
        };
        let limit = self.per_class_limit;
        let c = self.cls_mut(class);
        if !c.children.is_empty() {
            // Only leaves queue packets.
            c.dropped += 1;
            return false;
        }
        if c.queue.len() >= limit {
            c.dropped += 1;
            return false;
        }
        c.queue.push_back(pkt);
        self.backlog += 1;
        if self.cls(class).queue.len() == 1 {
            self.activate_path(class);
            self.init_ed(class, now_ns as f64 / 1e9);
        }
        true
    }

    fn dequeue(&mut self, now_ns: u64) -> Option<SchedPacket> {
        let now = now_ns as f64 / 1e9;
        // Real-time criterion: eligible leaf with the earliest deadline.
        let mut rt_pick: Option<(ClassId, f64)> = None;
        for (i, c) in self.classes.iter().enumerate() {
            if c.rsc.is_some() && !c.queue.is_empty() && c.e <= now + 1e-12 {
                match rt_pick {
                    Some((_, best_d)) if c.d >= best_d => {}
                    _ => rt_pick = Some((ClassId(i as u32), c.d)),
                }
            }
        }
        if let Some((leaf, _)) = rt_pick {
            let pkt = self.cls_mut(leaf).queue.pop_front().unwrap();
            self.rt_served += 1;
            self.finish_send(leaf, &pkt, true);
            return Some(pkt);
        }
        // Link-sharing criterion.
        let leaf = self.ls_select()?;
        let pkt = self.cls_mut(leaf).queue.pop_front().unwrap();
        self.ls_served += 1;
        self.finish_send(leaf, &pkt, false);
        Some(pkt)
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSim;

    const MBPS: u64 = 1_000_000;

    #[test]
    fn curve_eval_and_inverse() {
        let sc = ServiceCurve {
            m1_bps: 8 * MBPS, // 1 MB/s
            d_us: 10_000,     // 10 ms
            m2_bps: 800_000,  // 0.1 MB/s
        };
        let c = Curve::from_sc(&sc, 1.0, 100.0);
        assert!((c.x2y(1.0) - 100.0).abs() < 1e-9);
        // 5 ms into the burst: +5000 bytes.
        assert!((c.x2y(1.005) - 5100.0).abs() < 1e-6);
        // Past the burst: 10 ms × 1 MB/s = 10_000, then 0.1 MB/s.
        assert!((c.x2y(1.020) - (100.0 + 10_000.0 + 1_000.0)).abs() < 1e-6);
        // Inverse agrees.
        for y in [100.0, 5100.0, 11_100.0] {
            let x = c.y2x(y);
            assert!((c.x2y(x) - y).abs() < 1e-6, "y={y}");
        }
    }

    #[test]
    fn curve_min_discards_idle_credit() {
        let sc = ServiceCurve::linear(8 * MBPS); // 1 MB/s
        let old = Curve::from_sc(&sc, 0.0, 0.0);
        // Re-anchor at t=10 s with only 1 MB served (9 MB "behind").
        let fresh = Curve::from_sc(&sc, 10.0, 1_000_000.0);
        let min = old.min_with(&fresh);
        // At t=10 the old curve promises 10 MB; min must promise 1 MB.
        assert!((min.x2y(10.0) - 1_000_000.0).abs() < 1.0);
        // Far in the future both grow at the same slope; min stays with
        // the fresh anchor.
        assert!((min.x2y(20.0) - 11_000_000.0).abs() < 1.0);
    }

    #[test]
    fn curve_min_with_crossing() {
        // Old: slow from origin. New: fast from (1, 0). They cross; the min
        // must follow old first, then new... (new starts below).
        let a = Curve::from_sc(&ServiceCurve::linear(8 * MBPS), 0.0, 0.0);
        let b = Curve::from_sc(&ServiceCurve::linear(32 * MBPS), 1.0, 0.0);
        let min = a.min_with(&b);
        assert!((min.x2y(1.0) - 0.0).abs() < 1.0); // b wins at t=1
                                                   // b catches a at: 1e6·t = 4e6·(t-1) → t = 4/3.
        assert!((min.x2y(4.0 / 3.0) - (4e6 / 3.0)).abs() < 10.0);
        // After the crossing, a is the min again.
        assert!((min.x2y(2.0) - 2e6).abs() < 10.0);
    }

    fn backlog_two_classes(ls1: u64, ls2: u64) -> (f64, f64) {
        let mut h = HfscScheduler::new(10 * MBPS, 64);
        let root = h.root();
        let c1 = h.add_class(root, ls1, None);
        let c2 = h.add_class(root, ls2, None);
        h.bind_flow(1, c1);
        h.bind_flow(2, c2);
        let mut sim = LinkSim::new(h, 10 * MBPS);
        sim.run_backlogged(&[(1, 1000), (2, 1000)], 2_000_000_000);
        (sim.stats(1).bytes as f64, sim.stats(2).bytes as f64)
    }

    #[test]
    fn link_share_equal() {
        let (b1, b2) = backlog_two_classes(5 * MBPS, 5 * MBPS);
        assert!((b1 / b2 - 1.0).abs() < 0.05, "b1={b1} b2={b2}");
    }

    #[test]
    fn link_share_weighted_70_30() {
        let (b1, b2) = backlog_two_classes(7 * MBPS, 3 * MBPS);
        let ratio = b1 / b2;
        assert!((ratio - 7.0 / 3.0).abs() < 0.15, "ratio = {ratio}");
    }

    #[test]
    fn realtime_guarantee_overrides_tiny_link_share() {
        // A leaf with a 5 Mb/s real-time curve but negligible link-share
        // weight must still receive ≈ half the 10 Mb/s link.
        let mut h = HfscScheduler::new(10 * MBPS, 256);
        let root = h.root();
        let rt = h.add_class(root, MBPS / 100, Some(ServiceCurve::linear(5 * MBPS)));
        let be = h.add_class(root, 10 * MBPS, None);
        h.bind_flow(1, rt);
        h.bind_flow(2, be);
        let mut sim = LinkSim::new(h, 10 * MBPS);
        sim.run_backlogged(&[(1, 1000), (2, 1000)], 2_000_000_000);
        let b1 = sim.stats(1).bytes as f64;
        let elapsed = sim.now_ns() as f64 / 1e9;
        let rate = b1 * 8.0 / elapsed;
        assert!(
            rate > 4.5e6,
            "real-time class got only {:.2} Mb/s",
            rate / 1e6
        );
        assert!(sim.scheduler.rt_served > 0);
    }

    #[test]
    fn concave_curve_gives_low_delay_to_sparse_flow() {
        // Decoupling of delay and bandwidth: a voice-like flow (small
        // packets, low rate) with a concave curve (high m1) sees much
        // lower delay than with a linear curve of the same m2, under
        // heavy cross-traffic.
        let run = |rt_curve: ServiceCurve| -> u64 {
            let mut h = HfscScheduler::new(10 * MBPS, 256);
            let root = h.root();
            let voice = h.add_class(root, MBPS / 10, Some(rt_curve));
            let bulk = h.add_class(root, 9 * MBPS, None);
            h.bind_flow(1, voice);
            h.bind_flow(2, bulk);
            let mut sim = LinkSim::new(h, 10 * MBPS);
            // Voice: a burst of ten 200-byte packets every 200 ms (a
            // video-frame-like source); bulk: backlogged. Long-term voice
            // rate = 2000 B / 200 ms = 80 kb/s either way; the curves
            // differ only in how fast a burst may drain.
            let mut next_voice = 0u64;
            for _ in 0..200_000 {
                if sim.now_ns() >= next_voice {
                    for _ in 0..10 {
                        sim.offer(1, 200, 0);
                    }
                    next_voice += 200_000_000;
                }
                sim.offer(2, 1500, 0);
                sim.offer(2, 1500, 0);
                if sim.transmit_one().is_none() {
                    sim.advance(10_000);
                }
                if sim.now_ns() > 2_000_000_000 {
                    break;
                }
            }
            sim.stats(1).max_delay_ns
        };
        let linear = run(ServiceCurve::linear(80_000));
        let concave = run(ServiceCurve {
            m1_bps: 2 * MBPS,
            d_us: 20_000,
            m2_bps: 80_000,
        });
        assert!(
            concave < linear / 4,
            "concave max delay {concave} ns not ≪ linear {linear} ns"
        );
    }

    #[test]
    fn unmapped_flow_dropped_without_default() {
        let mut h = HfscScheduler::new(MBPS, 8);
        assert!(!h.enqueue(
            SchedPacket {
                flow: 42,
                len: 100,
                arrival_ns: 0,
                cookie: 0
            },
            0
        ));
        let root = h.root();
        let c = h.add_class(root, MBPS, None);
        h.set_default_class(c);
        assert!(h.enqueue(
            SchedPacket {
                flow: 42,
                len: 100,
                arrival_ns: 0,
                cookie: 0
            },
            0
        ));
        assert_eq!(h.dequeue(0).unwrap().flow, 42);
    }

    #[test]
    fn internal_class_refuses_packets() {
        let mut h = HfscScheduler::new(MBPS, 8);
        let root = h.root();
        let a = h.add_class(root, MBPS, None);
        let _leaf = h.add_class(a, MBPS, None);
        h.bind_flow(1, a); // an internal class
        assert!(!h.enqueue(
            SchedPacket {
                flow: 1,
                len: 100,
                arrival_ns: 0,
                cookie: 0
            },
            0
        ));
        assert_eq!(h.drops(), 1);
    }
}
