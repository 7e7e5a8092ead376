//! The streamlined IPv4/IPv6 core (paper §3.1): "the (few) components
//! required for packet processing which do not come in the form of
//! dynamically loadable modules" — header validation, TTL / hop-limit
//! handling, and the routing-table types. The gate traversal that stitches
//! plugins into this path lives in [`crate::router`].

use rp_lpm::{Dir24Table, LpmTable, PatriciaTable, Prefix};

pub use rp_lpm::FibStats;
use rp_packet::ipv4::Ipv4Packet;
use rp_packet::ipv6::Ipv6Packet;
use rp_packet::mbuf::IfIndex;
use rp_packet::{IpVersion, Mbuf};
use std::net::IpAddr;

use crate::gate::Gate;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Unparseable or version-inconsistent header.
    Malformed,
    /// IPv4 header checksum failed.
    BadChecksum,
    /// TTL / hop limit expired in transit.
    TtlExpired,
    /// No route to the destination.
    NoRoute,
    /// A plugin instance dropped it (firewall, RED, IPsec failure…).
    Plugin(Gate),
    /// The egress queue refused it.
    QueueFull,
    /// Larger than the egress MTU and cannot be fragmented (IPv6, or the
    /// IPv4 don't-fragment bit is set).
    TooBig,
    /// A plugin instance faulted (panicked or blew its packet budget)
    /// while holding the packet; the supervisor counted the fault and
    /// dropped the packet rather than forwarding possibly-torn state.
    PluginFault(Gate),
    /// The data path found its own state inconsistent (e.g. a flow record
    /// vanished between classification and the gate call). Counted, never
    /// a panic.
    Internal,
    /// Shed at the dispatcher of a parallel data plane: the owning
    /// shard's ingress FIFO stayed full past the bounded-wait budget.
    /// The shard is healthy but oversubscribed; loss is counted here
    /// instead of stalling the ingress thread forever.
    ShardOverload,
    /// Shed at the dispatcher of a parallel data plane: the owning shard
    /// is dead, stalled, or awaiting restart, so the packet had no
    /// worker to go to. Also covers packets that were queued on a shard
    /// when it died (the restart accounting attributes them here —
    /// zero silent loss).
    ShardDown,
    /// Dropped at a network device's receive side before the IP core ever
    /// saw an IP packet: truncated L2 frame, non-IP ethertype, or a
    /// failed decapsulation. Counted by the I/O plane so the device-level
    /// conservation ledger (`device_rx == forwarded + Σdrops`) stays
    /// exact.
    DeviceRx,
    /// Forwarded by the data path but refused by the egress device (write
    /// error, device gone). The I/O plane re-accounts the packet from
    /// `forwarded` into this counter — the wire never carried it.
    DeviceTx,
    /// Shed because the packet was already older than the configured
    /// `max_sojourn_ns` deadline when its shard dequeued it: forwarding
    /// it would only have delivered it uselessly late while stealing
    /// service from packets that can still meet the SLO. Latency
    /// degrades gracefully (drops, not collapse) and conservation stays
    /// exact.
    DeadlineExceeded,
    /// Purged from a scheduler queue with its recycled flow record; the
    /// view takes it back out of `forwarded`, as it does `DeviceTx`.
    Evicted,
}

/// Final outcome of processing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Emitted directly on the egress interface.
    Forwarded(IfIndex),
    /// Handed to the egress scheduler; will leave via `pump`.
    Queued(IfIndex),
    /// Dropped.
    Dropped(DropReason),
    /// A non-scheduling plugin took ownership (e.g. a monitor diverting a
    /// copy, or an ESP tunnel re-injecting).
    Consumed(Gate),
}

/// Data-path counters (Table 3 instrumentation). On [`crate::Router`] and
/// the parallel plane this is a view of the metrics registry
/// ([`crate::obs::MetricsRegistry::data_path`]), never a second count; the
/// monolithic reference routers fill their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPathStats {
    /// Packets handed to the core.
    pub received: u64,
    /// Packets forwarded or queued for egress.
    pub forwarded: u64,
    /// Drops by reason (indexed informally; see the individual counters).
    pub dropped_malformed: u64,
    /// TTL-expired drops.
    pub dropped_ttl: u64,
    /// No-route drops.
    pub dropped_no_route: u64,
    /// Plugin-initiated drops.
    pub dropped_plugin: u64,
    /// Egress-queue drops.
    pub dropped_queue: u64,
    /// Gate invocations that called a plugin instance.
    pub plugin_calls: u64,
    /// Packets fragmented at egress.
    pub fragmented: u64,
    /// Packets egress fragmentation added (k − 1 per packet cut into k):
    /// conservation reads `received + fragments == forwarded + Σdrops`.
    pub fragments: u64,
    /// Too-big drops (DF set or IPv6 over-MTU).
    pub dropped_too_big: u64,
    /// Plugin faults observed by the supervisor (panics and packet-budget
    /// overruns, across all instances).
    pub plugin_faults: u64,
    /// Packets dropped because the instance processing them faulted.
    pub dropped_fault: u64,
    /// Packets dropped on internal data-path inconsistencies.
    pub dropped_internal: u64,
    /// Packets shed at the dispatcher because the owning shard's ingress
    /// FIFO stayed full past the bounded-wait budget (parallel plane
    /// only; always 0 on a single router).
    pub dropped_shard_overload: u64,
    /// Packets shed at the dispatcher because the owning shard was dead,
    /// stalled, or awaiting restart — including packets that were queued
    /// on a shard when it died (parallel plane only).
    pub dropped_shard_down: u64,
    /// Frames dropped at a device's receive side before IP processing
    /// (truncated / non-IP L2 frames; I/O plane only, always 0 without
    /// bound devices).
    pub dropped_device_rx: u64,
    /// Forwarded packets the egress device refused to transmit (I/O plane
    /// only).
    pub dropped_device_tx: u64,
    /// Packets shed because they were already past the configured
    /// end-to-end latency deadline (`max_sojourn_ns`) when their shard
    /// dequeued them (always 0 unless a deadline is configured).
    pub dropped_deadline: u64,
    /// Queued packets purged when their flow record was recycled.
    pub dropped_evicted: u64,
    /// Instances moved to quarantine.
    pub plugin_quarantines: u64,
    /// Successful supervised instance restarts.
    pub plugin_restarts: u64,
}

impl DataPathStats {
    /// Total drops across every reason counter.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_malformed
            + self.dropped_ttl
            + self.dropped_no_route
            + self.dropped_plugin
            + self.dropped_queue
            + self.dropped_too_big
            + self.dropped_fault
            + self.dropped_internal
            + self.dropped_shard_overload
            + self.dropped_shard_down
            + self.dropped_device_rx
            + self.dropped_device_tx
            + self.dropped_deadline
            + self.dropped_evicted
    }
}

/// Validate the IP header and decrement TTL / hop limit in place.
/// Returns the version on success.
pub fn validate_and_age(
    mbuf: &mut Mbuf,
    verify_v4_checksum: bool,
) -> Result<IpVersion, DropReason> {
    let version = IpVersion::of_packet(mbuf.data()).map_err(|_| DropReason::Malformed)?;
    match version {
        IpVersion::V4 => {
            let mut pkt =
                Ipv4Packet::new_checked(mbuf.data_mut()).map_err(|_| DropReason::Malformed)?;
            if verify_v4_checksum && !pkt.verify_checksum() {
                return Err(DropReason::BadChecksum);
            }
            let ttl = pkt.decrement_ttl().map_err(|_| DropReason::TtlExpired)?;
            if ttl == 0 {
                return Err(DropReason::TtlExpired);
            }
        }
        IpVersion::V6 => {
            let mut pkt =
                Ipv6Packet::new_checked(mbuf.data_mut()).map_err(|_| DropReason::Malformed)?;
            let hl = pkt
                .decrement_hop_limit()
                .map_err(|_| DropReason::TtlExpired)?;
            if hl == 0 {
                return Err(DropReason::TtlExpired);
            }
        }
    }
    Ok(version)
}

/// A routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteEntry {
    /// Egress interface.
    pub tx_if: IfIndex,
}

/// Hot-prefix FIB cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibCacheStats {
    /// Cached lookups answered from the exact-match array.
    pub hits: u64,
    /// Cached lookups that fell through to the full trie.
    pub misses: u64,
    /// Cache entries cleared because a route insert/withdraw covered
    /// their address (the hidden-prefix hazard).
    pub invalidations: u64,
}

/// Default FIB-cache size (slots; 2-way set-associative, one address
/// each). Sized so a few hundred concurrently-hot destinations rarely
/// collide; at ~40 bytes a slot the whole cache is still well under L2.
pub const FIB_CACHE_SLOTS: usize = 8192;

/// Dual-stack longest-prefix-match routing table, fronted by a small 2-way
/// set-associative exact-match cache over *addresses* (not prefixes).
///
/// **RIB and FIB.** Both families keep their routes in a PATRICIA trie (as
/// in the BSD kernel the paper modifies) — the RIB, which `add`/`remove`
/// edit. For IPv4, [`RoutingTable::optimize`] compiles the RIB into a
/// DIR-24-8 FIB whose first level is one run-compressed 128-B chunk per
/// /16 ([`rp_lpm::Dir24Table`]): from then on an uncached lookup reads
/// one chunk and a leaf in it (and one group slot past /24) instead of
/// one dependent load per trie level, and every later `add`/`remove`
/// repaints just the chunks the changed prefix overlaps so the FIB stays
/// exact. A table that is never optimized — a test router with a handful
/// of routes — walks the trie and never allocates the FIB's 8 MB. IPv6
/// always walks its trie.
///
/// **FIB cache.** Internet traffic is heavy-tailed — a few popular
/// destinations dominate — so a tiny cache absorbs most lookups. It stays
/// in front of the compiled FIB too: a hit is one load from a cache that
/// fits in L2, a miss reads two lines of 8 MB of chunks that share the
/// last-level cache with the flow table and the filter DAGs.
///
/// The correctness hazard of FIB caching is the **hidden prefix**: a cached
/// answer for address `a` embeds the best-matching prefix at fill time, so
/// inserting a *more specific* route covering `a` (or withdrawing the one
/// the answer came from) silently invalidates it. [`RoutingTable::add`] and
/// [`RoutingTable::remove`] therefore scan the cache and clear every entry
/// whose address the changed prefix matches — the conservative form of the
/// invalidation rule from the FIB-caching literature. The scan is skipped
/// entirely while the cache is empty, so bulk route loading stays linear.
pub struct RoutingTable {
    v4: Dir24Table<RouteEntry>,
    v6: PatriciaTable<u128, RouteEntry>,
    /// Two-way set-associative address cache (consecutive slot pairs form
    /// a set, MRU first); empty vector = caching disabled.
    cache: Vec<Option<(IpAddr, RouteEntry)>>,
    /// Occupied cache slots (0 ⇒ invalidation scans can be skipped).
    cache_live: usize,
    cache_stats: FibCacheStats,
}

impl Default for RoutingTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingTable {
    /// Empty table with the default hot-prefix cache.
    pub fn new() -> Self {
        Self::with_cache(FIB_CACHE_SLOTS)
    }

    /// Empty table with a `slots`-entry FIB cache (rounded up to a power
    /// of two; 0 disables caching — [`RoutingTable::lookup_cached`] then
    /// degenerates to [`RoutingTable::lookup`]).
    pub fn with_cache(slots: usize) -> Self {
        let slots = if slots == 0 {
            0
        } else {
            slots.next_power_of_two().max(2)
        };
        RoutingTable {
            v4: Dir24Table::new(),
            v6: PatriciaTable::new(),
            cache: vec![None; slots],
            cache_live: 0,
            cache_stats: FibCacheStats::default(),
        }
    }

    /// Base slot of an address's 2-way set (cache must be non-empty).
    /// The set is `{base, base + 1}` with the MRU entry kept at `base`;
    /// two-way associativity stops a pair of hot destinations that hash
    /// alike from evicting each other on every alternate packet, which
    /// is the classic direct-mapped failure mode.
    fn cache_set(&self, addr: IpAddr) -> usize {
        let h = match addr {
            IpAddr::V4(a) => u64::from(u32::from(a)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            IpAddr::V6(a) => {
                let v = u128::from(a);
                ((v as u64) ^ ((v >> 64) as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
        };
        ((h >> 32) as usize & (self.cache.len() / 2 - 1)) * 2
    }

    /// Clear every cache entry whose address the changed prefix matches.
    /// No-op while the cache is empty, so bulk loads never pay the scan.
    fn invalidate_covered(&mut self, addr: IpAddr, prefix_len: u8) {
        if self.cache_live == 0 {
            return;
        }
        let mut cleared = 0usize;
        match addr {
            IpAddr::V4(a) => {
                let p = Prefix::new(u32::from(a), prefix_len);
                for slot in self.cache.iter_mut() {
                    if let Some((IpAddr::V4(ca), _)) = slot {
                        if p.matches(u32::from(*ca)) {
                            *slot = None;
                            cleared += 1;
                        }
                    }
                }
            }
            IpAddr::V6(a) => {
                let p = Prefix::new(u128::from(a), prefix_len);
                for slot in self.cache.iter_mut() {
                    if let Some((IpAddr::V6(ca), _)) = slot {
                        if p.matches(u128::from(*ca)) {
                            *slot = None;
                            cleared += 1;
                        }
                    }
                }
            }
        }
        self.cache_live -= cleared;
        self.cache_stats.invalidations += cleared as u64;
    }

    /// Add a route for an address prefix.
    pub fn add(&mut self, addr: IpAddr, prefix_len: u8, entry: RouteEntry) {
        match addr {
            IpAddr::V4(a) => {
                self.v4.insert(Prefix::new(u32::from(a), prefix_len), entry);
            }
            IpAddr::V6(a) => {
                self.v6
                    .insert(Prefix::new(u128::from(a), prefix_len), entry);
            }
        }
        self.invalidate_covered(addr, prefix_len);
    }

    /// Remove a route.
    pub fn remove(&mut self, addr: IpAddr, prefix_len: u8) -> Option<RouteEntry> {
        let out = match addr {
            IpAddr::V4(a) => self.v4.remove(Prefix::new(u32::from(a), prefix_len)),
            IpAddr::V6(a) => self.v6.remove(Prefix::new(u128::from(a), prefix_len)),
        };
        if out.is_some() {
            self.invalidate_covered(addr, prefix_len);
        }
        out
    }

    /// Longest-prefix-match lookup against the full table, bypassing the
    /// cache. The uncached reference path — differential tests compare
    /// [`RoutingTable::lookup_cached`] against this.
    pub fn lookup(&self, addr: IpAddr) -> Option<RouteEntry> {
        match addr {
            IpAddr::V4(a) => self.v4.lookup(u32::from(a)).copied(),
            IpAddr::V6(a) => self.v6.lookup(u128::from(a)).map(|(e, _)| *e),
        }
    }

    /// Hint a coming lookup of `addr` ([`Dir24Table::prefetch`]): IPv4 on a compiled FIB only.
    pub fn prefetch(&self, addr: IpAddr) {
        if let IpAddr::V4(a) = addr {
            self.v4.prefetch(u32::from(a));
        }
    }

    /// Longest-prefix-match lookup through the hot-prefix cache. Positive
    /// answers are cached (2-way set-associative, LRU-of-two evicted);
    /// negative answers
    /// are not, so a later route add needs no negative invalidation.
    pub fn lookup_cached(&mut self, addr: IpAddr) -> Option<RouteEntry> {
        if self.cache.is_empty() {
            return self.lookup(addr);
        }
        let s = self.cache_set(addr);
        if let Some((ca, e)) = self.cache[s] {
            if ca == addr {
                self.cache_stats.hits += 1;
                return Some(e);
            }
        }
        if let Some((ca, e)) = self.cache[s + 1] {
            if ca == addr {
                self.cache_stats.hits += 1;
                self.cache.swap(s, s + 1);
                return Some(e);
            }
        }
        self.cache_stats.misses += 1;
        let out = self.lookup(addr);
        if let Some(e) = out {
            // New entry becomes the set's MRU; the old MRU shifts to the
            // LRU way, evicting whatever was there.
            if self.cache[s].is_none() {
                self.cache[s] = Some((addr, e));
                self.cache_live += 1;
            } else {
                if self.cache[s + 1].is_none() {
                    self.cache_live += 1;
                }
                self.cache[s + 1] = self.cache[s].replace((addr, e));
            }
        }
        out
    }

    /// FIB-cache counters.
    pub fn fib_cache_stats(&self) -> FibCacheStats {
        self.cache_stats
    }

    /// Compile the IPv4 RIB into its direct-index FIB (see
    /// [`rp_lpm::Dir24Table::compile`]) and repack the IPv6 trie
    /// breadth-first for cache-line adjacency (see
    /// [`PatriciaTable::repack`]). Call after bulk route loading; lookups
    /// are unaffected semantically, and later route updates keep the FIB
    /// exact without another call.
    pub fn optimize(&mut self) {
        self.v4.compile();
        self.v6.repack();
    }

    /// Whether IPv4 lookups are on the compiled FIB, and what it holds.
    pub fn fib_stats(&self) -> FibStats {
        self.v4.stats()
    }

    /// Number of routes (both families).
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fragment an IPv4 packet to fit `mtu` (RFC 791 §3.2). Returns the
/// fragment buffers in order. Fails with [`DropReason::TooBig`] when the
/// don't-fragment bit is set; IPv6 packets are never fragmented in
/// transit (the caller drops and would emit Packet Too Big).
pub fn fragment_v4(data: &[u8], mtu: usize) -> Result<Vec<Vec<u8>>, DropReason> {
    fragment_v4_with(data, mtu, &mut Vec::new)
}

/// [`fragment_v4`] with caller-supplied fragment buffers: `acquire`
/// yields an empty `Vec<u8>` for each fragment (the router passes its
/// mbuf pool's `buffer`, making fragment emission allocation-free once
/// the pool is warm; plain callers pass `Vec::new`).
pub fn fragment_v4_with(
    data: &[u8],
    mtu: usize,
    acquire: &mut dyn FnMut() -> Vec<u8>,
) -> Result<Vec<Vec<u8>>, DropReason> {
    use rp_packet::ipv4::Ipv4Packet;
    use rp_packet::ipv4_opts::{build_options, Ipv4Option, OptionIter, OptionKind};
    let pkt = Ipv4Packet::new_checked(data).map_err(|_| DropReason::Malformed)?;
    if data.len() <= mtu {
        let mut whole = acquire();
        whole.extend_from_slice(data);
        return Ok(vec![whole]);
    }
    if pkt.dont_frag() {
        return Err(DropReason::TooBig);
    }
    let hdr_len = pkt.header_len();
    // Options for fragment 1 = all; for the rest = copied-only.
    let copied: Vec<(OptionKind, Vec<u8>)> = OptionIter::from_slice(pkt.options())
        .filter_map(|o| o.ok())
        .filter(|o: &Ipv4Option<'_>| o.kind.copied())
        .map(|o| (o.kind, o.data.to_vec()))
        .collect();
    let copied_refs: Vec<(OptionKind, &[u8])> =
        copied.iter().map(|(k, d)| (*k, d.as_slice())).collect();
    let later_opts = build_options(&copied_refs);
    let later_hdr_len = 20 + later_opts.len();

    let payload = pkt.payload();
    let base_offset = usize::from(pkt.frag_offset()) * 8;
    let orig_mf = pkt.more_frags();

    let mut frags = Vec::new();
    let mut consumed = 0usize;
    while consumed < payload.len() {
        let first = consumed == 0;
        let this_hdr = if first { hdr_len } else { later_hdr_len };
        let room = ((mtu - this_hdr) / 8) * 8;
        if room == 0 {
            return Err(DropReason::TooBig);
        }
        let take = room.min(payload.len() - consumed);
        let last = consumed + take == payload.len();
        let mut buf = acquire();
        buf.reserve(this_hdr + take);
        buf.extend_from_slice(&data[..20]);
        if first {
            buf.extend_from_slice(pkt.options());
        } else {
            buf.extend_from_slice(&later_opts);
        }
        buf.extend_from_slice(&payload[consumed..consumed + take]);
        {
            let mut f = Ipv4Packet::new_unchecked(&mut buf[..]);
            // IHL for this fragment.
            let ihl = (this_hdr / 4) as u8;
            f.set_total_len((this_hdr + take) as u16);
            let offset_units = ((base_offset + consumed) / 8) as u16;
            let mf = if last && !orig_mf { 0u16 } else { 0x2000 };
            let word = mf | (offset_units & 0x1FFF);
            let bytes = f.into_inner();
            bytes[0] = 0x40 | ihl;
            bytes[6] = (word >> 8) as u8;
            bytes[7] = word as u8;
        }
        let mut f = Ipv4Packet::new_unchecked(&mut buf[..]);
        f.fill_checksum();
        frags.push(buf);
        consumed += take;
    }
    Ok(frags)
}

/// Build an ICMP / ICMPv6 Time Exceeded message quoting `original`,
/// sourced from `router_addr` and addressed to the original sender.
/// Returns `None` when the original is unparsable or the address
/// families mismatch.
pub fn build_time_exceeded(router_addr: IpAddr, original: &[u8]) -> Option<Vec<u8>> {
    use rp_packet::checksum;
    use rp_packet::icmp;
    use rp_packet::ipv4::{Ipv4Packet as V4, Ipv4Repr};
    use rp_packet::ipv6::{Ipv6Packet as V6, Ipv6Repr};
    use rp_packet::Protocol;

    match (IpVersion::of_packet(original).ok()?, router_addr) {
        (IpVersion::V4, IpAddr::V4(src)) => {
            let orig = V4::new_checked(original).ok()?;
            let body = icmp::time_exceeded(original);
            let repr = Ipv4Repr {
                src_addr: src,
                dst_addr: orig.src_addr(),
                protocol: Protocol::Icmp,
                payload_len: body.len(),
                ttl: 64,
                tos: 0,
            };
            let mut buf = vec![0u8; repr.buffer_len() + body.len()];
            let mut pkt = V4::new_unchecked(&mut buf[..]);
            repr.emit(&mut pkt);
            pkt.payload_mut().copy_from_slice(&body);
            Some(buf)
        }
        (IpVersion::V6, IpAddr::V6(src)) => {
            let orig = V6::new_checked(original).ok()?;
            // ICMPv6 Time Exceeded: type 3, code 0 (hop limit exceeded),
            // 4 reserved bytes, then as much of the packet as fits.
            let quote = &original[..original.len().min(1232 - 8)];
            let mut body = vec![0u8; 8 + quote.len()];
            body[0] = 3;
            body[8..].copy_from_slice(quote);
            let repr = Ipv6Repr {
                src_addr: src,
                dst_addr: orig.src_addr(),
                next_header: Protocol::Icmpv6,
                payload_len: body.len(),
                hop_limit: 64,
                traffic_class: 0,
                flow_label: 0,
            };
            // ICMPv6 checksum over pseudo-header + body.
            let mut c = checksum::pseudo_header_v6(
                src,
                orig.src_addr(),
                Protocol::Icmpv6,
                body.len() as u32,
            );
            c.add_bytes(&body);
            let sum = c.finish();
            body[2..4].copy_from_slice(&sum.to_be_bytes());
            let mut buf = vec![0u8; repr.buffer_len() + body.len()];
            let mut pkt = V6::new_unchecked(&mut buf[..]);
            repr.emit(&mut pkt);
            pkt.payload_mut().copy_from_slice(&body);
            Some(buf)
        }
        _ => None,
    }
}

/// Destination address of a packet (for the core routing step).
pub fn dst_of(mbuf: &Mbuf) -> Result<IpAddr, DropReason> {
    match IpVersion::of_packet(mbuf.data()).map_err(|_| DropReason::Malformed)? {
        IpVersion::V4 => Ok(IpAddr::V4(
            Ipv4Packet::new_checked(mbuf.data())
                .map_err(|_| DropReason::Malformed)?
                .dst_addr(),
        )),
        IpVersion::V6 => Ok(IpAddr::V6(
            Ipv6Packet::new_checked(mbuf.data())
                .map_err(|_| DropReason::Malformed)?
                .dst_addr(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_packet::builder::PacketSpec;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn v4(a: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, a))
    }

    fn v6(a: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, a))
    }

    #[test]
    fn age_v4_updates_checksum() {
        let buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 16).build();
        let mut m = Mbuf::new(buf, 0);
        assert_eq!(validate_and_age(&mut m, true).unwrap(), IpVersion::V4);
        let pkt = Ipv4Packet::new_checked(m.data()).unwrap();
        assert_eq!(pkt.ttl(), 63);
        assert!(pkt.verify_checksum());
    }

    #[test]
    fn ttl_expiry_detected() {
        let mut spec = PacketSpec::udp(v4(1), v4(2), 1, 2, 0);
        spec.ttl = 1;
        let mut m = Mbuf::new(spec.build(), 0);
        // Decrement 1 → 0: must not forward.
        assert_eq!(
            validate_and_age(&mut m, true).unwrap_err(),
            DropReason::TtlExpired
        );
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 0).build();
        buf[8] ^= 0xFF; // clobber TTL without fixing checksum
        let mut m = Mbuf::new(buf, 0);
        assert_eq!(
            validate_and_age(&mut m, true).unwrap_err(),
            DropReason::BadChecksum
        );
        // With verification off (the paper's kernel trusts its NICs), it
        // ages fine.
        let mut buf2 = PacketSpec::udp(v4(1), v4(2), 1, 2, 0).build();
        buf2[10] ^= 0x01;
        let mut m2 = Mbuf::new(buf2, 0);
        assert!(validate_and_age(&mut m2, false).is_ok());
    }

    #[test]
    fn age_v6() {
        let buf = PacketSpec::udp(v6(1), v6(2), 1, 2, 16).build();
        let mut m = Mbuf::new(buf, 0);
        assert_eq!(validate_and_age(&mut m, true).unwrap(), IpVersion::V6);
        let pkt = Ipv6Packet::new_checked(m.data()).unwrap();
        assert_eq!(pkt.hop_limit(), 63);
    }

    #[test]
    fn garbage_malformed() {
        let mut m = Mbuf::new(vec![0xFF; 10], 0);
        assert_eq!(
            validate_and_age(&mut m, true).unwrap_err(),
            DropReason::Malformed
        );
    }

    #[test]
    fn routing_table_lpm() {
        let mut rt = RoutingTable::new();
        rt.add(v4(0), 8, RouteEntry { tx_if: 1 });
        rt.add(v4(0), 24, RouteEntry { tx_if: 2 });
        rt.add(v6(0), 32, RouteEntry { tx_if: 3 });
        assert_eq!(rt.lookup(v4(5)).unwrap().tx_if, 2);
        assert_eq!(
            rt.lookup(IpAddr::V4(Ipv4Addr::new(10, 9, 9, 9)))
                .unwrap()
                .tx_if,
            1
        );
        assert_eq!(rt.lookup(v6(9)).unwrap().tx_if, 3);
        assert!(rt.lookup(IpAddr::V4(Ipv4Addr::new(11, 0, 0, 1))).is_none());
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.remove(v4(0), 24).unwrap().tx_if, 2);
        assert_eq!(rt.lookup(v4(5)).unwrap().tx_if, 1);
    }

    #[test]
    fn fib_cache_hits_and_counts() {
        let mut rt = RoutingTable::new();
        rt.add(v4(0), 8, RouteEntry { tx_if: 1 });
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 1);
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 1);
        let s = rt.fib_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // Negative lookups are not cached: both probes miss.
        assert!(rt
            .lookup_cached(IpAddr::V4(Ipv4Addr::new(11, 0, 0, 1)))
            .is_none());
        assert!(rt
            .lookup_cached(IpAddr::V4(Ipv4Addr::new(11, 0, 0, 1)))
            .is_none());
        assert_eq!(rt.fib_cache_stats().misses, 3);
    }

    #[test]
    fn fib_cache_hidden_prefix_invalidation() {
        let mut rt = RoutingTable::new();
        rt.add(v4(0), 8, RouteEntry { tx_if: 1 });
        // Warm the cache through the /8.
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 1);
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 1);
        // A more specific route covering the cached address must evict the
        // stale answer (the hidden-prefix hazard).
        rt.add(v4(0), 24, RouteEntry { tx_if: 2 });
        assert!(rt.fib_cache_stats().invalidations >= 1);
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 2);
        // Withdrawing it must fall back to the /8, not the cached /24.
        rt.remove(v4(0), 24);
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 1);
        // Removing a route that does not exist invalidates nothing.
        let inv = rt.fib_cache_stats().invalidations;
        assert!(rt.remove(v4(0), 24).is_none());
        assert_eq!(rt.fib_cache_stats().invalidations, inv);
    }

    #[test]
    fn fib_cache_disabled_matches_reference() {
        let mut rt = RoutingTable::with_cache(0);
        rt.add(v4(0), 8, RouteEntry { tx_if: 1 });
        assert_eq!(rt.lookup_cached(v4(5)).unwrap().tx_if, 1);
        let s = rt.fib_cache_stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 0, 0));
    }

    #[test]
    fn fib_cached_differential_with_route_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut cached = RoutingTable::with_cache(64); // tiny → heavy conflict traffic
        let mut plain = RoutingTable::with_cache(0);
        for step in 0..4000u32 {
            match rng.gen_range(0..10) {
                0..=2 => {
                    let a = IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>() & 0x0F0F_FFFF));
                    let len = rng.gen_range(0..=32);
                    let e = RouteEntry { tx_if: step % 7 };
                    cached.add(a, len, e);
                    plain.add(a, len, e);
                }
                3 => {
                    let a = IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>() & 0x0F0F_FFFF));
                    let len = rng.gen_range(0..=32);
                    assert_eq!(cached.remove(a, len), plain.remove(a, len));
                }
                _ => {
                    let a = IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>() & 0x0F0F_FFFF));
                    // Probe twice: the second lookup exercises the hit path
                    // whenever the first cached a positive answer.
                    assert_eq!(
                        cached.lookup_cached(a),
                        plain.lookup(a),
                        "addr {a} step {step}"
                    );
                    assert_eq!(
                        cached.lookup_cached(a),
                        plain.lookup(a),
                        "addr {a} step {step}"
                    );
                }
            }
        }
        assert!(cached.fib_cache_stats().hits > 0);
        assert!(cached.fib_cache_stats().invalidations > 0);
    }

    #[test]
    fn optimize_preserves_routes() {
        let mut rt = RoutingTable::new();
        rt.add(v4(0), 8, RouteEntry { tx_if: 1 });
        rt.add(v4(0), 24, RouteEntry { tx_if: 2 });
        rt.add(v6(0), 32, RouteEntry { tx_if: 3 });
        rt.optimize();
        assert_eq!(rt.lookup(v4(5)).unwrap().tx_if, 2);
        assert_eq!(rt.lookup(v6(9)).unwrap().tx_if, 3);
        assert_eq!(rt.len(), 3);
    }

    #[test]
    fn fragment_v4_copied_options() {
        use rp_packet::ipv4::Ipv4Packet;
        use rp_packet::ipv4_opts::{OptionIter, OptionKind};
        // Router-alert has the copied bit; record-route does not.
        let mut spec = PacketSpec::udp(v4(1), v4(2), 1, 2, 1000);
        spec.v4_options = vec![
            (OptionKind::ROUTER_ALERT.0, vec![0, 0]),
            (OptionKind::RECORD_ROUTE.0, vec![4, 0, 0, 0, 0]),
        ];
        let mut buf = spec.build();
        {
            let p = Ipv4Packet::new_unchecked(&mut buf[..]);
            let b = p.into_inner();
            b[6] &= !0x40; // clear DF
            let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
            p.fill_checksum();
        }
        let frags = fragment_v4(&buf, 400).unwrap();
        assert!(frags.len() >= 3);
        // Fragment 1 keeps both options; later fragments only the copied
        // router alert.
        let f0 = Ipv4Packet::new_checked(&frags[0][..]).unwrap();
        let kinds0: Vec<u8> = OptionIter::from_slice(f0.options())
            .map(|o| o.unwrap().kind.0)
            .collect();
        assert!(kinds0.contains(&OptionKind::ROUTER_ALERT.0));
        assert!(kinds0.contains(&OptionKind::RECORD_ROUTE.0));
        let f1 = Ipv4Packet::new_checked(&frags[1][..]).unwrap();
        let kinds1: Vec<u8> = OptionIter::from_slice(f1.options())
            .filter_map(|o| o.ok())
            .map(|o| o.kind.0)
            .filter(|k| *k != 0 && *k != 1)
            .collect();
        assert_eq!(kinds1, vec![OptionKind::ROUTER_ALERT.0]);
        for f in &frags {
            assert!(Ipv4Packet::new_checked(&f[..]).unwrap().verify_checksum());
        }
    }

    #[test]
    fn fragment_v4_under_mtu_is_identity() {
        let buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 64).build();
        let frags = fragment_v4(&buf, 1500).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], buf);
    }

    #[test]
    fn fragment_v4_df_refused() {
        let buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 2000).build(); // DF set
        assert_eq!(fragment_v4(&buf, 600).unwrap_err(), DropReason::TooBig);
    }

    #[test]
    fn icmp_time_exceeded_v4() {
        let orig = PacketSpec::udp(v4(1), v4(2), 5, 6, 64).build();
        let reply = build_time_exceeded(v4(254), &orig).unwrap();
        let pkt = rp_packet::ipv4::Ipv4Packet::new_checked(&reply[..]).unwrap();
        assert!(pkt.verify_checksum());
        assert_eq!(pkt.src_addr(), Ipv4Addr::new(10, 0, 0, 254));
        assert_eq!(pkt.dst_addr(), Ipv4Addr::new(10, 0, 0, 1));
        let icmp = rp_packet::icmp::IcmpPacket::new_checked(pkt.payload()).unwrap();
        assert_eq!(icmp.msg_type(), 11);
        assert!(icmp.verify_checksum());
    }

    #[test]
    fn icmp_time_exceeded_v6() {
        let orig = PacketSpec::udp(v6(1), v6(2), 5, 6, 64).build();
        let reply = build_time_exceeded(v6(254), &orig).unwrap();
        let pkt = rp_packet::ipv6::Ipv6Packet::new_checked(&reply[..]).unwrap();
        assert_eq!(pkt.next_header(), rp_packet::Protocol::Icmpv6);
        assert_eq!(pkt.dst_addr().segments()[7], 1);
        // Verify ICMPv6 checksum.
        let mut c = rp_packet::checksum::pseudo_header_v6(
            pkt.src_addr(),
            pkt.dst_addr(),
            rp_packet::Protocol::Icmpv6,
            pkt.payload().len() as u32,
        );
        c.add_bytes(pkt.payload());
        assert_eq!(c.finish(), 0);
        assert_eq!(pkt.payload()[0], 3); // time exceeded
    }

    #[test]
    fn icmp_family_mismatch_none() {
        let orig = PacketSpec::udp(v4(1), v4(2), 5, 6, 8).build();
        assert!(build_time_exceeded(v6(254), &orig).is_none());
        assert!(build_time_exceeded(v4(254), &[0xFF; 4]).is_none());
    }

    #[test]
    fn dst_extraction() {
        let m = Mbuf::new(PacketSpec::udp(v4(1), v4(2), 1, 2, 0).build(), 0);
        assert_eq!(dst_of(&m).unwrap(), v4(2));
        let m = Mbuf::new(PacketSpec::udp(v6(1), v6(2), 1, 2, 0).build(), 0);
        assert_eq!(dst_of(&m).unwrap(), v6(2));
    }
}
