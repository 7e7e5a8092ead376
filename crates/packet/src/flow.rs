//! The six-tuple `<source address, destination address, protocol, source
//! port, destination port, incoming interface>` (paper §3) and its
//! extraction from raw packets.
//!
//! Extraction is the part of classification every gate shares: parse the IP
//! header, walk IPv6 extension headers to the transport protocol, read the
//! ports. It produces a [`FlowKey`] — the six-tuple as eleven words, which
//! the flow table hashes and compares and the filter tables match field by
//! field. The [`FlowTuple`] is the key's readable form, for code that
//! spells a flow out: traffic generators, reports and tests.

use crate::ext_hdr;
use crate::ip::{IpVersion, Protocol};
use crate::ipv4::Ipv4Packet;
use crate::ipv6::Ipv6Packet;
use crate::mbuf::{IfIndex, Mbuf};
use crate::wire::{get_u16, get_u32};
use crate::{Error, Result};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The six-tuple as the flow table keys it: eleven 32-bit words, hashed
/// and compared whole. Words 0–3 hold the source address, 4–7 the
/// destination (IPv6 in network order; IPv4 in the first word, the other
/// three zero), 8 `sport << 16 | dport`, 9 the incoming interface, and 10
/// the protocol in bits 0–7 plus one bit per address that is IPv6 (8:
/// source, 9: destination) — so `FlowKey::of(&t).tuple() == t` for every
/// tuple, mixed families included. 44 bytes, as the [`FlowTuple`] it
/// replaces in a flow record.
#[derive(Debug, Clone, Copy, Default, Eq)]
pub struct FlowKey([u32; 11]);

impl PartialEq for FlowKey {
    /// Word by word with no early exit: the derived compare of the array
    /// is a `bcmp` call, on every flow-cache probe.
    #[inline]
    fn eq(&self, other: &FlowKey) -> bool {
        self.0.iter().zip(&other.0).fold(0, |d, (a, b)| d | (a ^ b)) == 0
    }
}

/// The key of a tuple, for an interface that takes either spelling.
impl From<&FlowTuple> for FlowKey {
    fn from(t: &FlowTuple) -> FlowKey {
        FlowKey::of(t)
    }
}

/// Exactly the text of the key's [`FlowTuple`].
impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.tuple(), f)
    }
}

const SRC_V6: u32 = 1 << 8;
const DST_V6: u32 = 1 << 9;

impl FlowKey {
    /// Extract the key from a packet buffer plus its receive interface:
    /// the one flow-identity parser. For IPv6, walks the extension chain
    /// to the upper-layer protocol. Port-less protocols and fragments get
    /// zero ports; a TCP or UDP header too short for its ports is
    /// [`Error::Truncated`].
    #[inline]
    pub fn extract(data: &[u8], rx_if: IfIndex) -> Result<FlowKey> {
        if IpVersion::of_packet(data)? == IpVersion::V6 {
            return Self::extract_v6(data, rx_if);
        }
        // IPv4 fields by offset: no accessor calls, no `Protocol` round trip.
        let ip = Ipv4Packet::new_checked(data)?;
        let proto = data[9];
        // Fragments are keyed port-less: non-first fragments carry no
        // transport header (mid-datagram bytes would be read as "ports"),
        // and the first fragment must land in the same flow record — and
        // on the same shard — as the rest, so it gets the same
        // <src, dst, proto, rx_if> key. 0x3FFF is MF plus the offset.
        let fragment = get_u16(data, 6) & 0x3FFF != 0;
        let has_ports = proto == u8::from(Protocol::Tcp) || proto == u8::from(Protocol::Udp);
        let ports = ports(ip.payload(), fragment || !has_ports)?;
        let (src, dst, proto) = (get_u32(data, 12), get_u32(data, 16), proto.into());
        Ok(FlowKey([src, 0, 0, 0, dst, 0, 0, 0, ports, rx_if, proto]))
    }

    /// The IPv6 half of [`Self::extract`]. Inlined although IPv4 traffic
    /// never runs it: as a call, its return slot puts the IPv4 key in
    /// memory as well, written a word at a time and read back in wider
    /// loads that cannot be forwarded from those stores.
    #[inline]
    fn extract_v6(data: &[u8], rx_if: IfIndex) -> Result<FlowKey> {
        let ip = Ipv6Packet::new_checked(data)?;
        let walk = ext_hdr::walk_chain(ip.next_header(), ip.payload())?;
        let upper = &ip.payload()[walk.upper_offset..];
        // Same port-less keying as v4 whenever a fragment header is
        // present (the first fragment included).
        let portless = walk.fragment.is_some() || !walk.upper_protocol.has_ports();
        let mut w = [0u32; 11];
        for (i, word) in w[..8].iter_mut().enumerate() {
            *word = get_u32(data, 8 + 4 * i);
        }
        w[8] = ports(upper, portless)?;
        w[9] = rx_if;
        w[10] = u32::from(u8::from(walk.upper_protocol)) | SRC_V6 | DST_V6;
        Ok(FlowKey(w))
    }

    /// The key of a tuple.
    #[inline]
    pub fn of(t: &FlowTuple) -> FlowKey {
        let mut w = [0u32; 11];
        let src_v6 = u32::from(put_addr(t.src, &mut w[0..4]));
        let dst_v6 = u32::from(put_addr(t.dst, &mut w[4..8]));
        w[8] = u32::from(t.sport) << 16 | u32::from(t.dport);
        w[9] = t.rx_if;
        w[10] = u32::from(t.proto) | (src_v6 * SRC_V6) | (dst_v6 * DST_V6);
        FlowKey(w)
    }

    /// The tuple this key stands for.
    #[inline]
    pub fn tuple(&self) -> FlowTuple {
        FlowTuple {
            src: self.src(),
            dst: self.dst(),
            proto: self.proto(),
            sport: self.sport(),
            dport: self.dport(),
            rx_if: self.rx_if(),
        }
    }

    /// Source address.
    #[inline]
    pub fn src(&self) -> IpAddr {
        addr_of(&self.0[0..4], self.0[10] & SRC_V6 != 0)
    }

    /// Destination address.
    #[inline]
    pub fn dst(&self) -> IpAddr {
        addr_of(&self.0[4..8], self.0[10] & DST_V6 != 0)
    }

    /// Transport protocol number.
    #[inline]
    pub fn proto(&self) -> u8 {
        self.0[10] as u8
    }

    /// Source port (0 when the protocol has none).
    #[inline]
    pub fn sport(&self) -> u16 {
        (self.0[8] >> 16) as u16
    }

    /// Destination port (0 when the protocol has none).
    #[inline]
    pub fn dport(&self) -> u16 {
        self.0[8] as u16
    }

    /// Incoming interface.
    #[inline]
    pub fn rx_if(&self) -> IfIndex {
        self.0[9]
    }

    /// The eleven words, laid out as the type's documentation says.
    #[inline]
    pub fn words(&self) -> &[u32; 11] {
        &self.0
    }
}

/// `sport << 16 | dport` from a transport header, 0 when `portless`. A
/// TCP/UDP header shorter than its port fields is truncated garbage;
/// reading it as port 0 would alias it with the port-less protocols.
#[inline]
fn ports(transport: &[u8], portless: bool) -> Result<u32> {
    match *transport {
        _ if portless => Ok(0),
        [a, b, c, d, ..] => Ok(u32::from_be_bytes([a, b, c, d])),
        _ => Err(Error::Truncated),
    }
}

/// Write `addr` into its four key words; true when it is IPv6.
#[inline]
fn put_addr(addr: IpAddr, words: &mut [u32]) -> bool {
    match addr {
        IpAddr::V4(a) => words[0] = a.into(),
        IpAddr::V6(a) => {
            let b = u128::from(a);
            for (i, w) in words.iter_mut().enumerate() {
                *w = (b >> (96 - 32 * i)) as u32;
            }
        }
    }
    addr.is_ipv6()
}

/// The address four key words hold.
#[inline]
fn addr_of(words: &[u32], v6: bool) -> IpAddr {
    if v6 {
        let b = words.iter().fold(0u128, |b, &w| b << 32 | u128::from(w));
        IpAddr::V6(Ipv6Addr::from(b))
    } else {
        IpAddr::V4(Ipv4Addr::from(words[0]))
    }
}

/// A fully specified flow identity — the paper's six-tuple with no
/// wildcards. Flow-table entries are keyed by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowTuple {
    /// Source IP address.
    pub src: IpAddr,
    /// Destination IP address.
    pub dst: IpAddr,
    /// Transport protocol number.
    pub proto: u8,
    /// Source port (0 when the protocol has none).
    pub sport: u16,
    /// Destination port (0 when the protocol has none).
    pub dport: u16,
    /// Incoming interface.
    pub rx_if: IfIndex,
}

impl FlowTuple {
    /// Extract the six-tuple from a packet buffer plus its receive
    /// interface: [`FlowKey::extract`], read back as a tuple.
    pub fn extract(data: &[u8], rx_if: IfIndex) -> Result<FlowTuple> {
        FlowKey::extract(data, rx_if).map(|k| k.tuple())
    }

    /// Extract from an [`Mbuf`], using its receive interface.
    pub fn from_mbuf(mbuf: &Mbuf) -> Result<FlowTuple> {
        Self::extract(mbuf.data(), mbuf.rx_if)
    }
}

impl fmt::Display for FlowTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}, {}, {}, {}, {}, if{}>",
            self.src,
            self.dst,
            Protocol::from(self.proto),
            self.sport,
            self.dport,
            self.rx_if
        )
    }
}

/// True when the packet is an IP fragment (IPv4 with a nonzero fragment
/// offset or MF set; IPv6 carrying a fragment extension header). Such packets
/// are classified port-less — this predicate lets the data path count them.
pub fn is_fragment(data: &[u8]) -> bool {
    match IpVersion::of_packet(data) {
        Ok(IpVersion::V4) => Ipv4Packet::new_checked(data)
            .map(|ip| ip.frag_offset() > 0 || ip.more_frags())
            .unwrap_or(false),
        Ok(IpVersion::V6) => Ipv6Packet::new_checked(data)
            .and_then(|ip| ext_hdr::walk_chain(ip.next_header(), ip.payload()))
            .map(|walk| walk.fragment.is_some())
            .unwrap_or(false),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Repr;
    use crate::ipv6::Ipv6Repr;
    use crate::udp::{UdpPacket, UdpRepr};
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn build_v4_udp(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> Vec<u8> {
        let udp = UdpRepr {
            src_port: sport,
            dst_port: dport,
            payload_len: 4,
        };
        let ip = Ipv4Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: Protocol::Udp,
            payload_len: udp.buffer_len(),
            ttl: 64,
            tos: 0,
        };
        let mut buf = vec![0u8; ip.buffer_len() + ip.payload_len];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut pkt);
        let mut u = UdpPacket::new_unchecked(pkt.payload_mut());
        udp.emit(&mut u);
        buf
    }

    #[test]
    fn v4_udp_tuple() {
        let buf = build_v4_udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
        );
        let t = FlowTuple::extract(&buf, 3).unwrap();
        assert_eq!(t.src, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(t.dst, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)));
        assert_eq!(t.proto, 17);
        assert_eq!(t.sport, 5000);
        assert_eq!(t.dport, 53);
        assert_eq!(t.rx_if, 3);
        assert!(t.src.is_ipv4());
    }

    #[test]
    fn v6_udp_behind_hop_by_hop() {
        let udp = UdpRepr {
            src_port: 9999,
            dst_port: 80,
            payload_len: 0,
        };
        let hbh = ext_hdr::build_hop_by_hop(Protocol::Udp, &[]);
        let payload_len = hbh.len() + udp.buffer_len();
        let ip = Ipv6Repr {
            src_addr: Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            dst_addr: Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
            next_header: Protocol::HopByHop,
            payload_len,
            hop_limit: 64,
            traffic_class: 0,
            flow_label: 0,
        };
        let mut buf = vec![0u8; ip.buffer_len() + payload_len];
        let mut pkt = Ipv6Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut pkt);
        pkt.payload_mut()[..hbh.len()].copy_from_slice(&hbh);
        let mut u = UdpPacket::new_unchecked(&mut pkt.payload_mut()[hbh.len()..]);
        udp.emit(&mut u);

        let t = FlowTuple::extract(&buf, 0).unwrap();
        assert_eq!(t.proto, 17);
        assert_eq!(t.sport, 9999);
        assert_eq!(t.dport, 80);
        assert!(t.src.is_ipv6());
    }

    #[test]
    fn portless_protocol_zero_ports() {
        let mut buf = build_v4_udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
        );
        buf[9] = 47; // GRE
                     // Fix the checksum so new_checked still passes (it doesn't verify
                     // checksums, only lengths, so no fix needed actually).
        let t = FlowTuple::extract(&buf, 0).unwrap();
        assert_eq!(t.proto, 47);
        assert_eq!(t.sport, 0);
        assert_eq!(t.dport, 0);
    }

    #[test]
    fn v4_fragments_keyed_portless() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let whole = FlowTuple::extract(&build_v4_udp(src, dst, 5000, 53), 3).unwrap();
        assert_eq!((whole.sport, whole.dport), (5000, 53));

        // First fragment: offset 0, MF set. Carries the real UDP header but
        // must still key port-less so it co-locates with later fragments.
        let mut first = build_v4_udp(src, dst, 5000, 53);
        first[6] |= 0x20;
        let t_first = FlowTuple::extract(&first, 3).unwrap();
        assert_eq!((t_first.sport, t_first.dport), (0, 0));
        assert!(is_fragment(&first));

        // Non-first fragment: nonzero offset, payload is mid-datagram bytes
        // that would previously have been misread as ports.
        let mut rest = build_v4_udp(src, dst, 5000, 53);
        rest[6] = 0x20;
        rest[7] = 0x02; // offset 16 bytes
        let t_rest = FlowTuple::extract(&rest, 3).unwrap();
        assert_eq!(t_first, t_rest);

        // Last fragment: nonzero offset, MF clear.
        let mut last = build_v4_udp(src, dst, 5000, 53);
        last[7] = 0x04;
        assert_eq!(FlowTuple::extract(&last, 3).unwrap(), t_first);
        assert!(is_fragment(&last));

        assert!(!is_fragment(&build_v4_udp(src, dst, 5000, 53)));
        assert_ne!(whole, t_first); // ports differ — but same 4-tuple key
    }

    #[test]
    fn v6_fragment_keyed_portless() {
        let udp = UdpRepr {
            src_port: 7777,
            dst_port: 443,
            payload_len: 0,
        };
        let frag_hdr = [Protocol::Udp.into(), 0u8, 0x00, 0x01, 9, 9, 9, 9];
        let payload_len = frag_hdr.len() + udp.buffer_len();
        let ip = Ipv6Repr {
            src_addr: Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1),
            dst_addr: Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
            next_header: Protocol::Ipv6Frag,
            payload_len,
            hop_limit: 64,
            traffic_class: 0,
            flow_label: 0,
        };
        let mut buf = vec![0u8; ip.buffer_len() + payload_len];
        let mut pkt = Ipv6Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut pkt);
        pkt.payload_mut()[..frag_hdr.len()].copy_from_slice(&frag_hdr);
        let mut u = UdpPacket::new_unchecked(&mut pkt.payload_mut()[frag_hdr.len()..]);
        udp.emit(&mut u);

        let t = FlowTuple::extract(&buf, 0).unwrap();
        assert_eq!(t.proto, 17);
        assert_eq!((t.sport, t.dport), (0, 0));
        assert!(is_fragment(&buf));
    }

    #[test]
    fn truncated_transport_is_error() {
        // A TCP packet whose "header" is 2 bytes: previously aliased to
        // ports (0, 0); must now be a parse error.
        let ip = Ipv4Repr {
            src_addr: Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: Ipv4Addr::new(10, 0, 0, 2),
            protocol: Protocol::Tcp,
            payload_len: 2,
            ttl: 64,
            tos: 0,
        };
        let mut buf = vec![0u8; ip.buffer_len() + 2];
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut pkt);
        assert_eq!(FlowTuple::extract(&buf, 0).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn display_format() {
        let buf = build_v4_udp(
            Ipv4Addr::new(128, 252, 153, 1),
            Ipv4Addr::new(128, 252, 153, 7),
            1024,
            2048,
        );
        let t = FlowTuple::extract(&buf, 1).unwrap();
        assert_eq!(
            t.to_string(),
            "<128.252.153.1, 128.252.153.7, UDP, 1024, 2048, if1>"
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(FlowTuple::extract(&[], 0).is_err());
        assert!(FlowTuple::extract(&[0xFF; 64], 0).is_err());
    }
}
