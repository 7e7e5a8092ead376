//! Protocol numbers and IP version handling shared by both IP parsers.

use core::fmt;

/// IP protocol / IPv6 next-header numbers used by the EISR data path.
///
/// The enum is open (`Unknown`) because a router forwards protocols it does
/// not understand; only classification-relevant values get names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// IPv6 hop-by-hop options header (must be first, RFC 2460).
    HopByHop,
    /// ICMP (v4).
    Icmp,
    /// IGMP.
    Igmp,
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// IPv6 routing header.
    Ipv6Route,
    /// IPv6 fragment header.
    Ipv6Frag,
    /// Encapsulating Security Payload (IPsec).
    Esp,
    /// Authentication Header (IPsec).
    Ah,
    /// ICMPv6.
    Icmpv6,
    /// "No next header" terminator for IPv6 chains.
    Ipv6NoNxt,
    /// IPv6 destination options header.
    Ipv6Opts,
    /// Anything else, by number.
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(v: u8) -> Self {
        match v {
            0 => Protocol::HopByHop,
            1 => Protocol::Icmp,
            2 => Protocol::Igmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            43 => Protocol::Ipv6Route,
            44 => Protocol::Ipv6Frag,
            50 => Protocol::Esp,
            51 => Protocol::Ah,
            58 => Protocol::Icmpv6,
            59 => Protocol::Ipv6NoNxt,
            60 => Protocol::Ipv6Opts,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(p: Protocol) -> u8 {
        match p {
            Protocol::HopByHop => 0,
            Protocol::Icmp => 1,
            Protocol::Igmp => 2,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Ipv6Route => 43,
            Protocol::Ipv6Frag => 44,
            Protocol::Esp => 50,
            Protocol::Ah => 51,
            Protocol::Icmpv6 => 58,
            Protocol::Ipv6NoNxt => 59,
            Protocol::Ipv6Opts => 60,
            Protocol::Unknown(v) => v,
        }
    }
}

impl Protocol {
    /// True for the headers that form the IPv6 extension chain (i.e. the
    /// walk to the upper-layer protocol must continue through them).
    pub fn is_ipv6_extension(self) -> bool {
        matches!(
            self,
            Protocol::HopByHop
                | Protocol::Ipv6Route
                | Protocol::Ipv6Frag
                | Protocol::Ipv6Opts
                | Protocol::Ah
        )
    }

    /// True if the protocol carries 16-bit source/destination ports in its
    /// first four bytes (what the six-tuple extraction relies on).
    pub fn has_ports(self) -> bool {
        matches!(self, Protocol::Tcp | Protocol::Udp)
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::HopByHop => write!(f, "HBH"),
            Protocol::Icmp => write!(f, "ICMP"),
            Protocol::Igmp => write!(f, "IGMP"),
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Ipv6Route => write!(f, "IPv6-Route"),
            Protocol::Ipv6Frag => write!(f, "IPv6-Frag"),
            Protocol::Esp => write!(f, "ESP"),
            Protocol::Ah => write!(f, "AH"),
            Protocol::Icmpv6 => write!(f, "ICMPv6"),
            Protocol::Ipv6NoNxt => write!(f, "NoNxt"),
            Protocol::Ipv6Opts => write!(f, "IPv6-Opts"),
            Protocol::Unknown(v) => write!(f, "proto-{v}"),
        }
    }
}

/// IP version discriminator read from the first nibble of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpVersion {
    /// IPv4.
    V4,
    /// IPv6.
    V6,
}

impl IpVersion {
    /// Sniff the version nibble of a raw packet.
    #[inline]
    pub fn of_packet(data: &[u8]) -> crate::Result<IpVersion> {
        match data.first().map(|b| b >> 4) {
            Some(4) => Ok(IpVersion::V4),
            Some(6) => Ok(IpVersion::V6),
            Some(_) => Err(crate::Error::BadVersion),
            None => Err(crate::Error::Truncated),
        }
    }

    /// Address width in bits — 32 or 128. The paper's Table 2 costs depend
    /// on this (`2·log2(W)` BSPL probes per address lookup).
    pub fn address_bits(self) -> u32 {
        match self {
            IpVersion::V4 => 32,
            IpVersion::V6 => 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_roundtrip() {
        for v in 0..=255u8 {
            assert_eq!(u8::from(Protocol::from(v)), v);
        }
    }

    #[test]
    fn extension_set() {
        assert!(Protocol::HopByHop.is_ipv6_extension());
        assert!(Protocol::Ah.is_ipv6_extension());
        assert!(!Protocol::Esp.is_ipv6_extension()); // ESP hides what follows
        assert!(!Protocol::Tcp.is_ipv6_extension());
    }

    #[test]
    fn version_sniff() {
        assert_eq!(IpVersion::of_packet(&[0x45]).unwrap(), IpVersion::V4);
        assert_eq!(IpVersion::of_packet(&[0x60]).unwrap(), IpVersion::V6);
        assert!(IpVersion::of_packet(&[0x15]).is_err());
        assert!(IpVersion::of_packet(&[]).is_err());
    }

    #[test]
    fn ports_only_on_tcp_udp() {
        assert!(Protocol::Tcp.has_ports());
        assert!(Protocol::Udp.has_ports());
        assert!(!Protocol::Icmp.has_ports());
        assert!(!Protocol::Esp.has_ports());
    }
}
