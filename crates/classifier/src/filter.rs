//! The filter language: the paper's six-tuple with per-field wildcarding.
//!
//! A filter is `<source address, destination address, protocol, source
//! port, destination port, incoming interface>`; address fields may be
//! partially wildcarded by a prefix mask, ports may be ranges, and any
//! field may be `*` (paper §3). The textual form accepted here covers both
//! the paper's dotted-star style (`129.*.*.*`) and CIDR (`129.0.0.0/8`).

use rp_lpm::Prefix;
use rp_packet::mbuf::IfIndex;
use rp_packet::{FlowKey, FlowTuple, Protocol};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// Identifier of an installed filter, unique within one filter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterId(pub u64);

/// Address field match: a family-specific prefix or a full wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMatch {
    /// Matches any address of either family.
    Any,
    /// IPv4 prefix (possibly /32 = exact host, /0 behaves like `Any` for
    /// v4 packets only).
    V4(Prefix<u32>),
    /// IPv6 prefix.
    V6(Prefix<u128>),
}

impl AddrMatch {
    /// Exact-host convenience constructor.
    pub fn host(addr: IpAddr) -> Self {
        Self::prefix(addr, if addr.is_ipv4() { 32 } else { 128 })
    }

    /// Prefix constructor from an address + length.
    pub fn prefix(addr: IpAddr, len: u8) -> Self {
        match addr {
            IpAddr::V4(a) => AddrMatch::V4(Prefix::new(u32::from(a), len)),
            IpAddr::V6(a) => AddrMatch::V6(Prefix::new(u128::from(a), len)),
        }
    }

    /// Does this field match the given concrete address?
    pub fn matches(&self, addr: IpAddr) -> bool {
        match (self, addr) {
            (AddrMatch::Any, _) => true,
            (AddrMatch::V4(p), IpAddr::V4(a)) => p.matches(u32::from(a)),
            (AddrMatch::V6(p), IpAddr::V6(a)) => p.matches(u128::from(a)),
            _ => false,
        }
    }

    /// Does this field cover (match everything matched by) `other`?
    pub fn covers(&self, other: &AddrMatch) -> bool {
        match (self, other) {
            (AddrMatch::Any, _) => true,
            (_, AddrMatch::Any) => matches!(self, AddrMatch::Any),
            (AddrMatch::V4(p), AddrMatch::V4(q)) => p.covers(q),
            (AddrMatch::V6(p), AddrMatch::V6(q)) => p.covers(q),
            _ => false,
        }
    }

    /// Specificity rank: higher = more specific. `Any` ranks 0, a prefix
    /// ranks `1 + len`.
    pub fn specificity(&self) -> u32 {
        match self {
            AddrMatch::Any => 0,
            AddrMatch::V4(p) => 1 + u32::from(p.len()),
            AddrMatch::V6(p) => 1 + u32::from(p.len()),
        }
    }
}

impl fmt::Display for AddrMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrMatch::Any => write!(f, "*"),
            AddrMatch::V4(p) => {
                write!(f, "{}/{}", Ipv4Addr::from(p.bits()), p.len())
            }
            AddrMatch::V6(p) => {
                write!(f, "{}/{}", Ipv6Addr::from(p.bits()), p.len())
            }
        }
    }
}

/// Port field match: wildcard or inclusive range (an exact port is the
/// degenerate range `p-p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortMatch {
    /// Matches any port.
    Any,
    /// Inclusive range `lo..=hi`.
    Range(u16, u16),
}

impl PortMatch {
    /// Exact-port constructor.
    pub fn eq(port: u16) -> Self {
        PortMatch::Range(port, port)
    }

    /// Range constructor (normalising reversed bounds).
    pub fn range(lo: u16, hi: u16) -> Self {
        if lo <= hi {
            PortMatch::Range(lo, hi)
        } else {
            PortMatch::Range(hi, lo)
        }
    }

    /// Does this field match the given port?
    pub fn matches(&self, port: u16) -> bool {
        match self {
            PortMatch::Any => true,
            PortMatch::Range(lo, hi) => (*lo..=*hi).contains(&port),
        }
    }

    /// Does this field cover `other`?
    pub fn covers(&self, other: &PortMatch) -> bool {
        match (self, other) {
            (PortMatch::Any, _) => true,
            (_, PortMatch::Any) => false,
            (PortMatch::Range(a, b), PortMatch::Range(c, d)) => a <= c && d <= b,
        }
    }

    /// True when the two matches overlap without either covering the other
    /// — the ambiguous case the DAG rejects at install time.
    pub fn overlaps_ambiguously(&self, other: &PortMatch) -> bool {
        match (self, other) {
            (PortMatch::Range(a, b), PortMatch::Range(c, d)) => {
                let overlap = a.max(c) <= b.min(d);
                overlap && !self.covers(other) && !other.covers(self)
            }
            _ => false,
        }
    }

    /// Specificity rank: higher = more specific (narrower range).
    pub fn specificity(&self) -> u32 {
        match self {
            PortMatch::Any => 0,
            PortMatch::Range(lo, hi) => 65536 - u32::from(hi - lo),
        }
    }
}

impl fmt::Display for PortMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortMatch::Any => write!(f, "*"),
            PortMatch::Range(lo, hi) if lo == hi => write!(f, "{lo}"),
            PortMatch::Range(lo, hi) => write!(f, "{lo}-{hi}"),
        }
    }
}

/// The six-tuple filter of paper §3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterSpec {
    /// Source address field.
    pub src: AddrMatch,
    /// Destination address field.
    pub dst: AddrMatch,
    /// Protocol, `None` = wildcard.
    pub proto: Option<u8>,
    /// Source port field.
    pub sport: PortMatch,
    /// Destination port field.
    pub dport: PortMatch,
    /// Incoming interface, `None` = wildcard.
    pub rx_if: Option<IfIndex>,
}

impl FilterSpec {
    /// The match-everything filter.
    pub fn any() -> Self {
        FilterSpec {
            src: AddrMatch::Any,
            dst: AddrMatch::Any,
            proto: None,
            sport: PortMatch::Any,
            dport: PortMatch::Any,
            rx_if: None,
        }
    }

    /// A fully specified end-to-end application-flow filter for `t` — "the
    /// filter for an end-to-end application flow would have all fields
    /// fully specified" (paper §3).
    pub fn exact(t: &FlowTuple) -> Self {
        FilterSpec {
            src: AddrMatch::host(t.src),
            dst: AddrMatch::host(t.dst),
            proto: Some(t.proto),
            sport: PortMatch::eq(t.sport),
            dport: PortMatch::eq(t.dport),
            rx_if: Some(t.rx_if),
        }
    }

    /// Does the filter match a concrete flow?
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.src.matches(key.src())
            && self.dst.matches(key.dst())
            && self.proto.is_none_or(|p| p == key.proto())
            && self.sport.matches(key.sport())
            && self.dport.matches(key.dport())
            && self.rx_if.is_none_or(|i| i == key.rx_if())
    }

    /// Specificity vector compared lexicographically in the DAG's field
    /// order. This is the deterministic resolution of filter ambiguity
    /// (the paper defers ambiguity resolution to its tech report; any
    /// consistent total order works, and field order is the natural one
    /// for a set-pruning trie).
    pub fn specificity(&self) -> (u32, u32, u32, u32, u32, u32) {
        (
            self.src.specificity(),
            self.dst.specificity(),
            u32::from(self.proto.is_some()),
            self.sport.specificity(),
            self.dport.specificity(),
            u32::from(self.rx_if.is_some()),
        )
    }

    /// Does this filter cover `other` in every field? (`other` is then "more
    /// specific", like Table 1's filter 2 versus filter 4.)
    pub fn covers(&self, other: &FilterSpec) -> bool {
        self.src.covers(&other.src)
            && self.dst.covers(&other.dst)
            && (self.proto.is_none() || self.proto == other.proto)
            && self.sport.covers(&other.sport)
            && self.dport.covers(&other.dport)
            && (self.rx_if.is_none() || self.rx_if == other.rx_if)
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proto = match self.proto {
            None => "*".to_string(),
            Some(p) => Protocol::from(p).to_string(),
        };
        let rx = match self.rx_if {
            None => "*".to_string(),
            Some(i) => format!("if{i}"),
        };
        write!(
            f,
            "<{}, {}, {}, {}, {}, {}>",
            self.src, self.dst, proto, self.sport, self.dport, rx
        )
    }
}

/// Errors from parsing the textual filter form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFilterError(pub String);

impl fmt::Display for ParseFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter: {}", self.0)
    }
}

impl std::error::Error for ParseFilterError {}

fn parse_addr(tok: &str) -> Result<AddrMatch, ParseFilterError> {
    let tok = tok.trim();
    if tok == "*" {
        return Ok(AddrMatch::Any);
    }
    if let Some((addr, len)) = tok.split_once('/') {
        let len: u8 = len
            .parse()
            .map_err(|_| ParseFilterError(format!("bad prefix length in {tok}")))?;
        let ip: IpAddr = addr
            .parse()
            .map_err(|_| ParseFilterError(format!("bad address in {tok}")))?;
        let max = match ip {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if len > max {
            return Err(ParseFilterError(format!("prefix too long in {tok}")));
        }
        return Ok(AddrMatch::prefix(ip, len));
    }
    if tok.contains('*') {
        // Paper style: 129.*.*.* — leading literal octets, trailing stars.
        let parts: Vec<&str> = tok.split('.').collect();
        if parts.len() != 4 {
            return Err(ParseFilterError(format!("bad dotted form {tok}")));
        }
        let mut octets = [0u8; 4];
        let mut len: u8 = 0;
        let mut stars = false;
        for (i, p) in parts.iter().enumerate() {
            if *p == "*" {
                stars = true;
            } else {
                if stars {
                    return Err(ParseFilterError(format!("literal octet after * in {tok}")));
                }
                octets[i] = p
                    .parse()
                    .map_err(|_| ParseFilterError(format!("bad octet in {tok}")))?;
                len += 8;
            }
        }
        return Ok(AddrMatch::V4(Prefix::new(u32::from_be_bytes(octets), len)));
    }
    let ip: IpAddr = tok
        .parse()
        .map_err(|_| ParseFilterError(format!("bad address {tok}")))?;
    Ok(AddrMatch::host(ip))
}

fn parse_proto(tok: &str) -> Result<Option<u8>, ParseFilterError> {
    let tok = tok.trim();
    if tok == "*" {
        return Ok(None);
    }
    let named = match tok.to_ascii_uppercase().as_str() {
        "TCP" => Some(6),
        "UDP" => Some(17),
        "ICMP" => Some(1),
        "ICMPV6" => Some(58),
        "ESP" => Some(50),
        "AH" => Some(51),
        "IGMP" => Some(2),
        _ => None,
    };
    if let Some(p) = named {
        return Ok(Some(p));
    }
    tok.parse::<u8>()
        .map(Some)
        .map_err(|_| ParseFilterError(format!("bad protocol {tok}")))
}

fn parse_port(tok: &str) -> Result<PortMatch, ParseFilterError> {
    let tok = tok.trim();
    if tok == "*" {
        return Ok(PortMatch::Any);
    }
    if let Some((lo, hi)) = tok.split_once('-') {
        let lo: u16 = lo
            .parse()
            .map_err(|_| ParseFilterError(format!("bad port {tok}")))?;
        let hi: u16 = hi
            .parse()
            .map_err(|_| ParseFilterError(format!("bad port {tok}")))?;
        return Ok(PortMatch::range(lo, hi));
    }
    tok.parse::<u16>()
        .map(PortMatch::eq)
        .map_err(|_| ParseFilterError(format!("bad port {tok}")))
}

fn parse_iface(tok: &str) -> Result<Option<IfIndex>, ParseFilterError> {
    let tok = tok.trim();
    if tok == "*" {
        return Ok(None);
    }
    let tok = tok.strip_prefix("if").unwrap_or(tok);
    tok.parse::<IfIndex>()
        .map(Some)
        .map_err(|_| ParseFilterError(format!("bad interface {tok}")))
}

impl FromStr for FilterSpec {
    type Err = ParseFilterError;

    /// Parse `"src, dst, proto, sport, dport, iface"` (angle brackets
    /// optional), e.g. the paper's `<129.*.*.*, 192.94.233.10, TCP, *, *,
    /// *>`. A five-field form (no interface) is also accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().trim_start_matches('<').trim_end_matches('>');
        let fields: Vec<&str> = s.split(',').collect();
        if fields.len() != 5 && fields.len() != 6 {
            return Err(ParseFilterError(format!(
                "expected 5 or 6 fields, got {}",
                fields.len()
            )));
        }
        Ok(FilterSpec {
            src: parse_addr(fields[0])?,
            dst: parse_addr(fields[1])?,
            proto: parse_proto(fields[2])?,
            sport: parse_port(fields[3])?,
            dport: parse_port(fields[4])?,
            rx_if: if fields.len() == 6 {
                parse_iface(fields[5])?
            } else {
                None
            },
        })
    }
}

/// The four sample filters of the paper's Table 1 (three-field form with
/// the remaining fields wildcarded), used across tests and examples.
pub fn paper_table1_filters() -> Vec<FilterSpec> {
    vec![
        "129.*.*.*, 192.94.233.10, TCP, *, *, *".parse().unwrap(),
        "128.252.153.1, 128.252.153.7, UDP, *, *, *"
            .parse()
            .unwrap(),
        "128.252.153.1, 128.252.153.7, TCP, *, *, *"
            .parse()
            .unwrap(),
        "128.252.153.*, *, UDP, *, *, *".parse().unwrap(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(src: [u8; 4], dst: [u8; 4], proto: u8, sport: u16, dport: u16) -> FlowTuple {
        FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(src)),
            dst: IpAddr::V4(Ipv4Addr::from(dst)),
            proto,
            sport,
            dport,
            rx_if: 0,
        }
    }

    #[test]
    fn parse_paper_style() {
        let f: FilterSpec = "<129.*.*.*, 192.94.233.10, TCP, *, *, *>".parse().unwrap();
        assert_eq!(f.src, AddrMatch::V4(Prefix::new(0x8100_0000, 8)));
        assert_eq!(
            f.dst,
            AddrMatch::V4(Prefix::new(u32::from(Ipv4Addr::new(192, 94, 233, 10)), 32))
        );
        assert_eq!(f.proto, Some(6));
        assert_eq!(f.sport, PortMatch::Any);
        assert_eq!(f.rx_if, None);
    }

    #[test]
    fn parse_cidr_and_ranges() {
        let f: FilterSpec = "10.0.0.0/8, *, UDP, 1024-2047, 53, if3".parse().unwrap();
        assert_eq!(f.src, AddrMatch::V4(Prefix::new(0x0A00_0000, 8)));
        assert_eq!(f.dst, AddrMatch::Any);
        assert_eq!(f.sport, PortMatch::Range(1024, 2047));
        assert_eq!(f.dport, PortMatch::eq(53));
        assert_eq!(f.rx_if, Some(3));
    }

    #[test]
    fn parse_v6() {
        let f: FilterSpec = "2001:db8::/32, 2001:db8::7, *, *, *".parse().unwrap();
        match f.src {
            AddrMatch::V6(p) => assert_eq!(p.len(), 32),
            _ => panic!("expected v6 prefix"),
        }
        assert!(matches!(f.dst, AddrMatch::V6(p) if p.len() == 128));
    }

    #[test]
    fn parse_errors() {
        assert!("1,2".parse::<FilterSpec>().is_err());
        assert!("10.*.1.*, *, *, *, *, *".parse::<FilterSpec>().is_err());
        assert!("10.0.0.0/33, *, *, *, *, *".parse::<FilterSpec>().is_err());
        assert!("*, *, BOGUS, *, *, *".parse::<FilterSpec>().is_err());
        assert!("*, *, *, 70000, *, *".parse::<FilterSpec>().is_err());
    }

    #[test]
    fn table1_matching_semantics() {
        let filters = paper_table1_filters();
        // The paper's worked example: <128.252.153.1, 128.252.154.7, UDP>
        // matches only filter 4 — note .154. in the destination!
        let t = tuple([128, 252, 153, 1], [128, 252, 154, 7], 17, 1, 2);
        let matched: Vec<usize> = filters
            .iter()
            .enumerate()
            .filter(|(_, f)| f.matches(&FlowKey::of(&t)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(matched, vec![3]);

        // <128.252.153.1, 128.252.153.7, UDP> matches filters 2 and 4;
        // filter 2 is more specific ("proper subset", §5.1.1).
        let t = tuple([128, 252, 153, 1], [128, 252, 153, 7], 17, 1, 2);
        let matched: Vec<usize> = filters
            .iter()
            .enumerate()
            .filter(|(_, f)| f.matches(&FlowKey::of(&t)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(matched, vec![1, 3]);
        assert!(filters[3].covers(&filters[1]));
        assert!(!filters[1].covers(&filters[3]));
        assert!(filters[1].specificity() > filters[3].specificity());
    }

    #[test]
    fn disjoint_filters() {
        let filters = paper_table1_filters();
        // Filters 1 and 4 are disjoint (paper's observation).
        assert!(!filters[0].covers(&filters[3]));
        assert!(!filters[3].covers(&filters[0]));
    }

    #[test]
    fn port_overlap_detection() {
        let a = PortMatch::range(10, 20);
        let b = PortMatch::range(15, 30);
        let c = PortMatch::range(12, 18);
        assert!(a.overlaps_ambiguously(&b));
        assert!(!a.overlaps_ambiguously(&c)); // nested
        assert!(!a.overlaps_ambiguously(&PortMatch::Any));
        assert!(!a.overlaps_ambiguously(&PortMatch::range(21, 30)));
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "<129.0.0.0/8, 192.94.233.10/32, TCP, *, *, *>",
            "<*, *, *, 80, 1024-2047, if7>",
        ] {
            let f: FilterSpec = s.parse().unwrap();
            let f2: FilterSpec = f.to_string().parse().unwrap();
            assert_eq!(f, f2);
        }
    }

    #[test]
    fn exact_filter_matches_only_its_flow() {
        let t = tuple([10, 0, 0, 1], [10, 0, 0, 2], 17, 5, 6);
        let f = FilterSpec::exact(&t);
        assert!(f.matches(&FlowKey::of(&t)));
        let mut t2 = t;
        t2.sport = 7;
        assert!(!f.matches(&FlowKey::of(&t2)));
        let mut t3 = t;
        t3.rx_if = 9;
        assert!(!f.matches(&FlowKey::of(&t3)));
    }

    #[test]
    fn any_matches_everything() {
        let f = FilterSpec::any();
        assert!(f.matches(&FlowKey::of(&tuple([1, 2, 3, 4], [5, 6, 7, 8], 99, 0, 0))));
        assert_eq!(f.specificity(), (0, 0, 0, 0, 0, 0));
    }

    #[test]
    fn cross_family_never_matches() {
        let f: FilterSpec = "10.0.0.0/8, *, *, *, *, *".parse().unwrap();
        let t6 = FlowTuple {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            proto: 17,
            sport: 1,
            dport: 2,
            rx_if: 0,
        };
        assert!(!f.matches(&FlowKey::of(&t6)));
    }
}
