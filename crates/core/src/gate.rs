//! Gates: the points in the IP core "where the flow of execution branches
//! off to an instance of a plugin" (paper §3.2).
//!
//! In the paper a gate is a macro that either reads the plugin-instance
//! pointer out of the flow record addressed by the packet's FIX (the fast
//! path) or calls the AIU (first gate / uncached flow). Here the same
//! logic is `Router::gate` in [`crate::router`]; this module defines the
//! gate identifiers and ordering.

use std::fmt;

/// The gates of this router, in data-path order. Each maps to a filter
/// table in the AIU and to one plugin type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Gate {
    /// Firewall / policy filtering, first thing after reception.
    Firewall = 0,
    /// IPv6 hop-by-hop option processing.
    Ipv6Options = 1,
    /// IP security (AH verification, ESP decapsulation or encapsulation).
    IpSecurity = 2,
    /// Flow-aware routing (L4 switching); falls back to the core routing
    /// table when unbound.
    Routing = 3,
    /// Statistics gathering / monitoring.
    Stats = 4,
    /// Packet scheduling on the egress interface.
    Scheduling = 5,
}

/// Number of gates (the AIU is built with this many filter tables).
pub const GATE_COUNT: usize = 6;

/// All gates in data-path order.
pub const ALL_GATES: [Gate; GATE_COUNT] = [
    Gate::Firewall,
    Gate::Ipv6Options,
    Gate::IpSecurity,
    Gate::Routing,
    Gate::Stats,
    Gate::Scheduling,
];

impl Gate {
    /// The gate's index into AIU tables and flow-record binding arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The gate's bit in a gate mask.
    pub const fn bit(self) -> u8 {
        1 << self as usize
    }

    /// Gate from its index.
    pub fn from_index(i: usize) -> Option<Gate> {
        ALL_GATES.get(i).copied()
    }

    /// Parse a gate name (as used in `pmgr` commands).
    pub fn parse(s: &str) -> Option<Gate> {
        match s.to_ascii_lowercase().as_str() {
            "firewall" | "fw" => Some(Gate::Firewall),
            "ipv6opts" | "opts" | "options" => Some(Gate::Ipv6Options),
            "ipsec" | "security" | "sec" => Some(Gate::IpSecurity),
            "routing" | "route" => Some(Gate::Routing),
            "stats" | "monitor" => Some(Gate::Stats),
            "sched" | "scheduling" => Some(Gate::Scheduling),
            _ => None,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Gate::Firewall => "firewall",
            Gate::Ipv6Options => "ipv6opts",
            Gate::IpSecurity => "ipsec",
            Gate::Routing => "routing",
            Gate::Stats => "stats",
            Gate::Scheduling => "sched",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, g) in ALL_GATES.iter().enumerate() {
            assert_eq!(g.index(), i);
            assert_eq!(Gate::from_index(i), Some(*g));
        }
        assert_eq!(Gate::from_index(GATE_COUNT), None);
    }

    #[test]
    fn parse_and_display() {
        for g in ALL_GATES {
            assert_eq!(Gate::parse(&g.to_string()), Some(g));
        }
        assert_eq!(Gate::parse("SEC"), Some(Gate::IpSecurity));
        assert_eq!(Gate::parse("bogus"), None);
    }

    #[test]
    fn scheduling_is_last() {
        assert_eq!(ALL_GATES[GATE_COUNT - 1], Gate::Scheduling);
    }
}
