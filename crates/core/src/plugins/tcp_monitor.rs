//! TCP behaviour-monitoring plugin — one of the paper's envisioned types
//! (§4: "a plugin monitoring TCP congestion backoff behaviour").
//!
//! Tracks per-flow TCP state in flow-record soft state: connection
//! lifecycle (SYN/FIN/RST), forward sequence progress, and *suspected
//! retransmissions* (a segment whose end does not advance the highest
//! sequence seen — the classic passive loss/backoff signal). An
//! aggregate report ranks flows by retransmission ratio, the paper's
//! monitoring use case.

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType, SoftState,
};
use rp_packet::ipv4::Ipv4Packet;
use rp_packet::ipv6::Ipv6Packet;
use rp_packet::mbuf::FlowIndex;
use rp_packet::tcp::{TcpFlags, TcpPacket};
use rp_packet::{FlowTuple, IpVersion, Mbuf};

/// Per-flow TCP accounting, kept in flow-record soft state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TcpFlowState {
    /// Segments seen.
    pub segments: u64,
    /// Suspected retransmissions (no forward sequence progress).
    pub retransmissions: u64,
    /// Highest sequence byte seen (`seq + payload`).
    pub highest_seq: u32,
    /// SYN observed.
    pub syn_seen: bool,
    /// FIN observed.
    pub fin_seen: bool,
    /// RST observed.
    pub rst_seen: bool,
}

#[derive(Default)]
struct Aggregate {
    segments: u64,
    retransmissions: u64,
    connections_opened: u64,
    connections_closed: u64,
    resets: u64,
    /// (flow, segments, retransmissions) of flows that left the cache.
    retired: Vec<(String, u64, u64)>,
}

/// A TCP-monitor instance.
#[derive(Default)]
pub struct TcpMonitorInstance {
    agg: Aggregate,
}

impl TcpMonitorInstance {
    /// Total suspected retransmissions observed.
    pub fn retransmissions(&self) -> u64 {
        self.agg.retransmissions
    }

    /// Total TCP segments observed.
    pub fn segments(&self) -> u64 {
        self.agg.segments
    }
}

fn tcp_view(data: &[u8]) -> Option<(u32, usize, TcpFlags)> {
    match IpVersion::of_packet(data).ok()? {
        IpVersion::V4 => {
            let ip = Ipv4Packet::new_checked(data).ok()?;
            if ip.protocol() != rp_packet::Protocol::Tcp {
                return None;
            }
            let tcp = TcpPacket::new_checked(ip.payload()).ok()?;
            Some((
                tcp.seq_number(),
                ip.payload().len() - tcp.header_len(),
                tcp.flags(),
            ))
        }
        IpVersion::V6 => {
            let ip = Ipv6Packet::new_checked(data).ok()?;
            let walk = rp_packet::ext_hdr::walk_chain(ip.next_header(), ip.payload()).ok()?;
            if walk.upper_protocol != rp_packet::Protocol::Tcp {
                return None;
            }
            let seg = &ip.payload()[walk.upper_offset..];
            let tcp = TcpPacket::new_checked(seg).ok()?;
            Some((tcp.seq_number(), seg.len() - tcp.header_len(), tcp.flags()))
        }
    }
}

impl PluginInstance for TcpMonitorInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let Some((seq, payload_len, flags)) = tcp_view(mbuf.data()) else {
            return PluginAction::Continue; // not TCP
        };
        let st = ctx
            .soft_state
            .get_or_insert_with(|| Box::new(TcpFlowState::default()));
        let Some(st) = st.downcast_mut::<TcpFlowState>() else {
            return PluginAction::Continue;
        };
        let agg = &mut self.agg;
        st.segments += 1;
        agg.segments += 1;
        if flags.contains(TcpFlags::SYN) && !st.syn_seen {
            st.syn_seen = true;
            agg.connections_opened += 1;
        }
        if flags.contains(TcpFlags::FIN) && !st.fin_seen {
            st.fin_seen = true;
            agg.connections_closed += 1;
        }
        if flags.contains(TcpFlags::RST) && !st.rst_seen {
            st.rst_seen = true;
            agg.resets += 1;
        }
        // Sequence-progress heuristic (wrap-aware via modular compare).
        let end = seq.wrapping_add(payload_len as u32);
        if st.segments == 1 {
            st.highest_seq = end;
        } else if payload_len > 0 {
            let advanced = end.wrapping_sub(st.highest_seq) as i32 > 0;
            if advanced {
                st.highest_seq = end;
            } else {
                st.retransmissions += 1;
                agg.retransmissions += 1;
            }
        }
        PluginAction::Continue
    }

    fn flow_unbound(&mut self, _: FlowIndex, key: &FlowTuple, soft: SoftState, _: &mut Vec<Mbuf>) {
        if let Some(st) = soft.and_then(|b| b.downcast::<TcpFlowState>().ok()) {
            self.agg
                .retired
                .push((key.to_string(), st.segments, st.retransmissions));
        }
    }

    fn describe(&self) -> String {
        let a = &self.agg;
        format!(
            "tcpmon: {} segs, {} rexmits ({:.2}%), {} opens, {} closes, {} resets",
            a.segments,
            a.retransmissions,
            if a.segments > 0 {
                100.0 * a.retransmissions as f64 / a.segments as f64
            } else {
                0.0
            },
            a.connections_opened,
            a.connections_closed,
            a.resets
        )
    }
}

/// The TCP-monitor plugin module.
#[derive(Default)]
pub struct TcpMonitorPlugin {
    _priv: (),
}

impl Plugin for TcpMonitorPlugin {
    fn name(&self) -> &str {
        "tcpmon"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::STATS, 2)
    }

    fn create_instance(&mut self, _config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(TcpMonitorInstance::default()))
    }

    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        _args: &str,
    ) -> Result<String, PluginError> {
        match (name, instance) {
            ("report", Some(inst)) => Ok(inst.describe()),
            (other, _) => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::tcp::TcpRepr;
    use std::net::{IpAddr, Ipv6Addr};

    fn v6(n: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n))
    }

    /// Hand-build a v6 TCP segment with explicit seq/flags/payload.
    fn tcp_packet(seq: u32, flags: TcpFlags, payload: usize) -> Vec<u8> {
        use rp_packet::ipv6::{Ipv6Packet, Ipv6Repr};
        let repr = TcpRepr {
            src_port: 1000,
            dst_port: 80,
            seq,
            ack: 1,
            flags,
            window: 65535,
            payload_len: payload,
        };
        let ip = Ipv6Repr {
            src_addr: "2001:db8::1".parse().unwrap(),
            dst_addr: "2001:db8::2".parse().unwrap(),
            next_header: rp_packet::Protocol::Tcp,
            payload_len: repr.buffer_len(),
            hop_limit: 64,
            traffic_class: 0,
            flow_label: 0,
        };
        let mut buf = vec![0u8; 40 + repr.buffer_len()];
        let mut pkt = Ipv6Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut pkt);
        let mut t = TcpPacket::new_unchecked(pkt.payload_mut());
        repr.emit(&mut t);
        buf
    }

    fn feed(inst: &mut TcpMonitorInstance, soft: &mut SoftState, buf: Vec<u8>) {
        let mut m = Mbuf::new(buf, 0);
        let mut ctx = PacketCtx {
            gate: Gate::Stats,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: soft,
            cost_ns: 0,
        };
        inst.handle_packet(&mut m, &mut ctx);
    }

    #[test]
    fn retransmission_detection() {
        let mut inst = TcpMonitorInstance::default();
        let mut soft = None;
        feed(&mut inst, &mut soft, tcp_packet(1000, TcpFlags::SYN, 0));
        feed(&mut inst, &mut soft, tcp_packet(1001, TcpFlags::ACK, 100)); // 1001..1101
        feed(&mut inst, &mut soft, tcp_packet(1101, TcpFlags::ACK, 100)); // progress
        feed(&mut inst, &mut soft, tcp_packet(1101, TcpFlags::ACK, 100)); // retransmit!
        feed(&mut inst, &mut soft, tcp_packet(1201, TcpFlags::ACK, 100)); // progress
        assert_eq!(inst.retransmissions(), 1);
        assert_eq!(inst.segments(), 5);
        let st = soft.unwrap();
        let st = st.downcast_ref::<TcpFlowState>().unwrap();
        assert!(st.syn_seen);
        assert_eq!(st.retransmissions, 1);
    }

    #[test]
    fn lifecycle_counting() {
        let mut inst = TcpMonitorInstance::default();
        let mut soft = None;
        feed(&mut inst, &mut soft, tcp_packet(1, TcpFlags::SYN, 0));
        feed(&mut inst, &mut soft, tcp_packet(2, TcpFlags::ACK, 10));
        feed(
            &mut inst,
            &mut soft,
            tcp_packet(12, TcpFlags::FIN.union(TcpFlags::ACK), 0),
        );
        let d = inst.describe();
        assert!(d.contains("1 opens") && d.contains("1 closes"), "{d}");
        // Eviction records the flow.
        let key = FlowTuple {
            src: v6(1),
            dst: v6(2),
            proto: 6,
            sport: 1000,
            dport: 80,
            rx_if: 0,
        };
        inst.flow_unbound(FlowIndex(0), &key, soft.take(), &mut Vec::new());
        assert_eq!(inst.agg.retired.len(), 1);
    }

    #[test]
    fn non_tcp_ignored() {
        let mut inst = TcpMonitorInstance::default();
        let mut soft = None;
        let udp = rp_packet::builder::PacketSpec::udp(v6(1), v6(2), 1, 2, 32).build();
        feed(&mut inst, &mut soft, udp);
        assert_eq!(inst.segments(), 0);
        assert!(soft.is_none());
    }

    #[test]
    fn seq_wraparound_not_flagged() {
        let mut inst = TcpMonitorInstance::default();
        let mut soft = None;
        feed(
            &mut inst,
            &mut soft,
            tcp_packet(u32::MAX - 50, TcpFlags::ACK, 100),
        );
        // Wraps past 0: still forward progress.
        feed(&mut inst, &mut soft, tcp_packet(49, TcpFlags::ACK, 100));
        assert_eq!(inst.retransmissions(), 0);
    }
}
