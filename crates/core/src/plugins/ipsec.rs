//! IP security plugins (paper §2/§3.2: "IP security functions are
//! modularized and come in the form of plugins", RFC 1825-era IPsec).
//!
//! Two modules: **ah** (Authentication Header, HMAC-SHA1-96 integrity)
//! and **esp** (Encapsulating Security Payload, confidentiality). Both
//! operate on IPv6 transport-mode packets — the wire format the paper's
//! testbed forwards — and instances are direction-specific (`mode=sign` /
//! `mode=verify`, `mode=encap` / `mode=decap`), so the same plugin serves
//! both the VPN entry and exit sides under different instances (the
//! "SEC1"/"SEC2" instances of Figure 3). Receivers enforce the standard
//! 64-entry anti-replay window.

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use crate::plugins::{config_map, config_num};
use rp_packet::ipsec::{
    ah_icv, esp_decapsulate, esp_encapsulate, AhHeader, ToyCipher, AH_TOTAL_LEN,
};
use rp_packet::ipv6::{Ipv6Packet, HEADER_LEN as V6_HDR};
use rp_packet::{hmac, Mbuf, Protocol};

/// RFC 2401 sliding anti-replay window (64 entries).
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayWindow {
    highest: u32,
    bitmap: u64,
}

impl ReplayWindow {
    /// Accept or reject sequence number `seq`; updates state on accept.
    pub fn check_and_update(&mut self, seq: u32) -> bool {
        if seq == 0 {
            return false; // 0 is never used by a conformant sender
        }
        if seq > self.highest {
            let shift = seq - self.highest;
            self.bitmap = if shift >= 64 { 0 } else { self.bitmap << shift };
            self.bitmap |= 1;
            self.highest = seq;
            return true;
        }
        let offset = self.highest - seq;
        if offset >= 64 {
            return false; // too old
        }
        let bit = 1u64 << offset;
        if self.bitmap & bit != 0 {
            return false; // replay
        }
        self.bitmap |= bit;
        true
    }
}

/// Replace an IPv6 packet's payload and first next-header in place.
fn rebuild_v6(mbuf: &mut Mbuf, next: Protocol, payload: &[u8]) -> Result<(), ()> {
    let old = mbuf.data();
    if old.len() < V6_HDR {
        return Err(());
    }
    let mut buf = Vec::with_capacity(V6_HDR + payload.len());
    buf.extend_from_slice(&old[..V6_HDR]);
    buf.extend_from_slice(payload);
    {
        let mut pkt = Ipv6Packet::new_unchecked(&mut buf[..]);
        pkt.set_next_header(next);
        pkt.set_payload_len(payload.len() as u16);
    }
    mbuf.replace_data(buf);
    Ok(())
}

enum AhMode {
    Sign,
    Verify,
}

/// An AH instance (one security association).
pub struct AhInstance {
    mode: AhMode,
    key: Vec<u8>,
    spi: u32,
    seq: u32,
    replay: ReplayWindow,
    auth_failures: u64,
}

impl AhInstance {
    /// Authentication failures observed (verify mode).
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }
}

impl PluginInstance for AhInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        let Ok(pkt) = Ipv6Packet::new_checked(mbuf.data()) else {
            return PluginAction::Continue; // not IPv6: out of scope
        };
        match self.mode {
            AhMode::Sign => {
                let inner = pkt.next_header();
                let payload = pkt.payload().to_vec();
                self.seq = self.seq.wrapping_add(1);
                let seq = self.seq;
                let mut ah_buf = vec![0u8; AH_TOTAL_LEN];
                {
                    let mut ah = AhHeader::new_unchecked(&mut ah_buf[..]);
                    ah.set_next_header(inner);
                    ah.set_total_len(AH_TOTAL_LEN);
                    ah.set_spi(self.spi);
                    ah.set_seq(seq);
                    let icv = ah_icv(&self.key, self.spi, seq, inner, &payload);
                    ah.set_icv(&icv);
                }
                ah_buf.extend_from_slice(&payload);
                if rebuild_v6(mbuf, Protocol::Ah, &ah_buf).is_err() {
                    return PluginAction::Drop;
                }
                PluginAction::Continue
            }
            AhMode::Verify => {
                if pkt.next_header() != Protocol::Ah {
                    // Policy says authenticated traffic only.
                    self.auth_failures += 1;
                    return PluginAction::Drop;
                }
                let payload = pkt.payload().to_vec();
                let Ok(ah) = AhHeader::new_checked(&payload[..]) else {
                    self.auth_failures += 1;
                    return PluginAction::Drop;
                };
                let inner = ah.next_header();
                let ah_len = ah.total_len();
                let spi = ah.spi();
                let seq = ah.seq();
                let body = &payload[ah_len..];
                let want = ah_icv(&self.key, spi, seq, inner, body);
                if spi != self.spi || !hmac::verify_mac(ah.icv(), &want) {
                    self.auth_failures += 1;
                    return PluginAction::Drop;
                }
                if !self.replay.check_and_update(seq) {
                    self.auth_failures += 1;
                    return PluginAction::Drop;
                }
                let body = body.to_vec();
                if rebuild_v6(mbuf, inner, &body).is_err() {
                    return PluginAction::Drop;
                }
                PluginAction::Continue
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "ah spi={} mode={} failures={}",
            self.spi,
            match self.mode {
                AhMode::Sign => "sign",
                AhMode::Verify => "verify",
            },
            self.auth_failures()
        )
    }
}

/// The AH plugin module.
#[derive(Default)]
pub struct AhPlugin {
    _priv: (),
}

impl Plugin for AhPlugin {
    fn name(&self) -> &str {
        "ah"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::IP_SECURITY, 1)
    }

    /// Config: `mode=sign|verify key=<string> spi=<n>`.
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let mode = match map.get("mode").map(String::as_str) {
            Some("sign") => AhMode::Sign,
            Some("verify") => AhMode::Verify,
            other => {
                return Err(PluginError::BadConfig(format!(
                    "mode=sign|verify required, got {other:?}"
                )))
            }
        };
        let key = map
            .get("key")
            .ok_or_else(|| PluginError::BadConfig("key=<secret> required".to_string()))?
            .clone()
            .into_bytes();
        let spi: u32 = config_num(&map, "spi", 256)?;
        Ok(Box::new(AhInstance {
            mode,
            key,
            spi,
            seq: 0,
            replay: ReplayWindow::default(),
            auth_failures: 0,
        }))
    }
}

enum EspMode {
    Encap,
    Decap,
}

/// An ESP instance (one security association).
pub struct EspInstance {
    mode: EspMode,
    cipher: ToyCipher,
    spi: u32,
    seq: u32,
    replay: ReplayWindow,
    failures: u64,
}

impl EspInstance {
    /// Decapsulation failures observed.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

impl PluginInstance for EspInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        let Ok(pkt) = Ipv6Packet::new_checked(mbuf.data()) else {
            return PluginAction::Continue;
        };
        match self.mode {
            EspMode::Encap => {
                let inner = pkt.next_header();
                let payload = pkt.payload().to_vec();
                self.seq = self.seq.wrapping_add(1);
                let seq = self.seq;
                let esp = esp_encapsulate(&self.cipher, self.spi, seq, inner, &payload);
                if rebuild_v6(mbuf, Protocol::Esp, &esp).is_err() {
                    return PluginAction::Drop;
                }
                PluginAction::Continue
            }
            EspMode::Decap => {
                if pkt.next_header() != Protocol::Esp {
                    self.failures += 1;
                    return PluginAction::Drop;
                }
                let payload = pkt.payload().to_vec();
                let Ok(esp) = rp_packet::ipsec::EspPacket::new_checked(&payload[..]) else {
                    self.failures += 1;
                    return PluginAction::Drop;
                };
                if esp.spi() != self.spi || !self.replay.check_and_update(esp.seq()) {
                    self.failures += 1;
                    return PluginAction::Drop;
                }
                match esp_decapsulate(&self.cipher, &payload) {
                    Ok((inner, plain)) => {
                        if rebuild_v6(mbuf, inner, &plain).is_err() {
                            return PluginAction::Drop;
                        }
                        PluginAction::Continue
                    }
                    Err(_) => {
                        self.failures += 1;
                        PluginAction::Drop
                    }
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "esp spi={} mode={} failures={}",
            self.spi,
            match self.mode {
                EspMode::Encap => "encap",
                EspMode::Decap => "decap",
            },
            self.failures()
        )
    }
}

/// The ESP plugin module.
#[derive(Default)]
pub struct EspPlugin {
    _priv: (),
}

impl Plugin for EspPlugin {
    fn name(&self) -> &str {
        "esp"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::IP_SECURITY, 2)
    }

    /// Config: `mode=encap|decap key=<string> spi=<n>`.
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let mode = match map.get("mode").map(String::as_str) {
            Some("encap") => EspMode::Encap,
            Some("decap") => EspMode::Decap,
            other => {
                return Err(PluginError::BadConfig(format!(
                    "mode=encap|decap required, got {other:?}"
                )))
            }
        };
        let key = map
            .get("key")
            .ok_or_else(|| PluginError::BadConfig("key=<secret> required".to_string()))?;
        let spi: u32 = config_num(&map, "spi", 257)?;
        Ok(Box::new(EspInstance {
            mode,
            cipher: ToyCipher::new(key.as_bytes()),
            spi,
            seq: 0,
            replay: ReplayWindow::default(),
            failures: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::builder::PacketSpec;
    use rp_packet::mbuf::FlowIndex;
    use rp_packet::FlowTuple;
    use std::net::{IpAddr, Ipv6Addr};

    fn v6(a: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, a))
    }

    fn call(inst: &mut Box<dyn PluginInstance>, m: &mut Mbuf) -> PluginAction {
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::IpSecurity,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        inst.handle_packet(m, &mut ctx)
    }

    #[test]
    fn replay_window_semantics() {
        let mut w = ReplayWindow::default();
        assert!(w.check_and_update(1));
        assert!(!w.check_and_update(1)); // replay
        assert!(w.check_and_update(5));
        assert!(w.check_and_update(3)); // within window, unseen
        assert!(!w.check_and_update(3)); // replay
        assert!(w.check_and_update(100));
        assert!(!w.check_and_update(5)); // fell out of the 64-window? 100-5=95 ≥ 64 → too old
        assert!(w.check_and_update(99));
        assert!(!w.check_and_update(0));
    }

    #[test]
    fn ah_sign_verify_roundtrip() {
        let mut ap = AhPlugin::default();
        let mut signer = ap.create_instance("mode=sign key=s3cret spi=7").unwrap();
        let mut verifier = ap.create_instance("mode=verify key=s3cret spi=7").unwrap();
        let original = PacketSpec::udp(v6(1), v6(2), 1000, 2000, 64).build();
        let mut m = Mbuf::new(original.clone(), 0);
        assert_eq!(call(&mut signer, &mut m), PluginAction::Continue);
        // Signed packet: next header is AH, longer.
        let pkt = Ipv6Packet::new_checked(m.data()).unwrap();
        assert_eq!(pkt.next_header(), Protocol::Ah);
        assert!(m.len() > original.len());
        // Verify restores the original bytes.
        assert_eq!(call(&mut verifier, &mut m), PluginAction::Continue);
        assert_eq!(m.data(), &original[..]);
        // The six-tuple survives the round trip.
        let t = FlowTuple::extract(m.data(), 0).unwrap();
        assert_eq!((t.sport, t.dport), (1000, 2000));
    }

    #[test]
    fn ah_tamper_detected() {
        let mut ap = AhPlugin::default();
        let mut signer = ap.create_instance("mode=sign key=k spi=7").unwrap();
        let mut verifier = ap.create_instance("mode=verify key=k spi=7").unwrap();
        let mut m = Mbuf::new(PacketSpec::udp(v6(1), v6(2), 1, 2, 32).build(), 0);
        call(&mut signer, &mut m);
        let last = m.len() - 1;
        m.data_mut()[last] ^= 0xFF; // tamper with the payload
        assert_eq!(call(&mut verifier, &mut m), PluginAction::Drop);
    }

    #[test]
    fn ah_wrong_key_or_unauthenticated_dropped() {
        let mut ap = AhPlugin::default();
        let mut signer = ap.create_instance("mode=sign key=right spi=7").unwrap();
        let mut verifier = ap.create_instance("mode=verify key=wrong spi=7").unwrap();
        let mut m = Mbuf::new(PacketSpec::udp(v6(1), v6(2), 1, 2, 32).build(), 0);
        call(&mut signer, &mut m);
        assert_eq!(call(&mut verifier, &mut m), PluginAction::Drop);
        // Plain traffic at a verify instance is also dropped.
        let mut plain = Mbuf::new(PacketSpec::udp(v6(1), v6(2), 1, 2, 32).build(), 0);
        assert_eq!(call(&mut verifier, &mut plain), PluginAction::Drop);
    }

    #[test]
    fn ah_replayed_packet_dropped() {
        let mut ap = AhPlugin::default();
        let mut signer = ap.create_instance("mode=sign key=k spi=7").unwrap();
        let mut verifier = ap.create_instance("mode=verify key=k spi=7").unwrap();
        let mut m = Mbuf::new(PacketSpec::udp(v6(1), v6(2), 1, 2, 32).build(), 0);
        call(&mut signer, &mut m);
        let replayed = m.clone();
        assert_eq!(call(&mut verifier, &mut m), PluginAction::Continue);
        let mut m2 = replayed;
        assert_eq!(call(&mut verifier, &mut m2), PluginAction::Drop);
    }

    #[test]
    fn esp_encap_decap_roundtrip() {
        let mut ep = EspPlugin::default();
        let mut enc = ep.create_instance("mode=encap key=vpn spi=9").unwrap();
        let mut dec = ep.create_instance("mode=decap key=vpn spi=9").unwrap();
        let original = PacketSpec::tcp(v6(1), v6(2), 443, 555, 128).build();
        let mut m = Mbuf::new(original.clone(), 0);
        assert_eq!(call(&mut enc, &mut m), PluginAction::Continue);
        let pkt = Ipv6Packet::new_checked(m.data()).unwrap();
        assert_eq!(pkt.next_header(), Protocol::Esp);
        // Payload is ciphertext: ports are no longer recoverable.
        let t = FlowTuple::extract(m.data(), 0).unwrap();
        assert_eq!(t.proto, u8::from(Protocol::Esp));
        assert_eq!(call(&mut dec, &mut m), PluginAction::Continue);
        assert_eq!(m.data(), &original[..]);
    }

    #[test]
    fn esp_wrong_spi_dropped() {
        let mut ep = EspPlugin::default();
        let mut enc = ep.create_instance("mode=encap key=vpn spi=9").unwrap();
        let mut dec = ep.create_instance("mode=decap key=vpn spi=10").unwrap();
        let mut m = Mbuf::new(PacketSpec::udp(v6(1), v6(2), 1, 2, 16).build(), 0);
        call(&mut enc, &mut m);
        assert_eq!(call(&mut dec, &mut m), PluginAction::Drop);
    }

    #[test]
    fn config_validation() {
        let mut ap = AhPlugin::default();
        assert!(ap.create_instance("mode=sign").is_err()); // no key
        assert!(ap.create_instance("key=k").is_err()); // no mode
        let mut ep = EspPlugin::default();
        assert!(ep.create_instance("mode=sideways key=k").is_err());
    }
}
