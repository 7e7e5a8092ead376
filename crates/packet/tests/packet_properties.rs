//! Property tests for the wire formats: parse∘emit identity, checksum
//! invariants under mutation, six-tuple extraction robustness on
//! arbitrary bytes (the parser must never panic), the word key's parser
//! against the tuple parser it replaced, and IPsec transform round-trips.

use proptest::prelude::*;
use rp_packet::builder::PacketSpec;
use rp_packet::checksum;
use rp_packet::ext_hdr;
use rp_packet::ipsec::{esp_decapsulate, esp_encapsulate, ToyCipher};
use rp_packet::ipv4::Ipv4Packet;
use rp_packet::ipv6::Ipv6Packet;
use rp_packet::wire::get_u16;
use rp_packet::{Error, FlowKey, FlowTuple, IpVersion, Protocol};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// `FlowTuple::extract` as it was before [`FlowKey::extract`] became the
/// one parser: the checked header views, read field by field. The word
/// parser is held to it error for error.
fn reference_extract(data: &[u8], rx_if: u32) -> rp_packet::Result<FlowTuple> {
    fn ports_of(proto: Protocol, transport: &[u8]) -> rp_packet::Result<(u16, u16)> {
        if !proto.has_ports() {
            return Ok((0, 0));
        }
        if transport.len() < 4 {
            return Err(Error::Truncated);
        }
        Ok((get_u16(transport, 0), get_u16(transport, 2)))
    }
    match IpVersion::of_packet(data)? {
        IpVersion::V4 => {
            let ip = Ipv4Packet::new_checked(data)?;
            let proto = ip.protocol();
            let (sport, dport) = if ip.frag_offset() > 0 || ip.more_frags() {
                (0, 0)
            } else {
                ports_of(proto, ip.payload())?
            };
            Ok(FlowTuple {
                src: IpAddr::V4(ip.src_addr()),
                dst: IpAddr::V4(ip.dst_addr()),
                proto: proto.into(),
                sport,
                dport,
                rx_if,
            })
        }
        IpVersion::V6 => {
            let ip = Ipv6Packet::new_checked(data)?;
            let walk = ext_hdr::walk_chain(ip.next_header(), ip.payload())?;
            let upper = &ip.payload()[walk.upper_offset..];
            let (sport, dport) = if walk.fragment.is_some() {
                (0, 0)
            } else {
                ports_of(walk.upper_protocol, upper)?
            };
            Ok(FlowTuple {
                src: IpAddr::V6(ip.src_addr()),
                dst: IpAddr::V6(ip.dst_addr()),
                proto: walk.upper_protocol.into(),
                sport,
                dport,
                rx_if,
            })
        }
    }
}

/// What the data path parses now, read back as a tuple.
fn key_extract(data: &[u8], rx_if: u32) -> rp_packet::Result<FlowTuple> {
    FlowKey::extract(data, rx_if).map(|k| k.tuple())
}

/// Insert an IPv6 fragment header (offset `offset`, M flag `more`) right
/// after the fixed header of `buf`.
fn with_v6_fragment(mut buf: Vec<u8>, offset: u16, more: bool) -> Vec<u8> {
    let next = buf[6];
    let frag_field = offset << 3 | u16::from(more);
    let mut hdr = vec![next, 0];
    hdr.extend(frag_field.to_be_bytes());
    hdr.extend([9, 9, 9, 9]);
    buf.splice(40..40, hdr);
    buf[6] = Protocol::Ipv6Frag.into();
    let payload = get_u16(&buf, 4) + 8;
    buf[4..6].copy_from_slice(&payload.to_be_bytes());
    buf
}

/// A well-formed packet of one of the shapes the data path meets.
fn base_packet(shape: u8, a: u32, b: u32, sport: u16, dport: u16, len: usize) -> Vec<u8> {
    let v4 = |x: u32| IpAddr::V4(Ipv4Addr::from(x));
    let v6 = |x: u32| IpAddr::V6(Ipv6Addr::from(0x2001_0db8_u128 << 96 | u128::from(x)));
    let udp4 = PacketSpec::udp(v4(a), v4(b), sport, dport, len);
    match shape % 9 {
        0 => udp4.build(),
        1 => PacketSpec::tcp(v4(a), v4(b), sport, dport, len).build(),
        2 => udp4.with_v4_option(148, vec![0, 0]).build(),
        3 => PacketSpec {
            proto: Protocol::Icmp,
            ..udp4
        }
        .build(),
        4 => PacketSpec::udp(v6(a), v6(b), sport, dport, len).build(),
        5 => PacketSpec::tcp(v6(a), v6(b), sport, dport, len)
            .with_hbh_option(0x1E, vec![0; 3])
            .build(),
        6 => with_v6_fragment(
            PacketSpec::udp(v6(a), v6(b), sport, dport, len).build(),
            0,
            true,
        ),
        7 => with_v6_fragment(
            PacketSpec::tcp(v6(a), v6(b), sport, dport, len).build(),
            u16::from(shape),
            false,
        ),
        _ => PacketSpec::tcp(v4(a), v4(b), sport, dport, len)
            .with_v4_option(7, vec![4, 0, 0, 0, 0])
            .build(),
    }
}

/// One way to damage a packet, aimed at the fields the parser reads.
#[derive(Debug, Clone)]
enum Mutation {
    /// Overwrite any byte.
    Byte(usize, u8),
    /// IPv4 fragment fields: MF and the 13-bit offset.
    Fragment(bool, u16),
    /// IPv4 header length nibble.
    Ihl(u8),
    /// IPv4 total length, or IPv6 payload length.
    Length(u16),
    /// Keep only `ihl + n` bytes of an IPv4 packet and say so in its
    /// total length: a transport header of `n` bytes.
    ShortTransport(u8),
    /// Cut the buffer anywhere.
    Cut(usize),
}

fn apply(buf: &mut Vec<u8>, m: &Mutation) {
    let v4 = buf.first().is_some_and(|b| b >> 4 == 4);
    match *m {
        Mutation::Byte(i, v) if !buf.is_empty() => {
            let i = i % buf.len();
            buf[i] = v;
        }
        Mutation::Fragment(mf, off) if v4 && buf.len() >= 8 => {
            let field = u16::from(mf) << 13 | off & 0x1FFF;
            buf[6..8].copy_from_slice(&field.to_be_bytes());
        }
        Mutation::Ihl(n) if v4 => buf[0] = 0x40 | n & 0x0F,
        Mutation::Length(n) if buf.len() >= 6 => {
            let at = if v4 { 2 } else { 4 };
            buf[at..at + 2].copy_from_slice(&n.to_be_bytes());
        }
        Mutation::ShortTransport(n) if v4 => {
            let end = usize::from(buf[0] & 0x0F) * 4 + usize::from(n % 5);
            if (4..=buf.len()).contains(&end) {
                buf.truncate(end);
                buf[2..4].copy_from_slice(&(end as u16).to_be_bytes());
            }
        }
        Mutation::Cut(n) => buf.truncate(n % (buf.len() + 1)),
        _ => {}
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(i, v)| Mutation::Byte(i, v)),
        (any::<bool>(), prop_oneof![Just(0u16), 1u16..0x2000])
            .prop_map(|(mf, off)| Mutation::Fragment(mf, off)),
        (0u8..16).prop_map(Mutation::Ihl),
        any::<u16>().prop_map(Mutation::Length),
        (0u8..5).prop_map(Mutation::ShortTransport),
        any::<usize>().prop_map(Mutation::Cut),
    ]
}

/// A well-formed packet with up to three mutations applied.
fn arb_mutated_packet() -> impl Strategy<Value = Vec<u8>> {
    let base = (
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        0usize..24,
    );
    let mutations = prop::collection::vec(arb_mutation(), 0..4);
    (base, mutations).prop_map(|((shape, a, b, sport, dport, len), ms)| {
        let mut buf = base_packet(shape, a, b, sport, dport, len);
        for m in &ms {
            apply(&mut buf, m);
        }
        buf
    })
}

fn arb_addr() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|a| IpAddr::V4(Ipv4Addr::from(a))),
        any::<u128>().prop_map(|a| IpAddr::V6(Ipv6Addr::from(a))),
        // An IPv6 address whose words past the first are zero: the IPv4
        // look-alike only a family bit tells apart.
        any::<u32>().prop_map(|a| IpAddr::V6(Ipv6Addr::from(u128::from(a) << 96))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Byte soup, mostly led by a v4 or v6 version nibble so that some
    /// of it gets past the first checks.
    #[test]
    fn key_parser_matches_the_reference_on_arbitrary_bytes(
        lead in prop_oneof![Just(0x45u8), Just(0x46), Just(0x60), any::<u8>()],
        soup in prop::collection::vec(any::<u8>(), 0..96),
        rx_if in any::<u32>(),
    ) {
        let mut data = soup;
        if let Some(b) = data.first_mut() {
            *b = lead;
        }
        prop_assert_eq!(key_extract(&data, rx_if), reference_extract(&data, rx_if));
    }

    /// IPv4 with options, first and non-first fragments, ICMP, truncated
    /// TCP/UDP, bad IHL or length, IPv6 behind hop-by-hop and fragment
    /// headers: the same tuple or the same error.
    #[test]
    fn key_parser_matches_the_reference_on_mutated_packets(
        data in arb_mutated_packet(),
        rx_if in any::<u32>(),
    ) {
        prop_assert_eq!(key_extract(&data, rx_if), reference_extract(&data, rx_if));
    }

    /// The key keeps every field of every tuple, mixed families included.
    #[test]
    fn key_round_trips_every_tuple(
        src in arb_addr(),
        dst in arb_addr(),
        proto in any::<u8>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        rx_if in any::<u32>(),
    ) {
        let t = FlowTuple { src, dst, proto, sport, dport, rx_if };
        prop_assert_eq!(FlowKey::of(&t).tuple(), t);
    }
}

/// Every base shape parses, and the mutations reach what they aim at:
/// each error the parser can return, and port-less fragments.
#[test]
fn mutated_packets_cover_every_outcome() {
    use proptest::rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(27);
    let strategy = arb_mutated_packet();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..20_000 {
        let data = strategy.sample(&mut rng);
        let outcome = match reference_extract(&data, 0) {
            Ok(t) if (t.proto == 6 || t.proto == 17) && (t.sport, t.dport) == (0, 0) => "portless",
            Ok(_) => "ok",
            Err(Error::Truncated) => "truncated",
            Err(Error::Malformed) => "malformed",
            Err(Error::BadLength) => "bad length",
            Err(_) => "other",
        };
        seen.insert(outcome);
    }
    let want = ["bad length", "malformed", "ok", "portless", "truncated"];
    for w in want {
        assert!(seen.contains(w), "no {w} packet in {seen:?}");
    }
    for shape in 0..9 {
        let buf = base_packet(shape, 0x0A00_0001, 0x0A00_0002, 1, 2, 8);
        assert_eq!(key_extract(&buf, 3), reference_extract(&buf, 3));
        assert!(key_extract(&buf, 3).is_ok(), "shape {shape}");
    }
}

proptest! {
    /// Any byte soup: extraction returns Ok or Err but never panics, and
    /// Ok implies internally consistent lengths.
    #[test]
    fn extraction_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = FlowTuple::extract(&data, 0);
    }

    /// Parse-what-you-emit for UDP/IPv4 across the parameter space.
    #[test]
    fn udp_v4_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        len in 0usize..2048,
        ttl in 1u8..=255,
    ) {
        let mut spec = PacketSpec::udp(
            IpAddr::V4(Ipv4Addr::from(src)),
            IpAddr::V4(Ipv4Addr::from(dst)),
            sport, dport, len,
        );
        spec.ttl = ttl;
        let buf = spec.build();
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(pkt.verify_checksum());
        prop_assert_eq!(pkt.ttl(), ttl);
        let t = FlowTuple::extract(&buf, 7).unwrap();
        prop_assert_eq!(t.src, IpAddr::V4(Ipv4Addr::from(src)));
        prop_assert_eq!(t.dst, IpAddr::V4(Ipv4Addr::from(dst)));
        prop_assert_eq!(t.sport, sport);
        prop_assert_eq!(t.dport, dport);
        prop_assert_eq!(t.rx_if, 7);
    }

    /// TTL decrement keeps the IPv4 header checksum valid from any
    /// starting checksum state.
    #[test]
    fn incremental_checksum_invariant(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in 2u8..=255,
    ) {
        let mut spec = PacketSpec::udp(
            IpAddr::V4(Ipv4Addr::from(src)),
            IpAddr::V4(Ipv4Addr::from(dst)),
            1, 2, 8,
        );
        spec.ttl = ttl;
        let mut buf = spec.build();
        let mut pkt = Ipv4Packet::new_unchecked(&mut buf[..]);
        pkt.decrement_ttl().unwrap();
        prop_assert!(pkt.verify_checksum());
    }

    /// RFC 1624 incremental update equals full recomputation for any
    /// 16-bit field change.
    #[test]
    fn rfc1624_equivalence(words in prop::collection::vec(any::<u16>(), 4..20), idx in 0usize..4, new in any::<u16>()) {
        let mut data: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let old_sum = checksum::checksum(&data);
        let idx = idx % words.len();
        let old_word = words[idx];
        data[idx * 2..idx * 2 + 2].copy_from_slice(&new.to_be_bytes());
        let full = checksum::checksum(&data);
        let incr = checksum::update_u16(old_sum, old_word, new);
        prop_assert_eq!(full, incr);
    }

    /// ESP decapsulation inverts encapsulation for any payload/keys.
    #[test]
    fn esp_roundtrip(
        key in prop::collection::vec(any::<u8>(), 1..40),
        payload in prop::collection::vec(any::<u8>(), 0..512),
        spi in any::<u32>(),
        seq in 1u32..u32::MAX,
    ) {
        let cipher = ToyCipher::new(&key);
        let pkt = esp_encapsulate(&cipher, spi, seq, Protocol::Tcp, &payload);
        let (next, plain) = esp_decapsulate(&cipher, &pkt).unwrap();
        prop_assert_eq!(next, Protocol::Tcp);
        prop_assert_eq!(plain, payload);
    }

    /// v6 flows with hop-by-hop options still classify to the transport
    /// protocol.
    #[test]
    fn v6_hbh_extraction(
        tail in any::<u16>(),
        sport in any::<u16>(),
        optlen in 0usize..16,
    ) {
        let buf = PacketSpec::udp(
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, tail)),
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)),
            sport, 443, 32,
        )
        .with_hbh_option(0x1E, vec![0u8; optlen])
        .build();
        let t = FlowTuple::extract(&buf, 0).unwrap();
        prop_assert_eq!(t.proto, 17);
        prop_assert_eq!(t.sport, sport);
        prop_assert_eq!(t.dport, 443);
    }
}

#[test]
fn truncation_sweep_udp_v4() {
    // Every truncation point of a valid packet must yield Err or a
    // consistent parse — never a panic or out-of-bounds.
    let buf = PacketSpec::udp(
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
        1111,
        2222,
        64,
    )
    .build();
    for cut in 0..buf.len() {
        let _ = FlowTuple::extract(&buf[..cut], 0);
        let _ = Ipv4Packet::new_checked(&buf[..cut]);
    }
}

#[test]
fn bitflip_sweep_never_panics() {
    let buf = PacketSpec::udp(
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
        1111,
        2222,
        32,
    )
    .build();
    for byte in 0..buf.len() {
        for bit in 0..8 {
            let mut b = buf.clone();
            b[byte] ^= 1 << bit;
            let _ = FlowTuple::extract(&b, 0);
        }
    }
}
