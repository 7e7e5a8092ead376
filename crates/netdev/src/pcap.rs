//! Dependency-free classic pcap (`.pcap`) reader and writer, plus the
//! replay and capture [`NetDev`] backends built on them.
//!
//! Only the classic format is implemented (magic `0xa1b2c3d4`, version
//! 2.4) — no pcapng. Both byte orders are accepted on read (the magic
//! doubles as the endianness marker) and either can be produced on
//! write, so the golden fixtures in `tests/fixtures/` exercise both.
//! Two link types are understood:
//!
//! * [`LINKTYPE_RAW`] (101): each record is a bare IPv4/IPv6 packet.
//! * [`LINKTYPE_ETHERNET`] (1): each record is an Ethernet frame; the
//!   replay device strips the header on the way in and the capture
//!   device attaches one on the way out.

use crate::frame;
use crate::{NetDev, NetDevError, RxBatch};
use router_core::dataplane::control::DeviceStats;
use rp_packet::pool::MbufPool;
use rp_packet::Mbuf;

/// Classic pcap magic in file order for a native-order writer.
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// Link type: raw IPv4/IPv6 packets, no L2 header.
pub const LINKTYPE_RAW: u32 = 101;
/// Link type: DIX Ethernet frames.
pub const LINKTYPE_ETHERNET: u32 = 1;

const GLOBAL_HDR_LEN: usize = 24;
const RECORD_HDR_LEN: usize = 16;
const SNAPLEN: u32 = 65535;

/// One captured packet record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Timestamp seconds.
    pub ts_sec: u32,
    /// Timestamp microseconds.
    pub ts_usec: u32,
    /// Original on-wire length (≥ `data.len()` if the capture truncated).
    pub orig_len: u32,
    /// Captured bytes.
    pub data: Vec<u8>,
}

/// A parsed classic pcap file.
#[derive(Debug, Clone)]
pub struct PcapFile {
    /// The file's link type ([`LINKTYPE_RAW`] or [`LINKTYPE_ETHERNET`]
    /// for our backends; other values parse but cannot be replayed).
    pub linktype: u32,
    /// Whether the file was written big-endian.
    pub big_endian: bool,
    /// The packet records, in file order.
    pub records: Vec<PcapRecord>,
}

fn rd_u32(b: &[u8], off: usize, big: bool) -> u32 {
    let raw = [b[off], b[off + 1], b[off + 2], b[off + 3]];
    if big {
        u32::from_be_bytes(raw)
    } else {
        u32::from_le_bytes(raw)
    }
}

fn rd_u16(b: &[u8], off: usize, big: bool) -> u16 {
    let raw = [b[off], b[off + 1]];
    if big {
        u16::from_be_bytes(raw)
    } else {
        u16::from_le_bytes(raw)
    }
}

impl PcapFile {
    /// Parse a classic pcap file from a byte buffer, accepting either
    /// endianness.
    pub fn parse(bytes: &[u8]) -> Result<PcapFile, NetDevError> {
        if bytes.len() < GLOBAL_HDR_LEN {
            return Err(NetDevError::Format(format!(
                "pcap too short for global header: {} bytes",
                bytes.len()
            )));
        }
        let magic_le = rd_u32(bytes, 0, false);
        let big = match magic_le {
            PCAP_MAGIC => false,
            m if m.swap_bytes() == PCAP_MAGIC => true,
            m => {
                return Err(NetDevError::Format(format!(
                    "bad pcap magic 0x{m:08x} (nanosecond and pcapng formats unsupported)"
                )))
            }
        };
        let (major, minor) = (rd_u16(bytes, 4, big), rd_u16(bytes, 6, big));
        if major != 2 {
            return Err(NetDevError::Format(format!(
                "unsupported pcap version {major}.{minor}"
            )));
        }
        let linktype = rd_u32(bytes, 20, big);
        let mut records = Vec::new();
        let mut off = GLOBAL_HDR_LEN;
        while off < bytes.len() {
            if bytes.len() - off < RECORD_HDR_LEN {
                return Err(NetDevError::Format(format!(
                    "truncated record header at offset {off}"
                )));
            }
            let ts_sec = rd_u32(bytes, off, big);
            let ts_usec = rd_u32(bytes, off + 4, big);
            let incl_len = rd_u32(bytes, off + 8, big) as usize;
            let orig_len = rd_u32(bytes, off + 12, big);
            off += RECORD_HDR_LEN;
            if incl_len > SNAPLEN as usize || bytes.len() - off < incl_len {
                return Err(NetDevError::Format(format!(
                    "truncated record body at offset {off} (incl_len {incl_len})"
                )));
            }
            records.push(PcapRecord {
                ts_sec,
                ts_usec,
                orig_len,
                data: bytes[off..off + incl_len].to_vec(),
            });
            off += incl_len;
        }
        Ok(PcapFile {
            linktype,
            big_endian: big,
            records,
        })
    }
}

/// Streaming classic-pcap writer producing an in-memory byte buffer.
#[derive(Debug)]
pub struct PcapWriter {
    buf: Vec<u8>,
    big_endian: bool,
}

impl PcapWriter {
    /// Start a new capture with the given link type and byte order.
    pub fn new(linktype: u32, big_endian: bool) -> PcapWriter {
        let mut w = PcapWriter {
            buf: Vec::with_capacity(GLOBAL_HDR_LEN),
            big_endian,
        };
        w.u32(PCAP_MAGIC);
        w.u16(2); // version major
        w.u16(4); // version minor
        w.u32(0); // thiszone
        w.u32(0); // sigfigs
        w.u32(SNAPLEN);
        w.u32(linktype);
        w
    }

    fn u32(&mut self, v: u32) {
        let raw = if self.big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.buf.extend_from_slice(&raw);
    }

    fn u16(&mut self, v: u16) {
        let raw = if self.big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        };
        self.buf.extend_from_slice(&raw);
    }

    /// Append one record.
    pub fn push(&mut self, ts_sec: u32, ts_usec: u32, data: &[u8]) {
        let len = (data.len() as u32).min(SNAPLEN);
        self.u32(ts_sec);
        self.u32(ts_usec);
        self.u32(len);
        self.u32(data.len() as u32);
        self.buf.extend_from_slice(&data[..len as usize]);
    }

    /// The capture produced so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finish and take the capture buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A [`NetDev`] whose receive side replays a parsed pcap trace and
/// whose transmit side discards (counting packets as written).
///
/// Each `rx_batch` call serves the next `max` records. Ethernet traces
/// are decapsulated on the fly; frames that fail decap count as
/// `rx_dropped` (→ `DropReason::DeviceRx` in the plane's ledger).
/// [`rewind`](PcapReplayDev::rewind) restarts the trace for repeated
/// benchmark reps without reparsing.
#[derive(Debug)]
pub struct PcapReplayDev {
    name: String,
    file: PcapFile,
    cursor: usize,
    stats: DeviceStats,
}

impl PcapReplayDev {
    /// Build a replay device from parsed pcap bytes.
    pub fn new(name: &str, bytes: &[u8]) -> Result<PcapReplayDev, NetDevError> {
        let file = PcapFile::parse(bytes)?;
        if file.linktype != LINKTYPE_RAW && file.linktype != LINKTYPE_ETHERNET {
            return Err(NetDevError::Format(format!(
                "unsupported linktype {} (want RAW=101 or ETHERNET=1)",
                file.linktype
            )));
        }
        Ok(PcapReplayDev {
            name: name.to_string(),
            file,
            cursor: 0,
            stats: DeviceStats::default(),
        })
    }

    /// Records remaining to replay.
    pub fn remaining(&self) -> usize {
        self.file.records.len() - self.cursor
    }

    /// Restart the trace from the first record (counters keep running).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

impl NetDev for PcapReplayDev {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx_batch(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> RxBatch {
        let mut batch = RxBatch::default();
        let ethernet = self.file.linktype == LINKTYPE_ETHERNET;
        while (batch.frames as usize) < max && self.cursor < self.file.records.len() {
            let rec = &self.file.records[self.cursor];
            self.cursor += 1;
            batch.frames += 1;
            self.stats.rx_packets += 1;
            self.stats.rx_bytes += rec.data.len() as u64;
            let payload = if ethernet {
                match frame::strip_ethernet(&rec.data) {
                    Ok(p) => p,
                    Err(_) => {
                        batch.dropped += 1;
                        self.stats.rx_dropped += 1;
                        continue;
                    }
                }
            } else {
                &rec.data[..]
            };
            sink(payload);
            batch.delivered += 1;
        }
        self.stats.rx_batch.observe(batch.frames);
        batch
    }

    fn tx_batch(&mut self, pkts: &mut Vec<Mbuf>, pool: &mut MbufPool) -> u64 {
        let mut written = 0;
        for m in pkts.drain(..) {
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += m.len() as u64;
            written += 1;
            pool.recycle(m);
        }
        self.stats.tx_batch.observe(written);
        written
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

/// A [`NetDev`] whose transmit side appends every packet to an
/// in-memory pcap capture (receive side is always empty).
///
/// Timestamps come from each mbuf's `timestamp_ns`. With
/// [`LINKTYPE_ETHERNET`] an Ethernet header is attached (synthetic
/// MACs); packets that cannot be framed count as `tx_errors`. Capture
/// allocates per record — it is an offline diffing tool, not part of
/// the allocation-gated fast path.
#[derive(Debug)]
pub struct PcapCaptureDev {
    name: String,
    writer: PcapWriter,
    linktype: u32,
    scratch: Vec<u8>,
    stats: DeviceStats,
}

/// Destination MAC used for captured Ethernet frames.
pub const CAPTURE_DST_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x02];
/// Source MAC used for captured Ethernet frames.
pub const CAPTURE_SRC_MAC: [u8; 6] = [0x02, 0, 0, 0, 0, 0x01];

impl PcapCaptureDev {
    /// Start an egress capture with the given link type and byte order.
    pub fn new(name: &str, linktype: u32, big_endian: bool) -> PcapCaptureDev {
        PcapCaptureDev {
            name: name.to_string(),
            writer: PcapWriter::new(linktype, big_endian),
            linktype,
            scratch: Vec::new(),
            stats: DeviceStats::default(),
        }
    }

    /// The pcap bytes captured so far.
    pub fn bytes(&self) -> &[u8] {
        self.writer.bytes()
    }

    /// Finish and take the capture.
    pub fn into_bytes(self) -> Vec<u8> {
        self.writer.into_bytes()
    }
}

impl NetDev for PcapCaptureDev {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx_batch(&mut self, _max: usize, _sink: &mut dyn FnMut(&[u8])) -> RxBatch {
        RxBatch::default()
    }

    fn tx_batch(&mut self, pkts: &mut Vec<Mbuf>, pool: &mut MbufPool) -> u64 {
        let mut written = 0;
        for m in pkts.drain(..) {
            let ts_sec = (m.timestamp_ns / 1_000_000_000) as u32;
            let ts_usec = ((m.timestamp_ns % 1_000_000_000) / 1_000) as u32;
            if self.linktype == LINKTYPE_ETHERNET {
                if frame::attach_ethernet(
                    &mut self.scratch,
                    &CAPTURE_DST_MAC,
                    &CAPTURE_SRC_MAC,
                    m.data(),
                ) {
                    self.writer.push(ts_sec, ts_usec, &self.scratch);
                } else {
                    self.stats.tx_errors += 1;
                    pool.recycle(m);
                    continue;
                }
            } else {
                self.writer.push(ts_sec, ts_usec, m.data());
            }
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += m.len() as u64;
            written += 1;
            pool.recycle(m);
        }
        self.stats.tx_batch.observe(written);
        written
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_parse_round_trip_both_endiannesses() {
        for big in [false, true] {
            let mut w = PcapWriter::new(LINKTYPE_RAW, big);
            w.push(1, 2, &[0x45, 1, 2, 3]);
            w.push(3, 4, &[0x60, 9, 8]);
            let bytes = w.into_bytes();
            let f = PcapFile::parse(&bytes).unwrap();
            assert_eq!(f.big_endian, big);
            assert_eq!(f.linktype, LINKTYPE_RAW);
            assert_eq!(f.records.len(), 2);
            assert_eq!(f.records[0].data, vec![0x45, 1, 2, 3]);
            assert_eq!(f.records[0].ts_sec, 1);
            assert_eq!(f.records[0].ts_usec, 2);
            assert_eq!(f.records[1].data, vec![0x60, 9, 8]);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PcapFile::parse(&[]).is_err());
        assert!(PcapFile::parse(&[0u8; 24]).is_err());
        let mut w = PcapWriter::new(LINKTYPE_RAW, false);
        w.push(0, 0, &[1, 2, 3]);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 1); // chop the record body
        assert!(PcapFile::parse(&bytes).is_err());
    }

    #[test]
    fn replay_serves_batches_and_rewinds() {
        let mut w = PcapWriter::new(LINKTYPE_RAW, false);
        for i in 0..5u8 {
            w.push(i as u32, 0, &[0x45, i]);
        }
        let mut dev = PcapReplayDev::new("replay", w.bytes()).unwrap();
        let mut seen = Vec::new();
        let b = dev.rx_batch(3, &mut |p| seen.push(p.to_vec()));
        assert_eq!((b.frames, b.delivered, b.dropped), (3, 3, 0));
        let b = dev.rx_batch(16, &mut |p| seen.push(p.to_vec()));
        assert_eq!((b.frames, b.delivered), (2, 2));
        assert_eq!(seen.len(), 5);
        assert_eq!(dev.remaining(), 0);
        dev.rewind();
        assert_eq!(dev.remaining(), 5);
    }

    #[test]
    fn ethernet_replay_strips_and_drops_non_ip() {
        let mut w = PcapWriter::new(LINKTYPE_ETHERNET, false);
        let mut f = Vec::new();
        frame::attach_ethernet(&mut f, &[1; 6], &[2; 6], &[0x45, 7, 7]);
        w.push(0, 0, &f);
        let mut arp = vec![0u8; 20];
        (arp[12], arp[13]) = (0x08, 0x06);
        w.push(0, 0, &arp);
        w.push(0, 0, &[0u8; 5]); // truncated frame
        let mut dev = PcapReplayDev::new("replay", w.bytes()).unwrap();
        let mut seen = Vec::new();
        let b = dev.rx_batch(16, &mut |p| seen.push(p.to_vec()));
        assert_eq!((b.frames, b.delivered, b.dropped), (3, 1, 2));
        assert_eq!(seen, vec![vec![0x45, 7, 7]]);
        assert_eq!(dev.stats().rx_dropped, 2);
    }

    #[test]
    fn capture_then_replay_is_identity() {
        let mut pool = MbufPool::new(4);
        let mut cap = PcapCaptureDev::new("cap", LINKTYPE_ETHERNET, true);
        let mut batch = vec![
            pool.mbuf_from(&[0x45, 1, 2, 3], 0),
            pool.mbuf_from(&[0x60, 4, 5], 0),
        ];
        assert_eq!(cap.tx_batch(&mut batch, &mut pool), 2);
        let bytes = cap.into_bytes();
        let mut dev = PcapReplayDev::new("replay", &bytes).unwrap();
        let mut seen = Vec::new();
        dev.rx_batch(16, &mut |p| seen.push(p.to_vec()));
        assert_eq!(seen, vec![vec![0x45, 1, 2, 3], vec![0x60, 4, 5]]);
    }
}
