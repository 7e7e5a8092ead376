//! # rp-netdev — the real-traffic I/O plane
//!
//! Everything between the data plane and the outside world. The paper's
//! testbed fed its router from ATM device drivers; this crate is the
//! software analogue: pluggable [`NetDev`] backends with batched,
//! pool-integrated receive and transmit, and an [`IoPlane`] driver that
//! binds devices to router interfaces, pumps ingress batches into either
//! data plane, drains egress back to the devices, and keeps an exact
//! wire-to-wire conservation ledger.
//!
//! Backends:
//!
//! * [`loopback::LoopbackDev`] — in-memory queues, for deterministic
//!   tests (optionally with Ethernet framing to exercise the L2 path).
//! * [`udp::UdpDev`] — one UDP socket per router interface carrying raw
//!   IP packets, so two router processes exchange real traffic over
//!   `127.0.0.1` or between hosts. Uses `recvmmsg` batched reads on
//!   Linux with a plain nonblocking-`recv` fallback everywhere.
//! * [`tap::TapDev`] (Linux) — a kernel TAP interface
//!   (`/dev/net/tun`, `IFF_TAP|IFF_NO_PI`) with Ethernet header
//!   strip/attach, so the router forwards between kernel interfaces.
//! * [`pcap::PcapReplayDev`] / [`pcap::PcapCaptureDev`] — a
//!   dependency-free classic-pcap reader/writer (both endiannesses,
//!   `LINKTYPE_RAW` and `LINKTYPE_ETHERNET`): any captured trace becomes
//!   a reproducible workload, and egress can be captured for offline
//!   diffing.
//!
//! The pool contract: ingress frame bytes are copied into mbufs drawn
//! from the *router's* [`MbufPool`] (the devices own fixed scratch
//! buffers), and every transmitted or dropped mbuf is recycled back into
//! that pool — after warm-up the receive path performs zero fresh
//! allocations (gated by `tests/fastpath_alloc.rs`).

#![warn(missing_docs)]

pub mod faulty;
pub mod frame;
pub mod ioplane;
pub mod loopback;
pub mod pcap;
pub mod supervisor;
#[cfg(target_os = "linux")]
mod sys;
pub mod tap;
pub mod udp;

pub use faulty::{FaultHandle, FaultProgram, FaultyDev};
pub use ioplane::{IoLedger, IoPlane};
pub use supervisor::{DeviceMonitor, DeviceSupervisorConfig, PollSample};

use router_core::dataplane::control::DeviceStats;
use rp_packet::pool::MbufPool;
use rp_packet::Mbuf;

/// What one [`NetDev::rx_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxBatch {
    /// Frames read off the device (delivered + dropped).
    pub frames: u64,
    /// Frames decapsulated and handed to the sink as IP packets.
    pub delivered: u64,
    /// Frames dropped at the device (truncated / non-IP L2 frames) —
    /// the I/O plane counts these as
    /// [`DropReason::DeviceRx`](router_core::ip_core::DropReason::DeviceRx).
    pub dropped: u64,
}

/// A batched, pool-integrated network device.
///
/// The receive side is a *sink* interface: the device reads frames into
/// its own scratch storage, decapsulates them, and hands each resulting
/// IP packet to the caller's closure as a byte slice. The caller (the
/// [`IoPlane`]) copies the slice into a pooled mbuf — the device never
/// allocates per frame, and the router's pool is the single buffer
/// owner on the IP side of the boundary.
///
/// The transmit side takes ownership of a batch of mbufs, frames and
/// writes each, and recycles **every** backing buffer into the supplied
/// pool (transmitted or not) — the "retransmit complete" step of a real
/// driver. I/O errors are counted in the device's [`DeviceStats`], not
/// surfaced per call, so the driver loop stays branch-light.
pub trait NetDev {
    /// Device name for reports (`udp0`, `tap0`, `pcap:replay`, …).
    fn name(&self) -> &str;

    /// Read up to `max` frames, delivering each decapsulated IP packet
    /// to `sink`. Never blocks: returns what is immediately available.
    fn rx_batch(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> RxBatch;

    /// Transmit a batch: drain `pkts`, frame and write each packet, and
    /// recycle every mbuf into `pool`. Returns packets written. Hard
    /// write failures are counted as `tx_errors` in [`NetDev::stats`];
    /// packets shed after bounded backpressure retries (`WouldBlock`)
    /// are counted separately as `tx_dropped`.
    fn tx_batch(&mut self, pkts: &mut Vec<Mbuf>, pool: &mut MbufPool) -> u64;

    /// The device's cumulative I/O counters.
    fn stats(&self) -> DeviceStats;

    /// `stats().tx_errors` alone, which the I/O plane reads around every
    /// `tx_batch`; the loopback answers without copying [`DeviceStats`].
    fn tx_errors(&self) -> u64 {
        self.stats().tx_errors
    }

    /// Tear down and re-establish the device's OS resources — the
    /// supervised recovery path out of quarantine (UDP rebinds and
    /// reconnects its socket, TAP reattaches to the kernel interface;
    /// in-memory backends have nothing to re-establish and use this
    /// default). Counters survive the reopen; only the transport is
    /// rebuilt. Failure re-arms the supervisor's capped backoff.
    fn reopen(&mut self) -> Result<(), NetDevError> {
        Ok(())
    }
}

/// Errors constructing or parsing on the device boundary (steady-state
/// I/O errors are counted in [`DeviceStats`] instead).
#[derive(Debug)]
pub enum NetDevError {
    /// The backend cannot exist in this environment (no `/dev/net/tun`,
    /// no permission, unsupported OS). Tests skip, not fail, on this.
    Unavailable(String),
    /// An I/O error from the OS.
    Io(std::io::Error),
    /// Malformed input (pcap parse errors).
    Format(String),
}

impl std::fmt::Display for NetDevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetDevError::Unavailable(m) => write!(f, "unavailable: {m}"),
            NetDevError::Io(e) => write!(f, "i/o error: {e}"),
            NetDevError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for NetDevError {}

impl From<std::io::Error> for NetDevError {
    fn from(e: std::io::Error) -> Self {
        NetDevError::Io(e)
    }
}
