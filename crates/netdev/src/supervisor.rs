//! Device supervision: the third tier of the Healthy→Degraded→Quarantined
//! architecture (tier one supervises plugin instances, tier two shard
//! workers; this supervises the [`NetDev`](crate::NetDev) boundary).
//!
//! Each bound device gets a [`DeviceMonitor`] fed one [`PollSample`] per
//! I/O-plane duty cycle, built from the device's own
//! [`DeviceStats`](router_core::dataplane::control::DeviceStats) deltas:
//!
//! * **error pressure** — hard rx/tx I/O errors accumulate in a decayed
//!   window (halved every [`DeviceSupervisorConfig::error_window_polls`]
//!   cycles); crossing
//!   [`DeviceSupervisorConfig::error_threshold`] degrades the device.
//! * **rx stall** — polls in which this device read nothing *while its
//!   peers read frames*: traffic is flowing through the plane, this
//!   device alone is silent. A quiet wire never counts as a stall.
//!
//! A device that stays degraded for
//! [`DeviceSupervisorConfig::quarantine_after`] consecutive cycles is
//! quarantined: the I/O plane stops polling its receive side and sheds
//! its egress as counted device-tx drops (conservation stays exact —
//! nothing silently vanishes with the device). Quarantine ends through
//! [`crate::NetDev::reopen`] under the shared capped-doubling
//! [`Backoff`]; a successful reopen returns the device to
//! [`HealthState::Degraded`] *probation*, and
//! [`DeviceSupervisorConfig::recover_after`] clean cycles make it
//! [`HealthState::Healthy`] again.
//!
//! The monitor is pure state-machine: the I/O plane owns the sampling,
//! the clock (`now_ns` is its `coarse_now_ns()` reading) and the reopen
//! call, so the machine is testable without sockets.

use router_core::supervisor::{duration_ns, Backoff, HealthState};
use std::time::Duration;

/// Thresholds and timing of the per-device health machine.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSupervisorConfig {
    /// Decayed hard-error count (rx + tx I/O errors) at which the device
    /// degrades.
    pub error_threshold: u64,
    /// The error window halves every this many polls, so "error rate"
    /// tracks the recent past, not all of history.
    pub error_window_polls: u32,
    /// Consecutive polls with zero rx progress while peer devices made
    /// progress before the device degrades.
    pub rx_stall_polls: u32,
    /// Consecutive degraded polls before quarantine.
    pub quarantine_after: u32,
    /// Consecutive clean polls before a degraded device recovers.
    pub recover_after: u32,
    /// First reopen backoff after quarantine.
    pub backoff_initial: Duration,
    /// Backoff cap (doubles per failed reopen up to this).
    pub backoff_max: Duration,
}

impl Default for DeviceSupervisorConfig {
    fn default() -> Self {
        DeviceSupervisorConfig {
            error_threshold: 8,
            error_window_polls: 64,
            rx_stall_polls: 64,
            quarantine_after: 16,
            recover_after: 8,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_secs(1),
        }
    }
}

/// One duty cycle's observation of a device, as counter deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct PollSample {
    /// Frames this device read this cycle (delivered + decap-dropped).
    pub rx_frames: u64,
    /// Frames every *other* bound device read this cycle (the liveness
    /// witness for the stall check).
    pub peer_rx_frames: u64,
    /// Hard I/O errors this cycle (rx read failures + tx write
    /// failures). Backpressure sheds (`tx_dropped`) are *not* errors —
    /// a saturated peer is not a broken device.
    pub io_errors: u64,
}

/// The per-device health machine (see module docs).
#[derive(Debug)]
pub struct DeviceMonitor {
    cfg: DeviceSupervisorConfig,
    health: HealthState,
    err_window: u64,
    polls_in_window: u32,
    stall_polls: u32,
    degraded_streak: u32,
    clean_streak: u32,
    backoff: Backoff,
    reopen_at: Option<u64>,
    quarantines: u64,
    reopens: u64,
    reopen_failures: u64,
}

impl DeviceMonitor {
    /// A fresh monitor in [`HealthState::Healthy`].
    pub fn new(cfg: DeviceSupervisorConfig) -> DeviceMonitor {
        DeviceMonitor {
            backoff: Backoff::new(
                duration_ns(cfg.backoff_initial),
                duration_ns(cfg.backoff_max),
            ),
            cfg,
            health: HealthState::Healthy,
            err_window: 0,
            polls_in_window: 0,
            stall_polls: 0,
            degraded_streak: 0,
            clean_streak: 0,
            reopen_at: None,
            quarantines: 0,
            reopens: 0,
            reopen_failures: 0,
        }
    }

    /// Current health.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Whether the device is currently off the wire.
    pub fn quarantined(&self) -> bool {
        self.health == HealthState::Quarantined
    }

    /// Times the device was quarantined.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Successful quarantine→reopen cycles.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Failed reopen attempts (each doubles the backoff up to the cap).
    pub fn reopen_failures(&self) -> u64 {
        self.reopen_failures
    }

    /// Step the machine with one duty cycle's sample. No-op while
    /// quarantined (the device is not being polled; there is nothing to
    /// observe).
    pub fn note_poll(&mut self, s: &PollSample, now_ns: u64) {
        if self.quarantined() {
            return;
        }
        self.err_window += s.io_errors;
        self.polls_in_window += 1;
        if self.polls_in_window >= self.cfg.error_window_polls {
            self.err_window /= 2;
            self.polls_in_window = 0;
        }
        if s.rx_frames == 0 && s.peer_rx_frames > 0 {
            self.stall_polls += 1;
        } else {
            self.stall_polls = 0;
        }
        let troubled = self.err_window >= self.cfg.error_threshold
            || self.stall_polls >= self.cfg.rx_stall_polls;
        match self.health {
            HealthState::Healthy => {
                if troubled {
                    self.health = HealthState::Degraded;
                    self.degraded_streak = 1;
                    self.clean_streak = 0;
                }
            }
            HealthState::Degraded => {
                if troubled {
                    self.degraded_streak += 1;
                    self.clean_streak = 0;
                    if self.degraded_streak >= self.cfg.quarantine_after {
                        self.health = HealthState::Quarantined;
                        self.quarantines += 1;
                        self.reopen_at = Some(self.backoff.arm(now_ns));
                    }
                } else {
                    self.clean_streak += 1;
                    self.degraded_streak = 0;
                    if self.clean_streak >= self.cfg.recover_after {
                        self.health = HealthState::Healthy;
                        self.err_window = 0;
                        self.polls_in_window = 0;
                    }
                }
            }
            HealthState::Quarantined => {}
        }
    }

    /// Whether the quarantine backoff has elapsed and the I/O plane
    /// should attempt [`crate::NetDev::reopen`].
    pub fn reopen_due(&self, now_ns: u64) -> bool {
        matches!(self.reopen_at, Some(at) if self.quarantined() && now_ns >= at)
    }

    /// Record the outcome of a reopen attempt. Success puts the device
    /// on degraded probation with cleared windows and reset backoff;
    /// failure doubles the backoff (capped) and re-arms the timer.
    pub fn note_reopen(&mut self, ok: bool, now_ns: u64) {
        if ok {
            self.reopens += 1;
            self.health = HealthState::Degraded;
            self.err_window = 0;
            self.polls_in_window = 0;
            self.stall_polls = 0;
            self.degraded_streak = 0;
            self.clean_streak = 0;
            self.backoff.reset();
            self.reopen_at = None;
        } else {
            self.reopen_failures += 1;
            self.reopen_at = Some(self.backoff.arm(now_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn cfg() -> DeviceSupervisorConfig {
        DeviceSupervisorConfig {
            error_threshold: 4,
            error_window_polls: 8,
            rx_stall_polls: 3,
            quarantine_after: 3,
            recover_after: 2,
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
        }
    }

    fn errs(n: u64) -> PollSample {
        PollSample {
            io_errors: n,
            ..PollSample::default()
        }
    }

    #[test]
    fn error_burst_degrades_then_quarantines() {
        let mut m = DeviceMonitor::new(cfg());
        let now = 0;
        m.note_poll(&errs(4), now);
        assert_eq!(m.health(), HealthState::Degraded);
        m.note_poll(&errs(1), now);
        m.note_poll(&errs(1), now);
        assert_eq!(m.health(), HealthState::Quarantined);
        assert_eq!(m.quarantines(), 1);
        // Backoff: not due immediately, due after it elapses.
        assert!(!m.reopen_due(now));
        assert!(m.reopen_due(now + 2 * MS));
    }

    #[test]
    fn errors_decay_and_device_recovers() {
        // Fast decay (halve every poll) and a slow quarantine trigger:
        // a one-off error burst must degrade, decay, and recover without
        // ever reaching quarantine.
        let mut m = DeviceMonitor::new(DeviceSupervisorConfig {
            error_window_polls: 1,
            quarantine_after: 8,
            ..cfg()
        });
        let now = 0;
        m.note_poll(&errs(8), now);
        assert_eq!(m.health(), HealthState::Degraded);
        for _ in 0..10 {
            m.note_poll(&errs(0), now);
            if m.health() == HealthState::Healthy {
                break;
            }
        }
        assert_eq!(m.health(), HealthState::Healthy);
        assert_eq!(m.quarantines(), 0, "recovery must not pass quarantine");
    }

    #[test]
    fn rx_stall_only_counts_while_peers_progress() {
        let mut m = DeviceMonitor::new(cfg());
        let now = 0;
        // A quiet wire: nobody reads anything — never a stall.
        for _ in 0..20 {
            m.note_poll(&PollSample::default(), now);
        }
        assert_eq!(m.health(), HealthState::Healthy);
        // Peers read, this device does not: stall streak → degraded.
        let stalled = PollSample {
            peer_rx_frames: 10,
            ..PollSample::default()
        };
        m.note_poll(&stalled, now);
        m.note_poll(&stalled, now);
        assert_eq!(m.health(), HealthState::Healthy);
        m.note_poll(&stalled, now);
        assert_eq!(m.health(), HealthState::Degraded);
        // Progress resets the streak and recovers the device.
        let progressing = PollSample {
            rx_frames: 5,
            peer_rx_frames: 10,
            ..PollSample::default()
        };
        m.note_poll(&progressing, now);
        m.note_poll(&progressing, now);
        assert_eq!(m.health(), HealthState::Healthy);
    }

    #[test]
    fn failed_reopens_double_backoff_to_cap() {
        let mut m = DeviceMonitor::new(cfg());
        let mut now = 0u64;
        for _ in 0..3 {
            m.note_poll(&errs(4), now);
        }
        assert!(m.quarantined());
        // 1ms → fail → 2ms → fail → 4ms → fail → 4ms (capped).
        for expect_ms in [2u64, 4, 4] {
            now += 100 * MS;
            assert!(m.reopen_due(now));
            m.note_reopen(false, now);
            assert!(m.quarantined());
            assert!(!m.reopen_due(now + (expect_ms - 1) * MS));
            assert!(m.reopen_due(now + expect_ms * MS));
        }
        assert_eq!(m.reopen_failures(), 3);
        // Success: probation, then clean polls → healthy; backoff reset.
        now += 100 * MS;
        m.note_reopen(true, now);
        assert_eq!(m.health(), HealthState::Degraded);
        assert_eq!(m.reopens(), 1);
        m.note_poll(&errs(0), now);
        m.note_poll(&errs(0), now);
        assert_eq!(m.health(), HealthState::Healthy);
    }
}
