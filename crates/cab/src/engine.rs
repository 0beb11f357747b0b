//! DMA engine timelines.
//!
//! "All DMA engines can operate at the same time" (§2.1): each engine is an
//! independent busy-until timeline. A request submitted at `now` starts when
//! the engine frees up and occupies it for a duration computed from the
//! engine's setup and bandwidth model. The caller schedules the completion
//! event at the returned time.
//!
//! The occupancy bookkeeping itself lives in [`outboard_sim::obs::BusyTracker`],
//! whose busy fraction feeds the metrics registry. Only the engines use it:
//! the host CPU (`outboard-host`'s `Cpu::run`) keeps its own `busy_until`.

use outboard_sim::obs::BusyTracker;
use outboard_sim::{Dur, Rate, Time};

/// One DMA engine's occupancy timeline.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EngineTimeline {
    timeline: BusyTracker,
    /// Requests processed.
    pub requests: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    wedged: bool,
}

impl EngineTimeline {
    /// An idle engine at time zero.
    pub(crate) fn new() -> EngineTimeline {
        EngineTimeline::default()
    }

    /// Occupy the engine for a transfer of `bytes` at `rate` with `setup`
    /// fixed overhead, starting no earlier than `now`. Returns completion.
    pub(crate) fn run(&mut self, now: Time, setup: Dur, bytes: usize, rate: &Rate) -> Time {
        let xfer = rate.time_for(bytes as u64);
        self.requests += 1;
        self.bytes += bytes as u64;
        self.timeline.occupy(now, setup + xfer)
    }

    /// Wedge the engine: it accepts no further requests until reset.
    pub(crate) fn wedge(&mut self) {
        self.wedged = true;
    }

    /// Clear a wedge (board reset).
    pub(crate) fn clear_wedge(&mut self) {
        self.wedged = false;
    }

    /// Is the engine wedged?
    pub(crate) fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Cumulative busy time.
    pub(crate) fn total_busy(&self) -> Dur {
        self.timeline.total_busy()
    }

    /// The underlying occupancy tracker (for metrics publication).
    pub(crate) fn tracker(&self) -> &BusyTracker {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_back_to_back_requests() {
        let mut e = EngineTimeline::new();
        // 1250 bytes at 10 Mbit/s = 1 ms; setup 100 us.
        let rate = Rate::from_bps(10e6);
        let t1 = e.run(Time::ZERO, Dur::micros(100), 1250, &rate);
        assert_eq!(t1, Time::ZERO + Dur::micros(1100));
        let t2 = e.run(Time::ZERO, Dur::micros(100), 1250, &rate);
        assert_eq!(t2, Time::ZERO + Dur::micros(2200));
        assert_eq!(e.requests, 2);
        assert_eq!(e.bytes, 2500);
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut e = EngineTimeline::new();
        let rate = Rate::from_bps(1e6);
        e.run(Time::ZERO, Dur::micros(10), 0, &rate);
        e.run(Time(1_000_000), Dur::micros(10), 0, &rate);
        assert_eq!(e.total_busy(), Dur::micros(20));
        assert!((e.tracker().busy_fraction(Dur::millis(2)) - 0.01).abs() < 1e-9);
    }
}
