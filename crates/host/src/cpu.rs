//! CPU serialization and the paper's measurement methodology.
//!
//! One CPU per host. All kernel and application work is serialized on it:
//! [`Cpu::run`] reserves the CPU for a duration starting no earlier than a
//! given instant and returns the completion time, which drives follow-on
//! events. Work that arrives while the CPU is busy simply starts later —
//! a boundary-dispatch approximation of preemptive interrupt handling that
//! keeps the simulation deterministic.
//!
//! Accounting reproduces §7.1 of the paper exactly. The experiments run
//! `ttcp` plus a compute-bound low-priority `util` process on each host:
//!
//! * time `ttcp` spends in user mode and in syscalls is charged to
//!   `ttcp(user)` / `ttcp(sys)`;
//! * interrupt-driven work (ACK handling, receive processing, DMA-completion
//!   handling) is charged to *whichever process happens to be active* — the
//!   measurement artifact the paper corrects for. When `ttcp` is on the CPU
//!   the charge lands in `ttcp(sys)`; when it is blocked, `util` is running
//!   and the charge lands in `util(sys)`;
//! * `util(user)` is whatever CPU remains, minus the ~7.5 % of wall time
//!   consumed by unaccounted background processes;
//! * utilization = (ttcp_user + ttcp_sys + util_sys) /
//!   (ttcp_user + ttcp_sys + util_sys + util_user).

use crate::config::MachineConfig;
use outboard_sim::obs::Scope;
use outboard_sim::{Dur, Time};

/// Which bucket a piece of CPU work is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Charge {
    /// Application user-mode time (the ttcp loop itself).
    TtcpUser,
    /// Kernel work performed in the application's context (syscall path,
    /// including the socket layer's VM mapping work — §4.4.1).
    Syscall,
    /// Interrupt-level work (device interrupts, softnet protocol input,
    /// timers). Charged to whoever is active, per the paper's artifact.
    Interrupt,
}

/// Accumulated CPU accounting for one host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuAccounting {
    /// User-mode time of the measured application.
    pub ttcp_user: Dur,
    /// Kernel time in the measured application's context.
    pub ttcp_sys: Dur,
    /// Interrupt work that landed while ttcp was off the CPU.
    pub util_sys: Dur,
    /// All interrupt-level work, regardless of which process it was charged
    /// to (the quantity the paper's artifact obscures — kept separately so
    /// reports can show the true interrupt share).
    pub intr: Dur,
    /// Total CPU-busy time (all charges).
    pub busy: Dur,
}

impl CpuAccounting {
    /// Communication CPU share per the paper's formula, given the elapsed
    /// wall time of the measurement and the background share.
    #[expect(
        clippy::float_arithmetic,
        reason = "report: §7.1's utilization formula"
    )]
    pub fn utilization(&self, elapsed: Dur, background_share: f64) -> f64 {
        let comm = (self.ttcp_user + self.ttcp_sys + self.util_sys).as_secs_f64();
        let avail = elapsed.as_secs_f64() * (1.0 - background_share);
        if avail <= 0.0 {
            return 0.0;
        }
        // util(user) = leftover cycles after communication and background.
        let util_user = (avail - comm).max(0.0);
        comm / (comm + util_user)
    }
}

/// One host CPU.
#[derive(Clone, Debug)]
pub struct Cpu {
    cfg: MachineConfig,
    busy_until: Time,
    /// True while ttcp is on the CPU (from syscall entry until it blocks or
    /// returns); decides where interrupt charges land.
    ttcp_on_cpu: bool,
    /// Accumulated accounting for the measured interval.
    pub acct: CpuAccounting,
}

impl Cpu {
    /// An idle CPU at time zero.
    pub fn new(cfg: MachineConfig) -> Cpu {
        Cpu {
            cfg,
            busy_until: Time::ZERO,
            ttcp_on_cpu: false,
            acct: CpuAccounting::default(),
        }
    }

    /// The machine model this CPU runs.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// When the last scheduled work completes.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Mark the measured application as on/off the CPU (syscall entry /
    /// block / return). Only affects interrupt charging.
    pub fn set_ttcp_on_cpu(&mut self, on: bool) {
        self.ttcp_on_cpu = on;
    }

    /// Whether the measured application currently holds the CPU.
    pub fn ttcp_on_cpu(&self) -> bool {
        self.ttcp_on_cpu
    }

    /// Serialize `dur` of work on this CPU, no earlier than `now`. Returns
    /// the completion time. Zero-duration work completes immediately (but
    /// still honours serialization).
    pub fn run(&mut self, now: Time, dur: Dur, charge: Charge) -> Time {
        let start = now.max(self.busy_until);
        let done = start + dur;
        self.busy_until = done;
        self.acct.busy += dur;
        match charge {
            Charge::TtcpUser => self.acct.ttcp_user += dur,
            Charge::Syscall => self.acct.ttcp_sys += dur,
            Charge::Interrupt => {
                self.acct.intr += dur;
                if self.ttcp_on_cpu {
                    self.acct.ttcp_sys += dur;
                } else {
                    self.acct.util_sys += dur;
                }
            }
        }
        done
    }

    /// Publish the §7.1 CPU time split into a registry scope: user, system
    /// (syscall-path kernel time), and interrupt shares of the scope's
    /// elapsed window, plus the raw nanosecond buckets.
    #[expect(clippy::float_arithmetic, reason = "report: shares of the window")]
    pub fn publish_metrics(&self, s: &mut Scope<'_>) {
        let elapsed = s.elapsed();
        let share = |d: Dur| {
            if elapsed.is_zero() {
                0.0
            } else {
                d.as_secs_f64() / elapsed.as_secs_f64()
            }
        };
        let a = &self.acct;
        // Syscall-path kernel time = everything that is neither user-mode
        // nor interrupt-level (interrupt charges land in ttcp_sys/util_sys
        // too, so busy - user - intr isolates the true syscall component).
        let sys = a.busy.saturating_sub(a.ttcp_user).saturating_sub(a.intr);
        s.frac("user_share", share(a.ttcp_user));
        s.frac("sys_share", share(sys));
        s.frac("intr_share", share(a.intr));
        s.frac("busy_frac", share(a.busy));
        s.counter("ttcp_user_ns", a.ttcp_user.as_nanos());
        s.counter("ttcp_sys_ns", a.ttcp_sys.as_nanos());
        s.counter("util_sys_ns", a.util_sys.as_nanos());
        s.counter("intr_ns", a.intr.as_nanos());
        s.counter("busy_ns", a.busy.as_nanos());
    }
}

#[cfg(test)]
impl Cpu {
    /// Reset accounting (start of the measured interval).
    pub(crate) fn reset_accounting(&mut self) {
        self.acct = CpuAccounting::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        Cpu::new(MachineConfig::alpha_3000_400())
    }

    #[test]
    fn serialization_orders_work() {
        let mut c = cpu();
        let t1 = c.run(Time::ZERO, Dur::micros(100), Charge::Syscall);
        assert_eq!(t1, Time(100_000));
        // Work arriving at t=50us must wait until t=100us.
        let t2 = c.run(Time(50_000), Dur::micros(10), Charge::Interrupt);
        assert_eq!(t2, Time(110_000));
        // Work arriving after the CPU idles starts immediately.
        let t3 = c.run(Time(200_000), Dur::micros(5), Charge::Syscall);
        assert_eq!(t3, Time(205_000));
    }

    #[test]
    fn interrupt_charging_follows_active_process() {
        let mut c = cpu();
        c.set_ttcp_on_cpu(true);
        c.run(Time::ZERO, Dur::micros(10), Charge::Interrupt);
        assert_eq!(c.acct.ttcp_sys, Dur::micros(10));
        assert_eq!(c.acct.util_sys, Dur::ZERO);
        c.set_ttcp_on_cpu(false);
        c.run(Time(1_000_000), Dur::micros(10), Charge::Interrupt);
        assert_eq!(c.acct.util_sys, Dur::micros(10));
    }

    #[test]
    fn utilization_formula() {
        let mut c = cpu();
        // 200 ms of communication work over a 1 s run.
        c.run(Time::ZERO, Dur::millis(150), Charge::Syscall);
        c.run(c.busy_until(), Dur::millis(50), Charge::Interrupt);
        let u = c.acct.utilization(Dur::secs(1), 0.075);
        // comm = 0.2s, avail = 0.925s, util_user = 0.725s.
        let expect = 0.2 / 0.925;
        assert!((u - expect).abs() < 1e-9, "{u} vs {expect}");
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut c = cpu();
        c.run(Time::ZERO, Dur::secs(2), Charge::Syscall);
        let u = c.acct.utilization(Dur::secs(1), 0.075);
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_accounting_clears() {
        let mut c = cpu();
        c.run(Time::ZERO, Dur::micros(10), Charge::TtcpUser);
        c.reset_accounting();
        assert_eq!(c.acct, CpuAccounting::default());
        // busy_until survives reset (the CPU is still the same CPU).
        assert_eq!(c.busy_until(), Time(10_000));
    }
}
