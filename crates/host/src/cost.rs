//! The per-packet half of the cost model, compiled once per host.
//!
//! [`MachineConfig`] states §7.1's per-packet split in f64 microseconds.
//! [`PacketCosts::compile`] turns each cost into a [`Dur`] when the kernel
//! is built, by the same `Dur::from_micros_f64` the event path used to call
//! per charge, so every charge is identical by construction and no event
//! does float work. The per-byte half lives with its users: Table 2 in
//! [`crate::VmSystem`], the locality curve in [`crate::MemorySystem`].

use crate::config::MachineConfig;
use outboard_sim::Dur;

/// One per-packet charge. `None` when the configured cost is not positive:
/// nothing is charged. Otherwise the cost in whole nanoseconds, which is
/// zero for a sub-nanosecond cost and is still charged, because running it
/// moves the caller up to the CPU's `busy_until`.
pub type PacketCost = Option<Dur>;

/// §7.1's per-packet costs, compiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketCosts {
    /// `cost_syscall_us`.
    pub syscall: PacketCost,
    /// `cost_socket_pkt_us`.
    pub socket_pkt: PacketCost,
    /// `cost_tcp_output_us`.
    pub tcp_output: PacketCost,
    /// `cost_tcp_input_us`.
    pub tcp_input: PacketCost,
    /// `cost_udp_us`.
    pub udp: PacketCost,
    /// `cost_ip_us`.
    pub ip: PacketCost,
    /// `cost_driver_pkt_us`.
    pub driver_pkt: PacketCost,
    /// `cost_interrupt_us`.
    pub interrupt: PacketCost,
    /// `cost_wakeup_us`.
    pub wakeup: PacketCost,
    /// The receive demux span: interrupt + IP + TCP input, summed in
    /// microseconds before rounding.
    pub demux: Dur,
}

impl PacketCosts {
    /// Compile a machine's per-packet costs.
    #[expect(
        clippy::float_arithmetic,
        reason = "the table compiler: runs once per kernel, before any event"
    )]
    pub fn compile(m: &MachineConfig) -> PacketCosts {
        let cost = |us: f64| (us > 0.0).then(|| Dur::from_micros_f64(us));
        let demux_us = m.cost_interrupt_us + m.cost_ip_us + m.cost_tcp_input_us;
        PacketCosts {
            syscall: cost(m.cost_syscall_us),
            socket_pkt: cost(m.cost_socket_pkt_us),
            tcp_output: cost(m.cost_tcp_output_us),
            tcp_input: cost(m.cost_tcp_input_us),
            udp: cost(m.cost_udp_us),
            ip: cost(m.cost_ip_us),
            driver_pkt: cost(m.cost_driver_pkt_us),
            interrupt: cost(m.cost_interrupt_us),
            wakeup: cost(m.cost_wakeup_us),
            demux: cost(demux_us).unwrap_or(Dur::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_compile_to_whole_microseconds() {
        let c = PacketCosts::compile(&MachineConfig::alpha_3000_400());
        assert_eq!(c.syscall, Some(Dur::micros(40)));
        assert_eq!(c.tcp_output, Some(Dur::micros(60)));
        assert_eq!(c.wakeup, Some(Dur::micros(35)));
        assert_eq!(c.demux, Dur::micros(25 + 15 + 30));
        let lx = PacketCosts::compile(&MachineConfig::alpha_3000_300lx());
        assert_eq!(lx.interrupt, Some(Dur::micros(50)));
    }

    #[test]
    fn zero_costs_charge_nothing_and_tiny_ones_charge_zero() {
        let mut m = MachineConfig::alpha_3000_400();
        m.cost_udp_us = 0.0;
        m.cost_ip_us = 0.0004;
        m.cost_wakeup_us = -1.0;
        let c = PacketCosts::compile(&m);
        assert_eq!(c.udp, None);
        assert_eq!(c.ip, Some(Dur::ZERO));
        assert_eq!(c.wakeup, None);
    }
}
