//! Machine configurations.
//!
//! Every constant here is traceable to §7 of the paper:
//!
//! * "Copies of a 1 MByte (no locality) run at 350 Mbit/second, while a read
//!   of a 512 KByte region (window size) runs at 630 Mbit/seconds."
//! * "The per-packet overhead was measured at about 300 microsecond per
//!   packet."
//! * Table 2: pin 35 + 29·n µs, unpin 48 + 3.9·n µs, map 6 + 4.5·n µs.
//! * "Consistently, about 7-8% of the time is unaccounted for" (background
//!   processes); we use 7.5 %.
//! * The Alpha 3000/300LX "is only about half as powerful as the Alpha
//!   3000/400" with "a half speed Turbochannel".
//!
//! The per-packet 300 µs is split across the stack layers so the simulation
//! charges costs where the real kernel spends them; the *split* is our
//! engineering judgement, the *sum* is the paper's.

/// Cost and capacity model for one simulated workstation.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Human-readable machine name.
    pub name: &'static str,
    /// VM page size (Alpha: 8 KB).
    pub page_size: usize,

    // ---- memory system (per-byte costs) ----
    /// memcpy bandwidth with no cache locality (large regions), Mbit/s.
    pub copy_bw_min_mbps: f64,
    /// memcpy bandwidth when the working set fits in cache, Mbit/s.
    pub copy_bw_max_mbps: f64,
    /// Region size at/above which copies see no locality, bytes.
    pub copy_nolocality_at: usize,
    /// Checksum-read bandwidth with no locality, Mbit/s.
    pub read_bw_min_mbps: f64,
    /// Checksum-read bandwidth with full locality, Mbit/s.
    pub read_bw_max_mbps: f64,
    /// Region size at/above which reads see no locality, bytes.
    pub read_nolocality_at: usize,
    /// Working sets at/below this size are fully cached, bytes.
    pub cache_resident_at: usize,

    // ---- VM operation costs (Table 2), microseconds ----
    /// Pin: fixed cost per call.
    pub pin_base_us: f64,
    /// Pin: additional cost per page.
    pub pin_per_page_us: f64,
    /// Unpin: fixed cost per call.
    pub unpin_base_us: f64,
    /// Unpin: additional cost per page.
    pub unpin_per_page_us: f64,
    /// Map: fixed cost per call.
    pub map_base_us: f64,
    /// Map: additional cost per page.
    pub map_per_page_us: f64,
    /// Cache-hit cost when lazy unpinning finds pages already pinned+mapped.
    pub pin_cache_hit_us: f64,
    /// Maximum pages one application may keep (lazily) pinned (§4.4.1:
    /// "buffers can be unpinned lazily, thus limiting the number of pages
    /// that an application can have pinned at one time").
    pub pinned_page_limit: usize,

    // ---- per-packet protocol costs, microseconds ----
    /// write/read syscall entry/exit + socket-layer bookkeeping, per call.
    pub cost_syscall_us: f64,
    /// Socket-layer work per packet's worth of data (sosend/soreceive loop).
    pub cost_socket_pkt_us: f64,
    /// tcp_output per segment (header build, state update).
    pub cost_tcp_output_us: f64,
    /// tcp_input per segment.
    pub cost_tcp_input_us: f64,
    /// udp_output / udp_input per datagram.
    pub cost_udp_us: f64,
    /// ip_output or ip_input per datagram.
    pub cost_ip_us: f64,
    /// Driver work to build and issue one SDMA request (or to hand a packet
    /// to a conventional device).
    pub cost_driver_pkt_us: f64,
    /// Taking one interrupt (dispatch + return).
    pub cost_interrupt_us: f64,
    /// Waking a blocked process (sbwakeup + scheduler).
    pub cost_wakeup_us: f64,

    // ---- measurement methodology (§7.1) ----
    /// Fraction of wall time consumed by background processes, unaccounted
    /// to either ttcp or util ("about 7-8%").
    pub background_share: f64,

    // ---- IO bus ----
    /// Scale factor applied to the CAB's Turbochannel DMA bandwidth
    /// (1.0 = full-speed TC on the 3000/400; 0.5 on the 3000/300LX).
    pub tc_speed_scale: f64,
}

impl MachineConfig {
    /// The paper's primary machine: DEC Alpha 3000/400, 64 MB, full-speed
    /// Turbochannel.
    pub fn alpha_3000_400() -> MachineConfig {
        MachineConfig {
            name: "Alpha 3000/400",
            page_size: 8 * 1024,

            copy_bw_min_mbps: 350.0,
            copy_bw_max_mbps: 450.0,
            copy_nolocality_at: 1024 * 1024,
            read_bw_min_mbps: 630.0,
            read_bw_max_mbps: 850.0,
            read_nolocality_at: 512 * 1024,
            cache_resident_at: 64 * 1024,

            pin_base_us: 35.0,
            pin_per_page_us: 29.0,
            unpin_base_us: 48.0,
            unpin_per_page_us: 3.9,
            map_base_us: 6.0,
            map_per_page_us: 4.5,
            pin_cache_hit_us: 3.0,
            pinned_page_limit: 256, // 2 MB of 8 KB pages

            // Sender-path split of the measured ~300 us per 32 KB packet:
            // 40 (syscall, amortized per packet at MTU-sized writes)
            // + 40 (socket) + 60 (tcp_output) + 15 (ip) + 45 (driver)
            // + 30 (SDMA interrupt) + [ACK path: 25 interrupt+15 ip
            // + 30 tcp_input, ~0.5 ACK per segment with delayed ACKs ≈ 35]
            // + 35 (wakeup amortization) = ~300.
            cost_syscall_us: 40.0,
            cost_socket_pkt_us: 40.0,
            cost_tcp_output_us: 60.0,
            cost_tcp_input_us: 30.0,
            cost_udp_us: 30.0,
            cost_ip_us: 15.0,
            cost_driver_pkt_us: 45.0,
            cost_interrupt_us: 25.0,
            cost_wakeup_us: 35.0,

            background_share: 0.075,
            tc_speed_scale: 1.0,
        }
    }

    /// The paper's second machine: Alpha 3000/300LX, 125 MHz, half-speed
    /// Turbochannel — "only about half as powerful".
    #[expect(
        clippy::float_arithmetic,
        reason = "preset: runs once when the config is built"
    )]
    pub fn alpha_3000_300lx() -> MachineConfig {
        let base = MachineConfig::alpha_3000_400();
        MachineConfig {
            name: "Alpha 3000/300LX",
            page_size: base.page_size,

            copy_bw_min_mbps: base.copy_bw_min_mbps / 2.0,
            copy_bw_max_mbps: base.copy_bw_max_mbps / 2.0,
            copy_nolocality_at: base.copy_nolocality_at,
            read_bw_min_mbps: base.read_bw_min_mbps / 2.0,
            read_bw_max_mbps: base.read_bw_max_mbps / 2.0,
            read_nolocality_at: base.read_nolocality_at,
            cache_resident_at: base.cache_resident_at,

            pin_base_us: base.pin_base_us * 2.0,
            pin_per_page_us: base.pin_per_page_us * 2.0,
            unpin_base_us: base.unpin_base_us * 2.0,
            unpin_per_page_us: base.unpin_per_page_us * 2.0,
            map_base_us: base.map_base_us * 2.0,
            map_per_page_us: base.map_per_page_us * 2.0,
            pin_cache_hit_us: base.pin_cache_hit_us * 2.0,
            pinned_page_limit: base.pinned_page_limit,

            cost_syscall_us: base.cost_syscall_us * 2.0,
            cost_socket_pkt_us: base.cost_socket_pkt_us * 2.0,
            cost_tcp_output_us: base.cost_tcp_output_us * 2.0,
            cost_tcp_input_us: base.cost_tcp_input_us * 2.0,
            cost_udp_us: base.cost_udp_us * 2.0,
            cost_ip_us: base.cost_ip_us * 2.0,
            cost_driver_pkt_us: base.cost_driver_pkt_us * 2.0,
            cost_interrupt_us: base.cost_interrupt_us * 2.0,
            cost_wakeup_us: base.cost_wakeup_us * 2.0,

            background_share: base.background_share,
            // Figure 6's raw-HIPPI series is well above half of Figure 5's:
            // the SDMA bottleneck was microcode per-transfer overhead, not
            // raw Turbochannel clock, so the half-speed TC costs ~30 %.
            tc_speed_scale: 0.75,
        }
    }
}

#[cfg(test)]
impl MachineConfig {
    /// Pages spanned by the byte range `[vaddr, vaddr + len)`.
    pub(crate) fn pages_spanned(&self, vaddr: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let ps = self.page_size as u64;
        let first = vaddr / ps;
        let last = (vaddr + len as u64 - 1) / ps;
        (last - first + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_carry_paper_constants() {
        let m = MachineConfig::alpha_3000_400();
        assert_eq!(m.page_size, 8192);
        assert_eq!(m.copy_bw_min_mbps, 350.0);
        assert_eq!(m.read_bw_min_mbps, 630.0);
        assert_eq!(m.pin_base_us, 35.0);
        assert_eq!(m.pin_per_page_us, 29.0);
        assert_eq!(m.unpin_per_page_us, 3.9);
        assert_eq!(m.map_base_us, 6.0);
    }

    #[test]
    fn lx_is_half_speed() {
        let a = MachineConfig::alpha_3000_400();
        let b = MachineConfig::alpha_3000_300lx();
        assert_eq!(b.copy_bw_min_mbps, a.copy_bw_min_mbps / 2.0);
        assert_eq!(b.pin_base_us, a.pin_base_us * 2.0);
        assert_eq!(b.tc_speed_scale, 0.75);
    }

    #[test]
    fn per_packet_split_sums_to_paper_value() {
        // Sender path for one MTU packet with ~0.5 delayed ACKs:
        // syscall + socket + tcp_out + ip + driver + sdma-intr
        // + 0.5*(intr + ip + tcp_in) + wakeup ≈ 300 us.
        let m = MachineConfig::alpha_3000_400();
        let total = m.cost_syscall_us
            + m.cost_socket_pkt_us
            + m.cost_tcp_output_us
            + m.cost_ip_us
            + m.cost_driver_pkt_us
            + m.cost_interrupt_us
            + 0.5 * (m.cost_interrupt_us + m.cost_ip_us + m.cost_tcp_input_us)
            + m.cost_wakeup_us;
        assert!(
            (total - 300.0).abs() < 10.0,
            "per-packet split drifted from the paper's 300us: {total}"
        );
    }

    #[test]
    fn pages_spanned_math() {
        let m = MachineConfig::alpha_3000_400();
        assert_eq!(m.pages_spanned(0, 0), 0);
        assert_eq!(m.pages_spanned(0, 1), 1);
        assert_eq!(m.pages_spanned(0, 8192), 1);
        assert_eq!(m.pages_spanned(0, 8193), 2);
        assert_eq!(m.pages_spanned(8191, 2), 2);
        assert_eq!(m.pages_spanned(4096, 32 * 1024), 5, "unaligned 32K spans 5");
        assert_eq!(m.pages_spanned(8192, 32 * 1024), 4, "aligned 32K spans 4");
    }
}
