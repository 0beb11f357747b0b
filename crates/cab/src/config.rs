//! CAB configuration.
//!
//! Constants anchored in the paper:
//!
//! * HIPPI line rate 100 MByte/s (800 Mbit/s) — §2.1,
//! * CAB hardware designed for 300 Mbit/s but "the microcode currently
//!   limits throughput to less than half of that. The bottleneck is the
//!   transfer of data across the Turbochannel" — §7.1. Raw HIPPI tops out
//!   around 140 Mbit/s in Figure 5(a), which pins the effective SDMA
//!   bandwidth near 150 Mbit/s,
//! * auto-DMA delivers "the first 176 words of the packet" — §4.3,
//! * MTU 32 KB — §7.1.

use outboard_wire::hippi::RX_CSUM_SKIP_WORDS;

/// Static configuration of one CAB.
#[derive(Clone, Debug)]
pub struct CabConfig {
    /// Network memory size, bytes.
    pub net_mem_bytes: usize,
    /// Network memory page size, bytes (packets start page-aligned).
    pub page_size: usize,
    /// Effective SDMA bandwidth over the Turbochannel under the current
    /// microcode, Mbit/s (before the host's `tc_speed_scale`).
    pub sdma_bw_mbps: f64,
    /// Per-SDMA-request setup cost on the engine, microseconds.
    pub sdma_setup_us: f64,
    /// Extra engine time per scatter/gather entry, microseconds (the
    /// microcode's per-descriptor programming cost).
    pub sdma_per_sg_us: f64,
    /// Extra engine time when a transfer edge is not burst-aligned,
    /// microseconds per misaligned edge (§7.1: "dealing with alignment
    /// constraints ... often requires the use of short bursts").
    pub sdma_misalign_us: f64,
    /// Burst alignment the SDMA engine prefers, bytes (8 words).
    pub burst_align: usize,
    /// Media (HIPPI) line rate, Mbit/s.
    pub media_bw_mbps: f64,
    /// Per-packet MDMA setup, microseconds.
    pub mdma_setup_us: f64,
    /// Auto-DMA buffer size in 32-bit words (first L words of each received
    /// packet are pushed to host memory with the interrupt).
    pub autodma_words: usize,
    /// Word offset at which the receive checksum engine starts summing.
    pub rx_csum_skip_words: usize,
    /// Number of logical channels the MAC supports.
    pub num_channels: usize,
    /// Scale applied to `sdma_bw_mbps` for the host's Turbochannel speed.
    pub tc_speed_scale: f64,
}

impl Default for CabConfig {
    fn default() -> CabConfig {
        CabConfig {
            net_mem_bytes: 8 * 1024 * 1024,
            page_size: 4 * 1024,
            sdma_bw_mbps: 150.0,
            sdma_setup_us: 30.0,
            sdma_per_sg_us: 2.0,
            sdma_misalign_us: 5.0,
            burst_align: 32,
            media_bw_mbps: 800.0,
            mdma_setup_us: 10.0,
            autodma_words: 176,
            rx_csum_skip_words: RX_CSUM_SKIP_WORDS,
            num_channels: 16,
            tc_speed_scale: 1.0,
        }
    }
}

impl CabConfig {
    /// Auto-DMA buffer size in bytes.
    pub(crate) fn autodma_bytes(&self) -> usize {
        self.autodma_words * 4
    }
}

#[cfg(test)]
impl CabConfig {
    /// Total page count in network memory.
    pub(crate) fn total_pages(&self) -> usize {
        self.net_mem_bytes / self.page_size
    }

    /// Pages needed for a packet of `len` bytes.
    pub(crate) fn pages_for(&self, len: usize) -> usize {
        len.div_ceil(self.page_size).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_anchors() {
        let c = CabConfig::default();
        assert_eq!(c.media_bw_mbps, 800.0, "100 MByte/s HIPPI");
        assert_eq!(c.autodma_words, 176, "first 176 words auto-DMAed");
        assert!(c.sdma_bw_mbps < 300.0 / 2.0 + 1.0, "microcode limit");
    }

    #[test]
    fn derived_quantities() {
        let mut c = CabConfig::default();
        assert_eq!(c.autodma_bytes(), 704);
        assert_eq!(c.total_pages(), 2048);
        assert_eq!(c.pages_for(1), 1);
        assert_eq!(c.pages_for(4 * 1024), 1);
        assert_eq!(c.pages_for(4 * 1024 + 1), 2);
        assert_eq!(c.pages_for(32 * 1024 + 40), 9);
        c.tc_speed_scale = 0.5;
        let half = crate::cost::EngineCosts::compile(&c).sdma;
        assert_eq!(half, outboard_sim::Rate::from_bps(75e6));
    }
}
