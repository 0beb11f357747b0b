//! The adaptor's engine costs, compiled once per CAB.
//!
//! [`CabConfig`] states the engines in f64 Mbit/s and microseconds.
//! [`EngineCosts::compile`] turns them into [`Rate`]s and [`Dur`]s when
//! [`crate::Cab::new`] runs, each by the expression the event path used to
//! evaluate per transfer, so no transfer does float work. The SDMA
//! descriptor cost depends on two counts and is a table over both.

use crate::config::CabConfig;
use outboard_sim::{Dur, Rate};

/// Engine time the auto-DMA push of a received packet's first words costs
/// before its bytes (2 µs).
const AUTODMA_SETUP: Dur = Dur::micros(2);

/// Compiled engine costs of one CAB.
#[derive(Debug)]
pub(crate) struct EngineCosts {
    /// Host-bus (SDMA) bandwidth after the Turbochannel scale.
    pub(crate) sdma: Rate,
    /// HIPPI media (MDMA) line rate.
    pub(crate) media: Rate,
    /// Per-packet MDMA setup.
    pub(crate) mdma_setup: Dur,
    /// Auto-DMA push setup.
    pub(crate) autodma_setup: Dur,
    /// SDMA engine time beyond the bytes for one request.
    pub(crate) sdma_extra: SdmaExtra,
}

impl EngineCosts {
    #[expect(
        clippy::float_arithmetic,
        reason = "the table compiler: runs once per CAB, before any transfer"
    )]
    pub(crate) fn compile(cfg: &CabConfig) -> EngineCosts {
        EngineCosts {
            sdma: Rate::from_bps(cfg.sdma_bw_mbps * 1e6 * cfg.tc_speed_scale),
            media: Rate::from_bps(cfg.media_bw_mbps * 1e6),
            mdma_setup: Dur::from_micros_f64(cfg.mdma_setup_us),
            autodma_setup: AUTODMA_SETUP,
            sdma_extra: SdmaExtra::new(cfg),
        }
    }
}

/// Largest SDMA table kept, in cells (128 KB); a request beyond it is
/// evaluated on its own.
const MAX_CELLS: usize = 1 << 14;

/// The SDMA descriptor cost — setup, plus the microcode's cost per
/// scatter/gather entry and per misaligned edge — as a table: row
/// `sg_entries`, column `misaligned_edges`. Built for small requests at
/// construction and rebuilt larger the first time a request exceeds it.
#[derive(Debug)]
pub(crate) struct SdmaExtra {
    setup_us: f64,
    per_sg_us: f64,
    misalign_us: f64,
    cols: usize,
    cells: Vec<Dur>,
}

impl SdmaExtra {
    fn new(cfg: &CabConfig) -> SdmaExtra {
        let mut t = SdmaExtra {
            setup_us: cfg.sdma_setup_us,
            per_sg_us: cfg.sdma_per_sg_us,
            misalign_us: cfg.sdma_misalign_us,
            cols: 0,
            cells: Vec::new(),
        };
        t.compile(4, 8);
        t
    }

    /// One cell, by the formula.
    #[expect(
        clippy::float_arithmetic,
        reason = "the table compiler: each cell at construction or when the table grows"
    )]
    fn cell(&self, sg: usize, edges: usize) -> Dur {
        Dur::from_micros_f64(
            self.setup_us + self.per_sg_us * sg as f64 + self.misalign_us * edges as f64,
        )
    }

    /// Evaluate every cell of a `rows` × `cols` table.
    fn compile(&mut self, rows: usize, cols: usize) {
        let cells = (0..rows * cols)
            .map(|i| self.cell(i / cols, i % cols))
            .collect();
        (self.cols, self.cells) = (cols, cells);
    }

    /// The cost of a request with `sg` entries and `edges` misaligned edges.
    pub(crate) fn get(&mut self, sg: usize, edges: usize) -> Dur {
        let rows = self.cells.len() / self.cols;
        if sg >= rows || edges >= self.cols {
            let (rows, cols) = (rows.max(sg + 1), self.cols.max(edges + 1));
            if rows.saturating_mul(cols) > MAX_CELLS {
                return self.cell(sg, edges);
            }
            self.compile(rows, cols);
        }
        self.cells[sg * self.cols + edges]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The descriptor cost as the event path evaluated it per request.
    fn reference(cfg: &CabConfig, sg: usize, edges: usize) -> Dur {
        Dur::from_micros_f64(
            cfg.sdma_setup_us
                + cfg.sdma_per_sg_us * sg as f64
                + cfg.sdma_misalign_us * edges as f64,
        )
    }

    /// Every cell up to 128 entries and 257 edges, in an order that grows
    /// the table in both directions and past its cap, against the formula;
    /// also with fractional microsecond constants, where rounding is not
    /// trivial.
    #[test]
    fn sdma_table_matches_the_formula_exhaustively() {
        let fractional = CabConfig {
            sdma_setup_us: 29.7,
            sdma_per_sg_us: 1.3,
            sdma_misalign_us: 0.35,
            ..CabConfig::default()
        };
        for cfg in [CabConfig::default(), fractional] {
            let mut c = EngineCosts::compile(&cfg);
            for sg in [0usize, 3, 1, 40, 2, 128, 7, 5000] {
                for edges in (0..=257).rev() {
                    assert_eq!(c.sdma_extra.get(sg, edges), reference(&cfg, sg, edges));
                }
            }
            for sg in 0..=128 {
                for edges in 0..=257 {
                    assert_eq!(c.sdma_extra.get(sg, edges), reference(&cfg, sg, edges));
                }
            }
        }
    }

    #[test]
    fn setup_constants_compile_to_the_old_expressions() {
        let c = EngineCosts::compile(&CabConfig::default());
        assert_eq!(c.autodma_setup, Dur::from_micros_f64(2.0));
        assert_eq!(c.mdma_setup, Dur::micros(10));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 4096, ..Default::default() })]

        /// The byte rates of both machines' CABs (Turbochannel scale 1.0
        /// and 0.75) and the HIPPI media against the f64 model.
        #[test]
        fn byte_rates_match_the_f64_model(bytes in 0u64..=1 << 20, lx in proptest::prelude::any::<bool>()) {
            let cfg = CabConfig {
                tc_speed_scale: if lx { 0.75 } else { 1.0 },
                ..CabConfig::default()
            };
            let c = EngineCosts::compile(&cfg);
            let sdma_bps = cfg.sdma_bw_mbps * 1e6 * cfg.tc_speed_scale;
            let media_bps = cfg.media_bw_mbps * 1e6;
            proptest::prop_assert_eq!(c.sdma.time_for(bytes), Dur::for_bytes_at_bps(bytes, sdma_bps));
            proptest::prop_assert_eq!(c.media.time_for(bytes), Dur::for_bytes_at_bps(bytes, media_bps));
        }
    }
}
