//! Host-interface taxonomy (Table 1, after Steenkiste's IEEE Computer '94
//! taxonomy the paper summarizes in §6).
//!
//! Three parameters determine the minimum set of data-touching operations an
//! IO takes:
//!
//! * the **API semantics** — copy (sockets) or share (fbufs/iWarp),
//! * where the transport **checksum** lives — in the *header* (TCP/UDP) or a
//!   *trailer*,
//! * the **adaptor architecture** — data movement (PIO / DMA / DMA with a
//!   checksum engine) crossed with buffering (none / single-packet /
//!   outboard).
//!
//! [`transmit_ops`] derives the operation sequence for each of the 36 cells
//! from four first-principles rules, and [`classify`] reproduces the paper's
//! three efficiency classes: *single copy*, *copy + read* (the dotted box),
//! and the *extra memory-memory copy* class (the dashed box). The paper's
//! headline cell — copy-semantics API, header checksum, outboard buffering
//! with a checksumming DMA engine, i.e. sockets over the CAB — classifies as
//! **single copy**, which is the whole point of the system.

#![warn(missing_docs)]
#![deny(unreachable_pub)]

use std::fmt;

/// API semantics offered to the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Api {
    /// The application keeps ownership of its buffer; the system must have
    /// logically copied the data before `write` returns (sockets).
    Copy,
    /// Buffers are shared between application and system (fbufs, iWarp).
    Shared,
}

/// Where the transport checksum is placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsumLoc {
    /// In the packet header (TCP/UDP): it must be known before the header
    /// crosses the last buffering point toward the wire.
    Header,
    /// In a trailer: it can be appended after the data has streamed past.
    Trailer,
}

/// Adaptor buffering capability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// No adaptor buffering: the header hits the wire before the data.
    None,
    /// Single-packet buffering: the adaptor can patch the buffered header
    /// after the data has been transferred (checksum insertion).
    Packet,
    /// Full outboard buffering: packets are retained on the adaptor, which
    /// also satisfies copy-semantics retransmission without a host copy.
    Outboard,
}

/// Adaptor data-movement capability.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mover {
    /// Programmed IO — the CPU touches every word, so it can checksum for
    /// free during the transfer.
    Pio,
    /// DMA without checksum support.
    Dma,
    /// DMA with a checksum engine in the transfer path (the CAB).
    DmaCsum,
}

/// One adaptor class (a column of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Adaptor {
    /// Buffering capability.
    pub buffering: Buffering,
    /// Data-movement capability.
    pub mover: Mover,
}

/// Data-touching operations (the table's cell entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Memory-memory copy.
    Copy,
    /// Memory-memory copy with checksum folded in.
    CopyC,
    /// Programmed IO transfer to the device.
    Pio,
    /// Programmed IO with checksum folded in.
    PioC,
    /// DMA transfer.
    Dma,
    /// DMA with the adaptor checksumming in the transfer path.
    DmaC,
    /// A separate CPU read pass purely to compute the checksum.
    ReadC,
}

impl Op {
    /// CPU memory accesses per data byte (reads + writes).
    pub(crate) fn cpu_accesses(self) -> u32 {
        match self {
            Op::Copy | Op::CopyC => 2,
            Op::Pio | Op::PioC | Op::ReadC => 1,
            Op::Dma | Op::DmaC => 0,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Copy => "Copy",
            Op::CopyC => "Copy_C",
            Op::Pio => "PIO",
            Op::PioC => "PIO_C",
            Op::Dma => "DMA",
            Op::DmaC => "DMA_C",
            Op::ReadC => "Read_C",
        };
        f.write_str(s)
    }
}

/// Efficiency classes from the paper's discussion of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// One transfer, checksum merged: the ideal (solid box in the paper).
    SingleCopy,
    /// One transfer plus a separate checksum read (dotted box).
    CopyPlusRead,
    /// An extra memory-memory copy to implement copy semantics without
    /// outboard buffering (dashed box); checksum merged somewhere.
    TwoCopy,
    /// Both penalties: extra copy and a separate checksum read.
    TwoCopyPlusRead,
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Class::SingleCopy => "single-copy",
            Class::CopyPlusRead => "copy+read",
            Class::TwoCopy => "two-copy",
            Class::TwoCopyPlusRead => "two-copy+read",
        };
        f.write_str(s)
    }
}

/// Derive the minimum transmit operation sequence for one table cell.
///
/// The four rules:
/// 1. **Copy semantics without outboard buffering** force a memory-memory
///    copy (the system must retain the data for retransmission).
/// 2. **A header checksum must be known before the header passes the last
///    buffering point**: with no adaptor buffering it must be computed
///    before the device transfer; packet/outboard buffering lets the
///    adaptor insert it afterwards.
/// 3. **PIO can always fold the checksum into its transfer** (the CPU sees
///    every word); plain DMA never can; a DMA checksum engine can, but for
///    header checksums only when rule 2 is satisfied by buffering.
/// 4. Whatever checksum work cannot be merged into a copy or transfer
///    becomes a separate `Read_C` pass.
pub fn transmit_ops(api: Api, csum: CsumLoc, adaptor: Adaptor) -> Vec<Op> {
    let needs_host_copy = api == Api::Copy && adaptor.buffering != Buffering::Outboard;
    // Can the checksum be merged into the device transfer?
    let adaptor_insertable = csum == CsumLoc::Trailer || adaptor.buffering != Buffering::None;
    // PIO computes during the transfer; for a header checksum it (like the
    // DMA checksum engine) still needs somewhere to patch the header
    // afterwards, hence the `adaptor_insertable` condition on both.
    let merged_in_transfer = match adaptor.mover {
        Mover::Pio | Mover::DmaCsum => adaptor_insertable,
        Mover::Dma => false,
    };

    let mut ops = Vec::new();
    if needs_host_copy {
        // Merge the checksum into the copy when the transfer can't take it
        // (cheaper than a separate read pass).
        if !merged_in_transfer {
            ops.push(Op::CopyC);
        } else {
            ops.push(Op::Copy);
        }
    } else if !merged_in_transfer {
        // No host copy to fold the checksum into: separate read pass.
        ops.push(Op::ReadC);
    }
    ops.push(match (adaptor.mover, merged_in_transfer) {
        (Mover::Pio, true) => Op::PioC,
        (Mover::Pio, false) => Op::Pio,
        (Mover::Dma, _) => Op::Dma,
        (Mover::DmaCsum, true) => Op::DmaC,
        (Mover::DmaCsum, false) => Op::Dma,
    });
    ops
}

/// Classify an operation sequence into the paper's efficiency classes.
pub fn classify(ops: &[Op]) -> Class {
    let copies = ops
        .iter()
        .filter(|o| matches!(o, Op::Copy | Op::CopyC))
        .count();
    let reads = ops.iter().filter(|o| matches!(o, Op::ReadC)).count();
    match (copies, reads) {
        (0, 0) => Class::SingleCopy,
        (0, _) => Class::CopyPlusRead,
        (_, 0) => Class::TwoCopy,
        _ => Class::TwoCopyPlusRead,
    }
}

/// All adaptor classes in the table's column order.
pub fn adaptor_columns() -> Vec<Adaptor> {
    let mut v = Vec::new();
    for buffering in [Buffering::None, Buffering::Packet, Buffering::Outboard] {
        for mover in [Mover::Pio, Mover::Dma, Mover::DmaCsum] {
            v.push(Adaptor { buffering, mover });
        }
    }
    v
}

/// All API × checksum-location rows in the table's row order.
pub fn table_rows() -> Vec<(Api, CsumLoc)> {
    vec![
        (Api::Copy, CsumLoc::Header),
        (Api::Copy, CsumLoc::Trailer),
        (Api::Shared, CsumLoc::Header),
        (Api::Shared, CsumLoc::Trailer),
    ]
}

/// Render the full Table 1 as markdown.
pub fn render_table() -> String {
    let cols = adaptor_columns();
    let mut out = String::new();
    out.push_str("| API / checksum |");
    for a in &cols {
        let b = match a.buffering {
            Buffering::None => "NoBuf",
            Buffering::Packet => "PktBuf",
            Buffering::Outboard => "Outboard",
        };
        let m = match a.mover {
            Mover::Pio => "PIO",
            Mover::Dma => "DMA",
            Mover::DmaCsum => "DMA+C",
        };
        out.push_str(&format!(" {b}/{m} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &cols {
        out.push_str("---|");
    }
    out.push('\n');
    for (api, csum) in table_rows() {
        out.push_str(&format!("| {api:?}/{csum:?} |"));
        for a in &cols {
            let ops = transmit_ops(api, csum, *a);
            let cell: Vec<String> = ops.iter().map(|o| o.to_string()).collect();
            out.push_str(&format!(" {} |", cell.join(" ")));
        }
        out.push('\n');
    }
    out
}

/// Total CPU memory accesses per byte for a cell (the per-byte cost driver).
pub fn cell_cpu_accesses(api: Api, csum: CsumLoc, adaptor: Adaptor) -> u32 {
    transmit_ops(api, csum, adaptor)
        .iter()
        .map(|o| o.cpu_accesses())
        .sum()
}

#[cfg(test)]
impl Op {
    /// IO-bus transfers per data byte.
    pub(crate) fn bus_transfers(self) -> u32 {
        match self {
            Op::Pio | Op::PioC | Op::Dma | Op::DmaC => 1,
            Op::Copy | Op::CopyC | Op::ReadC => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAB: Adaptor = Adaptor {
        buffering: Buffering::Outboard,
        mover: Mover::DmaCsum,
    };

    #[test]
    fn the_papers_cell_is_single_copy() {
        // "The top entry in the last column has been the focus of this
        // paper": sockets (copy semantics), TCP/UDP (header checksum),
        // outboard buffering + checksumming DMA.
        let ops = transmit_ops(Api::Copy, CsumLoc::Header, CAB);
        assert_eq!(ops, vec![Op::DmaC]);
        assert_eq!(classify(&ops), Class::SingleCopy);
        assert_eq!(cell_cpu_accesses(Api::Copy, CsumLoc::Header, CAB), 0);
    }

    #[test]
    fn traditional_stack_is_two_copy() {
        // A conventional adaptor (no buffering, plain DMA) with sockets:
        // the unmodified-OSF/1 situation — copy with checksum, then DMA.
        let a = Adaptor {
            buffering: Buffering::None,
            mover: Mover::Dma,
        };
        let ops = transmit_ops(Api::Copy, CsumLoc::Header, a);
        assert_eq!(ops, vec![Op::CopyC, Op::Dma]);
        assert_eq!(classify(&ops), Class::TwoCopy);
        assert_eq!(cell_cpu_accesses(Api::Copy, CsumLoc::Header, a), 2);
    }

    #[test]
    fn dma_without_checksum_needs_a_read_pass() {
        // Outboard buffering but no checksum engine: the dotted-box class.
        let a = Adaptor {
            buffering: Buffering::Outboard,
            mover: Mover::Dma,
        };
        let ops = transmit_ops(Api::Copy, CsumLoc::Header, a);
        assert_eq!(ops, vec![Op::ReadC, Op::Dma]);
        assert_eq!(classify(&ops), Class::CopyPlusRead);
    }

    #[test]
    fn header_checksum_blocks_unbuffered_insertion() {
        // Shared API, header checksum, no buffering: even a checksumming
        // DMA engine cannot help because the header is already gone.
        for mover in [Mover::Dma, Mover::DmaCsum] {
            let a = Adaptor {
                buffering: Buffering::None,
                mover,
            };
            let ops = transmit_ops(Api::Shared, CsumLoc::Header, a);
            assert_eq!(ops, vec![Op::ReadC, Op::Dma], "{mover:?}");
        }
        // ... but a trailer checksum unblocks the checksum engine.
        let a = Adaptor {
            buffering: Buffering::None,
            mover: Mover::DmaCsum,
        };
        assert_eq!(
            transmit_ops(Api::Shared, CsumLoc::Trailer, a),
            vec![Op::DmaC]
        );
    }

    #[test]
    fn pio_folds_checksum_when_insertable() {
        // PIO with packet buffering: single copy even with a header csum.
        let a = Adaptor {
            buffering: Buffering::Packet,
            mover: Mover::Pio,
        };
        assert_eq!(
            transmit_ops(Api::Shared, CsumLoc::Header, a),
            vec![Op::PioC]
        );
        // With copy semantics the copy is still forced (no outboard).
        assert_eq!(
            transmit_ops(Api::Copy, CsumLoc::Header, a),
            vec![Op::Copy, Op::PioC]
        );
    }

    #[test]
    fn shared_api_over_outboard_is_always_single_copy_with_csum_engine() {
        for csum in [CsumLoc::Header, CsumLoc::Trailer] {
            let ops = transmit_ops(Api::Shared, csum, CAB);
            assert_eq!(classify(&ops), Class::SingleCopy);
        }
    }

    #[test]
    fn single_copy_cells_are_exactly_the_mergeable_ones() {
        // Exhaustive: a cell is single-copy iff no host copy is forced AND
        // the checksum merges into the transfer.
        for (api, csum) in table_rows() {
            for a in adaptor_columns() {
                let ops = transmit_ops(api, csum, a);
                let class = classify(&ops);
                let copy_forced = api == Api::Copy && a.buffering != Buffering::Outboard;
                let insertable = csum == CsumLoc::Trailer || a.buffering != Buffering::None;
                let mergeable = match a.mover {
                    Mover::Pio | Mover::DmaCsum => insertable,
                    Mover::Dma => false,
                };
                let expect_single = !copy_forced && mergeable;
                assert_eq!(
                    class == Class::SingleCopy,
                    expect_single,
                    "{api:?}/{csum:?}/{a:?}: {ops:?}"
                );
            }
        }
    }

    #[test]
    fn every_cell_moves_the_data_exactly_once_to_the_device() {
        for (api, csum) in table_rows() {
            for a in adaptor_columns() {
                let ops = transmit_ops(api, csum, a);
                let device_moves = ops.iter().filter(|o| o.bus_transfers() > 0).count();
                assert_eq!(device_moves, 1, "{api:?}/{csum:?}/{a:?}");
                // And the sequence never has more than 3 ops.
                assert!(ops.len() <= 3);
            }
        }
    }

    #[test]
    fn render_contains_all_rows_and_the_cab_cell() {
        let t = render_table();
        assert!(t.contains("Copy/Header"));
        assert!(t.contains("Shared/Trailer"));
        assert!(t.contains("DMA_C"));
        assert!(t.contains("Read_C"));
        assert_eq!(t.lines().count(), 2 + 4, "header + separator + 4 rows");
    }

    #[test]
    fn access_counts_order_the_classes() {
        // single-copy <= copy+read <= two-copy in CPU accesses.
        let single = cell_cpu_accesses(Api::Copy, CsumLoc::Header, CAB);
        let copy_read = cell_cpu_accesses(
            Api::Copy,
            CsumLoc::Header,
            Adaptor {
                buffering: Buffering::Outboard,
                mover: Mover::Dma,
            },
        );
        let two_copy = cell_cpu_accesses(
            Api::Copy,
            CsumLoc::Header,
            Adaptor {
                buffering: Buffering::None,
                mover: Mover::Dma,
            },
        );
        assert!(single < copy_read);
        assert!(copy_read < two_copy + 1);
    }
}
