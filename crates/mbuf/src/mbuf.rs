//! Individual mbufs and their three storage formats.

use crate::TaskId;
use bytes::Bytes;

/// A region of a simulated user address space: the buffer named by a
/// `read(2)`/`write(2)` call. `base` is the virtual address of the start of
/// the user buffer; descriptors reference offsets within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UioRegion {
    /// The task whose address space holds the buffer.
    pub task: TaskId,
    /// User virtual address of the buffer start.
    pub base: u64,
}

/// An `M_UIO` descriptor: `len` bytes of user data starting `off` bytes into
/// `region`. This is the paper's UIO mbuf — it carries a `uio` structure
/// describing the read/write memory area in the user's address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UioDesc {
    /// The user buffer this descriptor points into.
    pub region: UioRegion,
    /// Byte offset of this descriptor's data within the region.
    pub off: u64,
    /// Length of this descriptor's data in bytes.
    pub len: usize,
    /// The socket-layer UIO counter of the `write` this data belongs to
    /// (§4.4.2); decremented as the bytes move outboard so the blocked
    /// writer can be woken at the right moment.
    pub counter: Option<crate::UioCounterId>,
}

impl UioDesc {
    /// Absolute user virtual address of the first byte.
    pub fn vaddr(&self) -> u64 {
        self.region.base + self.off
    }
}

/// An `M_WCAB` descriptor: `len` bytes starting at `off` within packet
/// `packet` in the network memory of CAB `cab`. Mirrors the paper's `wCAB`
/// structure: packet identifier and packet checksum. Its count of valid
/// outboard bytes is not kept: a descriptor is made only once its bytes
/// are in network memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WcabDesc {
    /// Which CAB's network memory holds the packet (interface index).
    pub cab: u32,
    /// Opaque packet id assigned by that CAB (see `outboard_cab::PacketId`).
    pub packet: u64,
    /// Offset of this descriptor's data within the packet.
    pub off: usize,
    /// Length of this descriptor's data in bytes.
    pub len: usize,
    /// Hardware-computed checksum of the packet body (receive side).
    pub hw_csum: u16,
}

/// Checksum plan carried from the transport layer to the CAB driver
/// (paper §4.3): instead of computing the Internet checksum in software, the
/// checksum routine records *where* the checksum goes, *how many* leading
/// words the hardware must skip, and the *seed* covering the host-owned
/// header fields. The driver copies this into the SDMA request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsumPlan {
    /// Byte offset of the 16-bit checksum field from the start of the packet
    /// (the full framed packet as it sits in network memory).
    pub csum_offset: usize,
    /// Leading 32-bit words the hardware checksum engine skips.
    pub skip_words: usize,
    /// Partial ones-complement sum over the skipped words the host is
    /// responsible for (transport header + pseudo-header).
    pub seed: u16,
}

/// The three storage formats (§4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MbufData {
    /// Traditional mbuf: data in kernel memory (small or cluster storage).
    Kernel(Bytes),
    /// `M_UIO`: data still in (or destined for) a user address space.
    Uio(UioDesc),
    /// `M_WCAB`: data in CAB network memory.
    Wcab(WcabDesc),
}

/// A borrowed view of an mbuf's payload, for data-touching consumers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment<'a> {
    /// Kernel-resident payload bytes.
    Kernel(&'a [u8]),
    /// Data in a user address space (`M_UIO`).
    Uio(&'a UioDesc),
    /// Data in CAB network memory (`M_WCAB`).
    Wcab(&'a WcabDesc),
}

/// One mbuf.
///
/// BSD mbufs carry `(m_data, m_len)` into shared storage; here `Kernel`
/// storage is a `Bytes` slice (already offset+length), and the external
/// types carry explicit offsets. All the symbolic-packetization operations
/// (`split_at`, `advance`, `truncate`) work uniformly across the formats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mbuf {
    data: MbufData,
}

impl Mbuf {
    /// A traditional mbuf over kernel bytes.
    pub fn kernel(bytes: Bytes) -> Mbuf {
        Mbuf {
            data: MbufData::Kernel(bytes),
        }
    }

    /// A traditional mbuf copied from a slice.
    pub fn kernel_copy(bytes: &[u8]) -> Mbuf {
        Mbuf::kernel(Bytes::copy_from_slice(bytes))
    }

    /// An `M_UIO` mbuf describing user data.
    pub fn uio(desc: UioDesc) -> Mbuf {
        Mbuf {
            data: MbufData::Uio(desc),
        }
    }

    /// An `M_WCAB` mbuf describing outboard data.
    pub fn wcab(desc: WcabDesc) -> Mbuf {
        Mbuf {
            data: MbufData::Wcab(desc),
        }
    }

    /// The storage variant.
    pub fn data(&self) -> &MbufData {
        &self.data
    }

    /// A borrowed view suitable for data-touching consumers.
    pub fn segment(&self) -> Segment<'_> {
        match &self.data {
            MbufData::Kernel(b) => Segment::Kernel(b),
            MbufData::Uio(d) => Segment::Uio(d),
            MbufData::Wcab(d) => Segment::Wcab(d),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match &self.data {
            MbufData::Kernel(b) => b.len(),
            MbufData::Uio(d) => d.len,
            MbufData::Wcab(d) => d.len,
        }
    }

    /// True for a zero-length mbuf.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for an `M_UIO` descriptor.
    pub(crate) fn is_uio(&self) -> bool {
        matches!(self.data, MbufData::Uio(_))
    }

    /// True for an `M_WCAB` descriptor.
    pub(crate) fn is_wcab(&self) -> bool {
        matches!(self.data, MbufData::Wcab(_))
    }

    /// Kernel payload bytes, if this is a traditional mbuf.
    pub fn kernel_bytes(&self) -> Option<&Bytes> {
        match &self.data {
            MbufData::Kernel(b) => Some(b),
            _ => None,
        }
    }

    /// Split into `[0, at)` (returned) and `[at, len)` (self). Purely
    /// symbolic: no payload bytes move for any storage format.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_front(&mut self, at: usize) -> Mbuf {
        assert!(
            at <= self.len(),
            "split_front({at}) beyond len {}",
            self.len()
        );
        match &mut self.data {
            MbufData::Kernel(b) => Mbuf::kernel(b.split_to(at)),
            MbufData::Uio(d) => {
                let front = UioDesc {
                    region: d.region,
                    off: d.off,
                    len: at,
                    counter: d.counter,
                };
                d.off += at as u64;
                d.len -= at;
                Mbuf::uio(front)
            }
            MbufData::Wcab(d) => {
                let front = WcabDesc {
                    off: d.off,
                    len: at,
                    ..*d
                };
                d.off += at;
                d.len -= at;
                Mbuf::wcab(front)
            }
        }
    }

    /// Drop the first `n` bytes (BSD `m_adj` with a positive count).
    pub fn advance(&mut self, n: usize) {
        let _ = self.split_front(n);
    }

    /// Keep only the first `n` bytes (BSD `m_adj` with a negative count).
    pub fn truncate(&mut self, n: usize) {
        assert!(n <= self.len(), "truncate({n}) beyond len {}", self.len());
        match &mut self.data {
            MbufData::Kernel(b) => b.truncate(n),
            MbufData::Uio(d) => d.len = n,
            MbufData::Wcab(d) => d.len = n,
        }
    }

    /// A descriptor-level clone of byte range `[off, off+len)` (BSD
    /// `m_copym`: reference-counted for kernel data, plain descriptor
    /// arithmetic for the external types).
    pub fn copy_range(&self, off: usize, len: usize) -> Mbuf {
        assert!(off + len <= self.len());
        match &self.data {
            MbufData::Kernel(b) => Mbuf::kernel(b.slice(off..off + len)),
            MbufData::Uio(d) => Mbuf::uio(UioDesc {
                region: d.region,
                off: d.off + off as u64,
                len,
                counter: d.counter,
            }),
            MbufData::Wcab(d) => Mbuf::wcab(WcabDesc {
                off: d.off + off,
                len,
                ..*d
            }),
        }
    }
}

#[cfg(test)]
impl Mbuf {
    /// True for traditional kernel-resident storage.
    pub(crate) fn is_kernel(&self) -> bool {
        matches!(self.data, MbufData::Kernel(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uio_mbuf() -> Mbuf {
        Mbuf::uio(UioDesc {
            region: UioRegion {
                task: TaskId(1),
                base: 0x10000,
            },
            off: 100,
            len: 1000,
            counter: None,
        })
    }

    fn wcab_mbuf() -> Mbuf {
        Mbuf::wcab(WcabDesc {
            cab: 0,
            packet: 42,
            off: 40,
            len: 2000,
            hw_csum: 0x1234,
        })
    }

    #[test]
    fn kernel_split_front() {
        let mut m = Mbuf::kernel_copy(&[1, 2, 3, 4, 5]);
        let front = m.split_front(2);
        assert_eq!(front.kernel_bytes().unwrap().as_ref(), &[1, 2]);
        assert_eq!(m.kernel_bytes().unwrap().as_ref(), &[3, 4, 5]);
    }

    #[test]
    fn uio_split_is_descriptor_arithmetic() {
        let mut m = uio_mbuf();
        let front = m.split_front(300);
        match (front.data(), m.data()) {
            (MbufData::Uio(f), MbufData::Uio(rest)) => {
                assert_eq!(f.off, 100);
                assert_eq!(f.len, 300);
                assert_eq!(rest.off, 400);
                assert_eq!(rest.len, 700);
                assert_eq!(f.vaddr(), 0x10000 + 100);
            }
            _ => panic!("wrong formats"),
        }
    }

    #[test]
    fn wcab_split_and_truncate() {
        let mut m = wcab_mbuf();
        m.advance(100);
        m.truncate(500);
        match m.data() {
            MbufData::Wcab(d) => {
                assert_eq!(d.off, 140);
                assert_eq!(d.len, 500);
                assert_eq!(d.packet, 42, "packet identity preserved");
                assert_eq!(d.hw_csum, 0x1234, "checksum info preserved");
            }
            _ => panic!("wrong format"),
        }
    }

    #[test]
    fn copy_range_does_not_mutate_source() {
        let m = uio_mbuf();
        let c = m.copy_range(10, 20);
        assert_eq!(m.len(), 1000);
        match c.data() {
            MbufData::Uio(d) => {
                assert_eq!(d.off, 110);
                assert_eq!(d.len, 20);
            }
            _ => panic!(),
        }
        let k = Mbuf::kernel_copy(&[9, 8, 7, 6]);
        let kc = k.copy_range(1, 2);
        assert_eq!(kc.kernel_bytes().unwrap().as_ref(), &[8, 7]);
        assert_eq!(k.len(), 4);
    }

    #[test]
    fn predicates() {
        assert!(Mbuf::kernel_copy(&[0]).is_kernel());
        assert!(uio_mbuf().is_uio());
        assert!(wcab_mbuf().is_wcab());
        assert!(Mbuf::kernel(Bytes::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "split_front")]
    fn split_beyond_len_panics() {
        uio_mbuf().split_front(1001);
    }
}
