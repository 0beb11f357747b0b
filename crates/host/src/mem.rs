//! Simulated user address spaces.
//!
//! Each task owns a contiguous buffer region holding *real bytes*; the CAB's
//! SDMA engine reads and writes them through the [`UserMemory`] trait, which
//! stands in for physical memory access after the VM system has pinned and
//! mapped the pages. Data integrity through the whole stack is checked
//! against these bytes end to end.

use crate::TaskId;
use outboard_sim::DetMap;

/// A failed user-memory access (bad task or out-of-range address).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// The task whose access faulted.
    pub task: TaskId,
    /// Faulting virtual address.
    pub vaddr: u64,
    /// Length of the attempted access.
    pub len: usize,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "user memory fault: task {:?} vaddr {:#x} len {}",
            self.task, self.vaddr, self.len
        )
    }
}

impl std::error::Error for MemFault {}

/// Access to pinned user memory, as the DMA engine sees it.
pub trait UserMemory {
    /// Borrow `len` bytes of a task's address space at `vaddr`.
    fn user_slice(&self, task: TaskId, vaddr: u64, len: usize) -> Result<&[u8], MemFault>;
    /// Mutably borrow `len` bytes of a task's address space at `vaddr`.
    fn user_slice_mut(
        &mut self,
        task: TaskId,
        vaddr: u64,
        len: usize,
    ) -> Result<&mut [u8], MemFault>;

    /// Read `dst.len()` bytes from a task's address space at `vaddr`.
    fn read_user(&self, task: TaskId, vaddr: u64, dst: &mut [u8]) -> Result<(), MemFault> {
        dst.copy_from_slice(self.user_slice(task, vaddr, dst.len())?);
        Ok(())
    }
    /// Write `src` into a task's address space at `vaddr`.
    fn write_user(&mut self, task: TaskId, vaddr: u64, src: &[u8]) -> Result<(), MemFault> {
        self.user_slice_mut(task, vaddr, src.len())?
            .copy_from_slice(src);
        Ok(())
    }
}

#[derive(Debug)]
struct Region {
    base: u64,
    data: Vec<u8>,
}

/// All user address spaces on one host.
#[derive(Debug, Default)]
pub struct HostMem {
    regions: DetMap<TaskId, Region>,
}

impl HostMem {
    /// An arena with no task regions.
    pub fn new() -> HostMem {
        HostMem::default()
    }

    /// Create (or replace) a task's buffer region of `len` bytes based at
    /// virtual address `base`.
    pub fn create_region(&mut self, task: TaskId, base: u64, len: usize) {
        self.regions.insert(
            task,
            Region {
                base,
                data: vec![0; len],
            },
        );
    }

    /// Direct mutable access for test setup / application writes.
    pub fn region_mut(&mut self, task: TaskId) -> Option<&mut Vec<u8>> {
        self.regions.get_mut(&task).map(|r| &mut r.data)
    }

    /// Read-only view of a task's whole region.
    pub fn region(&self, task: TaskId) -> Option<&[u8]> {
        self.regions.get(&task).map(|r| r.data.as_slice())
    }
}

impl Region {
    /// The byte range `[vaddr, vaddr + len)` as offsets into `data`.
    fn range(&self, vaddr: u64, len: usize) -> Option<std::ops::Range<usize>> {
        let off = usize::try_from(vaddr.checked_sub(self.base)?).ok()?;
        let end = off.checked_add(len)?;
        (end <= self.data.len()).then_some(off..end)
    }
}

impl UserMemory for HostMem {
    fn user_slice(&self, task: TaskId, vaddr: u64, len: usize) -> Result<&[u8], MemFault> {
        let fault = MemFault { task, vaddr, len };
        let region = self.regions.get(&task).ok_or(fault)?;
        let range = region.range(vaddr, len).ok_or(fault)?;
        Ok(&region.data[range])
    }

    fn user_slice_mut(
        &mut self,
        task: TaskId,
        vaddr: u64,
        len: usize,
    ) -> Result<&mut [u8], MemFault> {
        let fault = MemFault { task, vaddr, len };
        let region = self.regions.get_mut(&task).ok_or(fault)?;
        let range = region.range(vaddr, len).ok_or(fault)?;
        Ok(&mut region.data[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut hm = HostMem::new();
        let t = TaskId(1);
        hm.create_region(t, 0x1_0000, 4096);
        hm.write_user(t, 0x1_0000 + 100, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        hm.read_user(t, 0x1_0000 + 100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn faults_on_bad_access() {
        let mut hm = HostMem::new();
        let t = TaskId(1);
        hm.create_region(t, 0x1000, 100);
        let mut buf = [0u8; 8];
        // Unknown task.
        assert!(hm.read_user(TaskId(9), 0x1000, &mut buf).is_err());
        // Below base.
        assert!(hm.read_user(t, 0xFF0, &mut buf).is_err());
        // Overruns the region.
        assert!(hm.read_user(t, 0x1000 + 96, &mut buf).is_err());
        assert!(hm.write_user(t, 0x1000 + 96, &buf).is_err());
        // Exactly at the end is fine.
        assert!(hm.read_user(t, 0x1000 + 92, &mut buf).is_ok());
    }

    #[test]
    fn regions_are_isolated() {
        let mut hm = HostMem::new();
        hm.create_region(TaskId(1), 0x1000, 64);
        hm.create_region(TaskId(2), 0x1000, 64);
        hm.write_user(TaskId(1), 0x1000, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        hm.read_user(TaskId(2), 0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "same vaddr, different address space");
    }
}
