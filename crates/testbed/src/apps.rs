//! Applications: ttcp sender/receiver (user processes with copy-semantics
//! sockets) and an in-kernel file server with share semantics (§5).

use crate::world::{App, Step, SysCtx};
use bytes::Bytes;
use outboard_host::{TaskId, UserMemory};
use outboard_mbuf::Chain;
use outboard_sim::Dur;
use outboard_stack::{Proto, ReadResult, SockAddr, SockId, StackError, WriteResult};

/// Per-write user-mode loop overhead of ttcp — the tiny amount of user
/// time the paper's ttcp consumes per iteration.
const TTCP_LOOP: Dur = Dur::micros(3);

/// Sender states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxState {
    Start,
    /// Connecting (woken on ESTABLISHED), then writing.
    Writing,
    Done,
}

/// A ttcp transmitter: connect, then `write(write_size)` until
/// `total_bytes` have been accepted, then close.
pub struct TtcpSender {
    task: TaskId,
    dst: SockAddr,
    /// Bytes per write(2) call (the figures' x-axis).
    pub write_size: usize,
    /// Total bytes to transmit.
    pub total_bytes: usize,
    /// Base virtual address of the (reused) user buffer.
    pub buf_vaddr: u64,
    sock: Option<SockId>,
    state: TxState,
    /// Bytes accepted by the socket so far.
    pub bytes_written: usize,
    /// write(2) calls completed.
    pub writes: u64,
    /// The pattern the buffer holds: its phase (stream offset mod 256) and
    /// how many bytes of it. Nothing but the sender writes the buffer, and
    /// copy semantics (checked in debug builds) keep the stack off it once
    /// a write returns, so what it holds stays valid.
    filled: (usize, usize),
}

/// The byte every ttcp transfer places at stream offset `i`: a
/// deterministic payload, so the receiver can verify integrity.
pub const fn ttcp_pattern(i: usize) -> u8 {
    (i as u32).wrapping_mul(2654435761).to_le_bytes()[0]
}

/// Two periods of the pattern: only the low byte of `i` reaches the low
/// byte of the product, so it repeats every 256 and the period starting at
/// any stream offset `base` is the window `base & 255 ..` of this table.
static PATTERN_PERIODS: [u8; 512] = {
    let mut table = [0; 512];
    let mut i = 0;
    while i < table.len() {
        table[i] = ttcp_pattern(i);
        i += 1;
    }
    table
};

/// One period of the pattern, from stream offset `base`.
fn pattern_period(base: usize) -> &'static [u8] {
    let start = base & 255;
    &PATTERN_PERIODS[start..start + 256]
}

/// Fill `dst` with the pattern bytes of stream offsets `base..`, a period
/// per copy.
pub(crate) fn ttcp_fill(dst: &mut [u8], base: usize) {
    let period = pattern_period(base);
    for chunk in dst.chunks_mut(period.len()) {
        chunk.copy_from_slice(&period[..chunk.len()]);
    }
}

/// How many bytes of `src` differ from the pattern at stream offsets
/// `base..`; only a period that differs is compared byte by byte.
pub(crate) fn ttcp_mismatches(src: &[u8], base: usize) -> u64 {
    let period = pattern_period(base);
    let mut wrong = 0;
    for chunk in src.chunks(period.len()) {
        if *chunk != period[..chunk.len()] {
            wrong += chunk.iter().zip(period).filter(|(b, p)| b != p).count() as u64;
        }
    }
    wrong
}

impl TtcpSender {
    /// A sender that connects to `dst` and streams `total_bytes`.
    pub fn new(task: TaskId, dst: SockAddr, write_size: usize, total_bytes: usize) -> TtcpSender {
        TtcpSender {
            task,
            dst,
            write_size,
            total_bytes,
            buf_vaddr: 0x10_0000,
            sock: None,
            state: TxState::Start,
            bytes_written: 0,
            writes: 0,
            filled: (0, 0),
        }
    }

    /// The connected socket, once created.
    pub fn sock(&self) -> Option<SockId> {
        self.sock
    }
}

impl App for TtcpSender {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.state == TxState::Done
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        match self.state {
            TxState::Start => {
                ctx.mem
                    .create_region(self.task, self.buf_vaddr, self.write_size.max(4096));
                let sock = ctx.kernel.sys_socket(Proto::Tcp);
                self.sock = Some(sock);
                match ctx
                    .kernel
                    .sys_connect(sock, self.task, self.dst, ctx.mem, ctx.now)
                {
                    Ok(fx) => ctx.absorb(fx),
                    Err(e) => return self.give_up(e),
                }
                self.state = TxState::Writing;
                Step::Wait
            }
            TxState::Writing => self.step_write(ctx),
            TxState::Done => Step::Done,
        }
    }
}

impl TtcpSender {
    fn give_up(&mut self, e: StackError) -> Step {
        self.state = TxState::Done;
        Step::GaveUp(e)
    }

    fn step_write(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        if self.bytes_written >= self.total_bytes {
            let fx = ctx.kernel.sys_close(self.sock.unwrap(), ctx.mem, ctx.now);
            ctx.absorb(fx);
            self.state = TxState::Done;
            return Step::Done;
        }
        ctx.user_cpu(TTCP_LOOP);
        let len = self.write_size.min(self.total_bytes - self.bytes_written);
        // ttcp fills its one buffer once, as its `pattern()` does. The
        // pattern repeats every 256 bytes, so the buffer is rewritten only
        // when this write starts at another phase or needs more of it:
        // never when the write size is a multiple of 256.
        let phase = self.bytes_written & 255;
        if self.filled.0 != phase || self.filled.1 < len {
            let buf = ctx
                .user_slice_mut(self.buf_vaddr, len)
                .expect("sender buffer");
            ttcp_fill(buf, phase);
            self.filled = (phase, len);
        }
        let r = ctx.kernel.sys_write(
            self.sock.unwrap(),
            self.task,
            self.buf_vaddr,
            len,
            ctx.mem,
            ctx.now,
        );
        match r {
            Ok((WriteResult::Done { bytes }, fx)) => {
                ctx.absorb(fx);
                self.bytes_written += bytes;
                self.writes += 1;
                Step::Continue
            }
            Ok((WriteResult::Blocked { .. }, fx)) => {
                ctx.absorb(fx);
                // Copy semantics: when woken, the whole write is accepted.
                self.bytes_written += len;
                self.writes += 1;
                Step::Wait
            }
            Err(StackError::InvalidState(_)) => {
                // Spurious wake while a write is still pending.
                Step::Wait
            }
            Err(e) => self.give_up(e),
        }
    }
}

/// Receiver states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RxState {
    Start,
    Accepting,
    Reading,
    Done,
}

/// A ttcp receiver: listen/accept, read to EOF, verify the pattern.
pub struct TtcpReceiver {
    task: TaskId,
    port: u16,
    /// Bytes requested per read(2) call.
    pub read_size: usize,
    listener: Option<SockId>,
    conn: Option<SockId>,
    state: RxState,
    /// Base virtual address of the receive buffer.
    pub buf_vaddr: u64,
    /// Bytes received so far.
    pub bytes_read: usize,
    /// read(2) calls that returned data.
    pub reads: u64,
    /// A read whose DMA completion we are waiting on.
    pending_dma: Option<usize>,
    /// Check every received byte against the pattern.
    pub verify: bool,
    /// Bytes that did not match the pattern.
    pub verify_errors: u64,
}

impl TtcpReceiver {
    /// A receiver listening on `port`.
    pub fn new(task: TaskId, port: u16, read_size: usize) -> TtcpReceiver {
        TtcpReceiver {
            task,
            port,
            read_size,
            listener: None,
            conn: None,
            state: RxState::Start,
            buf_vaddr: 0x20_0000,
            bytes_read: 0,
            reads: 0,
            pending_dma: None,
            verify: true,
            verify_errors: 0,
        }
    }

    /// The accepted connection, once established.
    pub fn conn(&self) -> Option<SockId> {
        self.conn
    }

    fn give_up(&mut self, e: StackError) -> Step {
        self.state = RxState::Done;
        Step::GaveUp(e)
    }

    fn verify_buf(&mut self, ctx: &mut SysCtx<'_>, base_off: usize, len: usize) {
        if !self.verify {
            return;
        }
        let data = ctx
            .mem
            .user_slice(self.task, self.buf_vaddr, len)
            .expect("receiver buffer");
        self.verify_errors += ttcp_mismatches(data, base_off);
    }
}

impl App for TtcpReceiver {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.state == RxState::Done
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        match self.state {
            RxState::Start => {
                ctx.mem
                    .create_region(self.task, self.buf_vaddr, self.read_size.max(4096));
                let l = ctx.kernel.sys_socket(Proto::Tcp);
                let listening = ctx.kernel.sys_bind(l, self.port);
                if let Err(e) = listening.and_then(|()| ctx.kernel.sys_listen(l)) {
                    return self.give_up(e);
                }
                self.listener = Some(l);
                self.state = RxState::Accepting;
                self.step(ctx)
            }
            RxState::Accepting => match ctx.kernel.sys_accept(self.listener.unwrap(), self.task) {
                Ok(Some(c)) => {
                    self.conn = Some(c);
                    self.state = RxState::Reading;
                    self.step(ctx)
                }
                Ok(None) => Step::Wait,
                Err(e) => self.give_up(e),
            },
            RxState::Reading => {
                // A DMA-blocked read completes on this wake.
                if let Some(bytes) = self.pending_dma.take() {
                    self.verify_buf(ctx, self.bytes_read, bytes);
                    self.bytes_read += bytes;
                    self.reads += 1;
                }
                ctx.user_cpu(TTCP_LOOP);
                let r = ctx.kernel.sys_read(
                    self.conn.unwrap(),
                    self.task,
                    self.buf_vaddr,
                    self.read_size,
                    ctx.mem,
                    ctx.now,
                );
                match r {
                    Ok((ReadResult::Done { bytes }, fx)) => {
                        ctx.absorb(fx);
                        self.verify_buf(ctx, self.bytes_read, bytes);
                        self.bytes_read += bytes;
                        self.reads += 1;
                        Step::Continue
                    }
                    Ok((ReadResult::BlockedDma { bytes }, fx)) => {
                        ctx.absorb(fx);
                        self.pending_dma = Some(bytes);
                        Step::Wait
                    }
                    Ok((ReadResult::WouldBlock, fx)) => {
                        ctx.absorb(fx);
                        Step::Wait
                    }
                    Ok((ReadResult::Eof, fx)) => {
                        ctx.absorb(fx);
                        let fx = ctx.kernel.sys_close(self.conn.unwrap(), ctx.mem, ctx.now);
                        ctx.absorb(fx);
                        self.state = RxState::Done;
                        Step::Done
                    }
                    Err(StackError::InvalidState(_)) => Step::Wait,
                    Err(e) => self.give_up(e),
                }
            }
            RxState::Done => Step::Done,
        }
    }
}

/// An in-kernel file server (§5): an NFS-like block service over UDP with
/// share semantics. Requests are 12 bytes — `"RD"`, block (u32), count
/// (u16), padding — and the response echoes the block number followed by
/// `count` bytes of that block's deterministic contents.
pub struct KernelFileServer {
    task: TaskId,
    /// The kernel socket, once created.
    pub sock: Option<SockId>,
    /// UDP port served.
    pub port: u16,
    /// Requests answered.
    pub requests_served: u64,
    /// Maximum bytes served per request.
    pub block_size: usize,
}

/// Deterministic "disk" contents for block `b`, offset `i`.
pub fn file_block_byte(block: u32, i: usize) -> u8 {
    ((block as usize)
        .wrapping_mul(31)
        .wrapping_add(i.wrapping_mul(7))) as u8
}

impl KernelFileServer {
    /// A server that will bind a kernel socket on `port`.
    pub fn new(task: TaskId, port: u16) -> KernelFileServer {
        KernelFileServer {
            task,
            sock: None,
            port,
            requests_served: 0,
            block_size: 8192,
        }
    }
}

impl App for KernelFileServer {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        false // servers run forever
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        if self.sock.is_none() {
            let s = ctx.kernel.kernel_socket(Proto::Udp);
            if let Err(e) = ctx.kernel.sys_bind(s, self.port) {
                return Step::GaveUp(e);
            }
            self.sock = Some(s);
        }
        Step::Wait
    }

    fn on_kernel_ready(&mut self, ctx: &mut SysCtx<'_>, sock: SockId) -> Step {
        // Drain every ready request in arrival order.
        while let Some((chain, from)) = ctx.kernel.kernel_recv(sock) {
            let flat = chain.flatten_kernel().expect("converted to regular mbufs");
            if flat.len() < 8 || &flat[..2] != b"RD" {
                continue;
            }
            let block = u32::from_be_bytes([flat[2], flat[3], flat[4], flat[5]]);
            let count = u16::from_be_bytes([flat[6], flat[7]]) as usize;
            let count = count.min(self.block_size);
            // Build the response as a shared kernel mbuf chain (share
            // semantics: no copy on the way down).
            let mut resp = Vec::with_capacity(4 + count);
            resp.extend_from_slice(&block.to_be_bytes());
            for i in 0..count {
                resp.push(file_block_byte(block, i));
            }
            let resp = Chain::from_bytes(Bytes::from(resp));
            match ctx.kernel.kernel_sendto(sock, resp, from, ctx.mem, ctx.now) {
                Ok(fx) => ctx.absorb(fx),
                Err(e) => return Step::GaveUp(e),
            }
            self.requests_served += 1;
        }
        Step::Wait
    }
}

/// A user-space client for the kernel file server: requests `blocks`
/// sequential blocks and verifies their contents.
pub struct FileClient {
    task: TaskId,
    server: SockAddr,
    /// Sequential blocks to request.
    pub blocks: u32,
    /// Bytes requested per block.
    pub count: usize,
    sock: Option<SockId>,
    state: u8, // 0=start, 1=waiting reply, 2=done
    next_block: u32,
    /// Base virtual address of the request/response buffer.
    pub buf_vaddr: u64,
    /// Reply bytes that failed verification.
    pub verify_errors: u64,
    /// Blocks received and checked.
    pub blocks_received: u32,
    pending_dma: Option<usize>,
}

impl FileClient {
    /// A client that requests `blocks` blocks of `count` bytes from `server`.
    pub fn new(task: TaskId, server: SockAddr, blocks: u32, count: usize) -> FileClient {
        FileClient {
            task,
            server,
            blocks,
            count,
            sock: None,
            state: 0,
            next_block: 0,
            buf_vaddr: 0x30_0000,
            verify_errors: 0,
            blocks_received: 0,
            pending_dma: None,
        }
    }

    fn give_up(&mut self, e: StackError) -> Step {
        self.state = 2;
        Step::GaveUp(e)
    }

    fn send_request(&mut self, ctx: &mut SysCtx<'_>) -> Result<(), StackError> {
        let mut req = [0u8; 12];
        req[..2].copy_from_slice(b"RD");
        req[2..6].copy_from_slice(&self.next_block.to_be_bytes());
        req[6..8].copy_from_slice(&(self.count as u16).to_be_bytes());
        ctx.user_slice_mut(self.buf_vaddr, req.len())
            .expect("client buffer")
            .copy_from_slice(&req);
        let (_, fx) = ctx.kernel.sys_write(
            self.sock.unwrap(),
            self.task,
            self.buf_vaddr,
            12,
            ctx.mem,
            ctx.now,
        )?;
        ctx.absorb(fx);
        Ok(())
    }

    fn check_reply(&mut self, ctx: &mut SysCtx<'_>, bytes: usize) {
        let data = ctx
            .mem
            .user_slice(self.task, self.buf_vaddr, bytes)
            .expect("client buffer");
        if bytes < 4 {
            self.verify_errors += 1;
        } else {
            let block = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
            if block != self.next_block {
                self.verify_errors += 1;
            }
            for (i, &b) in data[4..].iter().enumerate() {
                if b != file_block_byte(block, i) {
                    self.verify_errors += 1;
                }
            }
        }
        self.blocks_received += 1;
        self.next_block += 1;
    }
}

impl App for FileClient {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.state == 2
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        use outboard_stack::ReadResult;
        if self.state == 2 {
            return Step::Done;
        }
        if self.sock.is_none() {
            ctx.mem
                .create_region(self.task, self.buf_vaddr, self.count.max(4096) + 64);
            let s = ctx.kernel.sys_socket(Proto::Udp);
            self.sock = Some(s);
            let sent = ctx.kernel.sys_connect_udp(s, self.server);
            if let Err(e) = sent.and_then(|()| self.send_request(ctx)) {
                return self.give_up(e);
            }
            self.state = 1;
        }
        // Waiting for (or woken by) a reply.
        if let Some(bytes) = self.pending_dma.take() {
            self.check_reply(ctx, bytes);
            if self.next_block >= self.blocks {
                self.state = 2;
                return Step::Done;
            }
            if let Err(e) = self.send_request(ctx) {
                return self.give_up(e);
            }
        }
        match ctx.kernel.sys_read(
            self.sock.unwrap(),
            self.task,
            self.buf_vaddr,
            self.count + 64,
            ctx.mem,
            ctx.now,
        ) {
            Ok((ReadResult::Done { bytes }, fx)) => {
                ctx.absorb(fx);
                self.check_reply(ctx, bytes);
                if self.next_block >= self.blocks {
                    self.state = 2;
                    return Step::Done;
                }
                match self.send_request(ctx) {
                    Ok(()) => Step::Continue,
                    Err(e) => self.give_up(e),
                }
            }
            Ok((ReadResult::BlockedDma { bytes }, fx)) => {
                ctx.absorb(fx);
                self.pending_dma = Some(bytes);
                Step::Wait
            }
            Ok((ReadResult::WouldBlock, fx)) | Ok((ReadResult::Eof, fx)) => {
                ctx.absorb(fx);
                Step::Wait
            }
            Err(StackError::InvalidState(_)) => Step::Wait,
            Err(e) => self.give_up(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn any_base() -> impl Strategy<Value = usize> {
        // Every phase of the period, either near zero or straddling
        // `u32::MAX` (the pattern truncates the offset to 32 bits).
        (any::<bool>(), 0usize..1024)
            .prop_map(|(high, x)| if high { u32::MAX as usize - 512 + x } else { x })
    }

    /// Every phase of the table, and offsets where only the truncation to
    /// 32 bits keeps the period aligned.
    #[test]
    fn the_table_window_is_the_pattern_from_any_base() {
        for base in (0..512).chain([u32::MAX as usize - 100, u32::MAX as usize + 1]) {
            for (i, &b) in pattern_period(base).iter().enumerate() {
                assert_eq!(b, ttcp_pattern(base + i), "base {base} + {i}");
            }
        }
    }

    proptest! {
        #[test]
        fn bulk_fill_equals_the_per_byte_pattern(base in any_base(), len in 0usize..2000) {
            let mut buf = vec![0xEEu8; len];
            ttcp_fill(&mut buf, base);
            for (i, &b) in buf.iter().enumerate() {
                prop_assert_eq!(b, ttcp_pattern(base + i), "offset {}", base + i);
            }
        }

        #[test]
        fn bulk_verify_counts_what_a_per_byte_compare_counts(
            base in any_base(),
            len in 1usize..2000,
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..12),
        ) {
            let mut buf = vec![0u8; len];
            ttcp_fill(&mut buf, base);
            prop_assert_eq!(ttcp_mismatches(&buf, base), 0);
            for (at, xor) in flips {
                // A zero `xor` plants nothing; both counts must agree on that.
                buf[at % len] ^= xor;
            }
            let per_byte = buf
                .iter()
                .enumerate()
                .filter(|(i, &b)| b != ttcp_pattern(base + i))
                .count() as u64;
            prop_assert_eq!(ttcp_mismatches(&buf, base), per_byte);
        }
    }
}
