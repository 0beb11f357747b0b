//! Copy semantics end to end (§4.4.2): once a `write` returns, the buffer
//! is the application's again, and nothing the stack sends later may come
//! from it.
//!
//! The sender here overwrites its whole buffer with garbage every time a
//! `write` hands it back — on `Done`, and on the wake that ends a blocked
//! write — and writes the pattern again only for its next `write`. Had the
//! stack (or an engine) read the buffer after that point, the garbage
//! would reach the receiver, which checks every byte. Debug builds also
//! hold the user-memory journal to zero violations: no write of a claimed
//! range, no early wake. `cargo test --release --test copy_semantics`
//! checks the data half with the journal compiled out.

use outboard::host::{MachineConfig, TaskId};
use outboard::sim::fault::{Action, Point, Target};
use outboard::sim::{Dur, Fault, FaultPlan};
use outboard::stack::{Proto, SockAddr, SockId, StackConfig, StackError, WriteResult};
use outboard::testbed::apps::{ttcp_pattern, TtcpReceiver};
use outboard::testbed::experiment::{RECEIVER_IP, SENDER_IP};
use outboard::testbed::oracle::copy_violations;
use outboard::testbed::{App, RunOutcome, Step, SysCtx, World};

const KB: usize = 1024;
const PORT: u16 = 5001;
const BUF: u64 = 0x10_0000;
/// Never the pattern at every offset: a stale read shows at the receiver.
const GARBAGE: u8 = 0xEE;

/// A ttcp-style sender that scribbles over its buffer whenever a `write`
/// returns it.
struct ScribblingSender {
    task: TaskId,
    write_size: usize,
    total: usize,
    sock: Option<SockId>,
    /// Bytes handed to completed writes.
    written: usize,
    /// A blocked write's length: the next step is its wake.
    blocked: Option<usize>,
    done: bool,
}

impl ScribblingSender {
    fn new(write_size: usize, total: usize) -> ScribblingSender {
        ScribblingSender {
            task: TaskId(1),
            write_size,
            total,
            sock: None,
            written: 0,
            blocked: None,
            done: false,
        }
    }

    fn region_len(&self) -> usize {
        self.write_size.max(4096)
    }

    /// The buffer is ours again: ruin it.
    fn scribble(&self, ctx: &mut SysCtx<'_>) {
        let buf = ctx.user_slice_mut(BUF, self.region_len()).expect("buffer");
        buf.fill(GARBAGE);
    }

    fn give_up(&mut self, e: StackError) -> Step {
        self.done = true;
        Step::GaveUp(e)
    }
}

impl App for ScribblingSender {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.done
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        let Some(sock) = self.sock else {
            ctx.mem.create_region(self.task, BUF, self.region_len());
            let sock = ctx.kernel.sys_socket(Proto::Tcp);
            self.sock = Some(sock);
            let dst = SockAddr::new(RECEIVER_IP, PORT);
            return match ctx
                .kernel
                .sys_connect(sock, self.task, dst, ctx.mem, ctx.now)
            {
                Ok(fx) => {
                    ctx.absorb(fx);
                    Step::Wait
                }
                Err(e) => self.give_up(e),
            };
        };
        if let Some(len) = self.blocked.take() {
            // Woken: the blocked write is complete.
            self.scribble(ctx);
            self.written += len;
        }
        if self.written >= self.total {
            let fx = ctx.kernel.sys_close(sock, ctx.mem, ctx.now);
            ctx.absorb(fx);
            self.done = true;
            return Step::Done;
        }
        let len = self.write_size.min(self.total - self.written);
        let buf = ctx.user_slice_mut(BUF, len).expect("buffer");
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ttcp_pattern(self.written + i);
        }
        match ctx
            .kernel
            .sys_write(sock, self.task, BUF, len, ctx.mem, ctx.now)
        {
            Ok((WriteResult::Done { bytes }, fx)) => {
                ctx.absorb(fx);
                self.scribble(ctx);
                self.written += bytes;
                Step::Continue
            }
            Ok((WriteResult::Blocked { .. }, fx)) => {
                ctx.absorb(fx);
                self.blocked = Some(len);
                Step::Wait
            }
            // A wake that did not end the write (`InvalidState`) is a
            // failure here too: the buffer was scribbled on.
            Err(e) => self.give_up(e),
        }
    }
}

/// The two stacks; the single-copy one takes the `M_UIO` path at every
/// write size.
fn stack(single_copy: bool) -> StackConfig {
    if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    }
}

/// Run `total` bytes in `write_size` writes from a scribbling sender to a
/// verifying ttcp receiver, with `faults` applied to the forward link and
/// both adaptors; assert every byte arrived intact and copy semantics held.
fn run(single_copy: bool, write_size: usize, total: usize, seed: u64, faults: bool) {
    let what = format!("single_copy {single_copy} write {write_size} seed {seed}");
    let machine = MachineConfig::alpha_3000_400();
    let mut w = World::new();
    let a = w.add_host("sender", machine.clone(), stack(single_copy));
    let b = w.add_host("receiver", machine, stack(single_copy));
    w.connect_cab(a, SENDER_IP, b, RECEIVER_IP, Dur::micros(5), seed);
    if faults {
        let chance = |p, target, action| Fault::chance("p", p, target, action).unwrap();
        let link = Target::Point(a, Point::Frame);
        let mut faults = vec![
            chance(0.05, link, Action::Drop),
            chance(0.01, link, Action::Corrupt(None)),
            chance(0.01, link, Action::Duplicate),
        ];
        for host in [a, b] {
            faults.push(chance(
                0.05,
                Target::Point(host, Point::Alloc),
                Action::Fail,
            ));
        }
        w.install_faults(&FaultPlan { seed, faults });
    }
    w.add_app(
        b,
        Box::new(TtcpReceiver::new(TaskId(2), PORT, write_size)),
        true,
    );
    w.add_app(a, Box::new(ScribblingSender::new(write_size, total)), true);

    assert_eq!(w.run_apps(), Ok(RunOutcome::Completed), "{what}");
    let rx = w.hosts[b].apps[0]
        .as_ref()
        .and_then(|app| app.as_any().downcast_ref::<TtcpReceiver>())
        .expect("receiver");
    assert_eq!(rx.bytes_read, total, "{what}");
    assert_eq!(
        rx.verify_errors, 0,
        "{what}: the stack sent a returned buffer"
    );
    let violations = copy_violations(&w);
    assert!(violations.is_empty(), "{what}: {violations:#?}");
}

/// 1 KB, 64 KB and 256 KB writes, and 1000 B writes: not a multiple of the
/// pattern's 256-byte period, so each write starts at another phase, and
/// the last one is short.
#[test]
fn a_returned_buffer_is_never_read_again() {
    for single_copy in [true, false] {
        run(single_copy, KB, 256 * KB, 1, false);
        run(single_copy, 64 * KB, 2048 * KB, 1, false);
        run(single_copy, 256 * KB, 2048 * KB, 1, false);
        run(single_copy, 1000, 256 * KB, 1, false);
    }
}

/// The same under link faults and netmem allocation failures, which park
/// copy-ins for a retry while retransmissions copy the same bytes. On seed
/// 130 a fast retransmit converts a parked frame's range first, and the
/// write may complete only once the parked frame has gathered again; on
/// seed 255 with 256 KB writes, a write completing before that sends
/// garbage the receiver sees (638 bytes).
#[test]
fn a_returned_buffer_is_never_read_again_under_faults() {
    for seed in [1, 2, 130] {
        run(true, 64 * KB, 1024 * KB, seed, true);
    }
    run(true, 256 * KB, 1024 * KB, 255, true);
    run(true, 1000, 256 * KB, 2, true);
    run(true, 1000, 256 * KB, 130, true);
}
