//! A whole world that leaves the scheduler's heap mode: 128 ttcp pairs over
//! one CAB link, one 4 KB write each (the `many_flows` shape at half its
//! width and a sixteenth of its bytes), built the way `tests/alloc_budget.rs`
//! builds its 16 flows. At the peak about 600 events are pending, past the
//! 512-entry threshold at which `EventEngine` moves its schedule from one
//! binary heap into the timing-wheel slots, so the rest of the run pops
//! through batch insert, cascades and out-of-order `push_seq` of the timer
//! table; every other world test stays below it. 128 pairs peak at 602
//! pending; 112, the narrowest that crosses, at 529.

use outboard::host::{MachineConfig, TaskId};
use outboard::sim::{Dur, Time};
use outboard::stack::{SockAddr, StackConfig};
use outboard::testbed::apps::{TtcpReceiver, TtcpSender};
use outboard::testbed::experiment::{RECEIVER_IP, SENDER_IP};
use outboard::testbed::World;

const FLOWS: u32 = 128;
const FLOW_BYTES: usize = 4096;
/// The pending count above which the scheduler leaves heap mode.
const SPILL: usize = 512;

/// What one run ends with.
struct Run {
    peak_pending: usize,
    end: Time,
    events: u64,
    stats_json: String,
}

fn single_copy() -> StackConfig {
    let mut s = StackConfig::single_copy();
    s.force_single_copy = true;
    s
}

fn run() -> Run {
    let machine = MachineConfig::alpha_3000_400();
    let mut w = World::new();
    let a = w.add_host("sender", machine.clone(), single_copy());
    let b = w.add_host("receiver", machine, single_copy());
    w.connect_cab(a, SENDER_IP, b, RECEIVER_IP, Dur::micros(5), 1);
    for i in 0..FLOWS {
        let rx = TtcpReceiver::new(TaskId(2000 + i), 5001 + i as u16, FLOW_BYTES);
        assert!(rx.verify);
        w.add_app(b, Box::new(rx), i == 0);
    }
    for i in 0..FLOWS {
        let dst = SockAddr::new(RECEIVER_IP, 5001 + i as u16);
        let mut tx = TtcpSender::new(TaskId(1000 + i), dst, FLOW_BYTES, FLOW_BYTES);
        tx.buf_vaddr += u64::from(i) * 0x1_0000;
        w.add_app(a, Box::new(tx), i == 0);
    }
    let mut peak_pending = 0;
    let done = w.run_while(Time::ZERO + Dur::secs(60), |w| {
        peak_pending = peak_pending.max(w.pending_events());
        !w.hosts
            .iter()
            .flat_map(|h| h.apps.iter())
            .all(|a| a.as_ref().is_none_or(|a| a.finished()))
    });
    assert!(done, "the run stalled");
    let receivers = w.hosts[b].apps.iter().flatten();
    for (i, rx) in receivers.enumerate() {
        let rx = rx.as_any().downcast_ref::<TtcpReceiver>();
        let rx = rx.expect("host 1 runs only receivers");
        assert_eq!(rx.bytes_read, FLOW_BYTES, "flow {i}");
        assert_eq!(rx.verify_errors, 0, "flow {i}");
    }
    Run {
        peak_pending,
        end: w.now(),
        events: w.events_dispatched,
        stats_json: w.metrics(w.now() - Time::ZERO).to_json(),
    }
}

#[test]
fn a_world_past_the_spill_threshold_completes_deterministically() {
    let first = run();
    assert!(
        first.peak_pending > SPILL,
        "peak {} pending never left heap mode",
        first.peak_pending
    );
    // Measured with the reference heap as the scheduler and with the wheel
    // (they agreed on both, and on the whole registry) before the heap
    // stopped being selectable.
    assert_eq!(first.end, Time(158_639_651));
    assert_eq!(first.events, 4919);
    let second = run();
    assert!(
        first.stats_json == second.stats_json,
        "two runs published different registries"
    );
}
