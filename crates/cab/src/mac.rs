//! Media access control: FIFO versus logical channels (§2.1).
//!
//! "The simplest MAC algorithm for a switch-based network is to send packets
//! in FIFO order. However ... if the destination of the packet at the head
//! of the queue is busy, the node cannot send, even if the destinations of
//! other packets are reachable. Analysis shows that one can utilize at most
//! 58% of the network bandwidth, assuming random traffic [Hluchyj-Karol].
//! The CAB uses multiple 'logical channels', queues of packets with
//! different destinations, to get around this problem."
//!
//! [`HolSim`] is a slotted input-queued crossbar simulation that reproduces
//! the 58.6 % saturation limit for a FIFO MAC and shows logical channels
//! recovering utilization as the channel count grows. The `hol` bench binary
//! regenerates the claim.

use outboard_sim::{Chance, Pcg32};
use std::collections::VecDeque;

/// MAC queueing discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacMode {
    /// One FIFO per node; only the head packet is eligible (HOL blocking).
    Fifo,
    /// `channels` queues per node; packets are hashed to a channel by
    /// destination and every channel head is eligible. With at least as
    /// many channels as destinations this is per-destination queueing.
    LogicalChannels {
        /// Number of queues per node.
        channels: usize,
    },
}

/// The MAC abstraction the CAB exposes: pick which queued packet may be
/// offered to the switch this slot.
#[derive(Clone, Debug)]
pub(crate) struct MacModel {
    /// The configured discipline.
    pub mode: MacMode,
}

impl MacModel {
    /// A MAC with the given discipline.
    pub(crate) fn new(mode: MacMode) -> MacModel {
        MacModel { mode }
    }

    /// Channel a packet for `dst` is queued on.
    pub(crate) fn channel_for(&self, dst: usize) -> usize {
        match self.mode {
            MacMode::Fifo => 0,
            MacMode::LogicalChannels { channels } => dst % channels.max(1),
        }
    }

    /// Number of queues this MAC maintains.
    pub(crate) fn queue_count(&self) -> usize {
        match self.mode {
            MacMode::Fifo => 1,
            MacMode::LogicalChannels { channels } => channels.max(1),
        }
    }
}

/// Result of a saturation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HolResult {
    /// Switch slots simulated.
    pub slots: u64,
    /// Packets delivered across all outputs.
    pub delivered: u64,
    /// Input-slots where a node with backlog sent nothing (head-of-line
    /// blocking or lost arbitration) — the waste the logical channels buy
    /// back.
    pub stalls: u64,
    /// Mean fraction of output capacity used (delivered / (nodes × slots)).
    pub utilization: f64,
}

/// Slotted N×N crossbar with input queueing under saturated uniform random
/// traffic.
pub struct HolSim {
    n: usize,
    mac: MacModel,
    rng: Pcg32,
    /// Per node, per channel: FIFO of destination indices.
    queues: Vec<Vec<VecDeque<usize>>>,
    /// Queue depth maintained per node (backlog under saturation).
    depth: usize,
    /// Cumulative input-slots stalled with backlog (see [`HolResult::stalls`]).
    stalls: u64,
}

impl HolSim {
    /// An `n`-by-`n` crossbar with saturated backlogs.
    pub fn new(n: usize, mode: MacMode, seed: u64) -> HolSim {
        assert!(n >= 2);
        let mac = MacModel::new(mode);
        let mut sim = HolSim {
            n,
            queues: vec![vec![VecDeque::new(); mac.queue_count()]; n],
            mac,
            rng: Pcg32::new(seed),
            depth: 64,
            stalls: 0,
        };
        sim.top_up();
        sim
    }

    /// Keep each node's backlog at `depth` packets with uniform random
    /// destinations (saturation assumption).
    fn top_up(&mut self) {
        for node in 0..self.n {
            let total: usize = self.queues[node].iter().map(|q| q.len()).sum();
            for _ in total..self.depth {
                let dst = loop {
                    let d = self.rng.below(self.n as u32) as usize;
                    if d != node {
                        break d;
                    }
                };
                let ch = self.mac.channel_for(dst);
                self.queues[node][ch].push_back(dst);
            }
        }
    }

    /// Run `slots` switch slots under saturation; each output accepts at
    /// most one packet per slot, chosen uniformly among the inputs offering
    /// to it.
    #[expect(
        clippy::float_arithmetic,
        reason = "report ratio of the §6 crossbar model, which no world event runs"
    )]
    pub fn run(&mut self, slots: u64) -> HolResult {
        let mut delivered = 0u64;
        let stalls_before = self.stalls;
        for _ in 0..slots {
            delivered += self.one_slot();
            self.top_up();
        }
        HolResult {
            slots,
            delivered,
            stalls: self.stalls - stalls_before,
            utilization: delivered as f64 / (slots as f64 * self.n as f64),
        }
    }

    /// One crossbar slot: collect offers (one per channel head), grant one
    /// packet per output among non-busy inputs. Returns packets delivered.
    fn one_slot(&mut self) -> u64 {
        let mut delivered = 0u64;
        let mut offers_per_output: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for node in 0..self.n {
            for (ch, q) in self.queues[node].iter().enumerate() {
                if let Some(&dst) = q.front() {
                    offers_per_output[dst].push((node, ch));
                }
            }
        }
        let mut input_busy = vec![false; self.n];
        let mut order: Vec<usize> = (0..self.n).collect();
        self.rng.shuffle(&mut order);
        for out in order {
            let mut contenders: Vec<(usize, usize)> = offers_per_output[out]
                .iter()
                .copied()
                .filter(|&(node, _)| !input_busy[node])
                .collect();
            if contenders.is_empty() {
                continue;
            }
            let pick = self.rng.below(contenders.len() as u32) as usize;
            let (node, ch) = contenders.swap_remove(pick);
            input_busy[node] = true;
            // The offer came from this queue's head, so it must still be
            // there — but an arbitration bug should cost a grant, not the
            // whole simulation.
            let Some(dst) = self.queues[node][ch].pop_front() else {
                continue;
            };
            debug_assert_eq!(dst, out);
            delivered += 1;
        }
        // An input that had backlog but moved nothing this slot stalled.
        for (node, busy) in input_busy.iter().enumerate().take(self.n) {
            if !busy && self.queues[node].iter().any(|q| !q.is_empty()) {
                self.stalls += 1;
            }
        }
        delivered
    }
}

/// Result of a finite-load run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadResult {
    /// Packets that arrived at the inputs.
    pub offered: u64,
    /// Packets delivered to the outputs.
    pub delivered: u64,
    /// Mean queue depth per node at the end (instability indicator).
    pub mean_backlog: f64,
}

impl HolSim {
    /// Run with Bernoulli arrivals: each slot, each node receives a new
    /// packet with probability `load` (uniform random destination).
    /// Below the saturation throughput queues stay bounded; above it they
    /// grow without bound — which is how the Hluchyj-Karol limit shows up
    /// for finite load.
    #[expect(
        clippy::float_arithmetic,
        reason = "report ratio of the §6 crossbar model, which no world event runs"
    )]
    pub fn run_with_load(&mut self, slots: u64, load: f64) -> LoadResult {
        assert!((0.0..=1.0).contains(&load));
        let arrival = Chance::new(load);
        // Empty the saturation backlog first.
        for q in self.queues.iter_mut().flatten() {
            q.clear();
        }
        self.depth = 0; // disable top-up
        let mut offered = 0u64;
        let mut delivered = 0u64;
        for _ in 0..slots {
            // Arrivals.
            for node in 0..self.n {
                if self.rng.chance(arrival) {
                    offered += 1;
                    let dst = loop {
                        let d = self.rng.below(self.n as u32) as usize;
                        if d != node {
                            break d;
                        }
                    };
                    let ch = self.mac.channel_for(dst);
                    self.queues[node][ch].push_back(dst);
                }
            }
            delivered += self.one_slot();
        }
        let backlog: usize = self.queues.iter().flatten().map(|q| q.len()).sum();
        LoadResult {
            offered,
            delivered,
            mean_backlog: backlog as f64 / self.n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_mapping() {
        let fifo = MacModel::new(MacMode::Fifo);
        assert_eq!(fifo.queue_count(), 1);
        assert_eq!(fifo.channel_for(5), 0);
        let lc = MacModel::new(MacMode::LogicalChannels { channels: 4 });
        assert_eq!(lc.queue_count(), 4);
        assert_eq!(lc.channel_for(5), 1);
        assert_eq!(lc.channel_for(8), 0);
    }

    #[test]
    fn fifo_saturates_near_58_percent() {
        // Hluchyj-Karol: HOL blocking limits an input-FIFO switch to
        // 2 - sqrt(2) ≈ 0.586 under uniform random traffic (large N).
        let mut sim = HolSim::new(16, MacMode::Fifo, 42);
        let r = sim.run(4000);
        assert!(
            (0.52..0.66).contains(&r.utilization),
            "FIFO utilization {} outside HOL band",
            r.utilization
        );
    }

    #[test]
    fn logical_channels_recover_utilization() {
        let mut sim = HolSim::new(16, MacMode::LogicalChannels { channels: 16 }, 42);
        let r = sim.run(4000);
        assert!(
            r.utilization > 0.9,
            "per-destination channels should nearly saturate, got {}",
            r.utilization
        );
    }

    #[test]
    fn more_channels_monotonically_help() {
        let mut prev = 0.0;
        for channels in [1usize, 2, 4, 16] {
            let mut sim = HolSim::new(16, MacMode::LogicalChannels { channels }, 7);
            let u = sim.run(2000).utilization;
            assert!(
                u + 0.03 >= prev,
                "{channels} channels gave {u}, below previous {prev}"
            );
            prev = u;
        }
    }

    #[test]
    fn one_logical_channel_equals_fifo() {
        let u_fifo = HolSim::new(8, MacMode::Fifo, 11).run(3000).utilization;
        let u_lc1 = HolSim::new(8, MacMode::LogicalChannels { channels: 1 }, 11)
            .run(3000)
            .utilization;
        assert!((u_fifo - u_lc1).abs() < 0.05, "{u_fifo} vs {u_lc1}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = HolSim::new(8, MacMode::Fifo, 99).run(500);
        let b = HolSim::new(8, MacMode::Fifo, 99).run(500);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.stalls, b.stalls);
    }

    #[test]
    fn fifo_stalls_more_than_logical_channels() {
        let fifo = HolSim::new(16, MacMode::Fifo, 42).run(2000);
        let lc = HolSim::new(16, MacMode::LogicalChannels { channels: 16 }, 42).run(2000);
        // Under saturation every input always has backlog, so
        // stalls + delivered == inputs × slots.
        assert_eq!(fifo.stalls + fifo.delivered, 16 * 2000);
        assert!(
            fifo.stalls > lc.stalls * 2,
            "HOL blocking should dominate FIFO stalls: {} vs {}",
            fifo.stalls,
            lc.stalls
        );
    }
}

#[cfg(test)]
mod load_tests {
    use super::*;

    #[test]
    fn fifo_stable_below_hol_limit_unstable_above() {
        // Load 0.45 < 0.586: bounded queues, everything delivered.
        let mut sim = HolSim::new(16, MacMode::Fifo, 5);
        let r = sim.run_with_load(20_000, 0.45);
        assert!(
            r.mean_backlog < 20.0,
            "stable load built a backlog of {}",
            r.mean_backlog
        );
        assert!(r.delivered as f64 >= r.offered as f64 * 0.98);

        // Load 0.75 > 0.586: FIFO queues grow without bound.
        let mut sim = HolSim::new(16, MacMode::Fifo, 5);
        let r = sim.run_with_load(20_000, 0.75);
        assert!(
            r.mean_backlog > 500.0,
            "overload should be unstable, backlog {}",
            r.mean_backlog
        );
    }

    #[test]
    fn logical_channels_stable_where_fifo_is_not() {
        // The same 0.75 load is fine with per-destination channels.
        let mut sim = HolSim::new(16, MacMode::LogicalChannels { channels: 16 }, 5);
        let r = sim.run_with_load(20_000, 0.75);
        assert!(
            r.mean_backlog < 20.0,
            "logical channels should absorb 0.75 load, backlog {}",
            r.mean_backlog
        );
        assert!(r.delivered as f64 >= r.offered as f64 * 0.98);
    }

    #[test]
    fn load_result_accounting() {
        let mut sim = HolSim::new(8, MacMode::Fifo, 9);
        let r = sim.run_with_load(1000, 0.2);
        assert!(r.offered > 0);
        assert!(r.delivered <= r.offered);
    }
}
