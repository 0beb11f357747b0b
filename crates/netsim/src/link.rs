//! Point-to-point links.
//!
//! A [`Link`] optionally serializes frames at a configured bandwidth (the
//! Ethernet case — the device driver dumps a frame and the wire paces it)
//! or passes them through with latency only (the HIPPI case — the CAB's
//! MDMA engine is the pacer, so re-serializing here would double-count).

use crate::fault::{Fate, FaultInjector};
use bytes::Bytes;
use outboard_sim::obs::Scope;
use outboard_sim::{BufPool, Dur, Rate, Time};

/// A scheduled arrival at the far end of a link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival time at the far end.
    pub at: Time,
    /// The delivered frame.
    pub payload: Bytes,
}

/// The outcome of offering one frame to a link: zero, one, or (duplication)
/// two deliveries — a fixed-size enum instead of a per-frame `Vec`, so the
/// fabric hot path never allocates just to say "delivered once".
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Deliveries {
    /// Dropped (down link or fault).
    #[default]
    None,
    /// Delivered once.
    One(Delivery),
    /// Delivered twice (duplication fault); the second arrives later.
    Two(Delivery, Delivery),
}

impl Deliveries {
    /// True when the frame was not delivered at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, Deliveries::None)
    }

    /// Number of deliveries (0, 1, or 2).
    pub fn len(&self) -> usize {
        match self {
            Deliveries::None => 0,
            Deliveries::One(_) => 1,
            Deliveries::Two(..) => 2,
        }
    }

    /// Iterate over the deliveries without consuming them.
    pub fn iter(
        &self,
    ) -> std::iter::Chain<std::option::IntoIter<&Delivery>, std::option::IntoIter<&Delivery>> {
        let (a, b) = match self {
            Deliveries::None => (None, None),
            Deliveries::One(d) => (Some(d), None),
            Deliveries::Two(d, e) => (Some(d), Some(e)),
        };
        a.into_iter().chain(b)
    }
}

#[cfg(test)]
impl std::ops::Index<usize> for Deliveries {
    type Output = Delivery;
    fn index(&self, i: usize) -> &Delivery {
        match (self, i) {
            (Deliveries::One(d), 0) | (Deliveries::Two(d, _), 0) | (Deliveries::Two(_, d), 1) => d,
            _ => panic!("delivery index {i} out of bounds (len {})", self.len()),
        }
    }
}

impl IntoIterator for Deliveries {
    type Item = Delivery;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<Delivery>, std::option::IntoIter<Delivery>>;
    fn into_iter(self) -> Self::IntoIter {
        let (a, b) = match self {
            Deliveries::None => (None, None),
            Deliveries::One(d) => (Some(d), None),
            Deliveries::Two(d, e) => (Some(d), Some(e)),
        };
        a.into_iter().chain(b)
    }
}

impl<'a> IntoIterator for &'a Deliveries {
    type Item = &'a Delivery;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<&'a Delivery>, std::option::IntoIter<&'a Delivery>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One direction of a point-to-point link.
#[derive(Debug)]
pub struct Link {
    /// Serialization bandwidth, compiled; `None` for pre-paced media.
    pub rate: Option<Rate>,
    /// Propagation latency.
    pub latency: Dur,
    busy_until: Time,
    /// Administrative state: a down link drops every frame on the floor
    /// (chaos outage windows and full partitions).
    pub up: bool,
    /// Additional propagation latency while a chaos delay spike is active.
    pub extra_latency: Dur,
    /// Frames offered while the link was down.
    pub down_drops: u64,
    /// Fault injection applied to every frame.
    pub faults: FaultInjector,
    /// Frames offered to this link.
    pub frames_in: u64,
    /// Payload bytes offered to this link (before faults).
    pub bytes_in: u64,
    /// Frames that reached the far end (incl. duplicates).
    pub frames_delivered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

impl Link {
    /// A HIPPI-style link: pure latency, sender paces.
    pub fn hippi(latency: Dur, seed: u64) -> Link {
        Link {
            rate: None,
            latency,
            busy_until: Time::ZERO,
            up: true,
            extra_latency: Dur::ZERO,
            down_drops: 0,
            faults: FaultInjector::none(seed),
            frames_in: 0,
            bytes_in: 0,
            frames_delivered: 0,
            bytes_delivered: 0,
        }
    }

    /// A serializing link (e.g. 10 Mbit/s Ethernet).
    pub fn serializing(bandwidth_bps: f64, latency: Dur, seed: u64) -> Link {
        Link {
            rate: Some(Rate::from_bps(bandwidth_bps)),
            latency,
            busy_until: Time::ZERO,
            up: true,
            extra_latency: Dur::ZERO,
            down_drops: 0,
            faults: FaultInjector::none(seed),
            frames_in: 0,
            bytes_in: 0,
            frames_delivered: 0,
            bytes_delivered: 0,
        }
    }

    /// Share a buffer pool with this link's fault injector (corruption
    /// copies recycle frame storage instead of allocating).
    pub fn set_pool(&mut self, pool: BufPool) {
        self.faults.set_pool(pool);
    }

    /// Offer a frame at `now`; returns zero, one, or (duplication) two
    /// deliveries for the far end.
    pub fn transmit(&mut self, payload: Bytes, now: Time) -> Deliveries {
        self.frames_in += 1;
        self.bytes_in += payload.len() as u64;
        if !self.up {
            // A down link never presents the frame to the fault injector, so
            // the probabilistic fault stream is unaffected by outage windows.
            self.down_drops += 1;
            return Deliveries::None;
        }
        let fate = self.faults.fate(payload);
        let Fate::Deliver {
            payload,
            extra_delay,
            duplicate,
        } = fate
        else {
            return Deliveries::None;
        };
        let serialized_at = match &self.rate {
            Some(rate) => {
                let start = now.max(self.busy_until);
                let done = start + rate.time_for(payload.len() as u64);
                self.busy_until = done;
                done
            }
            None => now,
        };
        let at = serialized_at + self.latency + self.extra_latency + extra_delay;
        self.frames_delivered += 1;
        self.bytes_delivered += payload.len() as u64;
        if duplicate {
            self.frames_delivered += 1;
            Deliveries::Two(
                Delivery {
                    at,
                    payload: payload.clone(),
                },
                Delivery {
                    at: at + Dur::micros(1),
                    payload,
                },
            )
        } else {
            Deliveries::One(Delivery { at, payload })
        }
    }

    /// Publish link traffic and fault-injection counters into a registry
    /// scope.
    pub fn publish_metrics(&self, s: &mut Scope<'_>) {
        s.counter("frames_in", self.frames_in);
        s.counter("bytes_in", self.bytes_in);
        s.counter("frames_delivered", self.frames_delivered);
        s.counter("bytes_delivered", self.bytes_delivered);
        s.counter("down_drops", self.down_drops);
        let f = &self.faults.stats;
        s.counter("faults.offered", f.offered);
        s.counter("faults.dropped", f.dropped);
        s.counter("faults.corrupted", f.corrupted);
        s.counter("faults.reordered", f.reordered);
        s.counter("faults.duplicated", f.duplicated);
        s.counter("faults.stealth_corrupted", f.stealth_corrupted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_sim::Chance;

    #[test]
    fn latency_only_link() {
        let mut l = Link::hippi(Dur::micros(10), 1);
        let d = l.transmit(Bytes::from_static(b"abc"), Time(1_000));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, Time(1_000) + Dur::micros(10));
    }

    #[test]
    fn serializing_link_paces_back_to_back_frames() {
        // 10 Mbit/s: 1250 bytes = 1 ms on the wire.
        let mut l = Link::serializing(10e6, Dur::ZERO, 1);
        let d1 = l.transmit(Bytes::from(vec![0u8; 1250]), Time::ZERO);
        let d2 = l.transmit(Bytes::from(vec![0u8; 1250]), Time::ZERO);
        assert_eq!(d1[0].at, Time::ZERO + Dur::millis(1));
        assert_eq!(d2[0].at, Time::ZERO + Dur::millis(2));
    }

    #[test]
    fn dropped_frames_produce_no_delivery() {
        let mut l = Link::hippi(Dur::ZERO, 1);
        l.faults.drop_p = Chance::new(1.0);
        assert!(l.transmit(Bytes::from_static(b"x"), Time::ZERO).is_empty());
        assert_eq!(l.frames_in, 1);
        assert_eq!(l.frames_delivered, 0);
    }

    #[test]
    fn corruption_copy_comes_from_the_links_pool_and_returns_to_it() {
        let pool = BufPool::new();
        let mut l = Link::hippi(Dur::ZERO, 4);
        l.set_pool(pool.clone());
        l.faults.corrupt_p = Chance::new(1.0);
        let frame = Bytes::from(vec![0x5a; 2048]);
        let d = l.transmit(frame.clone(), Time::ZERO);
        assert_ne!(
            d[0].payload, frame,
            "the delivered frame is a corrupted copy"
        );
        assert_eq!((pool.stats().acquires, pool.stats().releases), (1, 0));
        drop(d);
        assert_eq!(pool.stats().releases, 1);
        assert!(pool.balanced());
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut l = Link::hippi(Dur::ZERO, 2);
        l.faults.dup_p = Chance::new(1.0);
        let d = l.transmit(Bytes::from_static(b"x"), Time::ZERO);
        assert_eq!(d.len(), 2);
        assert!(d[1].at > d[0].at);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = Link::serializing(10e6, Dur::ZERO, 3);
        l.transmit(Bytes::from(vec![0u8; 100]), Time::ZERO);
        l.transmit(Bytes::from(vec![0u8; 200]), Time::ZERO);
        assert_eq!(l.frames_delivered, 2);
        assert_eq!(l.bytes_delivered, 300);
        assert_eq!(l.bytes_in, 300);
    }

    #[test]
    fn down_link_drops_without_touching_fault_stream() {
        let mut l = Link::hippi(Dur::ZERO, 7);
        l.up = false;
        assert!(l.transmit(Bytes::from_static(b"x"), Time::ZERO).is_empty());
        assert_eq!(l.down_drops, 1);
        assert_eq!(l.frames_in, 1);
        assert_eq!(l.faults.stats.offered, 0, "injector never sees the frame");
        l.up = true;
        assert_eq!(l.transmit(Bytes::from_static(b"y"), Time::ZERO).len(), 1);
        assert_eq!(l.faults.stats.offered, 1);
    }

    #[test]
    fn extra_latency_delays_deliveries() {
        let mut l = Link::hippi(Dur::micros(10), 8);
        l.extra_latency = Dur::micros(500);
        let d = l.transmit(Bytes::from_static(b"x"), Time(1_000));
        assert_eq!(d[0].at, Time(1_000) + Dur::micros(510));
        l.extra_latency = Dur::ZERO;
        let d = l.transmit(Bytes::from_static(b"x"), Time(2_000));
        assert_eq!(d[0].at, Time(2_000) + Dur::micros(10));
    }

    #[test]
    fn bytes_in_counts_dropped_frames_too() {
        let mut l = Link::hippi(Dur::ZERO, 1);
        l.faults.drop_p = Chance::new(1.0);
        l.transmit(Bytes::from(vec![0u8; 64]), Time::ZERO);
        l.faults.drop_p = Chance::NEVER;
        l.transmit(Bytes::from(vec![0u8; 36]), Time::ZERO);
        assert_eq!(l.bytes_in, 100);
        assert_eq!(l.bytes_delivered, 36);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 4096, ..Default::default() })]

        /// The compiled serialization rate against the f64 model, at the
        /// 10 Mbit/s Ethernet the worlds build and at 100 Mbit/s.
        #[test]
        fn ethernet_rate_matches_the_f64_model(bytes in 0u64..=1 << 20, fast in proptest::prelude::any::<bool>()) {
            let bps = if fast { 100e6 } else { 10e6 };
            let link = Link::serializing(bps, Dur::ZERO, 1);
            let rate = link.rate.expect("serializing link");
            proptest::prop_assert_eq!(rate.time_for(bytes), Dur::for_bytes_at_bps(bytes, bps));
        }
    }
}
