//! Point-to-point links.
//!
//! A [`Link`] optionally serializes frames at a configured bandwidth (the
//! Ethernet case — the device driver dumps a frame and the wire paces it)
//! or passes them through with latency only (the HIPPI case — the CAB's
//! MDMA engine is the pacer, so re-serializing here would double-count).

use bytes::Bytes;
use outboard_sim::fault::{CountKey, Injector, Point};
use outboard_sim::obs::Scope;
use outboard_sim::{BufPool, Dur, PooledBuf, Rate, Time};

/// A link's fault counters under their registry names (also summed over
/// every link as `world.faults.*`).
pub const FAULT_KEYS: [CountKey; 6] = [
    ("faults.offered", |c| c.crossed(Point::Frame)),
    ("faults.dropped", |c| c.fired(Some(Point::Frame), "drop")),
    ("faults.corrupted", |c| {
        c.fired(Some(Point::Frame), "corrupt")
    }),
    ("faults.reordered", |c| c.fired(Some(Point::Frame), "delay")),
    ("faults.duplicated", |c| {
        c.fired(Some(Point::Frame), "duplicate")
    }),
    ("faults.stealth_corrupted", |c| {
        c.fired(Some(Point::Frame), "stealth_corrupt")
    }),
];

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
    /// The faults this link injects: it crosses [`Point::Frame`] once per
    /// frame offered while up.
    pub faults: Injector,
    /// Buffer pool for corruption copies (the only fates that rewrite a
    /// frame): the link's own until a world shares its pool.
    pool: BufPool,
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
            faults: Injector::new(seed),
            pool: BufPool::new(),
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
            faults: Injector::new(seed),
            pool: BufPool::new(),
            frames_in: 0,
            bytes_in: 0,
            frames_delivered: 0,
            bytes_delivered: 0,
        }
    }

    /// Share a buffer pool for corruption copies (they recycle frame
    /// storage instead of allocating).
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    /// Copy `payload` into pooled storage and freeze the edited bytes back
    /// into a frame.
    fn edited_copy(&self, payload: &Bytes, edit: impl FnOnce(&mut [u8])) -> Bytes {
        let mut buf = PooledBuf::with_capacity(&self.pool, payload.len());
        buf.extend_from_slice(payload);
        edit(&mut buf);
        buf.freeze()
    }

    /// Corrupt `payload` without changing its Internet checksum.
    ///
    /// The checksum is a ones'-complement sum of big-endian 16-bit words, so
    /// flipping the same bit index in two bytes that sit at the same parity
    /// (both high-lane or both low-lane, i.e. an even offset apart) — one
    /// byte with the bit set, the other with it clear — shifts one word by
    /// `+d` and the other by `-d`, leaving the sum exactly unchanged. The
    /// search is restricted to the frame tail (past the link/IP/TCP headers)
    /// so the flips land in application payload, not in header fields whose
    /// semantics TCP would notice. If the payload has no such pair (e.g. a
    /// constant fill), it is delivered untouched and not counted.
    fn stealth_corrupt(&mut self, payload: Bytes) -> Bytes {
        const HEADER_SKIP: usize = 128;
        if payload.len() < HEADER_SKIP + 4 {
            return payload;
        }
        let region = &payload[HEADER_SKIP..];
        for bit in 0..8u8 {
            for parity in 0..2usize {
                let lane = region.iter().enumerate().skip(parity).step_by(2);
                let set = lane.clone().find(|(_, &b)| b & (1 << bit) != 0);
                let clear = lane.clone().find(|(_, &b)| b & (1 << bit) == 0);
                if let (Some((set, _)), Some((clear, _))) = (set, clear) {
                    self.faults.count_stealth(Point::Frame);
                    return self.edited_copy(&payload, |buf| {
                        buf[HEADER_SKIP + set] ^= 1 << bit;
                        buf[HEADER_SKIP + clear] ^= 1 << bit;
                    });
                }
            }
        }
        payload
    }

    /// Offer a frame at `now`; returns zero, one, or (duplication) two
    /// deliveries for the far end.
    pub fn transmit(&mut self, payload: Bytes, now: Time) -> Deliveries {
        self.frames_in += 1;
        self.bytes_in += payload.len() as u64;
        if !self.up {
            // A down link never crosses its fault point, so the crossing
            // counts and chance draws are unaffected by outage windows.
            self.down_drops += 1;
            return Deliveries::None;
        }
        let fired = self.faults.cross(Point::Frame, payload.len());
        if fired.drop {
            return Deliveries::None;
        }
        let mut payload = payload;
        if fired.stealth {
            payload = self.stealth_corrupt(payload);
        }
        if let Some(bit) = fired.corrupt_bit {
            let bit = bit as usize;
            payload = self.edited_copy(&payload, |buf| buf[bit / 8] ^= 1 << (bit % 8));
        }
        let (extra_delay, duplicate) = (fired.delay, fired.duplicate);
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
        self.faults.counts().publish(s, &FAULT_KEYS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_sim::fault::{Action, Fault, Target};

    const FRAME: Target = Target::Point(0, Point::Frame);

    /// Fire `action` on every frame offered to `l`.
    fn always(l: &mut Link, action: Action) {
        l.faults
            .add(Fault::chance("p", 1.0, FRAME, action).unwrap());
    }

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
        always(&mut l, Action::Drop);
        assert!(l.transmit(Bytes::from_static(b"x"), Time::ZERO).is_empty());
        assert_eq!(l.frames_in, 1);
        assert_eq!(l.frames_delivered, 0);
    }

    #[test]
    fn corruption_copy_comes_from_the_links_pool_and_returns_to_it() {
        let pool = BufPool::new();
        let mut l = Link::hippi(Dur::ZERO, 4);
        l.set_pool(pool.clone());
        always(&mut l, Action::Corrupt(None));
        let frame = Bytes::from(vec![0x5a; 2048]);
        let d = l.transmit(frame.clone(), Time::ZERO);
        let flipped: u32 = d[0]
            .payload
            .iter()
            .zip(frame.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(
            flipped, 1,
            "the delivered frame is a copy with one bit flipped"
        );
        assert_eq!((pool.stats().acquires, pool.stats().releases), (1, 0));
        drop(d);
        assert_eq!(pool.stats().releases, 1);
        assert!(pool.balanced());
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut l = Link::hippi(Dur::ZERO, 2);
        always(&mut l, Action::Delay(Dur::micros(500)));
        always(&mut l, Action::Duplicate);
        let d = l.transmit(Bytes::from_static(b"x"), Time::ZERO);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].at, Time::ZERO + Dur::micros(500));
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
        let offered = |l: &Link| l.faults.counts().crossed(Point::Frame);
        assert_eq!(offered(&l), 0, "the fault point is never crossed");
        l.up = true;
        assert_eq!(l.transmit(Bytes::from_static(b"y"), Time::ZERO).len(), 1);
        assert_eq!(offered(&l), 1);
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
        l.faults
            .add(Fault::crossing(1, 0, Point::Frame, Action::Drop));
        l.transmit(Bytes::from(vec![0u8; 64]), Time::ZERO);
        l.transmit(Bytes::from(vec![0u8; 36]), Time::ZERO);
        assert_eq!(l.bytes_in, 100);
        assert_eq!(l.bytes_delivered, 36);
    }

    #[test]
    fn standalone_link_recycles_corruption_copies() {
        // Without a shared pool the link recycles through its own.
        let mut l = Link::hippi(Dur::ZERO, 3);
        always(&mut l, Action::Corrupt(None));
        for _ in 0..3 {
            drop(l.transmit(Bytes::from(vec![0u8; 1500]), Time::ZERO));
        }
        let s = l.pool.stats();
        assert_eq!((s.acquires, s.releases, s.misses), (3, 3, 1));
        assert!(l.pool.balanced());
    }

    /// The folded ones'-complement sum over the whole buffer — any checksum
    /// computed over any even-offset-aligned sub-range shifts by the same
    /// amount under the stealth flip, so preserving this global sum (plus
    /// both lane sums) proves the real TCP checksum is preserved.
    fn ones_sum(buf: &[u8]) -> u32 {
        let mut sum: u32 = buf
            .chunks(2)
            .map(|w| (u32::from(w[0]) << 8) | w.get(1).map_or(0, |&b| u32::from(b)))
            .sum();
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum
    }

    #[test]
    fn stealth_corruption_changes_bytes_but_not_checksum() {
        let mut l = Link::hippi(Dur::ZERO, 9);
        always(&mut l, Action::StealthCorrupt);
        // A varied payload like real application data.
        let data: Bytes = (0..1024u32)
            .map(|i| i.wrapping_mul(2654435761).to_le_bytes()[0])
            .collect::<Vec<u8>>()
            .into();
        let payload = l.transmit(data.clone(), Time::ZERO)[0].payload.clone();
        let diff = payload
            .iter()
            .zip(data.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 2, "exactly two bytes flipped");
        assert_eq!(ones_sum(&payload), ones_sum(&data), "checksum must survive");
        // Both lane sums individually, so any 16-bit alignment works.
        let lane = |buf: &[u8], p: usize| -> u64 {
            buf.iter().skip(p).step_by(2).map(|&b| b as u64).sum()
        };
        assert_eq!(lane(&payload, 0), lane(&data, 0));
        assert_eq!(lane(&payload, 1), lane(&data, 1));
        // The header region is untouched.
        assert_eq!(&payload[..128], &data[..128]);
        assert_eq!(
            l.faults
                .counts()
                .fired(Some(Point::Frame), "stealth_corrupt"),
            1
        );
    }

    #[test]
    fn stealth_corruption_leaves_uncorruptible_payloads_alone() {
        let mut l = Link::hippi(Dur::ZERO, 10);
        always(&mut l, Action::StealthCorrupt);
        // A constant fill has no set/clear pair; a short frame no payload.
        for data in [vec![0u8; 512], vec![0x5a; 64]] {
            let data = Bytes::from(data);
            assert_eq!(l.transmit(data.clone(), Time::ZERO)[0].payload, data);
        }
        assert_eq!(
            l.faults
                .counts()
                .fired(Some(Point::Frame), "stealth_corrupt"),
            0
        );
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
