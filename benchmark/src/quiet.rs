//! Host time with the box's interference filtered out.
//!
//! The benchmark runs in a small VM on a shared host, and a single run
//! cannot be trusted there in two ways, each with its own remedy.
//!
//! **Bursts.** A busy neighbour slows the VM in bursts far shorter than a
//! millisecond, densely for minutes at a time. In such a spell the median of
//! 12 s of 17 ms passes rose by 55 % and their fast decile by 28 %, because
//! no pass escaped the bursts; timed in chunks of 0.3 ms, the fast deciles of
//! the chunks still summed to 18 % more; but the *fastest* time of a 30 µs
//! piece of fixed work stayed within 0.3 %. So a pass is timed in chunks of
//! about 40 µs ([`ChunkClock`]). The simulator is deterministic: chunk `k` of
//! every pass on the same input is the same work, and interference only ever
//! adds time. [`QuietTime`] keeps the fastest time of every chunk over the
//! run's passes; their sum is the pass as the program runs it when nothing
//! else touches the box. In the spell above it moved by 3–6 %.
//!
//! **Shifts.** With the neighbours idle for some minutes everything runs
//! 6–17 % faster, every chunk of every pass; no statistic of one run can see
//! that. A [`Yardstick`] — a fixed piece of work that belongs to the
//! benchmark, not to the simulator — is timed between the passes, and the
//! gated host times are given in *reference milliseconds*: the measured time
//! divided by how much slower than [`REFERENCE_NS`] the yardstick's fastest
//! slice of the same run was. Over 25 consecutive runs in which the filtered
//! wall time of `small_writes` ranged over 23 % of its median, the reference
//! time ranged over 4 %.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Cuts the host time of one pass into consecutive chunks.
pub struct ChunkClock {
    last: Instant,
    /// Host ns of each chunk so far (a chunk is far shorter than 4 s).
    ns: Vec<u32>,
}

impl ChunkClock {
    pub fn start() -> ChunkClock {
        ChunkClock {
            // One allocation per pass, whatever the number of chunks.
            ns: Vec::with_capacity(4096),
            last: Instant::now(),
        }
    }

    /// End the current chunk here and start the next.
    pub fn cut(&mut self) {
        let now = Instant::now();
        self.ns.push((now - self.last).as_nanos() as u32);
        self.last = now;
    }

    /// End the last chunk; the chunks add up to the time since `start`.
    pub fn finish(mut self) -> Vec<u32> {
        self.cut();
        self.ns
    }
}

/// The fastest time of every chunk over many passes, per input slot.
#[derive(Default)]
pub struct QuietTime {
    fastest: BTreeMap<u64, Vec<u32>>,
}

impl QuietTime {
    /// Take in the chunk times of one more pass on input `slot`.
    pub fn add(&mut self, slot: u64, chunks: &[u32]) {
        let Some(fastest) = self.fastest.get_mut(&slot) else {
            self.fastest.insert(slot, chunks.to_vec());
            return;
        };
        assert_eq!(
            fastest.len(),
            chunks.len(),
            "passes on slot {slot} differ in their number of chunks"
        );
        for (f, &c) in fastest.iter_mut().zip(chunks) {
            *f = (*f).min(c);
        }
    }

    /// Host ns of one pass: each slot's fastest chunk times summed, and the
    /// mean of that over the slots, so that every input counts alike.
    pub fn ns(&self) -> f64 {
        assert!(!self.fastest.is_empty(), "quiet time of no passes");
        let sums = self
            .fastest
            .values()
            .map(|f| f.iter().map(|&c| f64::from(c)).sum::<f64>());
        sums.sum::<f64>() / self.fastest.len() as f64
    }
}

/// What the fastest [`Yardstick::slice`] of a run takes on the box this was
/// written on (a 2.1 GHz Xeon guest) at its usual speed; reference
/// milliseconds equal wall milliseconds there.
pub const REFERENCE_NS: f64 = 160_000.0;

const TABLE_WORDS: usize = 128 * 1024;
const BLOCK: usize = 32 * 1024;

/// Fixed work that mixes what the simulator's own code does — dependent
/// loads and stores over a 512 KB table, 32 KB block copies, a 16-bit sum
/// over a block — so that a shift which slows the one slows the other about
/// as much. It stays in the second-level cache: a workload that lives in main
/// memory (`many_flows`, 29 MB) gains and loses more with the neighbours'
/// memory traffic than the yardstick does, and keeps about two thirds of its
/// drift. No change to the simulator can move the yardstick.
pub struct Yardstick {
    table: Vec<u32>,
    src: Vec<u8>,
    dst: Vec<u8>,
    x: u32,
    /// The fastest slice so far, in ns.
    fastest: f64,
    pub slices: u64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            table: (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            src: (0..BLOCK).map(|i| (i * 7) as u8).collect(),
            dst: vec![0; BLOCK],
            x: 1,
            fastest: f64::INFINITY,
            slices: 0,
        }
    }
}

impl Yardstick {
    /// Do one slice of the work; returns its host ns.
    fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.x;
        let mut idx = x as usize % TABLE_WORDS;
        for _ in 0..12_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            idx = (idx + (self.table[idx] as usize ^ (x as usize >> 7))) % TABLE_WORDS;
            self.table[idx] = self.table[idx].wrapping_add(x);
        }
        for _ in 0..24 {
            self.src[0] = x as u8;
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
        for _ in 0..6 {
            let sum = black_box(&self.dst)
                .chunks_exact(2)
                .map(|p| u32::from(u16::from_be_bytes([p[0], p[1]])))
                .fold(x, u32::wrapping_add);
            x ^= sum;
        }
        self.x = black_box(x);
        t0.elapsed().as_nanos() as f64
    }

    /// Time slices for about `share` of `pass_ns`, after one untimed slice
    /// that brings the table back into the cache the pass emptied.
    pub fn measure(&mut self, pass_ns: u64, share: f64) {
        self.slice();
        let mut spent = 0.0;
        while spent < share * pass_ns as f64 {
            let ns = self.slice();
            self.fastest = self.fastest.min(ns);
            self.slices += 1;
            spent += ns;
        }
    }

    /// By how much to multiply a host time of this run to get reference
    /// time: [`REFERENCE_NS`] over the fastest slice measured.
    pub fn to_reference(&self) -> f64 {
        assert!(self.slices > 0, "no yardstick slice was measured");
        REFERENCE_NS / self.fastest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_in_a_different_chunk_of_every_pass_is_filtered_out() {
        // Three chunks of 100 ns; every pass has one chunk hit by 1000 ns.
        let mut quiet = QuietTime::default();
        for i in 0..30 {
            let pass: Vec<u32> = (0..3)
                .map(|k| if k == i % 3 { 1100 } else { 100 })
                .collect();
            quiet.add(0, &pass);
        }
        assert_eq!(quiet.ns(), 300.0);
    }

    #[test]
    fn slots_are_averaged_not_mixed() {
        let mut quiet = QuietTime::default();
        for _ in 0..2 {
            quiet.add(0, &[100, 100]);
            quiet.add(1, &[300, 500]);
        }
        assert_eq!(quiet.ns(), (200.0 + 800.0) / 2.0);
    }

    #[test]
    #[should_panic(expected = "differ in their number of chunks")]
    fn passes_on_one_slot_must_have_the_same_chunks() {
        let mut quiet = QuietTime::default();
        quiet.add(0, &[1, 2]);
        quiet.add(0, &[1, 2, 3]);
    }

    #[test]
    fn the_yardstick_gives_a_factor_near_the_box_speed() {
        let mut yard = Yardstick::default();
        yard.measure(2_000_000, 0.5);
        assert!(yard.slices >= 1);
        let f = yard.to_reference();
        assert!(f > 0.01 && f < 100.0, "factor {f}");
    }

    #[test]
    fn the_chunks_of_a_clock_add_up() {
        let t0 = Instant::now();
        let mut clock = ChunkClock::start();
        clock.cut();
        clock.cut();
        let chunks = clock.finish();
        let wall = t0.elapsed().as_nanos() as u64;
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().map(|&c| u64::from(c)).sum::<u64>() <= wall);
    }
}
