//! Host-speed probe: a fixed workload of the benchmark's own, timed
//! after every repetition of a run.
//!
//! The host's cores are shared with other machines' work, and for
//! stretches of minutes identical simulator work runs up to twice as
//! slowly. The probe slows with it, though less: on the reference host,
//! the logarithm of the simulator's median repetition time moved 1.2 to
//! 2.1 times as far as that of the probe's median (over 20-second windows
//! of recordings 7 and 20 minutes long, with correlations of 0.95 to
//! 0.97, and over whole 40-second runs). The timed metrics are therefore
//! reported at a reference host speed: each is multiplied by the probe's
//! time on the reference host over the run's median probe, raised to
//! [`EXPONENT`] ([`scale`]). Runs made in slow and in
//! quiet stretches then read alike, while a change to the simulator,
//! which the probe never calls, moves them in full. README.md has the
//! measurements.
//!
//! The probe is two loops. One is a discrete-event loop over a
//! binary-heap queue whose state stays in the first-level cache; the
//! other makes indirect calls into 512 distinct small functions, a code
//! footprint past the first-level instruction cache, as the simulator's
//! dispatch has.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Events of the event loop.
const EVENTS: u32 = 300_000;
/// Entities of the event loop (4 KiB of state).
const ENTITIES: usize = 512;
/// Calls of the dispatch loop.
const CALLS: u32 = 1_000_000;
/// The probe's median time on the reference host, on one thread and on
/// two: a 2-vCPU Intel Xeon virtual machine (family 6 model 143,
/// 2.0 GHz), in the quietest stretch seen. Times are reported as if the
/// run's median probe had taken this long.
const REFERENCE_S: [f64; 2] = [0.045, 0.049];
/// How much farther the simulator's time moves than the probe's, in
/// logarithms; the middle of the measured 1.2 to 2.1.
const EXPONENT: f64 = 1.5;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Pops the earliest event, updates its entity by one of four branches,
/// and schedules the entity again.
fn event_loop() -> u64 {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut state = vec![0u64; ENTITIES];
    let mut queue = BinaryHeap::with_capacity(ENTITIES);
    for id in 0..ENTITIES as u32 {
        queue.push(Reverse((rng.next() % 1000, id)));
    }
    for _ in 0..EVENTS {
        let Reverse((now, id)) = queue.pop().expect("one event per entity");
        let r = rng.next();
        let s = &mut state[id as usize];
        match r % 4 {
            0 => *s = s.wrapping_add(now),
            1 => *s ^= r,
            2 => *s = s.rotate_left(7).wrapping_mul(31),
            _ => *s = s.wrapping_sub(r >> 3),
        }
        queue.push(Reverse((now + 1 + (r >> 8) % 1000, id)));
    }
    state.iter().fold(0, |a, &s| a ^ s)
}

/// One of 512 distinct functions (one per `K`): a few branches on `K`
/// over eight words of state.
#[inline(never)]
fn step<const K: u64>(s: &mut [u64; 8], r: u64) -> u64 {
    let a = s[(K % 8) as usize].wrapping_mul(K | 1) ^ r;
    if a & (K + 1) == 0 {
        s[((K + 3) % 8) as usize] = a.rotate_left((K % 63) as u32);
    } else if a % (K + 7) < 3 {
        s[((K + 5) % 8) as usize] ^= a >> (K % 17);
    } else {
        s[((K + 1) % 8) as usize] = s[((K + 1) % 8) as usize].wrapping_add(a ^ K);
    }
    s[0] ^ K
}

type Step = fn(&mut [u64; 8], u64) -> u64;

macro_rules! steps8 {
    ($b:expr) => {
        [
            step::<{ $b }>,
            step::<{ $b + 1 }>,
            step::<{ $b + 2 }>,
            step::<{ $b + 3 }>,
            step::<{ $b + 4 }>,
            step::<{ $b + 5 }>,
            step::<{ $b + 6 }>,
            step::<{ $b + 7 }>,
        ]
    };
}

macro_rules! steps64 {
    ($b:expr) => {
        [
            steps8!($b),
            steps8!($b + 8),
            steps8!($b + 16),
            steps8!($b + 24),
            steps8!($b + 32),
            steps8!($b + 40),
            steps8!($b + 48),
            steps8!($b + 56),
        ]
    };
}

static STEPS: [[[Step; 8]; 8]; 8] = [
    steps64!(0),
    steps64!(64),
    steps64!(128),
    steps64!(192),
    steps64!(256),
    steps64!(320),
    steps64!(384),
    steps64!(448),
];

/// Calls a pseudo-randomly chosen function of [`STEPS`] on one of 4096
/// states, [`CALLS`] times.
fn dispatch_loop() -> u64 {
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    let mut states = vec![[0u64; 8]; 4096];
    let mut acc = 0;
    for _ in 0..CALLS {
        let r = rng.next();
        let f = STEPS[(r & 7) as usize][((r >> 3) & 7) as usize][((r >> 6) & 7) as usize];
        acc ^= f(&mut states[(r >> 20) as usize % 4096], r);
    }
    acc
}

fn once() {
    black_box(event_loop());
    black_box(dispatch_loop());
}

/// The factor that brings a run's times to the reference host speed:
/// the reference probe time over the run's median probe, raised to
/// [`EXPONENT`].
pub fn scale(threads: usize, median_probe_s: f64) -> f64 {
    (REFERENCE_S[threads.clamp(1, REFERENCE_S.len()) - 1] / median_probe_s).powf(EXPONENT)
}

/// Runs one probe on each of `threads` threads at once and returns the
/// wall-clock seconds until the last finished. A workload that runs on
/// two pool threads is probed on two.
pub fn probe(threads: usize) -> f64 {
    let t = Instant::now();
    thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(once);
        }
        once();
    });
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_are_deterministic() {
        assert_eq!(event_loop(), event_loop());
        assert_eq!(dispatch_loop(), dispatch_loop());
    }
}
