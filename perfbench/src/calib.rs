//! Machine-speed calibration for the host clock.
//!
//! On a shared virtual machine the same work can take 1.5–2× longer for
//! a minute or more at a time, while other tenants load the host. So the
//! benchmark runs a fixed calibration kernel around every lap it times:
//! a mix of the operations the simulator spends its time on
//! (ordered-map inserts and lookups, hashing into growing vectors,
//! random reads over a buffer larger than a core's private cache,
//! sorting). The median kernel time over a run, divided by
//! [`NOMINAL_S`], is how much slower than uncontended the machine ran,
//! and host times are divided by it.
//!
//! The kernel is the benchmark's own code and never calls into the
//! program, so a change to the program moves its scaled time exactly as
//! it moves its wall time on a machine of steady speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Wall seconds one kernel run takes, as a median over a run, on the
/// two-vCPU Xeon (Sapphire Rapids, 2 GHz) the bounds were set on when
/// other tenants slow it least.
pub const NOMINAL_S: f64 = 0.000_8;

/// Words in the random-read buffer: 8 MiB, twice a core's L2.
const BUFFER_WORDS: usize = 1 << 20;

fn buffer() -> &'static [u64] {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    BUFFER.get_or_init(|| {
        (0..BUFFER_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect()
    })
}

fn step(h: u64) -> u64 {
    h.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Allocate the kernel's buffer, so that no clock ever times it.
pub fn prepare() {
    buffer();
}

/// Seconds one run of the calibration kernel takes now.
pub fn sample() -> f64 {
    let buf = buffer();
    let t = Instant::now();
    let mut h = 11u64;
    let mut acc = 0u64;

    let mut ordered = BTreeMap::new();
    for i in 0..1_500u64 {
        h = step(h);
        ordered.insert(h >> 44, i);
    }
    for _ in 0..1_500 {
        h = step(h);
        acc = acc.wrapping_add(ordered.get(&(h >> 44)).copied().unwrap_or(1));
    }
    black_box(ordered);

    let mut hashed: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..1_000u32 {
        h = step(h);
        hashed.entry(h >> 54).or_default().push(i);
    }
    acc = acc.wrapping_add(hashed.values().map(|v| v.len() as u64).sum::<u64>());
    black_box(hashed);

    for _ in 0..20_000 {
        h = step(h);
        acc = acc.wrapping_add(buf[(h >> 20) as usize % buf.len()]);
    }

    let mut sorted: Vec<u64> = (0..4_000)
        .map(|_| {
            h = step(h);
            h
        })
        .collect();
    sorted.sort_unstable();
    acc = acc.wrapping_add(sorted.first().copied().unwrap_or(0));

    black_box(acc);
    t.elapsed().as_secs_f64()
}
