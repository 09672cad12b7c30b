//! Clean code: ordered containers and one allowlisted wall-clock read.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub fn lookup(m: &BTreeMap<u32, u32>, key: u32) -> Option<u32> {
    m.get(&key).copied()
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    (f(), start.elapsed())
}

pub mod hot;
