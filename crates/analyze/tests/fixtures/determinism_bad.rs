//! determinism: NEGATIVE fixture — ambient nondeterminism plus FMA
//! contraction in a differential-tested path.

use std::arch::x86_64::_mm256_fmadd_ps;
use std::collections::HashMap;
use std::collections::HashSet;

pub fn order_sensitive(m: &HashMap<u32, f32>, s: &HashSet<u32>) -> f64 {
    let started = std::time::Instant::now();
    let sum: f64 = m.values().map(|&v| v as f64).sum();
    sum + s.len() as f64 + started.elapsed().as_secs_f64()
}

pub fn contracted(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}
