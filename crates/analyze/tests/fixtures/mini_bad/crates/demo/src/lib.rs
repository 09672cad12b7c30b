//! One violation per rule, for the binary exit-code test.

use std::collections::HashMap;

pub fn lookup(m: &HashMap<u32, u32>, key: u32) -> Option<u32> {
    m.get(&key).copied()
}

pub mod hot;
