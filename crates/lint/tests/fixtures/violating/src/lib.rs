//! Seeded-violation fixture: each construct below must trip exactly the
//! rule named next to it. Never compiled — the tree is excluded from the
//! workspace and only walked by the lint's own tests.

pub mod a;
pub mod b;
pub mod c;
pub mod flows;

use std::collections::HashMap; // no-hash-collections
use std::collections::HashSet as FastSet; // no-hash-collections (decl)
use std::time::Instant; // no-wall-clock

type Lookup = HashMap<u32, u32>; // no-hash-collections (HashMap ident)

pub fn aliased() {
    let mut s = FastSet::new(); // no-hash-collections (alias use)
    s.insert(1u32);
    let mut l = Lookup::new(); // no-hash-collections (alias use)
    l.insert(1, 2);
}

// TODO without a tag trips todo-tag on this fixture line.
pub fn naughty() {
    let mut m: HashMap<u32, u32> = HashMap::new(); // no-hash-collections (twice)
    m.insert(1, 2);
    let t = Instant::now(); // no-wall-clock
    std::thread::sleep(std::time::Duration::from_millis(1)); // no-wall-clock
    let home = std::env::var("HOME"); // no-env-read
    println!("{:?} {:?} {:?}", m, t, home); // no-debug-print
}

pub fn external() -> &'static str {
    include_str!("../../../outside/secret.txt") // no-external-include
}

pub fn order(flag: &std::sync::atomic::AtomicBool) {
    flag.store(true, std::sync::atomic::Ordering::SeqCst); // ordering-seqcst
}

/// # Safety
/// Fixture only; the missing SAFETY comment is the point.
pub unsafe fn danger() {} // safety-comment

#[cfg(test)]
mod tests {
    // Masked: scaffolding rules skip cfg(test) modules, so this clock
    // read must NOT fire.
    pub fn clock() -> std::time::Instant {
        std::time::Instant::now()
    }
}

/* Block-comment suppression scope: the annotation covers only the
   next code line, however many lines this comment spans, so the
   HashSet two code lines below must still fire.
   lint:allow(no-hash-collections, seeded block-comment suppression) */
pub type Covered = std::collections::HashSet<u8>; // suppressed (the fixture's one allow)
pub fn between() {}
pub type Uncovered = std::collections::HashSet<u16>; // no-hash-collections
