//! Cloning a block costs one allocation, whatever its size: operands
//! live inline in each instruction, and instruction and block names are
//! shared. The compile stages clone blocks on every candidate and the
//! stage memo stores them, so a per-instruction allocation would show in
//! both time and memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bsched_workload::perfect_club;

/// Counts the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn cloning_the_largest_stand_in_block_allocates_only_its_instruction_vector() {
    let benches = perfect_club();
    let block = benches
        .iter()
        .flat_map(|b| b.function().blocks())
        .max_by_key(|b| b.len())
        .expect("the stand-ins have blocks");
    let named = block.insts().iter().filter(|i| i.name().is_some()).count();
    assert!(block.len() >= 50 && named > 0, "{} insts", block.len());

    let before = ALLOCATIONS.get();
    let copy = block.clone();
    let allocations = ALLOCATIONS.get() - before;
    assert_eq!(copy, *block);
    assert_eq!(allocations, 1, "one Vec for {} instructions", block.len());
}
