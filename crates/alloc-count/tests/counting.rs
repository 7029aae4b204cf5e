//! The counting allocator installed as a test binary's global
//! allocator: what it counts as an allocation, and on which thread.

use std::hint::black_box;
use udc_alloc_count::{allocations, allocs_during, live_bytes, CountingAlloc};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn a_box_is_one_allocation_whose_bytes_are_freed_with_it() {
    let before = live_bytes();
    let b = black_box(Box::new([0u64; 8]));
    assert_eq!(live_bytes() - before, 64);
    drop(b);
    assert_eq!(live_bytes(), before);
    assert_eq!(allocs_during(|| drop(black_box(Box::new(1u8)))), 1);
}

#[test]
fn each_reallocation_counts_and_live_bytes_follow_the_new_size() {
    let mut v: Vec<u64> = black_box(Vec::with_capacity(1));
    let (before, bytes) = (allocations(), live_bytes());
    v.reserve_exact(3);
    assert_eq!(
        allocations() - before,
        1,
        "growing in place or not, one realloc"
    );
    assert_eq!(live_bytes() - bytes, 16, "room for 1 u64 became room for 3");
    drop(v);
}

#[test]
fn counts_belong_to_the_thread_that_allocates_or_frees() {
    let v: Vec<u8> = black_box(vec![0; 4096]);
    let held = live_bytes();
    let freed_elsewhere = std::thread::spawn(move || {
        let before = live_bytes();
        drop(v);
        live_bytes() - before
    })
    .join()
    .unwrap();
    assert_eq!(freed_elsewhere, -4096, "the freeing thread goes negative");
    assert!(
        live_bytes() >= held,
        "this thread still counts the vec as live"
    );
}
