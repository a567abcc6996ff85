//! Allocation counts of the serving path, under a counting global
//! allocator: the screening-request codec (`DSRQ`), where encoding writes
//! every signature straight into one frame sized up front and decoding
//! allocates one entry list per signature, which `Signature::new` merges in
//! place; the screening-response codec (`DSRS`), whose score list reserves
//! its exact size before its first score; and the routed in-process hop,
//! where a screen or a retest request
//! reaches its backend borrowed, without a copy per signature, and is scored
//! with no allocation per signature or per device.
//!
//! The allocator replaces the global one for this whole binary. Counts are
//! kept per thread, and each test counts only on its own thread, so the
//! tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use analog_signature::dsig::{AcceptanceBand, RetestPolicy, Signature, SignatureEntry, TestOutcome, ZoneCode};
use analog_signature::router::{RouterConfig, RouterHandle, RouterStore};
use analog_signature::serve::{proto, Reply, RetestItem, RetestRequest, ScoreResult};

/// Counts allocations and reallocations made while the calling thread's
/// `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s preconditions and `System`'s results
// are returned as they are; counting touches only two const-initialized
// thread-local cells, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded from our caller, who upholds `realloc`'s
        // contract for a block `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// `count` signatures of 40 entries each; neighbouring codes differ, so no
/// entry merges away.
fn signatures(count: usize) -> Vec<Signature> {
    (0..count)
        .map(|s| {
            Signature::new(
                1e-6,
                (0..40)
                    .map(|k| SignatureEntry {
                        code: ZoneCode(k),
                        count: 1 + k + s as u32,
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn request_encoding_allocates_once_and_decoding_once_per_signature() {
    let one = signatures(1);
    let many = signatures(256);
    assert!(many.iter().all(|s| s.len() == 40));

    let (encode_one, _) = allocations_of(|| proto::encode_request(7, &one));
    let (encode_many, frame) = allocations_of(|| proto::encode_request(7, &many));
    assert!(
        encode_many <= 2 && encode_many == encode_one,
        "encoding 256 signatures made {encode_many} allocations, one signature {encode_one}"
    );

    let (decode_many, decoded) = allocations_of(|| proto::decode_request(&frame).unwrap());
    assert!(
        decode_many <= many.len() + 4,
        "decoding 256 signatures made {decode_many} allocations"
    );
    assert_eq!(decoded.golden_key, 7);
    assert_eq!(decoded.signatures, many);
}

#[test]
fn a_256_score_response_frame_allocates_at_most_twice() {
    let scores = (0..256u32)
        .map(|i| ScoreResult {
            ndf: f64::from(i) * 1e-3,
            peak_hamming: i % 7,
            outcome: if i % 3 == 0 {
                TestOutcome::Fail
            } else {
                TestOutcome::Pass
            },
        })
        .collect();
    let response = Reply::Results(scores);
    // The frame's first buffer, then one reserve for the whole score list.
    let (allocations, frame) = allocations_of(|| proto::encode_response(&response));
    assert_eq!(frame.len(), 3_347);
    assert!(allocations <= 2, "encoding 256 scores made {allocations} allocations");
    assert_eq!(proto::decode_response(&frame).unwrap(), response);
}

/// A two-backend in-process router holding `golden` under key 7.
fn routed(golden: &Signature) -> RouterHandle {
    let router = RouterHandle::spawn(2, RouterStore::new(), RouterConfig::default()).unwrap();
    router
        .push_golden(7, golden.clone(), AcceptanceBand::new(0.05).unwrap())
        .unwrap();
    router
}

#[test]
fn a_routed_in_process_screen_allocates_as_often_for_256_signatures_as_for_one() {
    let many = signatures(256);
    let router = routed(&many[0]);
    // Warm up: first calls register metric handles and thread-locals.
    router.screen(7, &many).unwrap();
    router.screen(7, &many[..1]).unwrap();

    let (one, scored_one) = allocations_of(|| router.screen(7, &many[..1]).unwrap());
    let (all, scored_all) = allocations_of(|| router.screen(7, &many).unwrap());
    assert_eq!((scored_one.len(), scored_all.len()), (1, 256));
    assert_eq!(
        all, one,
        "a routed screen of 256 signatures made {all} allocations, of one signature {one}"
    );
}

#[test]
fn a_routed_in_process_retest_allocates_fewer_times_than_the_signatures_it_carries() {
    // 36 devices with six repeats and one with three: 37 devices carrying
    // 256 signatures. Under the guard band no device is marginal, so no
    // `retest.cap_hit` event (whose fields allocate) fires.
    let mut pool = signatures(256).into_iter();
    let golden = pool.next().unwrap();
    let router = routed(&golden);
    let items: Vec<RetestItem> = (0..37)
        .map(|device| {
            let initial = if device == 0 {
                golden.clone()
            } else {
                pool.next().unwrap()
            };
            let repeats = pool.by_ref().take(if device < 36 { 6 } else { 3 }).collect();
            RetestItem { initial, repeats }
        })
        .collect();
    let carried: usize = items.iter().map(|item| 1 + item.repeats.len()).sum();
    assert_eq!(carried, 256);
    let request = |devices: usize| RetestRequest {
        golden_key: 7,
        policy: RetestPolicy::new(0.02, vec![2, 6]).unwrap(),
        items: items[..devices].to_vec(),
    };
    let (one, all) = (request(1), request(37));
    router.screen_retest(&all).unwrap();
    router.screen_retest(&one).unwrap();

    let (made_one, scores_one) = allocations_of(|| router.screen_retest(&one).unwrap());
    let (made, scores) = allocations_of(|| router.screen_retest(&all).unwrap());
    assert_eq!((scores_one.len(), scores.len()), (1, 37));
    assert!(scores.iter().all(|score| !score.marginal));
    assert!(
        made < carried,
        "a routed retest of {carried} signatures made {made} allocations"
    );
    assert_eq!(
        made, made_one,
        "a routed retest of 37 devices made {made} allocations, of one device {made_one}"
    );
}
