//! Property and concurrency tests for the store: random value trees must
//! round-trip through segments, multi-segment appends must preserve the
//! key→value mapping exactly across a reopen, and racing writers must
//! never corrupt each other.

use proptest::prelude::*;
use serde::Value;

use dsmt_store::{fnv1a64, LockFile, Segment, SegmentHeader, Store};

/// A small random [`Value`] generator: scalars at the leaves, arrays and
/// objects down to `depth`. Floats are generated from bits so NaN and
/// infinities occur; object keys are drawn from a tiny pool so interning
/// gets exercised.
fn random_value(rng_bits: u64, depth: u32) -> Value {
    let kind = rng_bits % if depth == 0 { 6 } else { 8 };
    let payload = rng_bits / 8;
    match kind {
        0 => Value::Null,
        1 => Value::Bool(payload.is_multiple_of(2)),
        2 => Value::U64(payload),
        3 => Value::I64(payload as i64),
        4 => {
            let x = f64::from_bits(payload.rotate_left(17));
            Value::F64(x)
        }
        5 => Value::Str(format!("s{}", payload % 7)),
        6 => Value::Array(
            (0..payload % 4)
                .map(|i| random_value(payload.wrapping_mul(i + 3) ^ 0x9e37, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..payload % 4)
                .map(|i| {
                    (
                        format!("k{}", (payload + i) % 5),
                        random_value(payload.wrapping_mul(i + 5) ^ 0x79b9, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// Bit-exact equality via re-encode (Value's PartialEq fails on NaN).
fn bits_equal(a: &Value, b: &Value) -> bool {
    let enc = |v: &Value| {
        let seg = Segment::new(vec![(0, v.clone())]);
        seg.encode()
    };
    enc(a) == enc(b)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsmt-store-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #[test]
    fn segments_round_trip_random_record_batches(
        seeds in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let records: Vec<(u64, Value)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, random_value(s, 3)))
            .collect();
        let seg = Segment::new(records);
        let bytes = seg.encode();
        let back = Segment::decode(&bytes).expect("decode");
        prop_assert_eq!(back.records.len(), seg.records.len());
        for ((ka, va), (kb, vb)) in seg.records.iter().zip(&back.records) {
            prop_assert_eq!(ka, kb);
            prop_assert!(bits_equal(va, vb));
        }
        // Canonical: re-encoding reproduces the bytes.
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = Segment::decode(&bytes);
    }

    #[test]
    fn appended_batches_preserve_the_key_value_mapping_across_reopen(
        case in any::<u64>(),
        batches in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 1..6),
            1..5,
        ),
    ) {
        let dir = temp_dir(&format!("append-{case}"));
        let mut store = Store::open(&dir, 1).expect("open");
        // Publish batches whose keys overlap (key space 0..8): later
        // batches shadow earlier ones, like repeated sweeps over
        // overlapping grids.
        let mut expect: std::collections::HashMap<u64, Value> = Default::default();
        for (b, batch) in batches.iter().enumerate() {
            let records: Vec<(u64, Value)> = batch
                .iter()
                .map(|&s| (s % 8, random_value(s ^ (b as u64) << 40, 2)))
                .collect();
            for (k, v) in &records {
                expect.insert(*k, v.clone());
            }
            store.publish(records).expect("publish");
        }
        let check = |store: &Store| {
            for (k, v) in &expect {
                let got = store.get(*k).expect("key present");
                assert!(bits_equal(&got, v), "key {k} mismatch");
            }
            assert_eq!(store.record_count(), expect.len());
        };
        check(&store);
        // Reload from disk: same mapping.
        let store = Store::open(&dir, 1).expect("reopen");
        check(&store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The v2 key-directory header must fully describe the records region
    /// for *any* batch: parsing the header alone (no record bytes
    /// consulted) recovers every key, a contiguous extent per record, and
    /// a per-record checksum matching the bytes actually stored there.
    #[test]
    fn headers_index_arbitrary_batches_without_decoding_records(
        seq in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let records: Vec<(u64, Value)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, random_value(s, 3)))
            .collect();
        let seg = Segment::new(records);
        let bytes = seg.encode_with_seq(seq);
        let header = SegmentHeader::parse(&bytes).expect("header parses");
        prop_assert_eq!(header.seq, seq);
        prop_assert_eq!(header.entries.len(), seg.records.len());
        let base = header.records_base as usize;
        prop_assert_eq!(
            header.records_len() as usize,
            bytes.len() - base - 8,
            "directory extents must cover the records region exactly",
        );
        for (entry, (key, _)) in header.entries.iter().zip(&seg.records) {
            prop_assert_eq!(entry.key, *key);
            let body = &bytes[base + entry.offset as usize..][..entry.len as usize];
            prop_assert_eq!(entry.fnv, fnv1a64(body), "per-record checksum");
        }
        // The full decode agrees with the header's view of the file.
        let (back, back_seq) = Segment::decode_with_seq(&bytes).expect("decode");
        prop_assert_eq!(back_seq, seq);
        prop_assert_eq!(back.records.len(), header.entries.len());
    }

    /// Flipping any single byte of the header region (everything the
    /// header checksum covers, prelude included) is fail-stop: the header
    /// no longer parses and the segment no longer decodes. No panic, no
    /// silently wrong index.
    #[test]
    fn corrupting_any_header_byte_is_fail_stop(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        victim in any::<u64>(),
    ) {
        let records: Vec<(u64, Value)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, random_value(s, 2)))
            .collect();
        let seg = Segment::new(records);
        let mut bytes = seg.encode_with_seq(9);
        let header = SegmentHeader::parse(&bytes).expect("pristine header parses");
        // Hashed region + its trailing checksum = [0, records_base).
        let pos = (victim % header.records_base) as usize;
        bytes[pos] ^= 0x40;
        prop_assert!(SegmentHeader::parse(&bytes).is_err(), "byte {pos}");
        prop_assert!(Segment::decode(&bytes).is_err(), "byte {pos}");
    }

    /// A header-indexed open must agree, bit for bit, with two oracles on
    /// every key: a full [`Segment::decode`] of the file that
    /// `segment_name_of(key)` names, and this test's own last-write-wins
    /// model of what it published. Lazy decode is an optimization, never a
    /// semantic change.
    #[test]
    fn indexed_opens_agree_with_full_decode_and_the_publish_model(
        case in any::<u64>(),
        batches in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 1..5),
            1..4,
        ),
    ) {
        let dir = temp_dir(&format!("indexed-oracle-{case}"));
        let mut store = Store::open(&dir, 1).expect("open");
        let mut model: std::collections::HashMap<u64, Value> = Default::default();
        for (b, batch) in batches.iter().enumerate() {
            let records: Vec<(u64, Value)> = batch
                .iter()
                .map(|&s| (s % 6, random_value(s ^ (b as u64) << 40, 2)))
                .collect();
            for (k, v) in &records {
                model.insert(*k, v.clone());
            }
            store.publish(records).expect("publish");
        }
        let indexed = Store::open(&dir, 1).expect("indexed open");
        prop_assert_eq!(indexed.record_count(), model.len());
        for (&k, want) in &model {
            let got = indexed.get(k).expect("indexed has key");
            prop_assert!(bits_equal(&got, want), "key {k} diverged from the model");
            let name = indexed.segment_name_of(k).expect("a winning segment");
            let raw = std::fs::read(dir.join("segments").join(name)).expect("segment file");
            let full = Segment::decode(&raw).expect("the winning segment verifies");
            // Within one segment a repeated key resolves to its last write.
            let (_, decoded) = full
                .records
                .iter()
                .rev()
                .find(|(key, _)| *key == k)
                .expect("the winning segment holds the key");
            prop_assert!(bits_equal(&got, decoded), "key {k} diverged from {name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A hand-crafted v2 segment whose directory claims more record bytes
/// than the file holds — with *valid* header and file checksums, so only
/// the bounds check can catch it — must be rejected both by the segment
/// decoder and by a store open.
#[test]
fn directory_extents_past_the_records_region_are_rejected() {
    // magic | version 2 | seq | n_strings=0 | n_records=1
    // | entry { key, offset 0, len 64, fnv } | header_fnv
    // | 8-byte records region (too short for len 64) | file_fnv
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"DSRS");
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes()); // seq
    bytes.push(0); // n_strings = 0
    bytes.push(1); // n_records = 1
    bytes.extend_from_slice(&7u64.to_le_bytes()); // key
    bytes.push(0); // offset uvarint
    bytes.push(64); // len uvarint: claims 64 bytes
    let body = [0u8; 8]; // ...but only 8 exist
    bytes.extend_from_slice(&fnv1a64(&body).to_le_bytes()); // record fnv
    let header_fnv = fnv1a64(&bytes);
    bytes.extend_from_slice(&header_fnv.to_le_bytes());
    bytes.extend_from_slice(&body);
    let file_fnv = fnv1a64(&bytes);
    bytes.extend_from_slice(&file_fnv.to_le_bytes());

    // The header itself parses (offsets are contiguous, checksums hold) —
    // the lie is only visible against the file length.
    let header = SegmentHeader::parse(&bytes).expect("header checksums hold");
    assert_eq!(header.records_len(), 64);
    assert!(Segment::decode(&bytes).is_err(), "decode must bounds-check");

    let dir = temp_dir("oob-extent");
    drop(Store::open(&dir, 1).expect("create"));
    let name = format!("seg-{:016x}.dsrs", fnv1a64(&bytes));
    std::fs::write(dir.join("segments").join(name), &bytes).unwrap();
    let err = Store::open(&dir, 1).expect_err("open must fail-stop");
    assert!(
        err.to_string().contains("seg-"),
        "error names the bad segment: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two writers publishing concurrently into one store directory (separate
/// `Store` handles, like two shard processes sharing a cache mount) must
/// both land, verify, and be visible after a refresh.
#[test]
fn concurrent_writers_never_corrupt_the_store() {
    let dir = temp_dir("two-writers");
    drop(Store::open(&dir, 1).expect("create"));
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let dir = &dir;
            let barrier = &barrier;
            s.spawn(move || {
                let mut store = Store::open(dir, 1).expect("open");
                barrier.wait();
                for batch in 0..8u64 {
                    let key = w * 1000 + batch;
                    store
                        .publish(vec![(key, Value::U64(key))])
                        .expect("publish");
                }
            });
        }
    });
    let mut store = Store::open(&dir, 1).expect("reopen verifies every segment");
    assert_eq!(store.record_count(), 16);
    for w in 0..2u64 {
        for batch in 0..8u64 {
            let key = w * 1000 + batch;
            assert_eq!(store.get(key), Some(Value::U64(key)), "key {key}");
        }
    }
    // A live handle sees the other writer's segments after refresh.
    assert_eq!(store.refresh().expect("refresh"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold opens racing on one fresh directory: every opener writes the
/// `STORE.json` marker, and all of them must succeed and agree.
#[test]
fn racing_cold_opens_of_one_fresh_directory_all_succeed() {
    let dir = temp_dir("cold-open-race");
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (dir, barrier) = (&dir, &barrier);
            s.spawn(move || {
                barrier.wait();
                Store::open(dir, 1).expect("racing cold open");
            });
        }
    });
    assert_eq!(Store::open(&dir, 1).expect("reopen").record_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing claimants over the store's lock directory: exactly one wins per
/// name, every loser sees the claim, and release frees it — the contract
/// the shard `--missing` recovery path depends on.
#[test]
fn racing_store_claims_hand_out_each_name_once() {
    let dir = temp_dir("claims");
    let store = Store::open(&dir, 1).expect("open");
    let winners = std::sync::Mutex::new(Vec::new());
    let barrier = std::sync::Barrier::new(6);
    std::thread::scope(|s| {
        for worker in 0..6usize {
            let store = &store;
            let winners = &winners;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for name in ["shard-0", "shard-1", "shard-2"] {
                    if let Ok(Some(guard)) = LockFile::acquire(store.locks_dir(), name) {
                        winners.lock().unwrap().push((name, worker));
                        // Hold until the scope ends so no release/re-claim
                        // during the race.
                        std::mem::forget(guard);
                    }
                }
            });
        }
    });
    let mut won = winners.into_inner().unwrap();
    won.sort();
    let names: Vec<&str> = won.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, vec!["shard-0", "shard-1", "shard-2"]);
    let _ = std::fs::remove_dir_all(&dir);
}
