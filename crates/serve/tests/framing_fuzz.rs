//! Satellite: seeded fuzz over the wire protocol's decode path.
//!
//! The daemon reads length-prefixed frames from untrusted sockets, so
//! every malformed byte stream must land in a typed [`ServeError`] —
//! never a panic, never an attempted multi-gigabyte allocation. This
//! mirrors the decode-guard style of `tests/failure_injection.rs` and
//! the `masim-obs` JSON fuzz loop: deterministic splitmix64 mutations,
//! classified outcomes, zero process-level faults.

use masim_obs::json::Value;
use masim_serve::MAX_FRAME_LEN;
use masim_serve::{read_frame, write_frame, Request, ServeError};
use std::io::Cursor;

/// Deterministic splitmix64 stream (same idiom as the obs JSON fuzz).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A valid submit frame's raw bytes, the donor for mutations.
fn donor_frame() -> Vec<u8> {
    let v = Value::Obj(vec![
        ("op".into(), Value::Str("submit".into())),
        ("study".into(), Value::Str("table2".into())),
        ("tiny".into(), Value::Bool(true)),
        ("seed".into(), Value::UInt(7)),
    ]);
    let mut buf = Vec::new();
    write_frame(&mut buf, &v).expect("donor frame encodes");
    buf
}

fn decode(bytes: &[u8]) -> Result<Value, ServeError> {
    read_frame(&mut Cursor::new(bytes))
}

/// Truncating a well-formed frame at every possible cut point yields
/// `Closed` (cut at zero) or `Truncated` — with honest got/want counts
/// — and nothing else.
#[test]
fn every_truncation_is_typed() {
    let frame = donor_frame();
    assert!(decode(&frame).is_ok(), "donor frame must decode");
    for cut in 0..frame.len() {
        match decode(&frame[..cut]) {
            Err(ServeError::Closed) => assert_eq!(cut, 0, "Closed only for an empty stream"),
            Err(ServeError::Truncated { got, want }) => {
                assert!(got < want, "cut {cut}: got {got} !< want {want}");
                assert!(got <= cut, "cut {cut}: claimed more bytes than existed");
            }
            other => panic!("cut {cut}: expected truncation, got {other:?}"),
        }
    }
}

/// Oversized length prefixes — from just past the cap up to u32::MAX —
/// are refused by inspection, before any body allocation.
#[test]
fn oversized_prefixes_are_refused() {
    let mut rng = Rng(0xFEED_FACE_CAFE_BEEF);
    let span = u64::from(u32::MAX) - (MAX_FRAME_LEN + 1);
    for i in 0..64 {
        let len = if i == 0 {
            u64::from(u32::MAX) // the worst claim a u32 prefix can make
        } else {
            MAX_FRAME_LEN + 1 + rng.next() % span
        };
        let mut bytes = (len as u32).to_be_bytes().to_vec();
        // A tiny body: if the decoder ever tried to honor the prefix it
        // would report truncation (or OOM); the guard must fire first.
        bytes.extend_from_slice(b"{}");
        match decode(&bytes) {
            Err(ServeError::FrameTooLarge { len: claimed, max }) => {
                assert_eq!(claimed, len, "iteration {i}");
                assert_eq!(max, MAX_FRAME_LEN, "iteration {i}");
            }
            other => panic!("iteration {i}: prefix {len} not refused: {other:?}"),
        }
    }
}

/// 200 seeded corruptions of prefix and body bytes: every outcome is a
/// typed decode result (frame parses, or a named `ServeError`), with
/// no panic and no allocator abort along the way.
#[test]
fn corrupt_frames_land_in_typed_errors() {
    let donor = donor_frame();
    let mut rng = Rng(0x0123_4567_89AB_CDEF);
    let mut outcomes = [0usize; 5]; // ok, too-large, truncated, bad-json, closed
    for i in 0..200 {
        let mut bytes = donor.clone();
        for _ in 0..=(rng.next() % 6) {
            let pos = (rng.next() % bytes.len() as u64) as usize;
            bytes[pos] = (rng.next() & 0xff) as u8;
        }
        // Sometimes also shear the tail, compounding the corruption.
        if rng.next().is_multiple_of(3) {
            let keep = (rng.next() % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(keep);
        }
        let slot = match decode(&bytes) {
            Ok(_) => 0,
            Err(ServeError::FrameTooLarge { len, max }) => {
                assert!(len > max, "iteration {i}: spurious too-large");
                1
            }
            Err(ServeError::Truncated { got, want }) => {
                assert!(got < want, "iteration {i}: inconsistent truncation");
                2
            }
            Err(ServeError::BadJson { .. }) => 3,
            Err(ServeError::Closed) => 4,
            Err(other) => panic!("iteration {i}: unexpected error class {other:?}"),
        };
        outcomes[slot] += 1;
    }
    // The corpus must actually exercise the guards, not skate through.
    assert!(outcomes[1] > 0, "no oversized prefixes generated: {outcomes:?}");
    assert!(outcomes[2] > 0, "no truncations generated: {outcomes:?}");
    assert!(outcomes[3] > 0, "no JSON corruption survived framing: {outcomes:?}");
}

/// Valid JSON that is not a valid request: `Request::from_value` must
/// answer with `BadRequest` (the connection-preserving class), never
/// panic, for 200 seeded structural shuffles.
#[test]
fn malformed_requests_are_bad_requests() {
    let ops = ["submit", "status", "results", "cancel", "shutdown", "bogus", ""];
    let studies = ["table2", "corpus", "banana", ""];
    let mut rng = Rng(0xDEAD_BEEF_0BAD_F00D);
    let mut rejected = 0u32;
    for i in 0..200 {
        let mut fields: Vec<(String, Value)> = Vec::new();
        if !rng.next().is_multiple_of(8) {
            let op = ops[(rng.next() % ops.len() as u64) as usize];
            // Sometimes the right key with a wrong type.
            let val = if rng.next().is_multiple_of(5) {
                Value::UInt(rng.next() % 100)
            } else {
                Value::Str(op.into())
            };
            fields.push(("op".into(), val));
        }
        if rng.next().is_multiple_of(2) {
            let study = studies[(rng.next() % studies.len() as u64) as usize];
            fields.push(("study".into(), Value::Str(study.into())));
        }
        if rng.next().is_multiple_of(3) {
            fields.push(("indices".into(), Value::Arr(vec![Value::Str("three".into())])));
        }
        if rng.next().is_multiple_of(3) {
            fields.push(("session".into(), Value::Null));
        }
        if rng.next().is_multiple_of(4) {
            fields.push(("tiny".into(), Value::Str("yes".into())));
        }
        let v = if rng.next().is_multiple_of(10) { Value::Arr(vec![]) } else { Value::Obj(fields) };
        match Request::from_value(&v) {
            Ok(_) => {}
            Err(ServeError::BadRequest { .. }) => rejected += 1,
            Err(other) => panic!("iteration {i}: wrong error class {other:?} for {v:?}"),
        }
    }
    assert!(rejected > 50, "corpus too tame: only {rejected}/200 rejected");
}
