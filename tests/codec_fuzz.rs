//! The two binary codecs that read bytes from outside the process,
//! under structured corruption: the `NSconfig` blob decoder and the
//! store-file header (`SSFEAT01` feature files, `SSGRPH01` graph files).
//! Every truncated, miscounted, mutated or random input must come back
//! as a typed error or as exactly what its bytes say — never a panic,
//! never an abort (an allocation sized by an unchecked count aborts the
//! process rather than unwinding).
//!
//! The inputs are drawn from the vendored strategies with a seeded
//! [`TestRng`], so a failure reproduces exactly.

use proptest::collection;
use proptest::prelude::*;
use proptest::TestRng;
use smartsage::core::nsconfig::{NsConfig, NsConfigError, TargetDescriptor};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::store::file::HEADER_BYTES;
use smartsage::store::{
    write_feature_file, write_graph_file, ScratchFile, SharedCsrFile, SharedFileStore, StoreError,
};
use std::path::Path;

const CASES: u32 = 64;

/// A config with a valid encoding, drawn from `rng`.
fn valid_blob(rng: &mut TestRng) -> NsConfig {
    let fanouts = collection::vec(any::<u16>(), 0..5).sample(rng);
    let targets = collection::vec(
        (any::<u32>(), any::<u64>(), any::<u16>(), any::<u64>()),
        0..12,
    )
    .sample(rng)
    .into_iter()
    .map(|(node, lba, offset_in_block, degree)| TargetDescriptor {
        node: NodeId::new(node),
        lba,
        offset_in_block,
        degree,
    })
    .collect();
    NsConfig {
        seed: rng.next_u64(),
        fanouts,
        targets,
    }
}

/// The empty config's blob: the 20-byte header and nothing behind it.
fn empty_blob() -> Vec<u8> {
    let empty = NsConfig {
        seed: 0,
        fanouts: Vec::new(),
        targets: Vec::new(),
    };
    empty.encode()
}

/// `bytes` with the little-endian `u32` at `at` replaced by `value`.
fn with_u32(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    out
}

#[test]
fn nsconfig_decode_never_trusts_the_blob() {
    let mut rng = TestRng::from_name(concat!(module_path!(), "::nsconfig"));
    // The 20-byte header alone, claiming the most targets a count can.
    let header = with_u32(&empty_blob(), 16, u32::MAX);
    assert_eq!(NsConfig::decode(&header), Err(NsConfigError::Truncated));
    for case in 0..CASES {
        let cfg = valid_blob(&mut rng);
        let bytes = cfg.encode();
        assert_eq!(NsConfig::decode(&bytes).as_ref(), Ok(&cfg), "case {case}");
        for cut in 0..bytes.len() {
            let got = NsConfig::decode(&bytes[..cut]);
            assert_eq!(got, Err(NsConfigError::Truncated), "case {case} cut {cut}");
        }
        // Every count past the bytes behind it: one more target than the
        // blob holds, a few random ones, and the largest.
        let held = cfg.targets.len() as u32;
        let draws = (0..4).map(|_| (held + 1..u32::MAX).sample(&mut rng));
        for count in [held + 1, u32::MAX].into_iter().chain(draws) {
            let got = NsConfig::decode(&with_u32(&bytes, 16, count));
            assert_eq!(
                got,
                Err(NsConfigError::Truncated),
                "case {case} count {count}"
            );
        }
        let fanouts = cfg.fanouts.len() as u16;
        for count in [fanouts + 1, u16::MAX] {
            let mut blob = bytes.clone();
            blob[6..8].copy_from_slice(&count.to_le_bytes());
            let got = NsConfig::decode(&blob);
            assert_eq!(
                got,
                Err(NsConfigError::Truncated),
                "case {case} fanouts {count}"
            );
        }
    }
    // Random bytes, half of them behind a valid magic and version so
    // the decoder gets past its first checks. What decodes must be the
    // encoding of what it decoded to, up to trailing bytes.
    let prefix = empty_blob();
    for case in 0..16 * CASES {
        let mut blob = collection::vec(any::<u8>(), 0..200).sample(&mut rng);
        if case % 2 == 0 && blob.len() >= 6 {
            blob[..6].copy_from_slice(&prefix[..6]);
        }
        if let Ok(cfg) = NsConfig::decode(&blob) {
            assert_eq!(cfg.encode(), blob[..cfg.encoded_len()], "case {case}");
        }
    }
}

/// Field `i` of a store-file header (after the 8-byte magic).
fn field(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[8 + 8 * i..16 + 8 * i].try_into().unwrap())
}

/// Whether `err` is one of the typed open failures, naming `path`.
fn names_the_file(err: &StoreError, path: &Path) -> bool {
    match err {
        StoreError::BadMagic { path: p }
        | StoreError::BadHeader { path: p, .. }
        | StoreError::Truncated { path: p, .. }
        | StoreError::CorruptGraph { path: p, .. } => p == path,
        _ => false,
    }
}

/// Opens every truncation of the valid file `bytes`, and every
/// single-byte change to its header, through `open`; `check` judges a
/// successful open against the header bytes it was opened from. Each
/// byte of the magic and the fields is tried at all 255 other values;
/// each byte of the zero padding behind them, which no open reads, at
/// three seeded ones.
fn fuzz_header<S>(
    tag: &str,
    bytes: &[u8],
    fields: usize,
    open: impl Fn(&Path) -> Result<S, StoreError>,
    check: impl Fn(&S, &[u8]),
) {
    let file = ScratchFile::new(tag);
    let path = file.path();
    for cut in 0..bytes.len() {
        std::fs::write(path, &bytes[..cut]).unwrap();
        match open(path) {
            Err(StoreError::Truncated {
                path: p, actual, ..
            }) => {
                assert_eq!((p.as_path(), actual), (path, cut as u64), "{tag} cut {cut}");
            }
            Err(e) => panic!("{tag} cut {cut}: not a truncation: {e}"),
            Ok(_) => panic!("{tag} cut {cut}: a truncated file opened"),
        }
    }
    let mut rng = TestRng::from_name(&format!("{}::{tag}", module_path!()));
    let mut mutated = bytes.to_vec();
    for at in 0..HEADER_BYTES as usize {
        let values: Vec<u8> = match at < 8 + 8 * fields {
            true => (0..=255).filter(|&v| v != bytes[at]).collect(),
            false => (0..3).map(|_| (1..u8::MAX).sample(&mut rng)).collect(),
        };
        for value in values {
            mutated[at] = value;
            std::fs::write(path, &mutated).unwrap();
            match open(path) {
                Ok(store) => check(&store, &mutated),
                Err(e) => assert!(names_the_file(&e, path), "{tag} byte {at} = {value}: {e}"),
            }
        }
        mutated[at] = bytes[at];
    }
}

#[test]
fn a_corrupt_store_file_header_is_a_typed_error_naming_the_file() {
    let features = ScratchFile::new("fuzz-feat-src");
    write_feature_file(features.path(), &FeatureTable::new(3, 4, 0xF22), 10).unwrap();
    let bytes = std::fs::read(features.path()).unwrap();
    let (dim, nodes) = (field(&bytes, 0), field(&bytes, 1));
    fuzz_header(
        "fuzz-feat",
        &bytes,
        3,
        SharedFileStore::open,
        |s, header| {
            // No length depends on the label count, so a changed count opens
            // as what the header now says; the sized fields cannot change.
            assert_eq!((s.dim() as u64, s.num_nodes() as u64), (dim, nodes));
            assert_eq!(s.num_classes() as u64, field(header, 2));
        },
    );

    let graph = ScratchFile::new("fuzz-graph-src");
    let edges = (0..12u32).flat_map(|v| (0..v % 4).map(move |k| (v, (v + k + 1) % 12)));
    write_graph_file(graph.path(), &CsrGraph::from_edges(12, edges)).unwrap();
    let bytes = std::fs::read(graph.path()).unwrap();
    let (nodes, edges) = (field(&bytes, 0), field(&bytes, 1));
    fuzz_header("fuzz-graph", &bytes, 2, SharedCsrFile::open, |s, _| {
        assert_eq!((s.num_nodes() as u64, s.num_edges()), (nodes, edges));
    });
}
