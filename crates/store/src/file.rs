//! The `SSFEAT01` feature-file format: layout, writers, and the
//! validating open.
//!
//! # On-disk layout
//!
//! A feature file is one page-aligned header followed by the dense
//! row-major feature matrix (mirroring the on-SSD graph layout of
//! [`smartsage_hostio::layout`], where the edge array starts
//! block-aligned after the offset table):
//!
//! ```text
//! offset 0      magic  "SSFEAT01"            (8 bytes)
//! offset 8      dim         u64 LE
//! offset 16     num_nodes   u64 LE
//! offset 24     num_classes u64 LE
//! offset 32     zero padding to 4096
//! offset 4096   node 0 row: dim × f32 LE
//!               node 1 row …
//! ```
//!
//! Node `i`'s row lives at byte `4096 + i·dim·4`; the file is exactly
//! `4096 + num_nodes·dim·4` bytes. A file whose length disagrees with
//! its header fails to open with [`StoreError::Truncated`] naming the
//! file and the expected length. Rows are read through
//! [`SharedFileStore`](crate::SharedFileStore).

use crate::error::StoreError;
use smartsage_graph::{FeatureTable, NodeId};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a feature file (versioned).
pub const FEATURE_FILE_MAGIC: [u8; 8] = *b"SSFEAT01";

/// Bytes reserved for the header; the feature matrix starts here, so
/// rows are page-aligned with respect to the default 4 KiB page.
pub const HEADER_BYTES: u64 = 4096;

/// Page geometry and cache budget of one file-backed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStoreOptions {
    /// I/O granularity: reads are issued in whole `page_bytes` units
    /// aligned to multiples of `page_bytes` within the file.
    pub page_bytes: u64,
    /// Page-cache capacity in pages (0 disables caching entirely).
    pub cache_pages: usize,
}

impl Default for FileStoreOptions {
    fn default() -> Self {
        FileStoreOptions {
            page_bytes: 4096,
            cache_pages: 1024,
        }
    }
}

/// Serializes `table`'s first `num_nodes` rows to `path` in the layout
/// above. Overwrites any existing file.
pub fn write_feature_file(
    path: &Path,
    table: &FeatureTable,
    num_nodes: usize,
) -> Result<(), StoreError> {
    write_feature_shard(path, table, 0, num_nodes)
}

/// Serializes the rows of the global node range `start..end` of
/// `table` to `path` as a standalone feature-shard file. The shard
/// file is a perfectly ordinary `SSFEAT01` file holding `end - start`
/// rows at **local** indices — local row `j` is global node
/// `start + j` — so every existing open path validates it unchanged.
/// An empty range writes a valid zero-row file (shards may be empty
/// when there are more shards than nodes). Overwrites any existing
/// file.
pub fn write_feature_shard(
    path: &Path,
    table: &FeatureTable,
    start: usize,
    end: usize,
) -> Result<(), StoreError> {
    assert!(start <= end, "inverted shard range {start}..{end}");
    let io_err = |action: &'static str| {
        move |source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            action,
            source,
        }
    };
    let file = File::create(path).map_err(io_err("create"))?;
    let mut w = BufWriter::new(file);
    let mut header = [0u8; HEADER_BYTES as usize];
    header[0..8].copy_from_slice(&FEATURE_FILE_MAGIC);
    header[8..16].copy_from_slice(&(table.dim() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&((end - start) as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(table.num_classes() as u64).to_le_bytes());
    w.write_all(&header).map_err(io_err("write header"))?;
    let mut row = vec![0.0f32; table.dim()];
    let mut bytes = vec![0u8; table.dim() * 4];
    for i in start..end {
        table.features_into(NodeId::new(i as u32), &mut row);
        for (chunk, v) in bytes.chunks_exact_mut(4).zip(&row) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&bytes).map_err(io_err("write row"))?;
    }
    w.flush().map_err(io_err("flush"))?;
    Ok(())
}

/// An opened, fully validated feature file: the read handle plus its
/// header fields.
#[derive(Debug)]
pub(crate) struct RawFeatureFile {
    pub file: File,
    pub dim: usize,
    pub num_nodes: usize,
    pub num_classes: usize,
    pub file_len: u64,
}

impl RawFeatureFile {
    /// Opens `path`, validating magic, header consistency, and the
    /// exact file length before any row can be read.
    pub fn open(path: &Path) -> Result<RawFeatureFile, StoreError> {
        let io_err = |action: &'static str| {
            move |source: std::io::Error| StoreError::Io {
                path: path.to_path_buf(),
                action,
                source,
            }
        };
        let mut file = File::open(path).map_err(io_err("open"))?;
        let file_len = file.metadata().map_err(io_err("stat"))?.len();
        if file_len < HEADER_BYTES {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                expected: HEADER_BYTES,
                actual: file_len,
            });
        }
        let mut header = [0u8; 32];
        file.read_exact(&mut header)
            .map_err(io_err("read header"))?;
        if header[0..8] != FEATURE_FILE_MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        // ssl::allow(SSL001): `header` is a fixed [u8; 32] and every
        // call site passes at <= 24, so the 8-byte slice always fits.
        let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let dim = field(8);
        let num_nodes = field(16);
        let num_classes = field(24);
        let bad = |reason: String| StoreError::BadHeader {
            path: path.to_path_buf(),
            reason,
        };
        if dim == 0 || dim > u32::MAX as u64 {
            return Err(bad(format!("feature dimension {dim} out of range")));
        }
        if num_classes == 0 {
            return Err(bad("zero label classes".to_string()));
        }
        if num_nodes > u32::MAX as u64 {
            return Err(bad(format!("node count {num_nodes} exceeds u32 ids")));
        }
        // Checked arithmetic: a corrupt header must fail typed, not
        // overflow past the truncation check.
        let expected = num_nodes
            .checked_mul(dim)
            .and_then(|b| b.checked_mul(4))
            .and_then(|b| b.checked_add(HEADER_BYTES))
            .ok_or_else(|| {
                bad(format!(
                    "header implies an impossible size ({num_nodes} nodes × {dim} features)"
                ))
            })?;
        if file_len != expected {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                expected,
                actual: file_len,
            });
        }
        Ok(RawFeatureFile {
            file,
            dim: dim as usize,
            num_nodes: num_nodes as usize,
            num_classes: num_classes as usize,
            file_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeatureStore, InMemoryStore, ScratchFile, SharedFileStore, StoreHandle};
    use std::sync::Arc;

    /// A single-owner store over `path`: one handle on a private
    /// shared store with a one-stripe cache.
    fn open_with(path: &Path, opts: FileStoreOptions) -> Result<StoreHandle, StoreError> {
        let shared = SharedFileStore::open_with(path, opts, 1)?;
        Ok(StoreHandle::new(Arc::new(shared)))
    }

    fn open(path: &Path) -> Result<StoreHandle, StoreError> {
        open_with(path, FileStoreOptions::default())
    }

    fn write_table(
        tag: &str,
        dim: usize,
        classes: usize,
        nodes: usize,
    ) -> (ScratchFile, FeatureTable) {
        let table = FeatureTable::new(dim, classes, 0xBEEF);
        let path = ScratchFile::new(tag);
        write_feature_file(path.path(), &table, nodes).unwrap();
        (path, table)
    }

    #[test]
    fn roundtrip_is_bit_identical_to_the_table() {
        let (path, table) = write_table("roundtrip", 7, 3, 40);
        let mut store = open(path.path()).unwrap();
        let nodes: Vec<NodeId> = [3u32, 0, 39, 3, 17].map(NodeId::new).to_vec();
        let got = store.gather(&nodes).unwrap();
        let want = InMemoryStore::new(table, 40).gather(&nodes).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(store.num_nodes(), 40);
        assert_eq!(store.num_classes(), 3);
        assert_eq!(store.label(NodeId::new(5)), 5 % 3);
    }

    #[test]
    fn repeat_gathers_hit_the_page_cache() {
        let (path, _) = write_table("hits", 16, 2, 64);
        let mut store = open(path.path()).unwrap();
        let nodes: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
        store.gather(&nodes).unwrap();
        let cold = store.stats();
        assert!(cold.pages_read > 0);
        assert!(cold.bytes_read >= cold.pages_read * 4096 - 4096);
        store.gather(&nodes).unwrap();
        let warm = store.stats();
        assert_eq!(
            warm.pages_read, cold.pages_read,
            "second pass reads nothing"
        );
        assert!(warm.page_hits > cold.page_hits);
        assert!(warm.hit_rate() > 0.0);
    }

    #[test]
    fn zero_capacity_cache_rereads_every_time() {
        let (path, _) = write_table("nocache", 8, 2, 16);
        let mut store = open_with(
            path.path(),
            FileStoreOptions {
                page_bytes: 4096,
                cache_pages: 0,
            },
        )
        .unwrap();
        let nodes: Vec<NodeId> = (0..16u32).map(NodeId::new).collect();
        store.gather(&nodes).unwrap();
        let first = store.stats().pages_read;
        store.gather(&nodes).unwrap();
        assert_eq!(store.stats().pages_read, 2 * first);
        assert_eq!(store.stats().page_hits, 0);
    }

    #[test]
    fn odd_page_sizes_still_resolve_identically() {
        let (path, table) = write_table("pagesizes", 5, 2, 33);
        let nodes: Vec<NodeId> = [32u32, 1, 16, 8, 8, 0].map(NodeId::new).to_vec();
        let want = InMemoryStore::new(table, 33).gather(&nodes).unwrap();
        for page_bytes in [512u64, 1024, 4096, 16384, 1 << 20] {
            let mut store = open_with(
                path.path(),
                FileStoreOptions {
                    page_bytes,
                    cache_pages: 3,
                },
            )
            .unwrap();
            let got = store.gather(&nodes).unwrap();
            assert_eq!(got, want, "page size {page_bytes} diverged");
        }
    }

    #[test]
    fn truncated_file_error_names_file_and_expected_length() {
        let (path, _) = write_table("trunc", 8, 2, 20);
        let full = std::fs::metadata(path.path()).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path.path())
            .unwrap();
        f.set_len(full - 13).unwrap();
        drop(f);
        let err = open(path.path()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, StoreError::Truncated { expected, actual, .. }
            if expected == full && actual == full - 13));
        assert!(
            msg.contains(path.path().to_str().unwrap()),
            "message must name the file: {msg}"
        );
        assert!(
            msg.contains(&full.to_string()),
            "message must name the expected length: {msg}"
        );
    }

    #[test]
    fn bad_magic_and_short_header_are_typed() {
        let path = ScratchFile::new("magic");
        std::fs::write(path.path(), vec![0u8; HEADER_BYTES as usize]).unwrap();
        assert!(matches!(
            open(path.path()).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        std::fs::write(path.path(), b"short").unwrap();
        assert!(matches!(
            open(path.path()).unwrap_err(),
            StoreError::Truncated { expected, actual: 5, .. } if expected == HEADER_BYTES
        ));
        let err = open(Path::new("/nonexistent/feat.fbin")).unwrap_err();
        assert!(matches!(err, StoreError::Io { action: "open", .. }));
    }

    #[test]
    fn corrupt_header_fields_are_rejected() {
        let path = ScratchFile::new("header");
        let mut bytes = vec![0u8; HEADER_BYTES as usize];
        bytes[0..8].copy_from_slice(&FEATURE_FILE_MAGIC);
        // dim = 0
        std::fs::write(path.path(), &bytes).unwrap();
        assert!(matches!(
            open(path.path()).unwrap_err(),
            StoreError::BadHeader { .. }
        ));
        // classes = 0 with a valid dim
        bytes[8..16].copy_from_slice(&4u64.to_le_bytes());
        std::fs::write(path.path(), &bytes).unwrap();
        assert!(matches!(
            open(path.path()).unwrap_err(),
            StoreError::BadHeader { .. }
        ));
    }

    #[test]
    fn overflowing_header_size_is_rejected_not_wrapped() {
        // dim and num_nodes individually pass the u32 bound but their
        // product overflows u64: must fail typed, never wrap around the
        // truncation check (release) or panic (debug).
        let path = ScratchFile::new("overflow");
        let mut bytes = vec![0u8; HEADER_BYTES as usize];
        bytes[0..8].copy_from_slice(&FEATURE_FILE_MAGIC);
        bytes[8..16].copy_from_slice(&(1u64 << 31).to_le_bytes()); // dim
        bytes[16..24].copy_from_slice(&(1u64 << 31).to_le_bytes()); // nodes
        bytes[24..32].copy_from_slice(&2u64.to_le_bytes()); // classes
        std::fs::write(path.path(), &bytes).unwrap();
        let err = open(path.path()).unwrap_err();
        assert!(matches!(err, StoreError::BadHeader { .. }), "{err}");
        assert!(err.to_string().contains("impossible size"), "{err}");
    }

    #[test]
    fn out_of_range_node_fails_before_io() {
        let (path, _) = write_table("range", 4, 2, 5);
        let mut store = open(path.path()).unwrap();
        let err = store.gather(&[NodeId::new(5)]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::NodeOutOfRange { num_nodes: 5, .. }
        ));
        assert_eq!(store.stats().bytes_read, 0, "no I/O for invalid gathers");
    }
}
